package output

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"zmapgo/internal/target"
)

// Filter is a compiled ZMap output-filter expression, e.g.
//
//	success = 1 && repeat = 0
//	classification = synack || classification = rst
//	(sport = 80 || sport = 443) && ttl > 32
//
// The grammar matches ZMap's: comparisons (=, !=, <, >, <=, >=) over the
// schema fields, combined with &&, ||, and parentheses. Boolean fields
// compare against 0/1.
type Filter struct {
	root filterNode
	src  string
}

// DefaultFilterExpr is ZMap's default output filter: fresh successes only.
const DefaultFilterExpr = "success = 1 && repeat = 0"

// CompileFilter parses an expression. An empty expression matches all
// records.
func CompileFilter(expr string) (*Filter, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return &Filter{root: matchAll{}, src: ""}, nil
	}
	p := &filterParser{tokens: lexFilter(expr)}
	root, err := p.parseOr()
	if err != nil {
		return nil, fmt.Errorf("output: filter %q: %w", expr, err)
	}
	if !p.atEnd() {
		return nil, fmt.Errorf("output: filter %q: trailing tokens at %q", expr, p.peek())
	}
	return &Filter{root: root, src: expr}, nil
}

// MustCompileFilter is CompileFilter for known-good literals.
func MustCompileFilter(expr string) *Filter {
	f, err := CompileFilter(expr)
	if err != nil {
		panic(err)
	}
	return f
}

// Match reports whether r passes the filter.
func (f *Filter) Match(r Record) bool { return f.root.eval(r) }

// String returns the source expression.
func (f *Filter) String() string { return f.src }

type filterNode interface{ eval(Record) bool }

type matchAll struct{}

func (matchAll) eval(Record) bool { return true }

type andNode struct{ l, r filterNode }

func (n andNode) eval(r Record) bool { return n.l.eval(r) && n.r.eval(r) }

type orNode struct{ l, r filterNode }

func (n orNode) eval(r Record) bool { return n.l.eval(r) || n.r.eval(r) }

type cmpNode struct {
	field string
	op    string
	sval  string
	nval  float64
	isNum bool
}

// fieldValue extracts a record field as (string, number, numeric?).
func fieldValue(r Record, field string) (string, float64, bool, error) {
	switch field {
	case "saddr":
		// The integer it is, exact in a float64.
		return "", float64(r.IP), true, nil
	case "classification":
		return r.Classification, 0, false, nil
	case "sport":
		return "", float64(r.Sport), true, nil
	case "ttl":
		return "", float64(r.TTL), true, nil
	case "timestamp":
		return "", r.Timestamp, true, nil
	case "success":
		return "", b2f(r.Success), true, nil
	case "repeat":
		return "", b2f(r.Repeat), true, nil
	case "cooldown":
		return "", b2f(r.InCooldown), true, nil
	default:
		return "", 0, false, fmt.Errorf("unknown field %q", field)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (n cmpNode) eval(r Record) bool {
	s, num, isNum, err := fieldValue(r, n.field)
	if err != nil {
		return false // unreachable: validated at compile time
	}
	if isNum {
		if !n.isNum {
			return false
		}
		switch n.op {
		case "=":
			return num == n.nval
		case "!=":
			return num != n.nval
		case "<":
			return num < n.nval
		case ">":
			return num > n.nval
		case "<=":
			return num <= n.nval
		case ">=":
			return num >= n.nval
		}
		return false
	}
	switch n.op {
	case "=":
		return s == n.sval
	case "!=":
		return s != n.sval
	}
	return false
}

// --- lexer ---

func lexFilter(src string) []string {
	var tokens []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '(' || c == ')':
			tokens = append(tokens, string(c))
			i++
		case c == '&' && i+1 < len(src) && src[i+1] == '&':
			tokens = append(tokens, "&&")
			i += 2
		case c == '|' && i+1 < len(src) && src[i+1] == '|':
			tokens = append(tokens, "||")
			i += 2
		case c == '=':
			tokens = append(tokens, "=")
			i++
		case c == '!' && i+1 < len(src) && src[i+1] == '=':
			tokens = append(tokens, "!=")
			i += 2
		case c == '<' || c == '>':
			if i+1 < len(src) && src[i+1] == '=' {
				tokens = append(tokens, string(c)+"=")
				i += 2
			} else {
				tokens = append(tokens, string(c))
				i++
			}
		default:
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) ||
				src[j] == '.' || src[j] == '_' || src[j] == '-') {
				j++
			}
			if j == i {
				// Unknown character: emit as its own token; the parser
				// will reject it with position context.
				j = i + 1
			}
			tokens = append(tokens, src[i:j])
			i = j
		}
	}
	return tokens
}

// --- parser ---

type filterParser struct {
	tokens []string
	pos    int
}

func (p *filterParser) atEnd() bool { return p.pos >= len(p.tokens) }

func (p *filterParser) peek() string {
	if p.atEnd() {
		return ""
	}
	return p.tokens[p.pos]
}

func (p *filterParser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *filterParser) parseOr() (filterNode, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek() == "||" {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = orNode{left, right}
	}
	return left, nil
}

func (p *filterParser) parseAnd() (filterNode, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.peek() == "&&" {
		p.next()
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = andNode{left, right}
	}
	return left, nil
}

var validOps = map[string]bool{"=": true, "!=": true, "<": true, ">": true, "<=": true, ">=": true}

func (p *filterParser) parseTerm() (filterNode, error) {
	if p.peek() == "(" {
		p.next()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.next() != ")" {
			return nil, fmt.Errorf("missing close paren")
		}
		return inner, nil
	}
	field := p.next()
	if field == "" {
		return nil, fmt.Errorf("expected field name")
	}
	if _, _, _, err := fieldValue(Record{}, field); err != nil {
		return nil, err
	}
	op := p.next()
	if !validOps[op] {
		return nil, fmt.Errorf("bad operator %q after field %q", op, field)
	}
	val := p.next()
	if val == "" {
		return nil, fmt.Errorf("missing value after %q %s", field, op)
	}
	node := cmpNode{field: field, op: op, sval: val}
	if field == "saddr" {
		// Parsed once here, so a malformed address is a compile error
		// instead of a filter that silently matches nothing.
		if op != "=" && op != "!=" {
			return nil, fmt.Errorf("field %q supports only = and !=", field)
		}
		ip, err := target.ParseIPv4(val)
		if err != nil {
			return nil, fmt.Errorf("field %q needs a dotted-quad address: %w", field, err)
		}
		node.nval, node.isNum = float64(ip), true
		return node, nil
	}
	if n, err := strconv.ParseFloat(val, 64); err == nil {
		node.nval = n
		node.isNum = true
	}
	// String fields only support equality.
	if _, _, isNum, _ := fieldValue(Record{}, field); !isNum {
		if op != "=" && op != "!=" {
			return nil, fmt.Errorf("field %q supports only = and !=", field)
		}
	} else if !node.isNum {
		return nil, fmt.Errorf("field %q needs a numeric value, got %q", field, val)
	}
	return node, nil
}
