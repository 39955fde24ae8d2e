package target

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Constraint is the allowlist-minus-blocklist subset of IPv4 a scan may
// probe. Deny rules always win over allow rules, matching ZMap's
// semantics (the blocklist is applied after the allowlist regardless of
// insertion order).
//
// Rules accumulate as CIDR intervals; Finalize (called implicitly by the
// query methods) flattens them into sorted disjoint [start, end)
// intervals with cumulative counts so Count, At, and Excluded are cheap.
type Constraint struct {
	defaultAllow bool
	allows       []interval
	denies       []interval

	final    bool
	flat     []interval // disjoint, sorted eligible intervals
	cum      []uint64   // cum[i] = eligible addresses before flat[i]
	count    uint64     // total eligible addresses
	universe uint64     // addresses allowed before denies applied
}

// interval is [start, end) over the 33-bit range [0, 2^32].
type interval struct{ start, end uint64 }

// NewConstraint creates a constraint. With defaultAllow true the entire
// IPv4 space is eligible until denied; with false, nothing is eligible
// until allowed.
func NewConstraint(defaultAllow bool) *Constraint {
	return &Constraint{defaultAllow: defaultAllow}
}

// Allow adds the CIDR block base/bits to the allowlist.
func (c *Constraint) Allow(base uint32, bits int) {
	c.addRule(&c.allows, base, bits)
}

// Deny adds the CIDR block base/bits to the blocklist. Denied addresses
// are never probed even when also allowed.
func (c *Constraint) Deny(base uint32, bits int) {
	c.addRule(&c.denies, base, bits)
}

func (c *Constraint) addRule(rules *[]interval, base uint32, bits int) {
	if bits < 0 {
		bits = 0
	}
	if bits > 32 {
		bits = 32
	}
	start := uint64(base & prefixMask(bits))
	*rules = append(*rules, interval{start, start + 1<<(32-bits)})
	c.final = false
}

// AllowCIDR parses "a.b.c.d/len" (or a bare address) into the allowlist.
func (c *Constraint) AllowCIDR(s string) error {
	base, bits, err := parseCIDR(s)
	if err != nil {
		return err
	}
	c.Allow(base, bits)
	return nil
}

// DenyCIDR parses "a.b.c.d/len" (or a bare address) into the blocklist.
func (c *Constraint) DenyCIDR(s string) error {
	base, bits, err := parseCIDR(s)
	if err != nil {
		return err
	}
	c.Deny(base, bits)
	return nil
}

// ReadBlocklist reads a ZMap-format blocklist — one CIDR per line, '#'
// starts a comment, trailing annotations after whitespace are ignored —
// and hands every entry to deny (a Constraint's DenyCIDR, say), stopping
// at its first error. It returns the number of entries accepted.
func ReadBlocklist(r io.Reader, deny func(cidr string) error) (int, error) {
	scanner := bufio.NewScanner(r)
	n, line := 0, 0
	for scanner.Scan() {
		line++
		text := scanner.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		if err := deny(fields[0]); err != nil {
			return n, fmt.Errorf("target: blocklist line %d: %w", line, err)
		}
		n++
	}
	return n, scanner.Err()
}

// mergeIntervals sorts and coalesces overlapping/adjacent intervals.
func mergeIntervals(in []interval) []interval {
	if len(in) == 0 {
		return nil
	}
	sorted := append([]interval(nil), in...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	out := sorted[:1]
	for _, iv := range sorted[1:] {
		last := &out[len(out)-1]
		if iv.start <= last.end {
			if iv.end > last.end {
				last.end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// subtract removes the (merged) deny intervals from the (merged) allow
// intervals.
func subtract(allow, deny []interval) []interval {
	var out []interval
	d := 0
	for _, a := range allow {
		cur := a.start
		for d < len(deny) && deny[d].end <= cur {
			d++
		}
		for i := d; i < len(deny) && deny[i].start < a.end; i++ {
			if deny[i].start > cur {
				out = append(out, interval{cur, deny[i].start})
			}
			if deny[i].end > cur {
				cur = deny[i].end
			}
		}
		if cur < a.end {
			out = append(out, interval{cur, a.end})
		}
	}
	return out
}

// Finalize flattens the rule set. It is idempotent and called implicitly
// by Count, At, and Excluded; adding rules after Finalize re-flattens on
// the next query.
func (c *Constraint) Finalize() {
	if c.final {
		return
	}
	allowed := mergeIntervals(c.allows)
	if c.defaultAllow {
		allowed = []interval{{0, 1 << 32}}
	}
	c.universe = 0
	for _, iv := range allowed {
		c.universe += iv.end - iv.start
	}
	c.flat = subtract(allowed, mergeIntervals(c.denies))
	c.cum = make([]uint64, len(c.flat))
	c.count = 0
	for i, iv := range c.flat {
		c.cum[i] = c.count
		c.count += iv.end - iv.start
	}
	c.final = true
}

// Count returns the number of eligible addresses.
func (c *Constraint) Count() uint64 {
	c.Finalize()
	return c.count
}

// At returns the idx-th eligible address in ascending order. idx must be
// in [0, Count()).
func (c *Constraint) At(idx uint64) uint32 {
	c.Finalize()
	i := sort.Search(len(c.cum), func(i int) bool { return c.cum[i] > idx }) - 1
	return uint32(c.flat[i].start + (idx - c.cum[i]))
}

// Digest returns a stable hex digest of the finalized eligible address
// set (the flattened allow-minus-deny intervals). Two constraints that
// admit exactly the same addresses digest identically regardless of how
// their rules were written, which is what checkpoint fingerprinting
// needs: resuming a scan against a different target set must be a hard
// error, not a silently wrong scan.
func (c *Constraint) Digest() string {
	c.Finalize()
	h := sha256.New()
	var buf [16]byte
	for _, iv := range c.flat {
		binary.BigEndian.PutUint64(buf[0:8], iv.start)
		binary.BigEndian.PutUint64(buf[8:16], iv.end)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Excluded reports how many allowlisted addresses the blocklist removed
// and the excluded fraction of the allowlisted universe.
func (c *Constraint) Excluded() (uint64, float64) {
	c.Finalize()
	excluded := c.universe - c.count
	if c.universe == 0 {
		return 0, 0
	}
	return excluded, float64(excluded) / float64(c.universe)
}
