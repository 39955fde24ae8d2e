// Package output implements ZMap's result pipeline, following the §5
// lessons verbatim:
//
//   - only well-worn text interfaces — Text, CSV, and JSON Lines — after
//     the database-specific output modules proved to be liabilities and
//     were removed ("Tools Not Frameworks");
//   - a static, fully typed record schema: every field has one type that
//     never depends on another field's value ("Static Types and Output
//     Schema");
//   - per-record streaming, so results can be piped into downstream tools
//     while a scan runs; and
//   - output filters in ZMap's expression syntax (e.g.
//     "success = 1 && repeat = 0") so callers choose which classifications
//     reach the stream.
package output

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"zmapgo/internal/target"
)

// Record is one scan result. The field set is fixed and each field is a
// single static type (the schema lesson from §5); Schema() documents it
// machine-readably. The responder travels as the integer the receive
// path already holds and is rendered as a dotted quad only in the row
// bytes, so building a Record allocates nothing.
type Record struct {
	IP             uint32 // responding address, host byte order; saddr in the schema
	Sport          uint16
	Classification string
	Success        bool
	Repeat         bool
	InCooldown     bool
	TTL            uint8
	Timestamp      float64 // seconds since scan start
}

// NewRecord builds a Record from raw classifier output.
func NewRecord(ip uint32, port uint16, class string, success, repeat, cooldown bool, ttl uint8, elapsed time.Duration) Record {
	return Record{
		IP:             ip,
		Sport:          port,
		Classification: class,
		Success:        success,
		Repeat:         repeat,
		InCooldown:     cooldown,
		TTL:            ttl,
		Timestamp:      elapsed.Seconds(),
	}
}

// Saddr returns the responder as a dotted quad, the schema's saddr.
func (r Record) Saddr() string { return target.FormatIPv4(r.IP) }

// MarshalJSON renders the record as its JSON Lines row, without the
// newline, so json.Marshal agrees with the result stream.
func (r Record) MarshalJSON() ([]byte, error) {
	row := appendJSONL(nil, r)
	return row[:len(row)-1], nil
}

// UnmarshalJSON reads one JSON Lines row back, for consumers of the
// result stream.
func (r *Record) UnmarshalJSON(data []byte) error {
	var row struct {
		Saddr          string  `json:"saddr"`
		Sport          uint16  `json:"sport"`
		Classification string  `json:"classification"`
		Success        bool    `json:"success"`
		Repeat         bool    `json:"repeat"`
		InCooldown     bool    `json:"cooldown"`
		TTL            uint8   `json:"ttl"`
		Timestamp      float64 `json:"timestamp"`
	}
	if err := json.Unmarshal(data, &row); err != nil {
		return err
	}
	ip, err := target.ParseIPv4(row.Saddr)
	if err != nil {
		return fmt.Errorf("output: record saddr: %w", err)
	}
	*r = Record{ip, row.Sport, row.Classification, row.Success, row.Repeat, row.InCooldown, row.TTL, row.Timestamp}
	return nil
}

// FieldDoc describes one schema field.
type FieldDoc struct {
	Name string `json:"name"`
	Type string `json:"type"`
	Doc  string `json:"doc"`
}

// Schema returns the machine-readable record schema (the ZSchema lesson).
func Schema() []FieldDoc {
	return []FieldDoc{
		{"saddr", "string", "responding IPv4 address, dotted quad"},
		{"sport", "uint16", "scanned port (responder source port)"},
		{"classification", "string", "response class: synack|rst|echoreply|udp|port-unreach"},
		{"success", "bool", "true when the class indicates an open service"},
		{"repeat", "bool", "true when deduplication saw this target before"},
		{"cooldown", "bool", "true when received after sending finished"},
		{"ttl", "uint8", "IP TTL observed on the response"},
		{"timestamp", "float64", "seconds since scan start"},
	}
}

// Writer consumes records. Implementations are not safe for concurrent
// use; the engine writes from its single receive goroutine.
type Writer interface {
	Write(Record) error
	Close() error
}

// Flusher is implemented by writers that buffer records. The engine
// flushes at the end of every drain of its result buffers — so rows
// reach the stream as they are classified, one stream Write per drain —
// and before every checkpoint snapshot, so a crash loses at most one
// checkpoint interval of results. Wrapping writers forward Flush to
// their inner writer.
type Flusher interface {
	Flush() error
}

// Flush pushes buffered records in w (or any writer it wraps) to the
// underlying stream. Writers without buffers flush trivially.
func Flush(w Writer) error {
	if f, ok := w.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// LostError is what a writer returns, from Write or Flush, when its
// stream refused bytes: Rows buffered rows were dropped with them and
// will never be counted by RecordsWritten.
type LostError struct {
	Rows uint64
	Err  error
}

func (e *LostError) Error() string {
	return fmt.Sprintf("output: %d rows lost: %v", e.Rows, e.Err)
}

func (e *LostError) Unwrap() error { return e.Err }

// WrittenCounter is implemented by writers that can report how many
// records they have emitted to their stream. Wrappers forward to the
// writer they wrap, so a Filtered writer reports records that passed the
// filter — the count of rows actually in the output, which is what the
// checkpoint's crash-loss bound is stated against.
type WrittenCounter interface {
	RecordsWritten() uint64
}

// Written reports how many records w has emitted, or 0 when the writer
// cannot say.
func Written(w Writer) uint64 {
	if c, ok := w.(WrittenCounter); ok {
		return c.RecordsWritten()
	}
	return 0
}

// rowFormat names one of the row encodings.
type rowFormat uint8

const (
	formatText     rowFormat = iota // one address per line
	formatTextPort                  // addr:port, for multiport scans
	formatCSV                       // the full schema, one header row first
	formatJSONL                     // the full schema, one object per line
)

// rowFlushBytes is the buffer level at which Write flushes on its own,
// which bounds the buffer for a caller that never calls Flush. The
// engine flushes every drain, long before this.
const rowFlushBytes = 64 << 10

// RowWriter encodes records as text, CSV or JSON Lines rows. Rows are
// appended to one reused buffer and handed to the stream in a single
// Write by Flush, by Close, or when the buffer reaches rowFlushBytes; a
// row counts as written once the stream has accepted its bytes.
type RowWriter struct {
	w       io.Writer
	format  rowFormat
	header  bool   // the stream has accepted the CSV header
	buf     []byte // encoded rows the stream has not seen yet
	pending uint64 // rows in buf
	written uint64
}

// NewTextWriter emits one address per line (ZMap's default human
// output), or addr:port when showPort is set.
func NewTextWriter(w io.Writer, showPort bool) *RowWriter {
	if showPort {
		return &RowWriter{w: w, format: formatTextPort}
	}
	return &RowWriter{w: w, format: formatText}
}

// NewCSVWriter emits the full schema as CSV, with a header row ahead of
// the first record.
func NewCSVWriter(w io.Writer) *RowWriter { return &RowWriter{w: w, format: formatCSV} }

// NewJSONLWriter emits one JSON object per line (JSON Lines).
func NewJSONLWriter(w io.Writer) *RowWriter { return &RowWriter{w: w, format: formatJSONL} }

// Write implements Writer. It fails only when it had to flush.
func (w *RowWriter) Write(r Record) error {
	switch w.format {
	case formatText:
		w.buf = append(target.AppendIPv4(w.buf, r.IP), '\n')
	case formatTextPort:
		w.buf = append(target.AppendIPv4(w.buf, r.IP), ':')
		w.buf = append(strconv.AppendUint(w.buf, uint64(r.Sport), 10), '\n')
	case formatCSV:
		if !w.header && len(w.buf) == 0 {
			w.buf = append(append(w.buf, CSVHeader...), '\n')
		}
		w.buf = appendCSV(w.buf, r)
	case formatJSONL:
		w.buf = appendJSONL(w.buf, r)
	}
	w.pending++
	if len(w.buf) >= rowFlushBytes {
		return w.Flush()
	}
	return nil
}

// Flush implements Flusher: one stream Write for everything buffered.
// On failure the buffered rows are dropped — a dead stream must not grow
// the buffer — and reported through a LostError; a CSV header dropped
// with them leads the next buffer instead.
func (w *RowWriter) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.w.Write(w.buf)
	rows := w.pending
	w.buf, w.pending = w.buf[:0], 0
	if err != nil {
		return &LostError{Rows: rows, Err: err}
	}
	w.header = true
	w.written += rows
	return nil
}

// RecordsWritten implements WrittenCounter: rows the stream accepted.
func (w *RowWriter) RecordsWritten() uint64 { return w.written }

// Close implements Writer.
func (w *RowWriter) Close() error { return w.Flush() }

// CSVHeader is the CSV header row, in Schema() order, without its
// newline.
const CSVHeader = "saddr,sport,classification,success,repeat,cooldown,ttl,timestamp"

// appendCSV appends r as the row encoding/csv would write for the
// schema's string forms: booleans as 0/1, the timestamp with six
// decimals.
func appendCSV(dst []byte, r Record) []byte {
	dst = append(target.AppendIPv4(dst, r.IP), ',')
	dst = append(strconv.AppendUint(dst, uint64(r.Sport), 10), ',')
	dst = append(appendCSVField(dst, r.Classification), ',')
	dst = append(dst, '0'+b2i(r.Success), ',', '0'+b2i(r.Repeat), ',', '0'+b2i(r.InCooldown), ',')
	dst = append(strconv.AppendUint(dst, uint64(r.TTL), 10), ',')
	return append(strconv.AppendFloat(dst, r.Timestamp, 'f', 6, 64), '\n')
}

// appendJSONL appends r as the line encoding/json's Encoder would write
// for the schema, keys in Schema() order.
func appendJSONL(dst []byte, r Record) []byte {
	dst = append(dst, `{"saddr":"`...)
	dst = target.AppendIPv4(dst, r.IP)
	dst = append(dst, `","sport":`...)
	dst = strconv.AppendUint(dst, uint64(r.Sport), 10)
	dst = append(dst, `,"classification":`...)
	dst = appendJSONString(dst, r.Classification)
	dst = append(dst, `,"success":`...)
	dst = strconv.AppendBool(dst, r.Success)
	dst = append(dst, `,"repeat":`...)
	dst = strconv.AppendBool(dst, r.Repeat)
	dst = append(dst, `,"cooldown":`...)
	dst = strconv.AppendBool(dst, r.InCooldown)
	dst = append(dst, `,"ttl":`...)
	dst = strconv.AppendUint(dst, uint64(r.TTL), 10)
	dst = append(dst, `,"timestamp":`...)
	dst = appendJSONFloat(dst, r.Timestamp)
	return append(dst, '}', '\n')
}

func b2i(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// appendJSONFloat appends f the way encoding/json does: the shortest
// decimal that round-trips, as an exponent only below 1e-6 or from 1e21,
// and then with the exponent's leading zero dropped (5e-07 -> 5e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string with encoding/json's
// escaping, HTML-sensitive characters included. Classifications are
// lower-case tokens, so the loop normally copies s through untouched.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= 0x20 && b < utf8.RuneSelf && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			i++
			continue
		}
		c, size := rune(b), 1
		if b >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
			if !(c == utf8.RuneError && size == 1) && c != '\u2028' && c != '\u2029' {
				i += size
				continue
			}
		}
		dst = append(dst, s[start:i]...)
		switch {
		case b == '"' || b == '\\':
			dst = append(dst, '\\', b)
		case b == '\b':
			dst = append(dst, '\\', 'b')
		case b == '\f':
			dst = append(dst, '\\', 'f')
		case b == '\n':
			dst = append(dst, '\\', 'n')
		case b == '\r':
			dst = append(dst, '\\', 'r')
		case b == '\t':
			dst = append(dst, '\\', 't')
		case size == 1 && c == utf8.RuneError:
			dst = append(dst, `\ufffd`...)
		default: // control characters, <, >, &, U+2028 and U+2029
			dst = append(dst, '\\', 'u', hexDigits[c>>12], hexDigits[c>>8&0xF], hexDigits[c>>4&0xF], hexDigits[c&0xF])
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// appendCSVField appends s quoted as encoding/csv quotes a field: only
// when it holds a comma, a quote, a line break or a leading space, or is
// the two characters \. that some readers take for end of data.
func appendCSVField(dst []byte, s string) []byte {
	first, _ := utf8.DecodeRuneInString(s)
	if s == "" || s != `\.` && !strings.ContainsAny(s, ",\"\r\n") && !unicode.IsSpace(first) {
		return append(dst, s...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			dst = append(dst, '"')
		}
		dst = append(dst, s[i])
	}
	return append(dst, '"')
}

// NewWriter constructs a writer by format name: "text", "csv", "jsonl".
func NewWriter(format string, w io.Writer, multiport bool) (Writer, error) {
	switch format {
	case "text", "":
		return NewTextWriter(w, multiport), nil
	case "csv":
		return NewCSVWriter(w), nil
	case "jsonl", "json":
		return NewJSONLWriter(w), nil
	default:
		return nil, fmt.Errorf("output: unknown format %q (text|csv|jsonl)", format)
	}
}

// Filtered wraps a Writer, forwarding only records the filter accepts.
type Filtered struct {
	W      Writer
	Filter *Filter
}

// Write implements Writer.
func (f *Filtered) Write(r Record) error {
	if f.Filter != nil && !f.Filter.Match(r) {
		return nil
	}
	return f.W.Write(r)
}

// Close implements Writer.
func (f *Filtered) Close() error { return f.W.Close() }

// Flush implements Flusher by forwarding to the wrapped writer.
func (f *Filtered) Flush() error { return Flush(f.W) }

// RecordsWritten implements WrittenCounter: only records that passed the
// filter reached the wrapped writer, so its count is the row count of
// the actual output.
func (f *Filtered) RecordsWritten() uint64 { return Written(f.W) }

// CountingWriter wraps a Writer and counts records passed through.
type CountingWriter struct {
	W     Writer
	Count uint64
}

// Write implements Writer.
func (c *CountingWriter) Write(r Record) error {
	c.Count++
	if c.W == nil {
		return nil
	}
	return c.W.Write(r)
}

// Close implements Writer.
func (c *CountingWriter) Close() error {
	if c.W == nil {
		return nil
	}
	return c.W.Close()
}

// Flush implements Flusher by forwarding to the wrapped writer.
func (c *CountingWriter) Flush() error {
	if c.W == nil {
		return nil
	}
	return Flush(c.W)
}

// RecordsWritten implements WrittenCounter: the wrapped writer's count
// when one exists (it may emit fewer rows than passed through here), or
// this writer's own tally when it is the sink.
func (c *CountingWriter) RecordsWritten() uint64 {
	if c.W == nil {
		return c.Count
	}
	return Written(c.W)
}
