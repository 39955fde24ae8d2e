package output

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func sampleRecord() Record {
	return NewRecord(0x01020304, 443, "synack", true, false, false, 57, 1500*time.Millisecond)
}

func TestNewRecord(t *testing.T) {
	r := sampleRecord()
	if r.IP != 0x01020304 || r.Saddr() != "1.2.3.4" || r.Sport != 443 || !r.Success || r.TTL != 57 {
		t.Errorf("bad record %+v", r)
	}
	if r.Timestamp != 1.5 {
		t.Errorf("timestamp %f, want 1.5", r.Timestamp)
	}
}

func TestTextWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewTextWriter(&buf, false)
	if err := w.Write(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "1.2.3.4\n" {
		t.Errorf("text output %q", buf.String())
	}
	buf.Reset()
	wp := NewTextWriter(&buf, true)
	wp.Write(sampleRecord())
	wp.Flush()
	if buf.String() != "1.2.3.4:443\n" {
		t.Errorf("text+port output %q", buf.String())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCSVWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	w.Write(sampleRecord())
	r2 := sampleRecord()
	r2.Success = false
	r2.Classification = "rst"
	w.Write(r2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want 3 (header + 2)", len(lines))
	}
	if lines[0] != "saddr,sport,classification,success,repeat,cooldown,ttl,timestamp" {
		t.Errorf("csv header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1.2.3.4,443,synack,1,0,0,57,") {
		t.Errorf("csv row %q", lines[1])
	}
	if !strings.Contains(lines[2], ",rst,0,") {
		t.Errorf("csv row 2 %q", lines[2])
	}
}

func TestJSONLWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	w.Write(sampleRecord())
	w.Write(sampleRecord())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("jsonl lines = %d", len(lines))
	}
	var decoded Record
	if err := json.Unmarshal([]byte(lines[0]), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded != sampleRecord() {
		t.Errorf("round trip %+v != %+v", decoded, sampleRecord())
	}
}

func TestNewWriterFactory(t *testing.T) {
	var buf bytes.Buffer
	for _, f := range []string{"text", "", "csv", "jsonl", "json"} {
		if _, err := NewWriter(f, &buf, false); err != nil {
			t.Errorf("NewWriter(%q): %v", f, err)
		}
	}
	if _, err := NewWriter("redis", &buf, false); err == nil {
		t.Error("database output modules were removed; 'redis' must fail")
	}
}

func TestSchemaMatchesRecordFields(t *testing.T) {
	s := Schema()
	if len(s) != 8 {
		t.Fatalf("schema has %d fields", len(s))
	}
	if s[0].Name != "saddr" || s[0].Type != "string" {
		t.Error("schema[0] wrong")
	}
	var names []string
	for _, f := range s {
		names = append(names, f.Name)
	}
	if strings.Join(names, ",") != CSVHeader {
		t.Errorf("CSV header %q is not the schema's field order %v", CSVHeader, names)
	}
	// Every schema field must have a single static type.
	for _, f := range s {
		if f.Type == "" || f.Doc == "" {
			t.Errorf("field %q missing type or doc", f.Name)
		}
	}
}

func TestFilterDefault(t *testing.T) {
	f := MustCompileFilter(DefaultFilterExpr)
	r := sampleRecord()
	if !f.Match(r) {
		t.Error("fresh success should pass default filter")
	}
	r.Repeat = true
	if f.Match(r) {
		t.Error("repeat should fail default filter")
	}
	r.Repeat = false
	r.Success = false
	if f.Match(r) {
		t.Error("failure should fail default filter")
	}
}

func TestFilterExpressions(t *testing.T) {
	r := sampleRecord() // synack, success, sport 443, ttl 57
	cases := []struct {
		expr string
		want bool
	}{
		{"", true},
		{"success = 1", true},
		{"success = 0", false},
		{"success != 0", true},
		{"classification = synack", true},
		{"classification != synack", false},
		{"classification = rst || classification = synack", true},
		{"sport = 443", true},
		{"sport = 80", false},
		{"sport >= 443 && sport <= 443", true},
		{"ttl > 32", true},
		{"ttl < 32", false},
		{"(sport = 80 || sport = 443) && ttl > 32", true},
		{"(sport = 80 || sport = 22) && ttl > 32", false},
		{"saddr = 1.2.3.4", true},
		{"saddr != 1.2.3.4", false},
		{"saddr = 1.2.3.5", false},
		{"saddr = 1.2.3.5 || saddr = 01.002.3.4", true},
		{"timestamp >= 1.5", true},
		{"timestamp > 1.5", false},
		{"cooldown = 0 && repeat = 0 && success = 1", true},
	}
	for _, c := range cases {
		f, err := CompileFilter(c.expr)
		if err != nil {
			t.Fatalf("compile %q: %v", c.expr, err)
		}
		if got := f.Match(r); got != c.want {
			t.Errorf("filter %q = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestFilterCompileErrors(t *testing.T) {
	bad := []string{
		"nosuchfield = 1",
		"success == 1",
		"success =",
		"sport = abc",
		"saddr = 10.0.0.256",
		"saddr = banana",
		"saddr = 16909060",
		"saddr = 1.2.3",
		"saddr < 1.2.3.4",
		"classification > synack",
		"(success = 1",
		"success = 1 &&",
		"success = 1 extra",
		"&& success = 1",
		"success ? 1",
	}
	for _, expr := range bad {
		if _, err := CompileFilter(expr); err == nil {
			t.Errorf("CompileFilter(%q) succeeded, want error", expr)
		}
	}
}

func TestMustCompileFilterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompileFilter should panic on bad input")
		}
	}()
	MustCompileFilter("bogus ~ 1")
}

func TestFilteredWriter(t *testing.T) {
	var buf bytes.Buffer
	fw := &Filtered{W: NewTextWriter(&buf, false), Filter: MustCompileFilter("success = 1")}
	fw.Write(sampleRecord())
	fail := sampleRecord()
	fail.Success = false
	fw.Write(fail)
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "\n") != 1 {
		t.Errorf("filtered output %q, want 1 line", buf.String())
	}
}

func TestCountingWriter(t *testing.T) {
	cw := &CountingWriter{}
	for i := 0; i < 5; i++ {
		if err := cw.Write(sampleRecord()); err != nil {
			t.Fatal(err)
		}
	}
	if cw.Count != 5 {
		t.Errorf("count = %d", cw.Count)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMetadataJSON(t *testing.T) {
	var buf bytes.Buffer
	m := &Metadata{
		Tool:        "zmapgo",
		Version:     "1.0.0",
		ProbeModule: "tcp_synscan",
		PacketsSent: 100,
		HitRate:     0.25,
		StartTime:   time.Unix(1700000000, 0).UTC(),
	}
	if err := m.Emit(&buf); err != nil {
		t.Fatal(err)
	}
	var back Metadata
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Tool != "zmapgo" || back.PacketsSent != 100 || back.HitRate != 0.25 {
		t.Errorf("metadata round trip %+v", back)
	}
}

func BenchmarkJSONLWrite(b *testing.B) {
	w := NewJSONLWriter(discard{})
	r := sampleRecord()
	for i := 0; i < b.N; i++ {
		w.Write(r)
	}
}

func BenchmarkFilterMatch(b *testing.B) {
	f := MustCompileFilter("(sport = 80 || sport = 443) && success = 1 && repeat = 0")
	r := sampleRecord()
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = f.Match(r)
	}
	benchBool = sink
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

var benchBool bool

func FuzzCompileFilter(f *testing.F) {
	f.Add("success = 1 && repeat = 0")
	f.Add("(sport = 80 || sport = 443) && ttl > 32")
	f.Add("classification != synack")
	f.Add("!!! ((")
	f.Add("saddr = 1.2.3.4 || timestamp <= 1.5")
	f.Fuzz(func(t *testing.T, expr string) {
		flt, err := CompileFilter(expr)
		if err != nil {
			return
		}
		// Compiled filters must evaluate without panicking on any record.
		flt.Match(sampleRecord())
		flt.Match(Record{})
	})
}
