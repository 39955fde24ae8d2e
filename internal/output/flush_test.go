package output

import (
	"bytes"
	"strings"
	"testing"
)

func TestCSVWriterFlushPushesBufferedRows(t *testing.T) {
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	rec := NewRecord(0x0A000001, 80, "synack", true, false, false, 64, 0)
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatal("csv writer is expected to buffer until flushed")
	}
	if err := Flush(w); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "10.0.0.1") {
		t.Fatalf("flushed output missing record: %q", out)
	}
	// Flush is idempotent and Close still works afterwards.
	if err := Flush(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFlushForwardsThroughWrappers(t *testing.T) {
	var buf bytes.Buffer
	csvw := NewCSVWriter(&buf)
	wrapped := &CountingWriter{W: &Filtered{W: csvw}}
	if err := wrapped.Write(NewRecord(0x0A000002, 443, "synack", true, false, false, 64, 0)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatal("record reached the stream before flush")
	}
	if err := Flush(wrapped); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "10.0.0.2") {
		t.Fatalf("flush did not traverse the wrapper chain: %q", buf.String())
	}
	// Writers with nothing buffered flush trivially, wrapped or not.
	if err := Flush(NewTextWriter(&bytes.Buffer{}, false)); err != nil {
		t.Fatal(err)
	}
	if err := Flush(&CountingWriter{}); err != nil {
		t.Fatal(err)
	}
}

func TestWrittenCountsOnlyEmittedRecords(t *testing.T) {
	filt, err := CompileFilter("success = 1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	csvw := NewCSVWriter(&buf)
	wrapped := &CountingWriter{W: &Filtered{W: csvw, Filter: filt}}
	pass := NewRecord(0x0A000001, 80, "synack", true, false, false, 64, 0)
	drop := NewRecord(0x0A000002, 80, "rst", false, false, false, 64, 0)
	for _, r := range []Record{pass, drop, pass} {
		if err := wrapped.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if wrapped.Count != 3 {
		t.Fatalf("CountingWriter saw %d records, want 3", wrapped.Count)
	}
	// Written reports rows the stream accepted, not rows offered: nothing
	// before the flush, and never the filter-rejected record — neither
	// may count toward the crash-loss floor.
	if got := Written(wrapped); got != 0 {
		t.Fatalf("Written before flush = %d, want 0", got)
	}
	if err := Flush(wrapped); err != nil {
		t.Fatal(err)
	}
	if got := Written(wrapped); got != 2 {
		t.Fatalf("Written through wrapper chain = %d, want 2", got)
	}
	if got := Written(csvw); got != 2 {
		t.Fatalf("csv Written = %d, want 2", got)
	}
	// A standalone CountingWriter is its own sink.
	cw := &CountingWriter{}
	_ = cw.Write(pass)
	if got := Written(cw); got != 1 {
		t.Fatalf("sink CountingWriter Written = %d, want 1", got)
	}
	// Writers that cannot count report zero.
	if got := Written(devNullWriter{}); got != 0 {
		t.Fatalf("uncountable writer Written = %d, want 0", got)
	}
}

type devNullWriter struct{}

func (devNullWriter) Write(Record) error { return nil }
func (devNullWriter) Close() error       { return nil }
