package output

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"testing"
	"time"

	"zmapgo/internal/target"
)

// The reference encoders: the standard-library route the writers took
// before rows were appended by hand. The row bytes are pinned to these.

type refRow struct {
	Saddr          string  `json:"saddr"`
	Sport          uint16  `json:"sport"`
	Classification string  `json:"classification"`
	Success        bool    `json:"success"`
	Repeat         bool    `json:"repeat"`
	InCooldown     bool    `json:"cooldown"`
	TTL            uint8   `json:"ttl"`
	Timestamp      float64 `json:"timestamp"`
}

func refBool(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// refRows renders the records in one format with fmt, encoding/csv and
// encoding/json.
func refRows(t testing.TB, format string, showPort bool, recs []Record) string {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	enc := json.NewEncoder(&buf)
	for i, r := range recs {
		saddr := target.FormatIPv4(r.IP)
		switch {
		case format == "text" && showPort:
			fmt.Fprintf(&buf, "%s:%d\n", saddr, r.Sport)
		case format == "text":
			fmt.Fprintln(&buf, saddr)
		case format == "csv":
			if i == 0 {
				cw.Write([]string{"saddr", "sport", "classification", "success", "repeat", "cooldown", "ttl", "timestamp"})
			}
			cw.Write([]string{
				saddr,
				strconv.Itoa(int(r.Sport)),
				r.Classification,
				refBool(r.Success),
				refBool(r.Repeat),
				refBool(r.InCooldown),
				strconv.Itoa(int(r.TTL)),
				strconv.FormatFloat(r.Timestamp, 'f', 6, 64),
			})
		case format == "jsonl":
			err := enc.Encode(refRow{saddr, r.Sport, r.Classification, r.Success, r.Repeat, r.InCooldown, r.TTL, r.Timestamp})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	cw.Flush()
	return buf.String()
}

// checkRows writes the records through every writer NewWriter builds
// and requires the reference bytes, whether flushed per row or once.
func checkRows(t testing.TB, recs []Record) {
	t.Helper()
	for _, format := range []string{"text", "csv", "jsonl"} {
		for _, showPort := range []bool{false, true} {
			want := refRows(t, format, showPort, recs)
			for _, flushEach := range []bool{false, true} {
				var got bytes.Buffer
				w, err := NewWriter(format, &got, showPort)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range recs {
					if err := w.Write(r); err != nil {
						t.Fatal(err)
					}
					if flushEach {
						if err := Flush(w); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if got.String() != want {
					t.Fatalf("%s (ports %v, flush each %v):\n got %q\nwant %q", format, showPort, flushEach, got.String(), want)
				}
				if n := Written(w); n != uint64(len(recs)) {
					t.Fatalf("%s: RecordsWritten = %d after %d rows", format, n, len(recs))
				}
			}
		}
	}
}

// moduleClasses is every class a registered probe module reports (the
// list Schema documents).
var moduleClasses = []string{"synack", "rst", "echoreply", "udp", "port-unreach"}

func TestRowEncodersMatchStdlib(t *testing.T) {
	ips := []uint32{0, 0xFFFFFFFF, 0x01020304, 0x0A000001, 0xC0A801FE, 0x64C81E04, 0x00FF0100}
	ports := []uint16{0, 1, 80, 443, 9999, 65535}
	ttls := []uint8{0, 1, 9, 64, 100, 255}
	elapsed := []time.Duration{
		0, 1, 999, time.Microsecond, 1001, // json turns to 5e-7 style below 1e-6
		1500 * time.Millisecond, time.Second, 59*time.Minute + 123456789,
		11*24*time.Hour + 987654321, math.MaxInt64, -1500 * time.Millisecond,
	}
	// What no module reports but the field's type allows: everything
	// encoding/csv quotes and encoding/json escapes.
	classes := append([]string{"", "a,b", `say "hi"`, " lead", `\.`, "<&>", "tab\there", "line\nbreak\r",
		"\x00\x1f\x7f", "café", "sep  ", "bad\xff\xfeutf8", `back\slash`, "\b\f"}, moduleClasses...)

	var recs []Record
	for i := 0; i < len(elapsed)*len(classes); i++ {
		recs = append(recs, NewRecord(ips[i%len(ips)], ports[i%len(ports)], classes[i%len(classes)],
			i&1 != 0, i&2 != 0, i&4 != 0, ttls[i%len(ttls)], elapsed[i%len(elapsed)]))
	}
	checkRows(t, recs)
	checkRows(t, recs[:1])
	checkRows(t, nil) // no rows, no header

	// json.Marshal of a Record is its row; Unmarshal reads a row back.
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if want := refRows(t, "jsonl", false, []Record{r}); string(line)+"\n" != want {
			t.Fatalf("Marshal %q, want %q", line, want)
		}
		var back Record
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatalf("Unmarshal %q: %v", line, err)
		}
		if want := (refRow{}); json.Unmarshal(line, &want) != nil || back.Classification != want.Classification ||
			back.IP != r.IP || back.Sport != r.Sport || back.Timestamp != r.Timestamp || back.TTL != r.TTL {
			t.Fatalf("Unmarshal %q = %+v", line, back)
		}
	}
}

func TestJSONFloatMatchesEncodingJSON(t *testing.T) {
	// Both sides of the two switches to exponent form, and the exponent's
	// dropped leading zero.
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1.5, 123456.789, 1e-6, 9.99e-7, 5e-7, 1e-7, 1e-10, 1e-100,
		1e20, 1e21, 1e22, math.SmallestNonzeroFloat64, math.MaxFloat64} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(appendJSONFloat(nil, f)); got != string(want) {
			t.Errorf("appendJSONFloat(%v) = %s, encoding/json says %s", f, got, want)
		}
	}
}

func FuzzRowEncoders(f *testing.F) {
	f.Add(uint32(0x01020304), uint16(443), "synack", uint8(1), uint8(57), int64(1500*time.Millisecond), uint64(0))
	f.Add(uint32(0), uint16(0), "port-unreach", uint8(0), uint8(0), int64(0), math.Float64bits(0.0078125))
	f.Add(uint32(0xFFFFFFFF), uint16(65535), "a,\"b\"\n< \xff", uint8(7), uint8(255), int64(999), math.Float64bits(5e-7))
	f.Add(uint32(0x0A000001), uint16(80), "rst", uint8(2), uint8(64), int64(11*24*time.Hour), math.Float64bits(1e21))
	f.Fuzz(func(t *testing.T, ip uint32, port uint16, class string, flags, ttl uint8, elapsed int64, ts uint64) {
		r := NewRecord(ip, port, class, flags&1 != 0, flags&2 != 0, flags&4 != 0, ttl, time.Duration(elapsed))
		other := NewRecord(^ip, port+1, moduleClasses[int(flags)%len(moduleClasses)], true, false, false, ttl, time.Duration(elapsed/2))
		checkRows(t, []Record{r, other, r})
		// The timestamp as any float64 at all, not only a clock's.
		if f := math.Float64frombits(ts); !math.IsNaN(f) && !math.IsInf(f, 0) {
			r.Timestamp = f
			checkRows(t, []Record{r})
		}
	})
}

func TestRowWriteZeroAllocs(t *testing.T) {
	filter := MustCompileFilter(DefaultFilterExpr)
	recs := make([]Record, 64)
	for i := range recs {
		recs[i] = NewRecord(0x0A000000+uint32(i)*2654435761, uint16(i), moduleClasses[i%len(moduleClasses)],
			true, false, i&1 != 0, 64, time.Duration(i)*1234567*time.Microsecond)
	}
	for _, format := range []string{"text", "csv", "jsonl"} {
		for _, showPort := range []bool{false, true} {
			w, err := NewWriter(format, io.Discard, showPort)
			if err != nil {
				t.Fatal(err)
			}
			fw := &Filtered{W: w, Filter: filter}
			drain := func() {
				for _, r := range recs {
					if err := fw.Write(r); err != nil {
						t.Fatal(err)
					}
				}
				if err := Flush(fw); err != nil {
					t.Fatal(err)
				}
			}
			drain() // grows the buffer to its working size
			if allocs := testing.AllocsPerRun(50, drain); allocs != 0 {
				t.Errorf("%s (ports %v): %.2f allocs per %d-row drain, want 0", format, showPort, allocs, len(recs))
			}
		}
	}
}

// refusingStream fails every Write while refuse is set.
type refusingStream struct {
	refuse bool
	bytes.Buffer
}

func (s *refusingStream) Write(p []byte) (int, error) {
	if s.refuse {
		return 0, errors.New("broken pipe")
	}
	return s.Buffer.Write(p)
}

func TestRowsCountOnlyWhenTheStreamAcceptsThem(t *testing.T) {
	for _, format := range []string{"text", "csv", "jsonl"} {
		// The stream refuses the very first flush (and with it the CSV
		// header), or a later one.
		for _, refuseFirst := range []bool{true, false} {
			stream := &refusingStream{}
			w, _ := NewWriter(format, stream, false)
			fw := &Filtered{W: w} // errors and counts pass through wrappers
			rec := sampleRecord()
			write := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					if err := fw.Write(rec); err != nil {
						t.Fatal(err)
					}
				}
			}
			accepted := 4
			if !refuseFirst {
				accepted += 2
				write(2)
				if err := Flush(fw); err != nil {
					t.Fatal(err)
				}
			}
			stream.refuse = true
			write(3)
			var lost *LostError
			if err := Flush(fw); !errors.As(err, &lost) || lost.Rows != 3 {
				t.Fatalf("%s: failed flush returned %v, want a LostError for 3 rows", format, err)
			}
			if err := Flush(fw); err != nil {
				t.Fatalf("%s: lost rows were kept and re-sent: %v", format, err)
			}
			stream.refuse = false
			write(4)
			if err := fw.Close(); err != nil {
				t.Fatal(err)
			}
			if got := Written(fw); got != uint64(accepted) {
				t.Errorf("%s: RecordsWritten = %d, want %d (3 lost rows never count)", format, got, accepted)
			}
			// Exactly the accepted rows, under one header for CSV.
			recs := make([]Record, accepted)
			for i := range recs {
				recs[i] = rec
			}
			if want := refRows(t, format, false, recs); stream.String() != want {
				t.Errorf("%s (first flush refused %v): stream holds %q, want %q", format, refuseFirst, stream.String(), want)
			}
		}
	}
}

func TestWriteFlushesAFullBuffer(t *testing.T) {
	// A caller that never flushes still streams, in buffer-sized writes.
	var stream bytes.Buffer
	w := NewJSONLWriter(&stream)
	rec := sampleRecord()
	rows := 0
	for stream.Len() == 0 {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		rows++
	}
	if stream.Len() < rowFlushBytes || stream.Len() > rowFlushBytes+256 {
		t.Errorf("first self-flush wrote %d bytes, want just over %d", stream.Len(), rowFlushBytes)
	}
	if got := Written(w); got != uint64(rows) {
		t.Errorf("RecordsWritten = %d after %d rows reached the stream", got, rows)
	}
}

// FuzzRecordUnmarshalJSON feeds UnmarshalJSON rows it did not write —
// zanalyze and the fleet merge read result files back. Whatever it
// accepts must be a fixed point of the codec: marshalled again it is a
// row UnmarshalJSON accepts, as the same record.
func FuzzRecordUnmarshalJSON(f *testing.F) {
	f.Add([]byte(`{"saddr":"1.2.3.4","sport":443,"classification":"synack","success":true,"repeat":false,"cooldown":false,"ttl":57,"timestamp":1.5}`))
	f.Add([]byte(`{"saddr":"255.255.255.255","classification":"a,\"b\"\n< �","timestamp":-0}`))
	f.Add([]byte(`{"SADDR":"10.0.0.1","sport":65536}`))
	f.Add([]byte(`{"saddr":"10.0.0.256"}`))
	f.Add([]byte(`{"saddr":"1.2.3.4","timestamp":1e400}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Record
		if err := r.UnmarshalJSON(data); err != nil {
			return
		}
		row, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("accepted record %+v does not marshal: %v", r, err)
		}
		var again Record
		if err := json.Unmarshal(row, &again); err != nil {
			t.Fatalf("own row refused: %v\n%s", err, row)
		}
		if again != r {
			t.Fatalf("record changed across the codec:\n got %+v\nwant %+v\n row %s", again, r, row)
		}
	})
}
