package validate

import (
	"testing"
	"testing/quick"
)

func testValidator() *Validator {
	var key [KeySize]byte
	for i := range key {
		key[i] = byte(i * 7)
	}
	return New(key)
}

func TestComputeDeterministic(t *testing.T) {
	v := testValidator()
	a := v.Compute(1, 2, 80)
	b := v.Compute(1, 2, 80)
	if a != b {
		t.Error("Compute not deterministic")
	}
}

func TestComputeDistinguishesTuples(t *testing.T) {
	v := testValidator()
	base := v.Compute(1, 2, 80)
	if v.Compute(2, 2, 80) == base || v.Compute(1, 3, 80) == base || v.Compute(1, 2, 81) == base {
		t.Error("tuple variation did not change validation word")
	}
}

func TestDifferentKeysDiffer(t *testing.T) {
	var k1, k2 [KeySize]byte
	k2[0] = 1
	if New(k1).Compute(1, 2, 80) == New(k2).Compute(1, 2, 80) {
		t.Error("different keys produced same word")
	}
}

func TestNewRandomKeysDistinct(t *testing.T) {
	v1, err := NewRandom()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := NewRandom()
	if err != nil {
		t.Fatal(err)
	}
	if v1.Key() == v2.Key() {
		t.Error("two random validators share a key")
	}
}

// TestKnownAnswer pins the wire-visible derivation: key, tuple → block →
// each sliced field. The blocks were computed independently with
// `openssl enc -aes-128-ecb` (v4) and `-aes-128-cbc` with a zero IV, last
// block (v6). A change that moves any probe byte must edit this vector.
func TestKnownAnswer(t *testing.T) {
	v := testValidator() // key 00 07 0e 15 ... 69
	w := v.Word(0xC0000201, 0x08080808, 443)
	if want := (Word{0x8e72518a3d74ab7e, 0xa3e3cf4c6ea74a15}); w != want {
		t.Fatalf("Word = %016x%016x, want %016x%016x", w.hi, w.lo, want.hi, want.lo)
	}
	id, seq := w.ICMPIDSeq()
	for _, f := range []struct {
		name      string
		got, want uint32
	}{
		{"Seq", w.Seq(), 0x8e72518a},
		{"Ack", w.Ack(), 0x3d74ab7e},
		{"SourcePort(32768, 256)", uint32(w.SourcePort(32768, 256)), 32768 + 0xa3e3%256},
		{"SourcePort(40000, 100)", uint32(w.SourcePort(40000, 100)), 40000 + 0xa3e3%100},
		{"IPID", uint32(w.IPID()), 0xcf4c},
		{"ICMP id", uint32(id), 0x6ea7},
		{"ICMP seq", uint32(seq), 0x4a15},
		{"Compute", uint32(v.Compute(0xC0000201, 0x08080808, 443) >> 32), 0x8e72518a},
	} {
		if f.got != f.want {
			t.Errorf("%s = %#x, want %#x", f.name, f.got, f.want)
		}
	}

	src := [16]byte{0x20, 0x01, 0x0d, 0xb8, 15: 2}
	dst := [16]byte{0x20, 0x01, 0x0d, 0xb8, 15: 1}
	if w6, want := v.Word6(src, dst, 443), (Word{0x53ef1a0b047a9424, 0x4387d9769c4e74b0}); w6 != want {
		t.Errorf("Word6 = %016x%016x, want %016x%016x", w6.hi, w6.lo, want.hi, want.lo)
	}
	if got := v.Compute6(src, dst, 443); got != 0x53ef1a0b047a9424 {
		t.Errorf("Compute6 = %#x, want the leading half of Word6", got)
	}
}

func TestWord6DistinguishesTuples(t *testing.T) {
	v := testValidator()
	a, b := [16]byte{1}, [16]byte{2}
	base := v.Word6(a, b, 80)
	if v.Word6(b, b, 80) == base || v.Word6(a, a, 80) == base || v.Word6(a, b, 81) == base || v.Word6(b, a, 80) == base {
		t.Error("tuple variation did not change the v6 validation word")
	}
}

func TestAckValid(t *testing.T) {
	v := testValidator()
	w := v.Word(10, 20, 443)
	seq := w.Seq()
	if !w.AckValid(seq+1, false) {
		t.Error("SYN-ACK with seq+1 rejected")
	}
	if w.AckValid(seq, false) {
		t.Error("SYN-ACK with seq accepted (only RST may ack seq)")
	}
	if !w.AckValid(seq, true) {
		t.Error("RST with seq rejected")
	}
	if !w.AckValid(seq+1, true) {
		t.Error("RST with seq+1 rejected")
	}
	if w.AckValid(seq+2, true) {
		t.Error("ack seq+2 accepted")
	}
	if v.Word(10, 21, 443).AckValid(seq+1, false) {
		t.Error("wrong flow accepted")
	}
}

func TestAckValidProperty(t *testing.T) {
	// Property: a random ack is (nearly) never valid for a random flow.
	v := testValidator()
	f := func(src, dst uint32, port uint16, ack uint32) bool {
		w := v.Word(src, dst, port)
		return w.AckValid(ack, true) == (ack == w.Seq() || ack == w.Seq()+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSourcePortRange(t *testing.T) {
	v := testValidator()
	const base, count = 32768, 100
	seen := make(map[uint16]bool)
	for ip := uint32(0); ip < 2000; ip++ {
		p := v.Word(1, ip, 80).SourcePort(base, count)
		if p < base || p >= base+count {
			t.Fatalf("source port %d outside [%d, %d)", p, base, base+count)
		}
		seen[p] = true
	}
	if len(seen) < count/2 {
		t.Errorf("only %d distinct ports of %d used; poor spread", len(seen), count)
	}
	// Single-port config always returns base.
	w := v.Word(1, 42, 80)
	if w.SourcePort(base, 1) != base || w.SourcePort(base, 0) != base {
		t.Error("single-port config wrong")
	}
}

func BenchmarkCompute(b *testing.B) {
	v := testValidator()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = v.Compute(uint32(i), uint32(i*3), 80)
	}
	benchSink = sink
}

var benchSink uint64

// countingAdder satisfies ComputeCounter.
type countingAdder struct{ n uint64 }

func (c *countingAdder) Add(n uint64) { c.n += n }

func TestInstrumentCountsComputes(t *testing.T) {
	v := New([KeySize]byte{1})
	c := &countingAdder{}
	v.Instrument(c)
	v.Compute(1, 2, 80)
	w := v.Word(1, 2, 80)
	v.Compute6([16]byte{1}, [16]byte{2}, 443) // three blocks, one word
	v.Word6([16]byte{1}, [16]byte{2}, 443)
	if c.n != 4 {
		t.Errorf("compute counter = %d, want 4", c.n)
	}
	// Slicing fields out of a word computes nothing.
	w.Seq()
	w.SourcePort(32768, 256)
	w.ICMPIDSeq()
	if c.n != 4 {
		t.Errorf("compute counter = %d after reading fields, want 4", c.n)
	}
	// Detaching stops counting without breaking computation.
	v.Instrument(nil)
	v.Compute(1, 2, 80)
	if c.n != 4 {
		t.Errorf("counter advanced after detach: %d", c.n)
	}
}

func TestUncountedViewComputesTheSameWords(t *testing.T) {
	v := New([KeySize]byte{1})
	u := v.Uncounted()
	c := &countingAdder{}
	v.Instrument(c) // after the view was taken: the view must still count nothing
	if u.Word(1, 2, 80) != v.Word(1, 2, 80) || u.Word6([16]byte{1}, [16]byte{2}, 443) != v.Word6([16]byte{1}, [16]byte{2}, 443) {
		t.Error("the uncounted view computes different words")
	}
	if u.Key() != v.Key() {
		t.Error("the uncounted view has a different key")
	}
	if c.n != 2 {
		t.Errorf("compute counter = %d, want 2 (the counted validator's words only)", c.n)
	}
}
