package hashx

import "testing"

// The first outputs of the reference SplitMix64 generator seeded with 0
// (Vigna's splitmix64.c): each state is the previous one plus the
// golden-ratio increment, so output i is SplitMix64 of i increments.
func TestSplitMix64ReferenceStream(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	const gamma = 0x9e3779b97f4a7c15
	for i, w := range want {
		if got := SplitMix64(uint64(i) * gamma); got != w {
			t.Errorf("output %d = %#x, want %#x", i, got, w)
		}
		if got := Mix64(uint64(i+1) * gamma); got != w {
			t.Errorf("Mix64 form of output %d = %#x, want %#x", i, got, w)
		}
	}
	if Mix64(0) != 0 {
		t.Error("Mix64(0) must be 0: the finalizer is a bijection fixing zero")
	}
}
