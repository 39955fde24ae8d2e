package validate

import (
	"sync"
	"testing"
)

// The receive path classifies every candidate response with the shared
// Validator from several workers at once, and sender threads render
// with it too, so Word must be both concurrency-safe and allocation-free
// once its scratch pool is warm. This pins the zero-alloc half;
// TestComputeConcurrent (under -race) covers the other.
func TestComputeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items; alloc counts are not meaningful")
	}
	v := New([KeySize]byte{1, 2, 3})
	v.Compute(1, 2, 3) // warm the pool
	if a := testing.AllocsPerRun(200, func() { benchSink = v.Compute(4, 5, 6) }); a != 0 {
		t.Errorf("Compute allocates %.2f objects per call, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { benchSink = uint64(v.Word(4, 5, 6).Seq()) }); a != 0 {
		t.Errorf("Word allocates %.2f objects per call, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		benchSink = v.Compute6([16]byte{9}, [16]byte{8}, 443)
	}); a != 0 {
		t.Errorf("Compute6 allocates %.2f objects per call, want 0", a)
	}
}

// Concurrent callers must see the same words a lone caller computes:
// a pooled scratch block must never bleed between flows, v4 or v6, nor
// between a validator and the uncounted view that shares its pool.
func TestComputeConcurrent(t *testing.T) {
	v := New([KeySize]byte{7, 7, 7})
	const flows = 512
	addr6 := func(i int) [16]byte { return [16]byte{0x20, 0x01, 14: byte(i >> 8), 15: byte(i)} }
	want := make([]Word, flows)
	want6 := make([]uint64, flows)
	for i := range want {
		want[i] = v.Word(uint32(i), uint32(i)*3+1, uint16(i))
		want6[i] = v.Compute6(addr6(0), addr6(i), uint16(i))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		v := v
		if g%2 == 1 {
			v = v.Uncounted()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 50; pass++ {
				for i := range want {
					if v.Word(uint32(i), uint32(i)*3+1, uint16(i)) != want[i] ||
						v.Compute6(addr6(0), addr6(i), uint16(i)) != want6[i] {
						select {
						case errs <- "goroutine observed a different validation word":
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
