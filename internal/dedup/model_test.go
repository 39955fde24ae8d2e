package dedup

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// occupied counts the table's non-empty slots.
func occupied(w *Window) int {
	n := 0
	for _, s := range w.table {
		if s != 0 {
			n++
		}
	}
	return n
}

// keyedKeys is Window.Keys for the reference implementation.
func keyedKeys(kw *KeyedWindow[uint64]) []uint64 {
	out := make([]uint64, 0, kw.used)
	for i := 0; i < kw.used; i++ {
		out = append(out, kw.ring[(kw.head-kw.used+i+kw.size)%kw.size])
	}
	return out
}

// keysHomedAt returns n distinct keys whose probe run in w starts at one
// of the given slots, found by walking the key space.
func keysHomedAt(w *Window, n int, slots ...uint64) []uint64 {
	var out []uint64
	for k := uint64(1); len(out) < n; k++ {
		if slices.Contains(slots, w.home(k)) {
			out = append(out, k)
		}
	}
	return out
}

// checkAgainstModel feeds the stream to a Window and to the map-backed
// KeyedWindow, and requires the same answer from every Seen, the same
// Len and Keys along the way, and a table that holds exactly the window.
func checkAgainstModel(t *testing.T, size int, stream []uint64) *Window {
	t.Helper()
	w, ref := NewWindow(size), NewKeyedWindow[uint64](size)
	for i, k := range stream {
		if got, want := w.Seen(uint32(k>>16), uint16(k)), ref.Seen(k); got != want {
			t.Fatalf("size %d op %d key %#x: Seen = %v, model says %v", size, i, k, got, want)
		}
		if i%97 != 0 && i != len(stream)-1 {
			continue
		}
		if w.Len() != ref.Len() {
			t.Fatalf("size %d op %d: Len = %d, model %d", size, i, w.Len(), ref.Len())
		}
		keys := w.Keys()
		if !slices.Equal(keys, keyedKeys(ref)) {
			t.Fatalf("size %d op %d: Keys diverge from the model", size, i)
		}
		if n := occupied(w); n != len(keys) {
			t.Fatalf("size %d op %d: table holds %d entries for %d keys", size, i, n, len(keys))
		}
	}
	return w
}

func TestWindowMatchesKeyedWindow(t *testing.T) {
	for _, size := range []int{1, 2, 3, 1000} {
		probe := NewWindow(size) // same geometry as the window under test
		last := uint64(len(probe.table) - 1)
		n := 3 * size

		streams := map[string][]uint64{
			// Every key starts its probe run at the same slot, so the
			// run is as long as the window and every eviction shifts it.
			"one-chain": keysHomedAt(probe, n, last/2),
			// Runs that start in the last slots and spill past the end
			// of the table, interleaved with keys homed at its start.
			"wrap-around": keysHomedAt(probe, n, last-1, last, 0, 1),
		}
		rng := rand.New(rand.NewSource(int64(size)))
		random := make([]uint64, 20*size+200)
		for i := range random {
			random[i] = uint64(rng.Intn(3*size)) << 16 // dense, many repeats
			if rng.Intn(4) == 0 {
				random[i] = rng.Uint64() >> 16 // anywhere in the 48-bit space
			}
		}
		streams["random"] = random

		for name, keys := range streams {
			t.Run(fmt.Sprintf("%s/%d", name, size), func(t *testing.T) {
				// Key (0.0.0.0, 0) rides along in every stream, first
				// as a fresh key and then as a repeat or a re-entry.
				stream := append([]uint64{0}, keys...)
				for i := 0; i < len(keys); i += 5 {
					stream = append(stream, keys[len(keys)-1-i], 0, keys[i])
				}
				w := checkAgainstModel(t, size, stream)

				// Keys -> Restore into a smaller, an equal and a larger
				// window keeps the newest keys in order.
				keys := w.Keys()
				for _, other := range []int{(size + 1) / 2, size, 2*size + 1} {
					r := NewWindow(other)
					r.Restore(keys)
					want := keys[max(0, len(keys)-other):]
					if !slices.Equal(r.Keys(), want) {
						t.Fatalf("restore %d -> %d: keys differ", size, other)
					}
					for _, k := range want {
						if !r.Seen(uint32(k>>16), uint16(k)) {
							t.Fatalf("restore %d -> %d: key %#x forgotten", size, other, k)
						}
					}
				}
			})
		}
	}
}
