// Package dedup filters repeated scan responses.
//
// Hosts frequently answer a single probe more than once — retransmitted
// SYN-ACKs, broken stacks, and "blowback" hosts that send tens of
// thousands of responses (Goldblatt et al.). ZMap has used two
// deduplication designs, both implemented here:
//
//   - Bitmap: a paged 2^32-bit map keyed by source IP. It guarantees zero
//     duplicates but costs 512 MB when fully touched and cannot extend to
//     the 48-bit (IP, port) multiport space (that would be 35 TB), which
//     is why it was retired (§4.1).
//
//   - Window: a sliding window of the last n (IP, port) responses — the
//     modern design. The C implementation indexes the window with a Judy
//     array; the property Figure 5 depends on is O(1) membership with
//     memory proportional to occupancy, which a hash index provides
//     identically, so that is what backs Window here. A ring buffer
//     provides FIFO expiry.
//
// Deduplicators are not safe for concurrent use. ZMap dedupes on a
// single receive thread; the sharded receive path keeps that invariant
// per shard by giving each worker its own Window over a disjoint slice
// of the key space — ShardOf decides which worker owns a key, so Seen
// needs no mutex.
package dedup

import (
	"math/bits"

	"zmapgo/internal/hashx"
)

// Deduper records (IP, port) response keys and reports repeats.
type Deduper interface {
	// Seen records the key and reports whether it was already present.
	Seen(ip uint32, port uint16) bool
	// Len returns the number of keys currently tracked.
	Len() int
	// MemoryBytes estimates current memory consumption.
	MemoryBytes() uint64
}

// DefaultWindowSize is ZMap's default sliding-window size (10^6), which
// Figure 5 shows eliminates nearly all duplicates at 1 Gbps scan rates.
const DefaultWindowSize = 1_000_000

// pageBits is the size of one bitmap page (2^16 bits = 8 KB), paged so an
// untouched address space costs nothing.
const pageBits = 16

// Bitmap is the original single-port deduplicator: one bit per IPv4
// address, allocated in pages on first touch. Ports are ignored.
type Bitmap struct {
	pages     [1 << (32 - pageBits)][]uint64
	count     int
	allocated int
}

// NewBitmap returns an empty paged bitmap.
func NewBitmap() *Bitmap { return &Bitmap{} }

// Seen implements Deduper. The port argument is ignored: the bitmap
// design predates multiport scanning, which is exactly its limitation.
func (b *Bitmap) Seen(ip uint32, _ uint16) bool {
	page := ip >> pageBits
	if b.pages[page] == nil {
		b.pages[page] = make([]uint64, (1<<pageBits)/64)
		b.allocated++
	}
	offset := ip & (1<<pageBits - 1)
	word, bit := offset/64, offset%64
	mask := uint64(1) << bit
	if b.pages[page][word]&mask != 0 {
		return true
	}
	b.pages[page][word] |= mask
	b.count++
	return false
}

// Len implements Deduper.
func (b *Bitmap) Len() int { return b.count }

// MemoryBytes implements Deduper: 8 KB per allocated page.
func (b *Bitmap) MemoryBytes() uint64 {
	return uint64(b.allocated) * (1 << pageBits) / 8
}

// FullBitmapBytes returns the memory a non-paged bitmap over the given key
// width would need; FullBitmapBytes(32) is the 512 MB figure and
// FullBitmapBytes(48) the 35 TB figure from §4.1.
func FullBitmapBytes(bits uint) uint64 { return (uint64(1) << bits) / 8 }

// Window is the modern sliding-window deduplicator over 48-bit (IP, port)
// keys: a flat open-addressed membership table (the Judy-array
// equivalent) plus a ring buffer that evicts the oldest key once the
// window is full.
//
// The table holds key+1 so the zero word means empty and key
// (0.0.0.0, 0) stays representable. It is at most half full, probed
// linearly from the top bits of hashx.Mix64 — ShardOf spends the low
// bits choosing the worker, so within one shard those are constant —
// and deletion shifts the rest of the probe run back over the hole, so
// there are no tombstones and a probe never outlives the run it started
// in. Both slices come from one make each and are written only where a
// key lands, so resident memory follows occupancy, not capacity.
type Window struct {
	size  int
	ring  []uint64 // keys in insertion order
	head  int      // next slot to overwrite
	used  int
	table []uint64 // key+1, 0 = empty; len is a power of two >= 2*size
	shift uint     // 64 - log2(len(table))
}

// NewWindow returns a sliding-window deduplicator remembering the last
// size responses. Size must be positive.
func NewWindow(size int) *Window {
	if size <= 0 {
		panic("dedup: window size must be positive")
	}
	slots := bits.Len(uint(2*size - 1)) // log2 of the power of two >= 2*size
	return &Window{
		size:  size,
		ring:  make([]uint64, size),
		table: make([]uint64, 1<<slots),
		shift: uint(64 - slots),
	}
}

func key(ip uint32, port uint16) uint64 { return uint64(ip)<<16 | uint64(port) }

// ShardOf maps a response flow to its owning shard: hashx.Mix64 over the same
// packed 48-bit key Window stores, masked to the shard count (mask must
// be 2^n - 1). The mapping depends only on the key, never on shard
// count history, so checkpointed keys re-partition cleanly when a scan
// resumes with a different number of receive workers.
func ShardOf(ip uint32, port uint16, mask uint32) uint32 {
	return uint32(hashx.Mix64(key(ip, port))) & mask
}

// Seen implements Deduper over the 48-bit key space.
func (w *Window) Seen(ip uint32, port uint16) bool {
	k := key(ip, port)
	mask := uint64(len(w.table) - 1)
	for i := w.home(k); ; i = (i + 1) & mask {
		switch w.table[i] {
		case k + 1:
			return true
		case 0:
			w.insert(k)
			return false
		}
	}
}

// home is the slot k's probe run starts at.
func (w *Window) home(k uint64) uint64 { return hashx.Mix64(k) >> w.shift }

// insert records a key known to be absent, evicting the oldest first
// when the window is full. The eviction can open a hole earlier in k's
// probe run than the empty slot the lookup stopped at, so the slot is
// probed for afresh afterwards.
func (w *Window) insert(k uint64) {
	if w.used == w.size {
		w.remove(w.ring[w.head])
	} else {
		w.used++
	}
	w.ring[w.head] = k
	if w.head++; w.head == w.size {
		w.head = 0
	}
	mask := uint64(len(w.table) - 1)
	i := w.home(k)
	for w.table[i] != 0 {
		i = (i + 1) & mask
	}
	w.table[i] = k + 1
}

// remove deletes a key known to be present by backward shift: every
// later entry of the same probe run that may legally sit in the hole —
// its home is not strictly between the hole and itself — moves into it,
// and the hole moves to where that entry was, until the run ends.
func (w *Window) remove(k uint64) {
	mask := uint64(len(w.table) - 1)
	hole := w.home(k)
	for w.table[hole] != k+1 {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; w.table[j] != 0; j = (j + 1) & mask {
		if (j-w.home(w.table[j]-1))&mask >= (j-hole)&mask {
			w.table[hole] = w.table[j]
			hole = j
		}
	}
	w.table[hole] = 0
}

// Len implements Deduper.
func (w *Window) Len() int { return w.used }

// Size returns the configured window capacity.
func (w *Window) Size() int { return w.size }

// Keys returns the window contents in insertion order, oldest first —
// the serializable state a checkpoint needs to carry dedup across a
// process restart. Replaying the returned slice through Seen on an empty
// window of the same size reproduces the exact membership and eviction
// order.
func (w *Window) Keys() []uint64 {
	out := make([]uint64, 0, w.used)
	start := w.head - w.used
	for i := 0; i < w.used; i++ {
		out = append(out, w.ring[((start+i)%w.size+w.size)%w.size])
	}
	return out
}

// Restore replays previously captured keys (oldest first) into the
// window, as if each had been Seen. Keys beyond the window size evict
// the oldest, matching live behavior, so restoring into a smaller window
// keeps the most recent keys.
func (w *Window) Restore(keys []uint64) {
	for _, k := range keys {
		w.Seen(uint32(k>>16), uint16(k&0xFFFF))
	}
}

// MemoryBytes implements Deduper: the ring plus the table, exactly. It is
// the reserved size; pages no key has landed on are not resident.
func (w *Window) MemoryBytes() uint64 {
	return uint64(len(w.ring)+len(w.table)) * 8
}

// KeyedWindow is the sliding-window deduplicator generalized over any
// comparable key type. Window specializes it to packed 48-bit (IP, port)
// keys; the IPv6 hitlist scanner uses [18]byte (address, port) keys.
type KeyedWindow[K comparable] struct {
	size  int
	ring  []K
	head  int
	used  int
	index map[K]struct{}
}

// NewKeyedWindow returns a window remembering the last size keys.
func NewKeyedWindow[K comparable](size int) *KeyedWindow[K] {
	if size <= 0 {
		panic("dedup: window size must be positive")
	}
	return &KeyedWindow[K]{
		size:  size,
		ring:  make([]K, size),
		index: make(map[K]struct{}, size),
	}
}

// Seen records k and reports whether it was already in the window.
func (w *KeyedWindow[K]) Seen(k K) bool {
	if _, dup := w.index[k]; dup {
		return true
	}
	if w.used == w.size {
		delete(w.index, w.ring[w.head])
	} else {
		w.used++
	}
	w.ring[w.head] = k
	w.head = (w.head + 1) % w.size
	w.index[k] = struct{}{}
	return false
}

// Len returns the number of keys currently tracked.
func (w *KeyedWindow[K]) Len() int { return w.used }
