// Package cyclic implements ZMap's stateless pseudorandom target generation.
//
// ZMap visits every (IP, port) target exactly once, in an order that looks
// random, without keeping any per-target state. It does so by iterating a
// cyclic multiplicative group (Z/pZ)* for a prime p slightly larger than the
// number of targets: starting from a random generator g and a random initial
// exponent, repeatedly multiplying by g walks the full group in a
// pseudorandom order, and each group element decodes to one target. Elements
// that decode outside the requested target space are skipped.
//
// The package provides:
//
//   - the fixed table of prime-order groups ZMap uses (2^8+1 up to 2^48+21)
//     with precomputed factorizations of p-1,
//   - the modern generator search (random g in [2, 2^16), verified against
//     the distinct prime factors of p-1), described in §4.1 of "Ten Years
//     of ZMap",
//   - the original 2013 generator search (additive-group mapping) kept as a
//     baseline so its breakdown on 48-bit groups can be demonstrated, and
//   - iterators over exponent ranges and strides, which the shard package
//     composes into interleaved and pizza sharding.
//
// Note: the IMC paper's text says the largest group is 2^48+23; that value
// is composite. The actual ZMap group modulus is 2^48+21, which is what we
// use (verified prime in tests).
package cyclic

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"zmapgo/internal/mathx"
)

// Group is a multiplicative group (Z/pZ)* of prime modulus P. Its order is
// P-1, and PM1Factors lists the distinct prime factors of P-1, which is
// everything needed to test whether a candidate is a generator.
type Group struct {
	P          uint64   // prime modulus
	PM1Factors []uint64 // distinct prime factors of P-1, ascending
}

// Order returns the order of the group, P-1.
func (g Group) Order() uint64 { return g.P - 1 }

// groups is ZMap's group table: for each target-space size there is a prime
// barely above a power of two, so at most ~half of iterated elements are
// skipped (and usually far fewer). The factorizations are precomputed, as
// the paper describes, so generator checking is a handful of modular
// exponentiations at scan start.
var groups = []Group{
	{(1 << 8) + 1, []uint64{2}},                           // 257
	{(1 << 16) + 1, []uint64{2}},                          // 65537
	{(1 << 24) + 43, []uint64{2, 23, 103, 3541}},          // 16777259
	{(1 << 28) + 3, []uint64{2, 3, 19, 87211}},            // 268435459
	{(1 << 32) + 15, []uint64{2, 3, 5, 131, 364289}},      // 4294967311
	{(1 << 34) + 25, []uint64{2, 83, 1277, 20261}},        //
	{(1 << 36) + 31, []uint64{2, 163, 883, 238727}},       //
	{(1 << 40) + 15, []uint64{2, 3, 5, 36650387593}},      //
	{(1 << 44) + 7, []uint64{2, 11, 53, 97, 155542661}},   //
	{(1 << 48) + 21, []uint64{2, 3, 7, 1361, 2462081249}}, //
}

// Groups returns a copy of the group table, smallest first.
func Groups() []Group {
	out := make([]Group, len(groups))
	copy(out, groups)
	return out
}

// ErrTooLarge is returned when a target space exceeds the largest group
// (2^48 targets: the full IPv4 space times 2^16 ports).
var ErrTooLarge = errors.New("cyclic: target space exceeds 2^48 largest group")

// GroupForOrder returns the smallest group whose order (P-1) is at least n,
// i.e. that can cover a target space of n elements.
func GroupForOrder(n uint64) (Group, error) {
	for _, g := range groups {
		if g.Order() >= n {
			return g, nil
		}
	}
	return Group{}, ErrTooLarge
}

// MaxGeneratorCandidate bounds random generator candidates to 16 bits so
// that elem*gen products stay within 64-bit arithmetic for the 48-bit
// groups (48+16 = 64). The modern search draws from [2, 2^16).
const MaxGeneratorCandidate = 1 << 16

// FindGenerator implements the modern (factorization-based) generator
// search from §4.1: draw random candidates g in [2, 2^16) and accept the
// first with g^((p-1)/k) != 1 (mod p) for every distinct prime k | p-1.
// It returns the generator and the number of candidates tested; the paper
// reports this averages about four attempts.
func FindGenerator(g Group, rng *rand.Rand) (gen uint64, attempts int) {
	for {
		attempts++
		candidate := uint64(rng.Intn(MaxGeneratorCandidate-2)) + 2
		if candidate >= g.P {
			// Tiny groups (2^8+1) can draw out-of-range candidates.
			candidate = candidate%(g.P-2) + 2
		}
		if mathx.IsGeneratorOfMultiplicativeGroup(candidate, g.P, g.PM1Factors) {
			return candidate, attempts
		}
	}
}

// FindGeneratorAdditive implements the original 2013 search: pick a random
// element a of the additive group (Z/(p-1)Z, +); a generates the additive
// group iff gcd(a, p-1) = 1, which is cheap to test. Then map it into the
// multiplicative group as root^a mod p, where root is any fixed primitive
// root of p. The result is always a generator of (Z/pZ)*, but it lands
// anywhere in [2, p), so when the usable range is capped at maxCandidate
// (2^32 for single-port scans, 2^16 for 48-bit multiport groups) most
// mapped generators are unusable. maxAttempts bounds the search; ok=false
// reports exhaustion. For the 2^48 group, the usable fraction is
// 2^16/2^48 = 2^-32, which is why ZMap flipped the approach.
func FindGeneratorAdditive(g Group, root uint64, maxCandidate uint64, rng *rand.Rand, maxAttempts int) (gen uint64, attempts int, ok bool) {
	order := g.Order()
	for attempts < maxAttempts {
		attempts++
		a := uint64(rng.Int63n(int64(order-1))) + 1
		if mathx.GCD(a, order) != 1 {
			continue // not an additive generator; redraw
		}
		candidate := mathx.PowMod(root, a, g.P)
		if candidate >= 2 && candidate < maxCandidate {
			return candidate, attempts, true
		}
	}
	return 0, attempts, false
}

// SmallestPrimitiveRoot returns the smallest generator of (Z/pZ)*. It is
// used to seed FindGeneratorAdditive, mirroring the hard-coded known roots
// the 2013 implementation shipped.
func SmallestPrimitiveRoot(g Group) uint64 {
	for candidate := uint64(2); candidate < g.P; candidate++ {
		if mathx.IsGeneratorOfMultiplicativeGroup(candidate, g.P, g.PM1Factors) {
			return candidate
		}
	}
	panic("cyclic: no primitive root found (modulus not prime?)")
}

// Cycle is one full pseudorandom permutation of a group: a generator plus a
// random starting offset, so every scan visits targets in a fresh order.
type Cycle struct {
	Group     Group
	Generator uint64
	// Offset is the exponent of the first element; iteration covers
	// exponents [Offset, Offset+Order) mod Order.
	Offset uint64
}

// NewCycle creates a permutation of g seeded by rng: it runs the modern
// generator search and draws a random starting offset.
func NewCycle(g Group, rng *rand.Rand) Cycle {
	gen, _ := FindGenerator(g, rng)
	return Cycle{
		Group:     g,
		Generator: gen,
		Offset:    uint64(rng.Int63n(int64(g.Order()))),
	}
}

// Element returns the group element at exponent position e (mod order),
// relative to the cycle's offset: Generator^(Offset+e) mod P.
func (c Cycle) Element(e uint64) uint64 {
	order := c.Group.Order()
	exp := c.Offset % order
	e %= order
	exp += e
	if exp >= order {
		exp -= order
	}
	// g^order = 1, so exponents reduce mod order.
	return mathx.PowMod(c.Generator, exp, c.Group.P)
}

// Iterator walks count elements of a cycle starting at exponent position
// start (relative to the cycle offset), advancing stride exponent positions
// per step. A full walk is start=0, count=order, stride=1. Sharding carves
// the exponent space into ranges (pizza) or residue classes (interleaved)
// and hands each worker its own Iterator; workers share no state.
type Iterator struct {
	p         uint64
	cur       uint64 // current element, valid when remaining > 0
	step      uint64 // Generator^stride mod P
	stepQ     uint64 // floor(step·2^64 / P): Shoup's quotient for step
	remaining uint64
}

// Iterate returns an iterator over the exponent positions
// start, start+stride, ..., start+(count-1)*stride, all relative to the
// cycle's random offset.
func (c Cycle) Iterate(start, count, stride uint64) *Iterator {
	order := c.Group.Order()
	if stride == 0 {
		stride = 1
	}
	step := mathx.PowMod(c.Generator, stride%order, c.Group.P)
	stepQ, _ := bits.Div64(step, 0, c.Group.P)
	return &Iterator{
		p:         c.Group.P,
		cur:       c.Element(start),
		step:      step,
		stepQ:     stepQ,
		remaining: count,
	}
}

// mulStep returns x·w mod p for x < p, given wq = floor(w·2^64 / p), by
// Shoup's method: hi(x·wq) is floor(x·w/p) or one less, so x·w minus
// that multiple of p, taken mod 2^64, lies in [0, 2p) and one conditional
// subtract finishes it. Three multiplies and no division; exact for every
// p < 2^63, and the largest group is 2^48+21.
func mulStep(x, w, wq, p uint64) uint64 {
	q, _ := bits.Mul64(x, wq)
	r := x*w - q*p
	if r >= p {
		r -= p
	}
	return r
}

// Next returns the next group element, or ok=false when the iterator is
// exhausted. Elements are in [1, P-1].
func (it *Iterator) Next() (elem uint64, ok bool) {
	if it.remaining == 0 {
		return 0, false
	}
	it.remaining--
	elem = it.cur
	it.cur = mulStep(it.cur, it.step, it.stepQ, it.p)
	return elem, true
}

// NextInSpace walks to the next element that decodes inside s and returns
// its target indices, with walked counting the elements it consumed, the
// returned one included. At exhaustion ok is false and walked counts the
// trailing elements that fell outside s. It consumes exactly the elements
// Next would, in the same order, and accepts exactly those Decode does;
// an element outside the space costs one multiply step and a compare.
func (it *Iterator) NextInSpace(s *Space) (ipIdx, portIdx, walked uint64, ok bool) {
	cur, rem := it.cur, it.remaining
	step, stepQ, p := it.step, it.stepQ, it.p
	// v < limit is ipIdx < NumIPs; the port test matters only when
	// NumPorts is not a power of two.
	limit := s.NumIPs << s.portBits
	mask := uint64(1)<<s.portBits - 1
	for rem > 0 {
		rem--
		walked++
		v := cur - 1
		cur = mulStep(cur, step, stepQ, p)
		if v < limit && v&mask < s.NumPorts {
			it.cur, it.remaining = cur, rem
			return v >> s.portBits, v & mask, walked, true
		}
	}
	it.cur, it.remaining = cur, rem
	return 0, 0, walked, false
}

// Remaining returns how many elements the iterator has yet to produce.
func (it *Iterator) Remaining() uint64 { return it.remaining }

// Space maps group elements to (IP index, port index) targets using the
// bit-split encoding from §4.1: the top ceil(log2 IPs) bits of the
// zero-based element select the IP and the bottom ceil(log2 Ports) bits
// select the port. Elements whose decoded indices fall outside the actual
// target counts are skipped by the caller (ok=false).
type Space struct {
	NumIPs   uint64
	NumPorts uint64
	ipBits   uint
	portBits uint
	group    Group
}

// NewSpace selects the smallest group able to cover numIPs*numPorts targets
// under the bit-split encoding (which needs 2^(ipBits+portBits) elements).
func NewSpace(numIPs, numPorts uint64) (*Space, error) {
	if numIPs == 0 || numPorts == 0 {
		return nil, fmt.Errorf("cyclic: empty target space (%d IPs x %d ports)", numIPs, numPorts)
	}
	ipBits := mathx.Log2Ceil(numIPs)
	portBits := mathx.Log2Ceil(numPorts)
	if ipBits+portBits > 48 {
		return nil, ErrTooLarge
	}
	g, err := GroupForOrder(uint64(1) << (ipBits + portBits))
	if err != nil {
		return nil, err
	}
	return &Space{
		NumIPs:   numIPs,
		NumPorts: numPorts,
		ipBits:   ipBits,
		portBits: portBits,
		group:    g,
	}, nil
}

// Group returns the group backing the space.
func (s *Space) Group() Group { return s.group }

// Targets returns the number of real targets, NumIPs * NumPorts.
func (s *Space) Targets() uint64 { return s.NumIPs * s.NumPorts }

// Decode maps a group element (in [1, P-1]) to target indices. ok is false
// when the element falls outside the requested target space and must be
// skipped; because the group modulus is barely above 2^(ipBits+portBits)
// and indices are dense, the expected skip fraction is
// 1 - Targets()/Order().
func (s *Space) Decode(elem uint64) (ipIdx, portIdx uint64, ok bool) {
	v := elem - 1 // elements are 1..P-1; indices are zero-based
	portIdx = v & ((1 << s.portBits) - 1)
	ipIdx = v >> s.portBits
	if ipIdx >= s.NumIPs || portIdx >= s.NumPorts {
		return 0, 0, false
	}
	return ipIdx, portIdx, true
}

// Encode is the inverse of Decode: it returns the group element that
// decodes to (ipIdx, portIdx). It panics if the indices are out of range.
func (s *Space) Encode(ipIdx, portIdx uint64) uint64 {
	if ipIdx >= s.NumIPs || portIdx >= s.NumPorts {
		panic("cyclic: Encode index out of range")
	}
	return (ipIdx<<s.portBits | portIdx) + 1
}
