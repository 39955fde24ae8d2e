package netsim

import (
	"math/rand"
	"sync"

	"zmapgo/internal/hashx"
)

// Deterministic fault-schedule primitives shared by the simulator's
// fault injectors (faulty.go, recvfault.go, congestion.go) and the
// scenario weather layer (scenario.go). Every schedule decision in the
// simulator reduces to one of these:
//
//   - a keyed content hash identifying a frame (schedFrameHash),
//   - a stateless whitened draw over (hash, ordinal) pairs (schedMix,
//     schedRoll, schedSaltedDraw),
//   - a token bucket metered on a caller-supplied clock (tokenBucket),
//   - a seeded math/rand stream (newScheduleRNG) for injectors whose
//     faults need variable-width random draws.
//
// Centralizing them keeps the schedules byte-for-byte reproducible from
// their seeds across refactors; schedule_test.go pins each one against
// the original per-file formulas.

// schedLossDomain salts the Internet's transient-loss draws so they are
// independent of the population and path hashes built on the same seed.
const schedLossDomain = 0xABCD

// schedFrameHash is FNV-1a over the frame, keyed by the seed. Probe
// frames are unique per (dst, port) in a scan, so the hash identifies
// the probe regardless of which thread or attempt carries it.
func schedFrameHash(seed uint64, frame []byte) uint64 {
	h := uint64(14695981039346656037) ^ (seed * 0x9E3779B97F4A7C15)
	for _, b := range frame {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// schedMix whitens a (hash, ordinal) pair into an independent draw, so
// successive ordinals (retry attempts, packet indices) re-roll rather
// than repeat the base hash's decision.
func schedMix(h, ordinal uint64) uint64 {
	h ^= ordinal * 0xBF58476D1CE4E5B9
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	h ^= h >> 29
	return h
}

// schedRoll converts a whitened draw into a Bernoulli decision.
func schedRoll(h uint64, prob float64) bool {
	return uniform(h) < prob
}

// schedSaltedDraw is the stateless uniform draw behind transient loss:
// splitmix64 over the seed, a domain separator, and a per-decision salt.
func schedSaltedDraw(seed, domain, salt uint64) uint64 {
	return hashx.SplitMix64(seed ^ domain ^ salt)
}

// newScheduleRNG builds the seeded stream used by injectors that need
// variable-width draws (truncation points, bit positions, spoofed
// addresses). Equal seeds replay the same fault sequence.
func newScheduleRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// tokenBucket is the rate/burst meter behind the congestion knee, its
// ICMP budget, and the weather layer's time-varying faults. The clock
// is supplied by the caller in seconds on any monotonic axis — wall
// time on the live link, scripted virtual time in determinism tests —
// which keeps bucket decisions replayable. The bucket starts full; the
// first take anchors the refill clock.
type tokenBucket struct {
	rate  float64
	burst float64

	mu     sync.Mutex
	tokens float64
	last   float64
	primed bool
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	return &tokenBucket{rate: rate, burst: burst, tokens: burst}
}

// take draws one slot at the given time, refilling rate tokens/sec
// since the previous call, capped at the burst depth.
func (b *tokenBucket) take(nowSecs float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.primed {
		b.primed = true
		b.last = nowSecs
	}
	if nowSecs > b.last {
		b.tokens += (nowSecs - b.last) * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = nowSecs
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}
