package netsim

import (
	"math/rand"
	"testing"
	"time"

	"zmapgo/internal/hashx"
)

// The shared schedule utility replaced three independently-implemented
// seeded helpers (faulty.go's keyed frame hash + attempt roll,
// netsim.go's salted loss draw, congestion.go's token buckets). These
// tests pin the extracted primitives against the original per-file
// formulas, re-implemented here verbatim, so no seeded schedule can
// silently shift under a future refactor.

// legacyFrameHash is faulty.go's original FNV-1a keyed hash.
func legacyFrameHash(seed uint64, frame []byte) uint64 {
	h := uint64(14695981039346656037) ^ (seed * 0x9E3779B97F4A7C15)
	for _, b := range frame {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// legacyTransientRoll is faulty.go's original per-attempt fault roll.
func legacyTransientRoll(frameHash, attempt uint64, prob float64) bool {
	h := frameHash ^ (attempt * 0xBF58476D1CE4E5B9)
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	h ^= h >> 29
	return float64(h>>11)/float64(1<<53) < prob
}

// legacyLostDraw is netsim.go's original transient-loss draw.
func legacyLostDraw(seed, salt uint64, prob float64) bool {
	return uniform(hashx.SplitMix64(seed^0xABCD^salt)) < prob
}

func TestScheduleFrameHashPinsLegacy(t *testing.T) {
	frames := [][]byte{
		nil,
		{},
		{0x00},
		{0xFF, 0x00, 0xAB},
		[]byte("deterministic schedule"),
		make([]byte, 64),
	}
	rng := rand.New(rand.NewSource(7))
	long := make([]byte, 1500)
	rng.Read(long)
	frames = append(frames, long)
	for _, seed := range []uint64{0, 1, 42, 0xDEADBEEF, ^uint64(0)} {
		for i, frame := range frames {
			want := legacyFrameHash(seed, frame)
			if got := schedFrameHash(seed, frame); got != want {
				t.Fatalf("seed %#x frame %d: schedFrameHash = %#x, legacy = %#x", seed, i, got, want)
			}
		}
	}
	// Golden value guards the constants themselves.
	if got := schedFrameHash(42, []byte("zmap")); got != legacyFrameHash(42, []byte("zmap")) {
		t.Fatalf("golden mismatch: %#x", got)
	}
}

func TestScheduleMixRollPinsLegacy(t *testing.T) {
	probs := []float64{0, 0.001, 0.25, 0.5, 0.999, 1}
	for _, seed := range []uint64{0, 3, 99} {
		h := schedFrameHash(seed, []byte("probe frame"))
		for attempt := uint64(1); attempt <= 1000; attempt++ {
			for _, p := range probs {
				want := legacyTransientRoll(h, attempt, p)
				if got := schedRoll(schedMix(h, attempt), p); got != want {
					t.Fatalf("seed %d attempt %d prob %v: roll = %v, legacy = %v",
						seed, attempt, p, got, want)
				}
			}
		}
	}
}

func TestScheduleSaltedDrawPinsLegacy(t *testing.T) {
	for _, seed := range []uint64{0, 17, 0xFEEDFACE} {
		for salt := uint64(1); salt <= 5000; salt++ {
			want := legacyLostDraw(seed, salt, 0.37)
			got := uniform(schedSaltedDraw(seed, schedLossDomain, salt)) < 0.37
			if got != want {
				t.Fatalf("seed %d salt %d: draw = %v, legacy = %v", seed, salt, got, want)
			}
		}
	}
}

// legacyBucket is congestion.go's original wall-clock token bucket,
// reproduced over an abstract clock.
type legacyBucket struct {
	rate, burst float64
	tokens      float64
	last        time.Duration
}

func (b *legacyBucket) take(now time.Duration) bool {
	b.tokens += (now - b.last).Seconds() * b.rate
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

func TestTokenBucketPinsLegacySchedule(t *testing.T) {
	const rate, burst = 20000, 400
	nb := newTokenBucket(rate, burst)
	lb := &legacyBucket{rate: rate, burst: burst, tokens: burst}
	rng := rand.New(rand.NewSource(11))
	now := time.Duration(0)
	for i := 0; i < 200000; i++ {
		now += time.Duration(rng.Intn(200)) * time.Microsecond
		want := lb.take(now)
		if got := nb.take(now.Seconds()); got != want {
			t.Fatalf("draw %d at %v: bucket = %v, legacy = %v", i, now, got, want)
		}
	}
}

// TestRecvFaultRNGStreamPinned guards the recvfault pump's RNG
// construction: newScheduleRNG(seed) must produce exactly the stream
// rand.New(rand.NewSource(seed)) did before the extraction.
func TestRecvFaultRNGStreamPinned(t *testing.T) {
	a := newScheduleRNG(123)
	b := rand.New(rand.NewSource(123))
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: %#x != %#x", i, x, y)
		}
	}
}
