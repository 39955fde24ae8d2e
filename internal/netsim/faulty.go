package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Transport is the engine's transport contract (core.Transport, which
// documents it), declared locally so netsim does not import the engine
// package (the engine imports netsim in its tests). Link implements it;
// the fault injectors embed one and override only what they fault, so
// they stack in any order.
type Transport interface {
	SendBatch(frames [][]byte) (sent int, err error)
	Recv() <-chan []byte
	RecvBatch(dst [][]byte) int
	Release(frame []byte)
	Stats() (sent, received, dropped uint64)
}

// SendError is a transport failure injected by FaultyTransport. It wraps
// a syscall errno (ENOBUFS for transient, EIO for fatal) so both the
// structural Transient() classifier and errno-based errors.Is checks
// agree on its class.
type SendError struct {
	transient bool
	errno     syscall.Errno
	reason    string
}

// Error implements error.
func (e *SendError) Error() string {
	kind := "fatal"
	if e.transient {
		kind = "transient"
	}
	return fmt.Sprintf("netsim: %s send fault (%s): %v", kind, e.reason, e.errno)
}

// Transient reports whether retrying the send may succeed.
func (e *SendError) Transient() bool { return e.transient }

// Unwrap exposes the underlying errno for errors.Is.
func (e *SendError) Unwrap() error { return e.errno }

func transientErr(reason string) error {
	return &SendError{transient: true, errno: syscall.ENOBUFS, reason: reason}
}

func fatalErr(reason string) error {
	return &SendError{transient: false, errno: syscall.EIO, reason: reason}
}

// FaultConfig describes a deterministic failure schedule. The zero value
// injects nothing.
type FaultConfig struct {
	// Seed keys the per-frame hash used by TransientProb, so two runs
	// with the same seed fail the same frames.
	Seed uint64

	// FailFirstN makes the first N send attempts *of each distinct
	// frame* fail with a transient error; attempt N+1 of that frame
	// succeeds. Keyed by frame content, so the schedule is immune to
	// thread interleaving. FailFirstN=1 with retries enabled must yield
	// the same unique-success set as a clean transport.
	FailFirstN int

	// TransientProb fails each send attempt with this probability
	// (seeded, per-attempt). 1.0 fails every attempt forever.
	TransientProb float64

	// FailFirstSends makes the first N send attempts overall (across
	// all frames and threads) fail transiently — a burst fault, the
	// shape of a full socket buffer at scan start.
	FailFirstSends int

	// FatalAfter injects a permanent fault: once this many attempts
	// (counted across all threads) have been made, every subsequent
	// send fails with a non-transient error. 0 disables.
	FatalAfter int

	// StallEvery blocks the sender for StallFor on every k-th attempt,
	// modeling a wedged driver. 0 disables.
	StallEvery int
	StallFor   time.Duration
}

// FaultyTransport wraps a Transport and injects send failures per a
// deterministic FaultConfig. Receive, release and stats are the wrapped
// transport's own; injected failures never reach it, so its sent count
// reflects real deliveries.
type FaultyTransport struct {
	Transport
	cfg FaultConfig

	attemptCount atomic.Uint64 // all attempts, success or not
	injected     atomic.Uint64 // attempts that were failed

	mu       sync.Mutex
	perFrame map[uint64]int // frame hash -> attempts seen
}

// NewFaultyTransport decorates inner with the given fault schedule.
func NewFaultyTransport(inner Transport, cfg FaultConfig) *FaultyTransport {
	return &FaultyTransport{
		Transport: inner,
		cfg:       cfg,
		perFrame:  make(map[uint64]int),
	}
}

// frameHash identifies the probe by seed-keyed content hash (see
// schedFrameHash); frames are unique per (dst, port) in a scan.
func (f *FaultyTransport) frameHash(frame []byte) uint64 {
	return schedFrameHash(f.cfg.Seed, frame)
}

// fault counts one send attempt of frame against the schedule and
// returns the failure it injects, or nil when the attempt goes through.
// Safe for concurrent use.
func (f *FaultyTransport) fault(frame []byte) error {
	attempt := f.attemptCount.Add(1) // 1-based

	if f.cfg.StallEvery > 0 && attempt%uint64(f.cfg.StallEvery) == 0 && f.cfg.StallFor > 0 {
		time.Sleep(f.cfg.StallFor)
	}

	if f.cfg.FatalAfter > 0 && attempt > uint64(f.cfg.FatalAfter) {
		f.injected.Add(1)
		return fatalErr("fatal-after threshold crossed")
	}

	if f.cfg.FailFirstSends > 0 && attempt <= uint64(f.cfg.FailFirstSends) {
		f.injected.Add(1)
		return transientErr("initial send burst fault")
	}

	if f.cfg.FailFirstN > 0 {
		h := f.frameHash(frame)
		f.mu.Lock()
		seen := f.perFrame[h]
		f.perFrame[h] = seen + 1
		f.mu.Unlock()
		if seen < f.cfg.FailFirstN {
			f.injected.Add(1)
			return transientErr("first attempts of frame fail")
		}
	}

	if f.cfg.TransientProb > 0 {
		// Mix the frame hash with the attempt ordinal so retries of the
		// same frame re-roll.
		if schedRoll(schedMix(f.frameHash(frame), attempt), f.cfg.TransientProb) {
			f.injected.Add(1)
			return transientErr("probabilistic transient fault")
		}
	}
	return nil
}

// SendBatch applies the fault schedule frame by frame, forwarding each
// frame to the wrapped transport only when no fault fires: per-frame
// schedules (FailFirstN), attempt-ordinal schedules (FailFirstSends,
// FatalAfter, StallEvery), and probabilistic faults all count each frame
// as one attempt, whatever the batch size. The first fault splits the
// batch: frames[:sent] were delivered, the failing frame was not, the
// rest were not attempted.
func (f *FaultyTransport) SendBatch(frames [][]byte) (int, error) {
	for i := range frames {
		if err := f.fault(frames[i]); err != nil {
			return i, err
		}
		if _, err := f.Transport.SendBatch(frames[i : i+1]); err != nil {
			return i, err
		}
	}
	return len(frames), nil
}

// Injected returns how many send attempts the fault schedule failed.
func (f *FaultyTransport) Injected() uint64 { return f.injected.Load() }

// Attempts returns how many send attempts were made in total.
func (f *FaultyTransport) Attempts() uint64 { return f.attemptCount.Load() }
