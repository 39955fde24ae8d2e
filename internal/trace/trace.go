// Package trace is the scan flight recorder: an always-on, bounded-memory
// event tracer that answers "what did the scan actually do, and why?"
// after the fact.
//
// Two streams with very different rates share one timeline:
//
//   - The ring: per-shard lock-free ring buffers of fixed-size probe
//     lifecycle events for a deterministic 1-in-N sample of targets
//     (generated → rendered → sent → retried → response-received →
//     validated → deduped → written). Each sender thread owns one shard,
//     the receive loop owns another, so the record hot path is a plain
//     cursor increment plus a handful of atomic word stores — no locks,
//     no allocation, bounded by the ring size.
//
//   - The journal: controller and lifecycle decisions (AIMD cuts and
//     increases with their evidence windows, quarantine, parole,
//     cooldown, checkpoints, phase changes, scenario faults). These are
//     rare — tens per scan — so every one is kept, unsampled, behind a
//     mutex with a bounded backing slice.
//
// Timestamps are monotonic nanoseconds since the recorder's epoch (the
// wall-clock epoch rides every dump header), so per-stage latency is
// attributable and ring and journal merge onto one ordering.
//
// Dumps (JSONL and Chrome trace-event JSON, see dump.go) are safe to
// take concurrently with writers: slot publication is seqlock-style —
// writers invalidate the sequence word, store the payload, then publish
// the new sequence — and the reader discards any slot whose sequence
// word changed mid-read.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zmapgo/internal/hashx"
)

// Kind identifies one ring event type.
type Kind uint8

const (
	// KInvalid marks an empty or torn slot; never recorded.
	KInvalid Kind = iota
	// Probe lifecycle, send side.
	KProbeGen      // target left the generator (post-decode, pre-render)
	KProbeRendered // frame bytes rendered into the batch ring
	KProbeSent     // frame handed to the transport (batch resolve time)
	KProbeRetry    // frame re-sent after a transient transport error
	KProbeDropped  // frame abandoned (retries exhausted or canceled)
	// Probe lifecycle, receive side.
	KRespReceived  // raw frame arrived at the receive loop
	KRespValidated // parsed, checksummed, and classified as ours
	KRespDeduped   // dedup verdict reached (Val: 1 = duplicate)
	KRespWritten   // record handed to the output writer
	// Transport / netsim faults.
	KFaultDrop // probe consumed by an emulated fault (Val: fault class)
	kindCount
)

var kindNames = [kindCount]string{
	KInvalid:       "invalid",
	KProbeGen:      "probe_gen",
	KProbeRendered: "probe_rendered",
	KProbeSent:     "probe_sent",
	KProbeRetry:    "probe_retry",
	KProbeDropped:  "probe_dropped",
	KRespReceived:  "resp_received",
	KRespValidated: "resp_validated",
	KRespDeduped:   "resp_deduped",
	KRespWritten:   "resp_written",
	KFaultDrop:     "fault_drop",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindByName resolves a dump-format kind name back to its Kind.
// Unknown names return KInvalid.
func KindByName(name string) Kind {
	for k, n := range kindNames {
		if n == name {
			return Kind(k)
		}
	}
	return KInvalid
}

// Fault classes carried in a KFaultDrop event's Val word. Code 0 is
// reserved for "unknown" so real classes survive JSON omitempty.
var faultClasses = []string{"unknown", "blackout", "bursty_loss",
	"asym_forward", "asym_reverse", "knee"}

// FaultClassCode packs a fault-class name for KFaultDrop's Val.
func FaultClassCode(name string) uint64 {
	for i, n := range faultClasses {
		if n == name {
			return uint64(i)
		}
	}
	return 0
}

// FaultClassName decodes a KFaultDrop Val back to its class name.
func FaultClassName(code uint64) string {
	if code < uint64(len(faultClasses)) {
		return faultClasses[code]
	}
	return "unknown"
}

// Journal entry kinds. Unlike ring kinds these are open-ended strings:
// the journal is rare-event rich, not hot-path packed.
const (
	JRateDecrease  = "rate_decrease"
	JRateIncrease  = "rate_increase"
	JQuarantine    = "quarantine"
	JParoleGrant   = "parole_grant"
	JParoleAttempt = "parole_attempt"
	JParoleRelease = "parole_release"
	JParoleFail    = "parole_fail"
	JCooldownBegin = "cooldown_begin"
	JCooldownEnd   = "cooldown_end"
	JPhase         = "phase"
	JCheckpoint    = "checkpoint"
	JScenarioBegin = "scenario_begin"
	JScenarioEnd   = "scenario_end"
	JStatus        = "status"
	JAbort         = "abort"
)

// Fleet coordinator journal kinds (see internal/fleet): worker lifecycle
// (spawn/adopt/exit/done), the lease reclaim state machine
// (lease_expired → reclaim → respawn, with backoff), global rate budget
// redistribution, injected chaos faults, and the merge stage. JEntry
// usage: Index carries the shard, Name the worker ID, RatePPS the
// allocation after a realloc decision.
const (
	JFleetStart        = "fleet_start"
	JFleetSpawn        = "fleet_spawn"
	JFleetAdopt        = "fleet_adopt"
	JFleetWorkerDone   = "fleet_worker_done"
	JFleetWorkerExit   = "fleet_worker_exit"
	JFleetLeaseExpired = "fleet_lease_expired"
	JFleetReclaim      = "fleet_reclaim"
	JFleetRespawn      = "fleet_respawn"
	JFleetRateRealloc  = "fleet_rate_realloc"
	JFleetFault        = "fleet_fault"
	JFleetMerge        = "fleet_merge"
	JFleetDone         = "fleet_done"
)

// Network control plane journal kinds (see internal/fleetnet): the
// coordinator's HTTP listener lifecycle, server-side epoch fencing of
// late RPCs from reclaimed workers (renew/checkpoint/result/commit,
// named in Reason), result-upload offset resets after lost chunks,
// grants offered to and acquired by remote joined workers, and rate-file
// publication failures that exhausted their retry budget
// (fleet_rate_write_failed; Index is the shard whose budget slice could
// not be published).
const (
	JFleetNetListen  = "fleet_net_listen"
	JFleetNetFence   = "fleet_net_fence"
	JFleetNetGap     = "fleet_net_upload_gap"
	JFleetOffer      = "fleet_offer"
	JFleetAcquire    = "fleet_acquire"
	JFleetRateLost   = "fleet_rate_write_failed"
	JFleetSelfFence  = "fleet_self_fence"
	JFleetNetExit    = "fleet_net_exit"
	JFleetNetCommit  = "fleet_net_commit"
	JFleetNetCkptRej = "fleet_net_ckpt_rejected"
)

// JEntry is one journal record. Fields are a flat union across entry
// kinds; zero values are omitted from dumps.
type JEntry struct {
	TS   int64  `json:"ts_ns"` // ns since recorder epoch; stamped on Journal() if zero
	Kind string `json:"kind"`

	Reason string `json:"reason,omitempty"` // e.g. "unreach_spike", "hit_rate_collapse"
	Phase  string `json:"phase,omitempty"`
	Prefix string `json:"prefix,omitempty"` // quarantine/parole subject
	Name   string `json:"name,omitempty"`   // scenario event type or free label
	Index  int    `json:"index,omitempty"`  // scenario event index

	RatePPS     float64 `json:"rate_pps,omitempty"` // controller rate after the decision
	WindowSent  uint64  `json:"window_sent,omitempty"`
	WindowRecv  uint64  `json:"window_recv,omitempty"`
	UnreachFrac float64 `json:"unreach_frac,omitempty"`
	HitRate     float64 `json:"hit_rate,omitempty"`
	Baseline    float64 `json:"baseline,omitempty"`

	Detail string `json:"detail,omitempty"`
}

// Config sizes a Recorder. Zero values take defaults.
type Config struct {
	// Shards is the number of independent ring writers (sender threads
	// plus one for the receive loop). Default 1.
	Shards int
	// RingSize is the per-shard slot count, rounded up to a power of
	// two. Default 8192. Memory is RingSize × 32 bytes per shard.
	RingSize int
	// SampleEvery traces 1 in SampleEvery targets, rounded up to a
	// power of two. Default 256. 1 traces every target; negative
	// disables probe sampling entirely (the journal stays on).
	SampleEvery int
	// JournalCap bounds the decision journal. Default 65536 entries;
	// overflow increments a drop counter instead of growing.
	JournalCap int
}

const (
	defaultRingSize    = 8192
	defaultSampleEvery = 256
	defaultJournalCap  = 65536
	slotWords          = 4 // seq, ts, key, val
)

// Shard is a single-writer ring. Exactly one goroutine may call
// Record/RecordAt on a given shard; any number may snapshot it.
type Shard struct {
	rec    *Recorder
	mask   uint64
	cursor uint64 // writer-owned; seq of the last published event
	words  []atomic.Uint64
	_      [4]uint64 // keep neighboring shards' cursors off this line
}

// Recorder owns the ring shards and the decision journal.
type Recorder struct {
	epoch       time.Time
	shards      []*Shard
	sampleMask  uint64
	sampleEvery int
	ringSize    int

	mu         sync.Mutex
	journal    []JEntry
	journalCap int
	jDropped   uint64
}

// ceilPow2 rounds n up to a power of two (minimum 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New builds a Recorder. The epoch is captured now; all event
// timestamps are monotonic nanoseconds since it.
func New(cfg Config) *Recorder {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = defaultRingSize
	}
	cfg.RingSize = ceilPow2(cfg.RingSize)
	if cfg.JournalCap <= 0 {
		cfg.JournalCap = defaultJournalCap
	}
	jhint := cfg.JournalCap
	if jhint > 1024 {
		jhint = 1024
	}
	r := &Recorder{
		epoch:      time.Now(),
		ringSize:   cfg.RingSize,
		journal:    make([]JEntry, 0, jhint),
		journalCap: cfg.JournalCap,
	}
	switch {
	case cfg.SampleEvery < 0:
		r.sampleEvery = -1
		r.sampleMask = ^uint64(0) // Sampled() always false
	case cfg.SampleEvery == 0:
		r.sampleEvery = defaultSampleEvery
	default:
		r.sampleEvery = ceilPow2(cfg.SampleEvery)
	}
	if r.sampleEvery > 0 {
		r.sampleMask = uint64(r.sampleEvery - 1)
	}
	r.shards = make([]*Shard, cfg.Shards)
	for i := range r.shards {
		r.shards[i] = &Shard{
			rec:   r,
			mask:  uint64(cfg.RingSize - 1),
			words: make([]atomic.Uint64, cfg.RingSize*slotWords),
		}
	}
	return r
}

// Epoch returns the wall-clock instant event timestamps count from.
func (r *Recorder) Epoch() time.Time { return r.epoch }

// SampleEvery reports the effective sampling period (-1 if probe
// sampling is disabled).
func (r *Recorder) SampleEvery() int { return r.sampleEvery }

// Now returns the current trace timestamp: monotonic nanoseconds since
// the recorder epoch.
func (r *Recorder) Now() int64 { return int64(time.Since(r.epoch)) }

// Shard returns ring writer i (clamped to the shard count, so a caller
// with a larger thread index degrades to sharing the last shard rather
// than panicking — sharing violates the single-writer contract only if
// both writers are live, which the engine's thread/shard sizing avoids).
func (r *Recorder) Shard(i int) *Shard {
	if i < 0 {
		i = 0
	}
	if i >= len(r.shards) {
		i = len(r.shards) - 1
	}
	return r.shards[i]
}

// Sampled reports whether the (ip, port) target is in the trace sample.
// It is deterministic and stateless, so the send path and the receive
// path independently agree on which targets are traced — no per-probe
// state crosses the wire, the same trick ZMap's validators use.
func (r *Recorder) Sampled(ip uint32, port uint16) bool {
	if r.sampleMask == ^uint64(0) {
		return false
	}
	return hashx.Mix64(uint64(ip)<<16|uint64(port))&r.sampleMask == 0
}

// Key packs a sampled target for later Record calls: non-zero iff
// sampled. The send path stashes this in its pending bookkeeping so the
// post-flush resolve step can record KProbeSent without rehashing.
func (r *Recorder) Key(ip uint32, port uint16) uint64 {
	if !r.Sampled(ip, port) {
		return 0
	}
	return uint64(ip)<<32 | uint64(port)<<16 | 1
}

// KeyParts unpacks a Key built by Key.
func KeyParts(key uint64) (ip uint32, port uint16) {
	return uint32(key >> 32), uint16(key >> 16)
}

// RecordAt appends one event with a caller-supplied timestamp (from
// Recorder.Now), for hot paths that already hold one. Single writer per
// shard; see Shard.
func (s *Shard) RecordAt(ts int64, k Kind, ip uint32, port uint16, val uint64) {
	c := s.cursor + 1
	s.cursor = c
	base := (c & s.mask) * slotWords
	w := s.words
	// Seqlock publication: invalidate, store payload, publish. A
	// concurrent snapshot rereads the seq word after copying the payload
	// and discards the slot unless both reads returned c.
	w[base].Store(0)
	w[base+1].Store(uint64(ts))
	w[base+2].Store(uint64(ip)<<32 | uint64(port)<<16 | uint64(k))
	w[base+3].Store(val)
	w[base].Store(c)
}

// Record appends one event stamped now.
func (s *Shard) Record(k Kind, ip uint32, port uint16, val uint64) {
	s.RecordAt(s.rec.Now(), k, ip, port, val)
}

// RecordKeyAt is RecordAt addressed by a packed Key (no-op on zero).
func (s *Shard) RecordKeyAt(ts int64, k Kind, key uint64, val uint64) {
	if key == 0 {
		return
	}
	ip, port := KeyParts(key)
	s.RecordAt(ts, k, ip, port, val)
}

// Journal appends one decision entry, stamping TS if the caller left it
// zero. Over JournalCap the entry is counted as dropped instead.
func (r *Recorder) Journal(e JEntry) {
	if e.TS == 0 {
		e.TS = r.Now()
	}
	r.mu.Lock()
	if len(r.journal) >= r.journalCap {
		r.jDropped++
		r.mu.Unlock()
		return
	}
	r.journal = append(r.journal, e)
	r.mu.Unlock()
}

// Event is one decoded ring slot.
type Event struct {
	Shard int
	Seq   uint64
	TS    int64 // ns since epoch
	Kind  Kind
	IP    uint32
	Port  uint16
	Val   uint64
}

// Snapshot is a consistent copy of the recorder's retained state.
type Snapshot struct {
	Epoch       time.Time
	SampleEvery int
	Shards      int
	RingSize    int
	Events      []Event // ascending by TS
	Journal     []JEntry
	JournalDrop uint64
}

// Snapshot copies the retained ring window and the journal. It is safe
// concurrently with writers: torn slots (overwritten mid-copy) are
// discarded, which can cost at most the few events written during the
// copy itself.
func (r *Recorder) Snapshot() *Snapshot {
	snap := &Snapshot{
		Epoch:       r.epoch,
		SampleEvery: r.sampleEvery,
		Shards:      len(r.shards),
		RingSize:    r.ringSize,
	}
	for si, sh := range r.shards {
		for slot := 0; slot < r.ringSize; slot++ {
			base := slot * slotWords
			seq := sh.words[base].Load()
			if seq == 0 {
				continue
			}
			ts := sh.words[base+1].Load()
			key := sh.words[base+2].Load()
			val := sh.words[base+3].Load()
			if sh.words[base].Load() != seq {
				continue // torn: writer landed mid-copy
			}
			snap.Events = append(snap.Events, Event{
				Shard: si,
				Seq:   seq,
				TS:    int64(ts),
				Kind:  Kind(key & 0xff),
				IP:    uint32(key >> 32),
				Port:  uint16(key >> 16),
				Val:   val,
			})
		}
	}
	sortEvents(snap.Events)
	r.mu.Lock()
	snap.Journal = append([]JEntry(nil), r.journal...)
	snap.JournalDrop = r.jDropped
	r.mu.Unlock()
	return snap
}

// sortEvents orders by timestamp, then shard/seq for determinism.
func sortEvents(ev []Event) {
	sort.Slice(ev, func(i, j int) bool {
		a, b := ev[i], ev[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Seq < b.Seq
	})
}
