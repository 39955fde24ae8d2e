package zmap

import (
	"time"

	"zmapgo/internal/l7"
	"zmapgo/internal/netsim"
)

// Internet is a handle to the deterministic simulated IPv4 Internet the
// library ships as its testbed. All population behavior is a pure
// function of the seed, so scans against the same Internet are exactly
// reproducible.
type Internet struct {
	inner *netsim.Internet
}

// SimOptions tunes the simulated population. The zero value means "use
// the paper-calibrated defaults" (see internal/netsim.DefaultConfig).
type SimOptions struct {
	// Seed selects the population.
	Seed uint64 `json:"seed"`
	// Lossless disables transient packet loss (useful for exact-count
	// experiments; the default models ~2.7% single-probe miss).
	Lossless bool `json:"lossless,omitempty"`
	// DisableBlowback removes duplicate-response trains.
	DisableBlowback bool `json:"disable_blowback,omitempty"`
}

// NewInternet creates a simulated Internet.
func NewInternet(opts SimOptions) *Internet {
	cfg := netsim.DefaultConfig(opts.Seed)
	if opts.Lossless {
		cfg.ProbeLoss, cfg.ResponseLoss, cfg.PathBadFraction = 0, 0, 0
	}
	if opts.DisableBlowback {
		cfg.BlowbackFraction = 0
	}
	return &Internet{inner: netsim.New(cfg)}
}

// NewLink attaches a scanner-facing transport. buffer sizes the receive
// ring (0 = 4096); timeScale compresses simulated RTTs into wall time
// (0 delivers instantly, 1 is real time). Close it when done.
func (i *Internet) NewLink(buffer int, timeScale float64) *Link {
	inner := netsim.NewLink(i.inner, buffer, timeScale)
	return &Link{Transport: inner, inner: inner}
}

// Link is a simulated network attachment implementing Transport. Fault
// injectors (see NewFaultyLink, WithRecvFaults) can sit between the
// scanner and the simulated wire to exercise the engine's retry,
// supervision and receive-hardening paths; each wraps whatever is on top
// of the stack, so they compose in either order.
type Link struct {
	// Transport is the top of the stack: inner, or the outermost
	// injector over it.
	netsim.Transport

	inner *netsim.Link               // the simulated wire at the bottom
	recv  *netsim.RecvFaultTransport // non-nil when receive faults are on
}

// FaultOptions injects deterministic transport failures into a simulated
// link, for testing scanner resilience. See core's retry policy for how
// each class of failure is handled.
type FaultOptions struct {
	// Seed keys the probabilistic schedule.
	Seed uint64
	// FailFirstN fails the first N send attempts of each distinct frame
	// with a transient (retryable) error.
	FailFirstN int
	// TransientProb fails each attempt with this probability.
	TransientProb float64
	// FailFirstSends fails the first N attempts overall (burst fault).
	FailFirstSends int
	// FatalAfter makes every send fail permanently once this many
	// attempts have been made (0 = never).
	FatalAfter int
	// StallEvery/StallFor block every k-th attempt for the duration,
	// modeling a wedged driver.
	StallEvery int
	StallFor   time.Duration
}

// RecvFaultOptions injects seeded receive-path faults into a simulated
// link: the hostile-network half of fault testing. Each class has its
// own probability; see the engine's recv_* counters for how rejected
// frames are accounted.
type RecvFaultOptions struct {
	// Seed keys the injector's RNG; equal seeds replay the schedule.
	Seed int64
	// TruncateProb cuts frames short at a random byte.
	TruncateProb float64
	// CorruptProb flips 1-3 random bits.
	CorruptProb float64
	// DuplicateProb delivers frames twice.
	DuplicateProb float64
	// ReorderProb holds frames for ReorderDelay (default 2ms) so later
	// traffic overtakes them.
	ReorderProb  float64
	ReorderDelay time.Duration
	// SpoofProb additionally injects forged SYN-ACKs with valid
	// structure and checksums that must die in stateless validation.
	SpoofProb float64
}

func (o RecvFaultOptions) enabled() bool {
	return o.TruncateProb > 0 || o.CorruptProb > 0 || o.DuplicateProb > 0 ||
		o.ReorderProb > 0 || o.SpoofProb > 0
}

// WithRecvFaults wraps the link's receive path in a seeded fault
// injector. Call before handing the link to Compile; returns the same
// link for chaining.
func (l *Link) WithRecvFaults(opts RecvFaultOptions) *Link {
	if !opts.enabled() {
		return l
	}
	l.recv = netsim.NewRecvFaultTransport(l.Transport, netsim.RecvFaultConfig{
		Seed:          opts.Seed,
		TruncateProb:  opts.TruncateProb,
		CorruptProb:   opts.CorruptProb,
		DuplicateProb: opts.DuplicateProb,
		ReorderProb:   opts.ReorderProb,
		ReorderDelay:  opts.ReorderDelay,
		SpoofProb:     opts.SpoofProb,
	})
	l.Transport = l.recv
	return l
}

// RecvFaultsInjected reports how many receive faults of each class the
// link's injector applied, keyed by class name ("truncate", "corrupt",
// "duplicate", "reorder", "spoof"). Nil when WithRecvFaults was never
// enabled.
func (l *Link) RecvFaultsInjected() map[string]uint64 {
	if l.recv == nil {
		return nil
	}
	out := make(map[string]uint64, 5)
	for _, c := range []netsim.RecvFaultClass{
		netsim.RecvFaultTruncate, netsim.RecvFaultCorrupt,
		netsim.RecvFaultDuplicate, netsim.RecvFaultReorder, netsim.RecvFaultSpoof,
	} {
		out[c.String()] = l.recv.Injected(c)
	}
	return out
}

// CongestionOptions models a constrained path between the scanner and
// the simulated Internet: a token-bucket capacity knee above which
// probes are dropped, an ICMP budget that turns a fraction of those
// drops into rate-limited destination-unreachable messages from the
// edge router, and an optional seeded "prefix goes dark mid-scan"
// interference fault.
type CongestionOptions struct {
	// CapacityPPS is the path's sustainable packet rate; probes beyond
	// it (less a small Burst allowance) are silently dropped.
	CapacityPPS float64
	// Burst is the token-bucket depth (0 = CapacityPPS/50, min 16).
	Burst float64
	// ICMPPPS bounds destination-unreachable generation for dropped
	// probes, modeling router ICMP rate limiting (0 = no unreachables).
	ICMPPPS float64
	// ICMPBurst is the ICMP bucket depth (0 = ICMPPPS/50, min 8).
	ICMPBurst float64
	// DarkPrefix, when non-zero, is an address in the prefix that stops
	// responding entirely after DarkAfter probes have entered the wire —
	// the interference fault the quarantine detector exists for (e.g.
	// 10.1.0.0 with DarkBits 16 darkens 10.1.0.0/16).
	DarkPrefix uint32
	// DarkBits is the dark prefix length, 8-32 (0 = 16).
	DarkBits int
	// DarkAfter is the probe count that triggers the dark prefix.
	DarkAfter uint64
}

// WithCongestion installs the congestion model on the link. Call before
// scanning; returns the same link for chaining.
func (l *Link) WithCongestion(opts CongestionOptions) *Link {
	l.inner.SetCongestion(netsim.CongestionConfig{
		CapacityPPS: opts.CapacityPPS,
		Burst:       opts.Burst,
		ICMPPPS:     opts.ICMPPPS,
		ICMPBurst:   opts.ICMPBurst,
		DarkPrefix:  opts.DarkPrefix,
		DarkBits:    opts.DarkBits,
		DarkAfter:   opts.DarkAfter,
	})
	return l
}

// Scenario is a scripted "network weather" timeline for the simulated
// link: Gilbert-Elliott bursty loss, latency ramps, transient prefix
// blackouts, time-varying cross-traffic, asymmetric loss, and ICMP
// unreachable storms, all deterministic from the scenario seed. Load
// one from JSON with LoadScenario.
type Scenario = netsim.Scenario

// WeatherStats counts what a scenario did to the link's traffic.
type WeatherStats = netsim.WeatherStats

// LoadScenario reads and validates a JSON scenario profile (see
// conf/scenarios/ for examples).
func LoadScenario(path string) (*Scenario, error) { return netsim.LoadScenario(path) }

// ParseScenario parses and validates scenario profile bytes.
func ParseScenario(data []byte) (*Scenario, error) { return netsim.ParseScenario(data) }

// WithScenario installs a compiled weather scenario on the link. The
// scenario clock starts at the link's first probe. Call before
// scanning; returns the same link for chaining.
func (l *Link) WithScenario(sc *Scenario) (*Link, error) {
	w, err := netsim.NewWeather(sc)
	if err != nil {
		return nil, err
	}
	l.inner.SetWeather(w)
	return l, nil
}

// WeatherStatsSnapshot reports what the installed scenario has done so
// far. Zero-valued when WithScenario was never called.
func (l *Link) WeatherStatsSnapshot() WeatherStats { return l.inner.WeatherStats() }

// CongestionStats reports what the congestion model did: probes dropped
// at the capacity knee, unreachables generated, and probes swallowed by
// the dark prefix. Zero-valued when WithCongestion was never called.
func (l *Link) CongestionStats() (dropped, icmpSent, darkDropped uint64) {
	st := l.inner.CongestionStats()
	return st.Dropped, st.ICMPSent, st.DarkDropped
}

// NewFaultyLink attaches a transport whose sends fail per the given
// deterministic schedule. Responses to probes that do get through are
// delivered normally.
func (i *Internet) NewFaultyLink(buffer int, timeScale float64, faults FaultOptions) *Link {
	l := i.NewLink(buffer, timeScale)
	l.Transport = netsim.NewFaultyTransport(l.Transport, netsim.FaultConfig{
		Seed:           faults.Seed,
		FailFirstN:     faults.FailFirstN,
		TransientProb:  faults.TransientProb,
		FailFirstSends: faults.FailFirstSends,
		FatalAfter:     faults.FatalAfter,
		StallEvery:     faults.StallEvery,
		StallFor:       faults.StallFor,
	})
	return l
}

// SetSimDelayRecorder attaches a recorder for each scheduled response's
// simulated (unscaled) delay. Compile calls this automatically when the
// transport is a sim Link, feeding zmapgo_sim_response_delay_seconds.
func (l *Link) SetSimDelayRecorder(r interface{ Record(d time.Duration) }) {
	l.inner.SetDelayRecorder(r)
}

// SetWeatherObserver forwards scenario instrumentation to the link's
// weather layer. Compile calls this automatically so scenario events
// and fault drops land in the scan's flight recorder.
func (l *Link) SetWeatherObserver(obs netsim.WeatherObserver) {
	l.inner.SetWeatherObserver(obs)
}

// Drain blocks until in-flight simulated deliveries complete.
func (l *Link) Drain() { l.inner.Drain() }

// Close stops deliveries (and the receive-fault pump, if attached).
func (l *Link) Close() {
	if l.recv != nil {
		l.recv.Stop()
	}
	l.inner.Close()
}

// ServiceOpen reports ground truth: a real TCP service at (ip, port),
// excluding middlebox illusions. Experiments use it as the denominator.
func (i *Internet) ServiceOpen(ip uint32, port uint16) bool {
	return i.inner.ServiceOpen(ip, port)
}

// Middlebox reports whether ip sits behind a SYN-ACK-everything prefix.
func (i *Internet) Middlebox(ip uint32) bool { return i.inner.Middlebox(ip) }

// Live reports whether any host exists at ip.
func (i *Internet) Live(ip uint32) bool { return i.inner.Live(ip) }

// Banner returns the L7 banner a connect to (ip, port) would yield.
func (i *Internet) Banner(ip uint32, port uint16) string { return i.inner.Banner(ip, port) }

// RTT returns the simulated round-trip time to ip.
func (i *Internet) RTT(ip uint32) time.Duration { return i.inner.RTT(ip) }

// GrabResult is the outcome of an application-layer follow-up.
type GrabResult struct {
	HandshakeOK     bool
	ServiceDetected bool
	Protocol        string
	Banner          string
	Middlebox       bool
}

// Grab performs a ZGrab/LZR-style L7 follow-up against (ip, port): it
// completes the handshake and attempts banner capture. Use it after an
// L4 scan to separate services from middleboxes (two-phase scanning, §3).
func (i *Internet) Grab(ip uint32, port uint16) GrabResult {
	r := l7.NewGrabber(i.inner).Grab(ip, port)
	return GrabResult{
		HandshakeOK:     r.HandshakeOK,
		ServiceDetected: r.ServiceDetected,
		Protocol:        r.Protocol.String(),
		Banner:          r.Banner,
		Middlebox:       r.Middlebox,
	}
}

// GrabStructured is Grab plus protocol-module parsing (the zgrab2
// pattern): when a banner arrives, the named module — or auto-detection
// when module is empty — extracts typed fields like status_code, server,
// certificate_cn, or software. GrabModules lists the module names.
func (i *Internet) GrabStructured(ip uint32, port uint16, module string) (GrabResult, map[string]string, error) {
	r, fields, err := l7.NewGrabber(i.inner).StructuredGrab(ip, port, module)
	return GrabResult{
		HandshakeOK:     r.HandshakeOK,
		ServiceDetected: r.ServiceDetected,
		Protocol:        r.Protocol.String(),
		Banner:          r.Banner,
		Middlebox:       r.Middlebox,
	}, fields, err
}

// GrabModules lists the protocol modules usable with GrabStructured.
func GrabModules() []string { return l7.ModuleNames() }
