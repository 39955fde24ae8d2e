package netsim

import (
	"sync"
	"sync/atomic"
	"time"

	"zmapgo/internal/hashx"
	"zmapgo/internal/packet"
)

// Network weather: a scenario-driven fault layer over the simulated
// link. A Scenario is a deterministic, seeded, time-scripted timeline
// of adverse events — bursty loss, latency ramps, blackouts, moving
// capacity knees, asymmetric loss, unreachable storms — that plays over
// the existing host/path model. The controller-facing point: each event
// class stresses a different health-controller signal, so the scenario
// suite is the gauntlet every controller change is re-validated against
// (see DESIGN.md "Network weather").
//
// Every decision is a pure function of (scenario seed, event index,
// per-event packet ordinal), so a scenario replays byte-identically
// from its seed regardless of thread interleaving; trace_test.go pins
// this property.

// Scenario event types.
const (
	// ScenarioBurstyLoss is Gilbert-Elliott two-state bursty loss on the
	// forward path: per-packet Markov transitions between a good state
	// (LossGood) and a bad state (LossBad). Stresses the controller's
	// ability to distinguish loss bursts from sustained congestion.
	ScenarioBurstyLoss = "bursty_loss"
	// ScenarioLatency adds ramped extra delay plus uniform jitter to
	// responses (optionally per-prefix). Stresses cooldown/drain and the
	// windowed hit-rate math (late responses land in later windows).
	ScenarioLatency = "latency"
	// ScenarioBlackout silently drops every probe into a prefix for a
	// bounded interval — the transient null-route that must be
	// quarantined and then paroled, not banned forever.
	ScenarioBlackout = "blackout"
	// ScenarioCrossTraffic is a time-varying capacity knee: competing
	// traffic temporarily lowers the path's probes/second budget, with
	// an ICMP-unreachable generation budget for the overflow. Stresses
	// the AIMD decrease/recovery loop.
	ScenarioCrossTraffic = "cross_traffic"
	// ScenarioAsymLoss applies independent loss rates to the forward
	// (probe) and reverse (response) directions. Stresses hit-rate
	// attribution: reverse loss looks identical to unresponsive hosts.
	ScenarioAsymLoss = "asym_loss"
	// ScenarioUnreachStorm forges ICMP destination-unreachables at up to
	// StormPPS toward the scanner. ValidQuote=true models an on-path
	// adversary quoting real probes (passes receive validation — only
	// the controller's decrease clamp defends); false models off-path
	// spoofing with a garbled quote (receive validation rejects it).
	ScenarioUnreachStorm = "unreach_storm"
)

// ScenarioEvent is one scripted fault in a network-weather timeline.
// Fields beyond Type/AtSecs/DurationSecs/Prefix are per-type parameters;
// see the Scenario* constants for which apply.
type ScenarioEvent struct {
	Type string `json:"type"`

	// AtSecs and DurationSecs bound the active window on the scenario
	// clock (seconds since the link's first probe). DurationSecs 0
	// keeps the event active to the end of the scan.
	AtSecs       float64 `json:"at_secs"`
	DurationSecs float64 `json:"duration_secs,omitempty"`

	// Prefix restricts the event to IPv4 destinations inside a CIDR
	// ("10.1.0.0/16"); empty applies everywhere. Required for blackout.
	Prefix string `json:"prefix,omitempty"`

	// Gilbert-Elliott parameters (bursty_loss): per-packet transition
	// probabilities and per-state loss rates.
	PGoodBad float64 `json:"p_good_bad,omitempty"`
	PBadGood float64 `json:"p_bad_good,omitempty"`
	LossGood float64 `json:"loss_good,omitempty"`
	LossBad  float64 `json:"loss_bad,omitempty"`

	// Latency parameters: extra response delay ramped in over RampSecs,
	// plus uniform jitter in [0, JitterMS).
	DelayMS  float64 `json:"delay_ms,omitempty"`
	JitterMS float64 `json:"jitter_ms,omitempty"`
	RampSecs float64 `json:"ramp_secs,omitempty"`

	// Cross-traffic parameters: the temporary capacity knee in
	// probes/second and its unreachable-generation budget.
	CapacityPPS float64 `json:"capacity_pps,omitempty"`
	ICMPPPS     float64 `json:"icmp_pps,omitempty"`

	// Asymmetric loss parameters.
	ForwardLoss float64 `json:"forward_loss,omitempty"`
	ReverseLoss float64 `json:"reverse_loss,omitempty"`

	// Unreachable-storm parameters.
	StormPPS   float64 `json:"storm_pps,omitempty"`
	ValidQuote bool    `json:"valid_quote,omitempty"`
}

// Scenario is a deterministic network-weather script: a seed plus an
// event timeline. Load one from JSON with LoadScenario/ParseScenario.
type Scenario struct {
	Name   string          `json:"name"`
	Seed   uint64          `json:"seed"`
	Events []ScenarioEvent `json:"events"`
}

// WeatherStats counts the weather layer's interventions, by class.
type WeatherStats struct {
	BurstyDropped   uint64 // probes lost to Gilbert-Elliott bursts
	BlackoutDropped uint64 // probes swallowed by a blacked-out prefix
	ForwardDropped  uint64 // probes lost to asym_loss forward loss
	ReverseDropped  uint64 // responses lost to asym_loss reverse loss
	KneeDropped     uint64 // probes dropped at a cross-traffic knee
	KneeICMP        uint64 // unreachables generated at the knee
	StormICMP       uint64 // forged unreachables injected by storms
	Delayed         uint64 // responses given extra latency
}

// Draw domains for the per-event decision streams.
const (
	wxDrawGEMove uint64 = iota + 1
	wxDrawGELoss
	wxDrawForward
	wxDrawReverse
	wxDrawJitter
)

// WeatherObserver receives a playing weather layer's lifecycle, for the
// scan flight recorder (or any other instrumentation) to put scenario
// faults on the same timeline as the controller's decisions. Like
// DelayRecorder, it is a local interface so netsim stays free of
// dependencies on the instrumentation layer.
//
// WeatherTransition fires once when an event's window opens (began=true)
// and once when it closes; an event with no end stays open. WeatherDrop
// fires for every probe or response a scripted fault consumes. Both may
// be called concurrently from sender goroutines; implementations must be
// safe for concurrent use.
type WeatherObserver interface {
	WeatherTransition(began bool, index int, ev ScenarioEvent, at time.Duration)
	WeatherDrop(class string, dst uint32, at time.Duration)
}

// Weather-drop classes passed to WeatherObserver.WeatherDrop.
const (
	WeatherDropBlackout = "blackout"
	WeatherDropBursty   = "bursty_loss"
	WeatherDropForward  = "asym_forward"
	WeatherDropReverse  = "asym_reverse"
	WeatherDropKnee     = "knee"
)

// weatherEvent is one compiled scenario event with its runtime state.
type weatherEvent struct {
	ScenarioEvent
	idx        uint64
	at, until  time.Duration
	prefixNet  uint32
	prefixMask uint32 // 0 = matches everything

	// announced tracks observer notification: 0 pending, 1 begun, 2
	// ended. CAS transitions so concurrent senders announce once.
	announced atomic.Uint32

	knee  *tokenBucket // cross_traffic capacity
	icmp  *tokenBucket // cross_traffic unreachable budget
	storm *tokenBucket // unreach_storm flood budget

	// Gilbert-Elliott chain: state plus the per-event packet ordinal
	// that keys its decision stream. Guarded by mu so the chain advances
	// exactly once per consulted packet under concurrent senders.
	mu    sync.Mutex
	geBad bool
	geOrd uint64

	fwdOrd atomic.Uint64 // stateless forward-loss ordinal
	revOrd atomic.Uint64 // stateless reverse-loss/jitter ordinal
}

func (ev *weatherEvent) active(el time.Duration) bool {
	return el >= ev.at && el < ev.until
}

func (ev *weatherEvent) matches(dst uint32, isV4 bool) bool {
	if ev.prefixMask == 0 {
		return true
	}
	return isV4 && dst&ev.prefixMask == ev.prefixNet
}

// Weather is a compiled Scenario attached to a Link. The scenario clock
// starts at the first probe through the link.
type Weather struct {
	name   string
	seed   uint64
	events []*weatherEvent

	startMu sync.Mutex
	started bool
	start   time.Time

	observer WeatherObserver // nil = unobserved

	burstyDropped   atomic.Uint64
	blackoutDropped atomic.Uint64
	forwardDropped  atomic.Uint64
	reverseDropped  atomic.Uint64
	kneeDropped     atomic.Uint64
	kneeICMP        atomic.Uint64
	stormICMP       atomic.Uint64
	delayed         atomic.Uint64
}

// NewWeather compiles a scenario into a playable weather layer. The
// scenario must be valid (see Scenario.Validate); LoadScenario and
// ParseScenario return only valid scenarios.
func NewWeather(sc *Scenario) (*Weather, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	w := &Weather{name: sc.Name, seed: sc.Seed}
	for i, e := range sc.Events {
		ev := &weatherEvent{
			ScenarioEvent: e,
			idx:           uint64(i),
			at:            time.Duration(e.AtSecs * float64(time.Second)),
			until:         time.Duration(1<<62 - 1),
		}
		if e.DurationSecs > 0 {
			ev.until = ev.at + time.Duration(e.DurationSecs*float64(time.Second))
		}
		if e.Prefix != "" {
			net, mask, err := parseCIDRv4(e.Prefix)
			if err != nil {
				return nil, err
			}
			ev.prefixNet, ev.prefixMask = net, mask
		}
		switch e.Type {
		case ScenarioCrossTraffic:
			burst := e.CapacityPPS / 50
			if burst < 16 {
				burst = 16
			}
			ev.knee = newTokenBucket(e.CapacityPPS, burst)
			icmpBurst := e.ICMPPPS / 50
			if icmpBurst < 8 {
				icmpBurst = 8
			}
			ev.icmp = newTokenBucket(e.ICMPPPS, icmpBurst)
		case ScenarioUnreachStorm:
			burst := e.StormPPS / 50
			if burst < 8 {
				burst = 8
			}
			ev.storm = newTokenBucket(e.StormPPS, burst)
		}
		w.events = append(w.events, ev)
	}
	return w, nil
}

// Stats reports the weather layer's intervention counters.
func (w *Weather) Stats() WeatherStats {
	return WeatherStats{
		BurstyDropped:   w.burstyDropped.Load(),
		BlackoutDropped: w.blackoutDropped.Load(),
		ForwardDropped:  w.forwardDropped.Load(),
		ReverseDropped:  w.reverseDropped.Load(),
		KneeDropped:     w.kneeDropped.Load(),
		KneeICMP:        w.kneeICMP.Load(),
		StormICMP:       w.stormICMP.Load(),
		Delayed:         w.delayed.Load(),
	}
}

// SetObserver attaches lifecycle instrumentation. Call before the scan
// starts; concurrent Sends observe it racily otherwise.
func (w *Weather) SetObserver(obs WeatherObserver) { w.observer = obs }

// elapsed converts wall time to the scenario clock, anchoring the clock
// at the first call (the link's first probe).
func (w *Weather) elapsed(now time.Time) time.Duration {
	w.startMu.Lock()
	if !w.started {
		w.started = true
		w.start = now
	}
	start := w.start
	w.startMu.Unlock()
	return now.Sub(start)
}

// notice announces event-window transitions to the observer. Called per
// probe from the send path: transitions are detected at packet times, so
// an end is announced on the first probe after the window closes. The
// per-event check is two time comparisons; the CAS runs only at the
// transitions themselves.
func (w *Weather) notice(el time.Duration) {
	obs := w.observer
	if obs == nil {
		return
	}
	for _, ev := range w.events {
		switch ev.announced.Load() {
		case 0:
			if el >= ev.at && ev.announced.CompareAndSwap(0, 1) {
				obs.WeatherTransition(true, int(ev.idx), ev.ScenarioEvent, el)
			}
		case 1:
			if el >= ev.until && ev.announced.CompareAndSwap(1, 2) {
				obs.WeatherTransition(false, int(ev.idx), ev.ScenarioEvent, el)
			}
		}
	}
}

// noteDrop reports one fault-consumed packet to the observer.
func (w *Weather) noteDrop(class string, dst uint32, el time.Duration) {
	if obs := w.observer; obs != nil {
		obs.WeatherDrop(class, dst, el)
	}
}

// draw produces one uniform decision for (event, domain, ordinal) —
// a pure function of the scenario seed, so playback is deterministic.
func (w *Weather) draw(ev *weatherEvent, domain, ordinal uint64) float64 {
	return uniform(hashx.SplitMix64(w.seed ^ ev.idx<<48 ^ domain<<40 ^ ordinal))
}

// geDrop advances the event's Gilbert-Elliott chain by one packet and
// reports whether that packet is lost.
func (w *Weather) geDrop(ev *weatherEvent) bool {
	ev.mu.Lock()
	n := ev.geOrd
	ev.geOrd++
	if ev.geBad {
		if w.draw(ev, wxDrawGEMove, n) < ev.PBadGood {
			ev.geBad = false
		}
	} else {
		if w.draw(ev, wxDrawGEMove, n) < ev.PGoodBad {
			ev.geBad = true
		}
	}
	loss := ev.LossGood
	if ev.geBad {
		loss = ev.LossBad
	}
	ev.mu.Unlock()
	if loss <= 0 {
		return false
	}
	return w.draw(ev, wxDrawGELoss, n) < loss
}

// forwardDecision is the weather layer's verdict on one outbound probe.
type forwardDecision struct {
	drop       bool
	stormValid bool // inject a forged unreachable quoting the probe
	stormSpoof bool // inject a forged unreachable with a garbled quote
	kneeICMP   bool // the cross-traffic knee generated an unreachable
}

// forwardDecide applies every active event to one outbound probe at
// scenario time el. Drop-type events are evaluated in script order and
// the first drop wins (the probe never reaches later bottlenecks);
// unreachable storms are off-path — the adversary forges unreachables
// for observed probes regardless of their fate — so they are evaluated
// for every probe.
func (w *Weather) forwardDecide(dst uint32, isV4 bool, el time.Duration) forwardDecision {
	w.notice(el)
	var d forwardDecision
	for _, ev := range w.events {
		if !ev.active(el) || !ev.matches(dst, isV4) {
			continue
		}
		if ev.Type == ScenarioUnreachStorm {
			if isV4 && ev.storm.take(el.Seconds()) {
				if ev.ValidQuote {
					d.stormValid = true
				} else {
					d.stormSpoof = true
				}
			}
			continue
		}
		if d.drop {
			continue
		}
		switch ev.Type {
		case ScenarioBlackout:
			w.blackoutDropped.Add(1)
			w.noteDrop(WeatherDropBlackout, dst, el)
			d.drop = true
		case ScenarioBurstyLoss:
			if w.geDrop(ev) {
				w.burstyDropped.Add(1)
				w.noteDrop(WeatherDropBursty, dst, el)
				d.drop = true
			}
		case ScenarioAsymLoss:
			if ev.ForwardLoss > 0 &&
				w.draw(ev, wxDrawForward, ev.fwdOrd.Add(1)) < ev.ForwardLoss {
				w.forwardDropped.Add(1)
				w.noteDrop(WeatherDropForward, dst, el)
				d.drop = true
			}
		case ScenarioCrossTraffic:
			if !ev.knee.take(el.Seconds()) {
				w.kneeDropped.Add(1)
				w.noteDrop(WeatherDropKnee, dst, el)
				d.drop = true
				if ev.ICMPPPS > 0 && isV4 && ev.icmp.take(el.Seconds()) {
					d.kneeICMP = true
				}
			}
		}
	}
	return d
}

// reverseDecide applies active events to one inbound response from src
// at scenario time el: reverse loss drops it, latency events delay it.
func (w *Weather) reverseDecide(src uint32, el time.Duration) (drop bool, extra time.Duration) {
	for _, ev := range w.events {
		if !ev.active(el) || !ev.matches(src, true) {
			continue
		}
		switch ev.Type {
		case ScenarioAsymLoss:
			if ev.ReverseLoss > 0 &&
				w.draw(ev, wxDrawReverse, ev.revOrd.Add(1)) < ev.ReverseLoss {
				w.reverseDropped.Add(1)
				w.noteDrop(WeatherDropReverse, src, el)
				return true, 0
			}
		case ScenarioLatency:
			ramp := 1.0
			if ev.RampSecs > 0 {
				ramp = (el - ev.at).Seconds() / ev.RampSecs
				if ramp > 1 {
					ramp = 1
				}
			}
			ms := ev.DelayMS
			if ev.JitterMS > 0 {
				ms += ev.JitterMS * w.draw(ev, wxDrawJitter, ev.revOrd.Add(1))
			}
			if ms > 0 {
				w.delayed.Add(1)
				extra += time.Duration(ramp * ms * float64(time.Millisecond))
			}
		}
	}
	return false, extra
}

// SetWeather installs a compiled weather layer on the link. Call before
// the scan starts; concurrent Sends observe it racily otherwise.
func (l *Link) SetWeather(w *Weather) {
	l.weather = w
	if l.weatherObs != nil {
		w.SetObserver(l.weatherObs)
	}
}

// SetWeatherObserver attaches scenario instrumentation to the link's
// weather layer — now if one is installed, or at SetWeather time
// otherwise, so Compile-time wiring works in either order. Call before
// the scan starts.
func (l *Link) SetWeatherObserver(obs WeatherObserver) {
	l.weatherObs = obs
	if l.weather != nil {
		l.weather.SetObserver(obs)
	}
}

// WeatherStats reports the installed weather layer's counters (zero
// value when no scenario is installed).
func (l *Link) WeatherStats() WeatherStats {
	if l.weather == nil {
		return WeatherStats{}
	}
	return l.weather.Stats()
}

// weatherSend applies the forward-path weather to one probe: it may
// inject forged unreachables toward the scanner and reports whether the
// probe was consumed.
func (l *Link) weatherSend(frame []byte, dst uint32, isV4 bool, el time.Duration) bool {
	w := l.weather
	d := w.forwardDecide(dst, isV4, el)
	if isV4 && (d.stormValid || d.stormSpoof) {
		if resp := buildStormUnreach(frame, dst, d.stormValid); resp != nil {
			w.stormICMP.Add(1)
			l.schedule(l.in.RTT(dst)/2, resp)
		}
	}
	if d.kneeICMP && isV4 {
		if resp := buildCongestionUnreach(frame, dst); resp != nil {
			w.kneeICMP.Add(1)
			l.schedule(l.in.RTT(dst)/2, resp)
		}
	}
	return d.drop
}

// buildStormUnreach forges the adversarial ICMP destination-unreachable
// of an unreachable storm. With validQuote it is indistinguishable from
// a congested router's signal (quotes the real probe); without, the
// quoted source is garbled — well-formed and correctly checksummed, but
// rejected by the receive path's quoted-packet validation.
func buildStormUnreach(probe []byte, dst uint32, validQuote bool) []byte {
	raw := probe[packet.EthernetHeaderLen:]
	if len(raw) < packet.IPv4HeaderLen+8 {
		return nil
	}
	var quote [packet.IPv4HeaderLen + 8]byte
	copy(quote[:], raw)
	// Quoted source = the scanner's address = where the ICMP goes.
	scanner := uint32(quote[12])<<24 | uint32(quote[13])<<16 |
		uint32(quote[14])<<8 | uint32(quote[15])
	if !validQuote {
		// Off-path spoofer guessing at the scanner's traffic: the quoted
		// inner packet claims a source that is not the scanner.
		quote[12] ^= 0x5A
		quote[14] ^= 0xA5
	}
	router := dst&0xFFFF0000 | 0x00FE
	var ethDst packet.MAC
	copy(ethDst[:], probe[6:12])
	buf := getFrame()
	buf = packet.AppendEthernet(buf, hostMAC, ethDst, packet.EtherTypeIPv4)
	buf = packet.AppendIPv4(buf, packet.IPv4{
		TTL: 64, Protocol: packet.ProtocolICMP, Src: router, Dst: scanner,
	}, packet.ICMPHeaderLen+len(quote))
	buf = packet.AppendICMPEcho(buf, packet.ICMPDestUnreach, 0, 0, quote[:])
	return buf
}
