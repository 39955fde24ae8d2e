// Package netsim is the deterministic simulated IPv4 Internet that stands
// in for the real one ("Ten Years of ZMap" evaluates against live hosts,
// which a reproduction cannot ethically or practically rescan).
//
// Every behavior the paper's evaluation depends on is modeled, with
// densities calibrated to the paper's published rates:
//
//   - responsiveness and per-port service density, including the long-tail
//     "port diffusion" of Izhikevich et al. (only ~3% of HTTP services on
//     port 80, ~6% of TLS on 443),
//   - TCP-option-sensitive stacks: ~2% of services answer only SYNs that
//     carry at least one of MSS/SACK/TS/WScale, and a ~0.0023% sliver only
//     answers OS-exact option orderings (Figure 7),
//   - middlebox prefixes that SYN-ACK every port without any service
//     behind them (L4 vs L7 discrepancies, §3),
//   - "blowback" hosts that send heavy-tailed trains of duplicate
//     responses (Figure 5),
//   - transient, independent packet loss sized so a single-probe scan
//     misses ~2.7% of hosts (Wan et al., §3), and
//   - RST-on-closed, ICMP echo, and UDP service behavior for the other
//     probe modules.
//
// The population is a pure function of the seed: no per-host state exists,
// so experiments can span millions of addresses. See DESIGN.md for the
// calibration table.
package netsim

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"zmapgo/internal/hashx"
	"zmapgo/internal/packet"
)

// Protocol is the application protocol simulated behind an open port.
type Protocol int

// Simulated L7 protocols.
const (
	ProtoNone Protocol = iota // open socket, no recognizable service
	ProtoHTTP
	ProtoTLS
	ProtoSSH
	ProtoTelnet
	ProtoMikrotikAPI
)

func (p Protocol) String() string {
	switch p {
	case ProtoNone:
		return "none"
	case ProtoHTTP:
		return "http"
	case ProtoTLS:
		return "tls"
	case ProtoSSH:
		return "ssh"
	case ProtoTelnet:
		return "telnet"
	case ProtoMikrotikAPI:
		return "mikrotik"
	default:
		return "unknown"
	}
}

// Config sets population densities and link behavior. All probabilities
// are in [0, 1]. The zero value is unusable; start from DefaultConfig.
type Config struct {
	Seed uint64

	// LiveFraction is the fraction of addresses with a host behind them.
	LiveFraction float64

	// AssignedPortOpen gives P(service on port | live host) for
	// IANA-popular ports. Ports not listed fall back to TailPortOpen.
	AssignedPortOpen map[uint16]float64

	// TailPortOpen is P(service on an arbitrary unlisted port | live
	// host). With 65k ports this yields the long tail of port diffusion:
	// a mean of 65536*TailPortOpen diffused services per live host.
	TailPortOpen float64

	// RequireOptionFraction is the fraction of services that only answer
	// SYNs carrying at least one accepted TCP option (Figure 7's
	// 1.5–2.0% hitrate gap).
	RequireOptionFraction float64

	// OptionAcceptProb gives, for an option-requiring service, the
	// probability that each option kind satisfies it. MSS is nearly
	// universal so that MSS-only probes find >99.99% of services.
	OptionAcceptProb map[byte]float64

	// OrderSensitiveFraction is the fraction of services that only answer
	// SYNs whose option bytes exactly match a real OS layout
	// (Linux/BSD/Windows); the paper measured optimal-order probes losing
	// 0.0023% of hosts to these.
	OrderSensitiveFraction float64

	// MiddleboxFraction is the fraction of /16 prefixes fronted by a
	// middlebox that SYN-ACKs every (ip, port) regardless of services.
	MiddleboxFraction float64

	// BlowbackFraction is the fraction of responding services that send
	// duplicate response trains; BlowbackAlpha is the Pareto tail
	// exponent and BlowbackMax caps the train length.
	BlowbackFraction float64
	BlowbackAlpha    float64
	BlowbackMax      int
	// BlowbackGap is the mean spacing between consecutive duplicates.
	BlowbackGap time.Duration

	// RSTFraction is P(RST | live host, closed port); the rest stay
	// silent (host firewalls).
	RSTFraction float64

	// SYNACKRSTFraction is P(RST | live host receiving an unsolicited
	// SYN-ACK). RFC-compliant stacks reset such segments, which is what
	// tcp_synackscan liveness probing measures.
	SYNACKRSTFraction float64

	// ICMPEchoFraction is P(echo reply | live host).
	ICMPEchoFraction float64

	// ICMPRateLimitFraction is the fraction of echo-responsive hosts
	// that rate limit ICMP (Guo & Heidemann); ICMPRateLimit is the
	// number of replies such a host sends before going silent for the
	// remainder of the scan.
	ICMPRateLimitFraction float64
	ICMPRateLimit         int

	// UDPPortOpen gives P(UDP service | live host) per port; closed UDP
	// ports on live hosts yield ICMP port-unreachable with
	// UDPUnreachFraction.
	UDPPortOpen        map[uint16]float64
	UDPUnreachFraction float64

	// ProbeLoss and ResponseLoss are independent per-packet transient
	// loss probabilities (the fast-varying component).
	ProbeLoss, ResponseLoss float64

	// PathBadFraction is the probability that a (vantage, destination
	// /24) path suffers a correlated outage for the scan window, during
	// which packets are lost with PathBadLossProb. Wan et al.'s finding
	// that retries from one vantage recover much less than a second
	// vantage — "both probes are oftentimes lost" — is this component.
	// Defaults are sized so the single-probe miss rate totals ~2.7%.
	PathBadFraction float64
	PathBadLossProb float64

	// RTTMin/RTTMax bound the uniform per-host round-trip time.
	RTTMin, RTTMax time.Duration
}

// DefaultConfig returns the paper-calibrated population. See DESIGN.md's
// substitution table for the sources of each density.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:         seed,
		LiveFraction: 0.10,
		AssignedPortOpen: map[uint16]float64{
			80:   0.12,
			443:  0.25,
			22:   0.06,
			23:   0.02,
			21:   0.015,
			25:   0.01,
			8080: 0.05,
			8728: 0.004,
			3389: 0.01,
			1433: 0.005,
		},
		TailPortOpen:          8.0 / 65536, // ~8 diffused services per live host
		RequireOptionFraction: 0.02,
		OptionAcceptProb: map[byte]float64{
			packet.OptMSS:       0.997,
			packet.OptSACKPerm:  0.92,
			packet.OptTimestamp: 0.85,
			packet.OptWScale:    0.78,
		},
		OrderSensitiveFraction: 2.3e-5,
		MiddleboxFraction:      0.004,
		BlowbackFraction:       0.01,
		BlowbackAlpha:          1.2,
		BlowbackMax:            5000,
		BlowbackGap:            500 * time.Millisecond,
		RSTFraction:            0.30,
		SYNACKRSTFraction:      0.85,
		ICMPEchoFraction:       0.80,
		ICMPRateLimitFraction:  0.05,
		ICMPRateLimit:          4,
		UDPPortOpen: map[uint16]float64{
			53:  0.02,
			123: 0.012,
			161: 0.006,
		},
		UDPUnreachFraction: 0.25,
		ProbeLoss:          0.004,
		ResponseLoss:       0.004,
		PathBadFraction:    0.02,
		PathBadLossProb:    0.9,
		RTTMin:             20 * time.Millisecond,
		RTTMax:             300 * time.Millisecond,
	}
}

// Internet is a queryable simulated address space. Methods are safe for
// concurrent use; the only mutable state is the loss-salt counter and the
// ICMP rate-limit table.
type Internet struct {
	cfg      Config
	lossSalt atomic.Uint64

	icmpMu     sync.Mutex
	icmpCounts map[uint32]int
}

// New creates a simulated Internet from cfg.
func New(cfg Config) *Internet {
	return &Internet{cfg: cfg, icmpCounts: make(map[uint32]int)}
}

// Config returns the population configuration.
func (in *Internet) Config() Config { return in.cfg }

// Live reports whether a host exists at ip.
func (in *Internet) Live(ip uint32) bool {
	return uniform(in.hash(purposeLive, ip, 0)) < in.cfg.LiveFraction
}

// Middlebox reports whether ip sits behind a SYN-ACK-everything
// middlebox. Middleboxes are assigned per /16 prefix.
func (in *Internet) Middlebox(ip uint32) bool {
	return uniform(in.hash(purposeMiddlebox, ip&0xFFFF0000, 0)) < in.cfg.MiddleboxFraction
}

// ServiceOpen reports whether a real TCP service listens at (ip, port),
// excluding middlebox illusions.
func (in *Internet) ServiceOpen(ip uint32, port uint16) bool {
	if !in.Live(ip) {
		return false
	}
	p, ok := in.cfg.AssignedPortOpen[port]
	if !ok {
		p = in.cfg.TailPortOpen
	}
	return uniform(in.hash(purposeService, ip, port)) < p
}

// ServiceProtocol returns the L7 protocol behind an open service. It is
// meaningful only when ServiceOpen is true.
func (in *Internet) ServiceProtocol(ip uint32, port uint16) Protocol {
	u := uniform(in.hash(purposeProtocol, ip, port))
	switch port {
	case 80, 8080:
		if u < 0.85 {
			return ProtoHTTP
		}
		return ProtoNone
	case 443:
		if u < 0.90 {
			return ProtoTLS
		}
		return ProtoNone
	case 22:
		if u < 0.95 {
			return ProtoSSH
		}
		return ProtoNone
	case 23:
		if u < 0.90 {
			return ProtoTelnet
		}
		return ProtoNone
	case 8728:
		if u < 0.95 {
			return ProtoMikrotikAPI
		}
		return ProtoNone
	default:
		// The diffused tail is dominated by web services (LZR).
		switch {
		case u < 0.45:
			return ProtoHTTP
		case u < 0.90:
			return ProtoTLS
		case u < 0.95:
			return ProtoSSH
		default:
			return ProtoNone
		}
	}
}

// Banner returns the deterministic L7 banner a real service would emit on
// connect (possibly after a protocol-appropriate request). Middleboxes
// have no banner: that is precisely the L4/L7 gap.
func (in *Internet) Banner(ip uint32, port uint16) string {
	if !in.ServiceOpen(ip, port) {
		return ""
	}
	id := in.hash(purposeBanner, ip, port) & 0xFFFF
	switch in.ServiceProtocol(ip, port) {
	case ProtoHTTP:
		return fmt.Sprintf("HTTP/1.1 200 OK\r\nServer: simhttpd/%d\r\n\r\n", id)
	case ProtoTLS:
		return fmt.Sprintf("TLSv1.3 sim certificate cn=host-%d.example", id)
	case ProtoSSH:
		return fmt.Sprintf("SSH-2.0-OpenSSH_sim%d", id%10)
	case ProtoTelnet:
		return "login: "
	case ProtoMikrotikAPI:
		return fmt.Sprintf("!done mikrotik-sim-%d", id)
	default:
		return ""
	}
}

// optionRequirement describes how a service reacts to SYN options.
type optionRequirement int

const (
	acceptsAny optionRequirement = iota
	requiresOption
	requiresOSOrder
)

func (in *Internet) optionReq(ip uint32, port uint16) optionRequirement {
	u := uniform(in.hash(purposeOptions, ip, port))
	if u < in.cfg.OrderSensitiveFraction {
		return requiresOSOrder
	}
	if u < in.cfg.OrderSensitiveFraction+in.cfg.RequireOptionFraction {
		return requiresOption
	}
	return acceptsAny
}

// osExactLayouts are the option byte patterns order-sensitive stacks
// accept. Timestamp values differ per probe, so comparison masks the
// 8 TSval/TSecr bytes following a timestamp option header.
var osExactLayouts = [][]byte{
	packet.BuildOptions(packet.LayoutLinux, 0),
	packet.BuildOptions(packet.LayoutBSD, 0),
	packet.BuildOptions(packet.LayoutWindows, 0),
}

func matchesOSLayout(options []byte) bool {
	for _, ref := range osExactLayouts {
		if len(options) != len(ref) {
			continue
		}
		if optionsEqualMasked(options, ref) {
			return true
		}
	}
	return false
}

// optionsEqualMasked compares option byte strings, ignoring timestamp
// value bytes.
func optionsEqualMasked(a, ref []byte) bool {
	i := 0
	for i < len(ref) {
		if ref[i] == packet.OptNOP || ref[i] == packet.OptEOL {
			if a[i] != ref[i] {
				return false
			}
			i++
			continue
		}
		if i+1 >= len(ref) {
			return bytes.Equal(a[i:], ref[i:])
		}
		length := int(ref[i+1])
		if length < 2 || i+length > len(ref) {
			return bytes.Equal(a[i:], ref[i:])
		}
		// Compare kind and length always.
		if a[i] != ref[i] || a[i+1] != ref[i+1] {
			return false
		}
		if ref[i] != packet.OptTimestamp {
			if !bytes.Equal(a[i+2:i+length], ref[i+2:i+length]) {
				return false
			}
		}
		i += length
	}
	return true
}

// AcceptsSYN reports whether the service at (ip, port) — which must be
// open — answers a SYN carrying the given raw option bytes.
func (in *Internet) AcceptsSYN(ip uint32, port uint16, options []byte) bool {
	switch in.optionReq(ip, port) {
	case acceptsAny:
		return true
	case requiresOption:
		kinds := packet.OptionKinds(options)
		for kind, prob := range in.cfg.OptionAcceptProb {
			if !kinds[kind] {
				continue
			}
			if uniform(in.hash(purposeOptions+16+uint64(kind), ip, port)) < prob {
				return true
			}
		}
		return false
	case requiresOSOrder:
		return matchesOSLayout(options)
	}
	return false
}

// RTT returns the fixed round-trip time of a host.
func (in *Internet) RTT(ip uint32) time.Duration {
	span := in.cfg.RTTMax - in.cfg.RTTMin
	if span <= 0 {
		return in.cfg.RTTMin
	}
	return in.cfg.RTTMin + time.Duration(uniform(in.hash(purposeLatency, ip, 0))*float64(span))
}

// lost draws a fresh transient loss decision; successive calls are
// independent so retries can succeed where first probes failed.
func (in *Internet) lost(prob float64) bool {
	if prob <= 0 {
		return false
	}
	salt := in.lossSalt.Add(1)
	return uniform(schedSaltedDraw(in.cfg.Seed, schedLossDomain, salt)) < prob
}

// LossDraw draws one independent transient-loss event at the configured
// probe-loss probability. Exposed for experiments that model loss on a
// path outside Respond (e.g. the multi-vantage comparison).
func (in *Internet) LossDraw() bool { return in.lost(in.cfg.ProbeLoss) }

// LossDrawAt draws a transient-loss event at an arbitrary probability.
func (in *Internet) LossDrawAt(prob float64) bool { return in.lost(prob) }

// PathBad reports whether the (vantage, destination /24) path is in a
// correlated outage for this scan window. The decision is stable for the
// window: retries from the same vantage hit the same bad path, while a
// different vantage draws an independent path.
func (in *Internet) PathBad(src, dst uint32) bool {
	if in.cfg.PathBadFraction <= 0 {
		return false
	}
	h := hashx.SplitMix64(in.cfg.Seed ^ purposeLoss<<56 ^ uint64(src)<<32 ^ uint64(dst>>8))
	return uniform(h) < in.cfg.PathBadFraction
}

// pathLost combines the correlated and independent loss components for a
// packet from src toward dst (or the reverse path of a response).
func (in *Internet) pathLost(src, dst uint32, independent float64) bool {
	if in.PathBad(src, dst) && in.lost(in.cfg.PathBadLossProb) {
		return true
	}
	return in.lost(independent)
}

// BlowbackCount returns how many duplicate responses the service at
// (ip, port) sends after its first response (0 for well-behaved hosts).
// Counts follow a bounded Pareto, matching the tens-of-thousands trains
// Goldblatt et al. observed.
func (in *Internet) BlowbackCount(ip uint32, port uint16) int {
	h := in.hash(purposeBlowback, ip, port)
	if uniform(h) >= in.cfg.BlowbackFraction {
		return 0
	}
	u := uniform(hashx.SplitMix64(h))
	if u < 1e-12 {
		u = 1e-12
	}
	alpha := in.cfg.BlowbackAlpha
	if alpha <= 0 {
		alpha = 1.2
	}
	// Bounded Pareto with xm=1: duplicates = floor(u^(-1/alpha)).
	n := int(math.Pow(u, -1.0/alpha))
	if n > in.cfg.BlowbackMax {
		n = in.cfg.BlowbackMax
	}
	if n < 1 {
		n = 1
	}
	return n
}
