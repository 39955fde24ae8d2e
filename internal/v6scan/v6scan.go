// Package v6scan is the IPv6 hitlist scanner — the capability §4 of the
// paper notes was implemented twice in forks (XMap, ZMapv6) rather than
// upstreamed; this package mirrors that history by living beside the v4
// engine instead of inside it.
//
// IPv6's address space cannot be enumerated, so v6 scanning is
// hitlist-driven: a curated list of candidate addresses (from DNS, CT
// logs, traceroutes, ...) is permuted with the same cyclic-group
// machinery as a v4 scan — the space is hitlist-index × port — and probed
// with real IPv6/TCP frames. Validation, sharding, rate limiting, and
// sliding-window dedup are shared with the v4 engine's substrates.
package v6scan

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zmapgo/internal/cyclic"
	"zmapgo/internal/dedup"
	"zmapgo/internal/packet"
	"zmapgo/internal/ratelimit"
	"zmapgo/internal/shard"
	"zmapgo/internal/target"
	"zmapgo/internal/validate"
)

// Hitlist is an ordered, deduplicated list of IPv6 targets.
type Hitlist struct {
	addrs [][16]byte
}

// ParseHitlist reads one IPv6 address per line ('#' comments and blanks
// ignored), rejecting IPv4 and malformed entries, and deduplicating while
// preserving first-seen order.
func ParseHitlist(r io.Reader) (*Hitlist, error) {
	h := &Hitlist{}
	seen := make(map[[16]byte]bool)
	scanner := bufio.NewScanner(r)
	line := 0
	for scanner.Scan() {
		line++
		text := scanner.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		addr, err := netip.ParseAddr(text)
		if err != nil {
			return nil, fmt.Errorf("v6scan: line %d: %w", line, err)
		}
		if !addr.Is6() || addr.Is4In6() {
			return nil, fmt.Errorf("v6scan: line %d: %q is not IPv6", line, text)
		}
		b := addr.As16()
		if !seen[b] {
			seen[b] = true
			h.addrs = append(h.addrs, b)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if len(h.addrs) == 0 {
		return nil, errors.New("v6scan: empty hitlist")
	}
	return h, nil
}

// NewHitlist wraps addresses directly (tests, generators).
func NewHitlist(addrs [][16]byte) (*Hitlist, error) {
	if len(addrs) == 0 {
		return nil, errors.New("v6scan: empty hitlist")
	}
	return &Hitlist{addrs: addrs}, nil
}

// Len returns the hitlist size.
func (h *Hitlist) Len() int { return len(h.addrs) }

// At returns the i-th address.
func (h *Hitlist) At(i int) [16]byte { return h.addrs[i] }

// Transport is this engine's own per-frame wire interface, with the
// fallible send the v4 engine's batched contract (core.Transport) also
// has; netsim.Link satisfies both.
type Transport interface {
	Send(frame []byte) error
	Recv() <-chan []byte
	Stats() (sent, received, dropped uint64)
}

// transientSendError mirrors core's structural error classifier without
// importing the v4 engine: transport errors self-describe retryability.
type transientSendError interface {
	Transient() bool
}

// Result is one classified v6 response.
type Result struct {
	Addr    netip.Addr
	Port    uint16
	Class   string // "synack" | "rst"
	Success bool
	Repeat  bool
}

// Config describes a v6 hitlist scan.
type Config struct {
	Hitlist *Hitlist
	Ports   *target.PortSet

	Seed       int64
	Shards     int
	ShardIndex int
	Threads    int

	Rate     float64
	Cooldown time.Duration

	Options packet.OptionLayout

	// SourceAddr is the scanner's v6 address (default 2001:db8::2, the
	// documentation prefix).
	SourceAddr [16]byte

	// DedupWindow sizes the sliding window (0 = default; negative
	// disables).
	DedupWindow int

	// Emit receives every classified result; nil discards.
	Emit func(Result)
}

// Summary is the end-of-scan report.
type Summary struct {
	Targets    uint64
	Sent       uint64
	Received   uint64
	Successes  uint64
	Duplicates uint64
}

// Scanner runs one hitlist scan.
type Scanner struct {
	cfg       Config
	transport Transport
	space     *cyclic.Space
	cycle     cyclic.Cycle
	validator *validate.Validator
	window    *dedup.KeyedWindow[[18]byte]

	// The scan's counts, read once into the Summary when Run returns.
	sent, recv, unique, duplicates atomic.Uint64
}

var defaultV6Source = [16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2}

// New prepares a scanner.
func New(cfg Config, transport Transport) (*Scanner, error) {
	if cfg.Hitlist == nil || cfg.Hitlist.Len() == 0 {
		return nil, errors.New("v6scan: hitlist required")
	}
	if cfg.Ports == nil || cfg.Ports.Len() == 0 {
		return nil, errors.New("v6scan: ports required")
	}
	if transport == nil {
		return nil, errors.New("v6scan: transport required")
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Threads == 0 {
		cfg.Threads = 1
	}
	if cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.Shards {
		return nil, fmt.Errorf("v6scan: shard %d outside [0, %d)", cfg.ShardIndex, cfg.Shards)
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = 2 * time.Second
	}
	if cfg.SourceAddr == ([16]byte{}) {
		cfg.SourceAddr = defaultV6Source
	}
	space, err := cyclic.NewSpace(uint64(cfg.Hitlist.Len()), uint64(cfg.Ports.Len()))
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	cycle := cyclic.NewCycle(space.Group(), rng)
	var key [validate.KeySize]byte
	rng.Read(key[:])

	var window *dedup.KeyedWindow[[18]byte]
	if cfg.DedupWindow >= 0 {
		size := cfg.DedupWindow
		if size == 0 {
			size = dedup.DefaultWindowSize
		}
		window = dedup.NewKeyedWindow[[18]byte](size)
	}
	return &Scanner{
		cfg:       cfg,
		transport: transport,
		space:     space,
		cycle:     cycle,
		validator: validate.New(key),
		window:    window,
	}, nil
}

// Run executes the scan.
func (s *Scanner) Run(ctx context.Context) (Summary, error) {
	cfg := &s.cfg
	var wg sync.WaitGroup
	order := s.space.Group().Order()
	for t := 0; t < cfg.Threads; t++ {
		a := shard.Plan(shard.Pizza, order, cfg.Shards, cfg.Threads, cfg.ShardIndex, t)
		wg.Add(1)
		go func(a shard.Assignment) {
			defer wg.Done()
			s.sendLoop(ctx, a)
		}(a)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.recvLoop(ctx, stop)
	}()
	wg.Wait()
	select {
	case <-ctx.Done():
	case <-time.After(cfg.Cooldown):
	}
	close(stop)
	<-done

	return Summary{
		Targets:    s.space.Targets(),
		Sent:       s.sent.Load(),
		Received:   s.recv.Load(),
		Successes:  s.unique.Load(),
		Duplicates: s.duplicates.Load(),
	}, nil
}

func (s *Scanner) sendLoop(ctx context.Context, a shard.Assignment) {
	cfg := &s.cfg
	limiter := ratelimit.New(cfg.Rate/float64(cfg.Threads), nil)
	it := a.Iterator(s.cycle)
	buf := make([]byte, 0, 128)
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		idx, portIdx, _, ok := it.NextInSpace(s.space)
		if !ok {
			return
		}
		addr := cfg.Hitlist.At(int(idx))
		port := cfg.Ports.At(int(portIdx))
		limiter.Wait()
		var err error
		buf, err = s.makeProbe(buf[:0], addr, port)
		if err != nil {
			continue // unbuildable probe: skip the target, never send a partial frame
		}
		if !s.sendWithRetry(buf) {
			return // fatal transport error: stop this sender
		}
	}
}

// sendWithRetry pushes one frame with a small fixed retry budget for
// transient transport errors (the v6 path keeps core's policy in
// miniature: 10 attempts, 1ms doubling backoff). It reports false on a
// fatal error.
func (s *Scanner) sendWithRetry(frame []byte) bool {
	backoff := time.Millisecond
	for attempt := 0; ; attempt++ {
		err := s.transport.Send(frame)
		if err == nil {
			s.sent.Add(1)
			return true
		}
		var te transientSendError
		if !errors.As(err, &te) || !te.Transient() {
			return false
		}
		if attempt >= 10 {
			return true // drop this probe, keep scanning
		}
		time.Sleep(backoff)
		if backoff < 64*time.Millisecond {
			backoff *= 2
		}
	}
}

func (s *Scanner) makeProbe(buf []byte, dst [16]byte, port uint16) ([]byte, error) {
	opts := packet.BuildOptions(s.cfg.Options, uint32(s.cfg.Seed))
	w := s.validator.Word6(s.cfg.SourceAddr, dst, port)
	buf = packet.AppendEthernet(buf, packet.MAC{2, 0x5A, 0x36, 0, 0, 1}, packet.MAC{}, packet.EtherTypeIPv6)
	buf = packet.AppendIPv6(buf, packet.IPv6Header{
		NextHeader: packet.ProtocolTCP,
		HopLimit:   255,
		Src:        s.cfg.SourceAddr,
		Dst:        dst,
	}, packet.TCPHeaderLen+len(opts))
	return packet.AppendTCP6(buf, packet.TCP{
		SrcPort: w.SourcePort(40000, 256),
		DstPort: port,
		Seq:     w.Seq(),
		Flags:   packet.FlagSYN,
		Window:  65535,
		Options: opts,
	}, s.cfg.SourceAddr, dst, nil)
}

func (s *Scanner) recvLoop(ctx context.Context, stop <-chan struct{}) {
	cfg := &s.cfg
	for {
		select {
		case <-ctx.Done():
			return
		case <-stop:
			return
		case frame := <-s.transport.Recv():
			s.recv.Add(1)
			f, err := packet.ParseIPv6(frame)
			if err != nil || f.TCP == nil || f.IP.Dst != cfg.SourceAddr {
				continue
			}
			addr, port := f.IP.Src, f.TCP.SrcPort
			isRST := f.TCP.Flags&packet.FlagRST != 0
			if !s.validator.Word6(cfg.SourceAddr, addr, port).AckValid(f.TCP.Ack, isRST) {
				continue // fails stateless validation
			}
			res := Result{Addr: netip.AddrFrom16(addr), Port: port}
			switch {
			case f.TCP.Flags&packet.FlagSYN != 0 && f.TCP.Flags&packet.FlagACK != 0:
				res.Class, res.Success = "synack", true
			case isRST:
				res.Class = "rst"
			default:
				continue
			}
			if s.window != nil {
				var key [18]byte
				copy(key[:16], addr[:])
				key[16], key[17] = byte(port>>8), byte(port)
				res.Repeat = s.window.Seen(key)
			}
			if res.Repeat {
				s.duplicates.Add(1)
			} else if res.Success {
				s.unique.Add(1)
			}
			if cfg.Emit != nil {
				cfg.Emit(res)
			}
		}
	}
}
