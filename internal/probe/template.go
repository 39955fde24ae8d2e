package probe

import "zmapgo/internal/packet"

// Template rendering is the send path's probe builder (§4.3). Instead of
// rebuilding every frame with MakeProbe, the engine obtains a Renderer
// once per scan; each sender thread seeds its preallocated frame ring
// from the template and calls Render per target. Render computes the
// flow's validation word — one AES block, the same one MakeProbe and
// Classify compute — reads sequence, acknowledgment, source port, IP ID
// and ICMP id/seq from it and rewrites them in place via the
// packet.Patch* helpers, so the steady state allocates nothing.
//
// The prototype frame is built by the module's own MakeProbe, which
// guarantees the invariant bytes (MACs, TTL, option layout, flags,
// payload) are exactly what a from-scratch build would emit; the
// property test in template_test.go pins byte-for-byte equivalence.

// Templater is the template half of Module, under its own name for
// callers that need only a Renderer.
type Templater interface {
	// MakeTemplate builds the scan's renderer. A Renderer holds no
	// mutable state, so sender threads share it; each renders into its
	// own frames.
	MakeTemplate(ctx *Context) (*Renderer, error)
}

// Renderer retargets seeded probe frames.
type Renderer struct {
	tpl   *packet.Template
	ctx   *Context
	patch func(ctx *Context, frame []byte, ip uint32, port uint16)
}

func newRenderer(m Module, ctx *Context, patch func(*Context, []byte, uint32, uint16)) (*Renderer, error) {
	proto, err := m.MakeProbe(nil, ctx, 0, 0)
	if err != nil {
		return nil, err
	}
	tpl, err := packet.NewTemplate(proto)
	if err != nil {
		return nil, err
	}
	return &Renderer{tpl: tpl, ctx: ctx, patch: patch}, nil
}

// Len returns the frame length; every rendered frame is exactly this
// long.
func (r *Renderer) Len() int { return r.tpl.Len() }

// Seed initializes frame (of length Len) from the template. A slot
// needs seeding once; Render re-patches it from target to target.
func (r *Renderer) Seed(frame []byte) { r.tpl.Seed(frame) }

// Render retargets a seeded frame at (ip, port), deriving the
// validator-bound fields from one validation word and fixing checksums
// incrementally. It allocates nothing.
func (r *Renderer) Render(frame []byte, ip uint32, port uint16) {
	r.patch(r.ctx, frame, ip, port)
}

// patchSYN mirrors SYNScan.MakeProbe.
func patchSYN(ctx *Context, frame []byte, ip uint32, port uint16) {
	w := ctx.word(ip, port)
	packet.PatchTCP(frame, ctx.ipID(w), ip, ctx.sourcePort(w), port, w.Seq(), 0)
}

// patchSYNACK mirrors SYNACKScan.MakeProbe.
func patchSYNACK(ctx *Context, frame []byte, ip uint32, port uint16) {
	w := ctx.word(ip, port)
	packet.PatchTCP(frame, ctx.ipID(w), ip, ctx.sourcePort(w), port, w.Seq(), w.Ack())
}

// patchICMP mirrors ICMPEchoScan.MakeProbe, which ignores the port.
func patchICMP(ctx *Context, frame []byte, ip uint32, _ uint16) {
	w := ctx.word(ip, 0)
	id, seq := w.ICMPIDSeq()
	packet.PatchICMPEcho(frame, ctx.ipID(w), ip, id, seq)
}

// patchUDP mirrors UDPScan.MakeProbe.
func patchUDP(ctx *Context, frame []byte, ip uint32, port uint16) {
	w := ctx.word(ip, port)
	packet.PatchUDP(frame, ctx.ipID(w), ip, ctx.sourcePort(w), port)
}

// MakeTemplate implements Templater.
func (m SYNScan) MakeTemplate(ctx *Context) (*Renderer, error) {
	return newRenderer(m, ctx, patchSYN)
}

// MakeTemplate implements Templater.
func (m SYNACKScan) MakeTemplate(ctx *Context) (*Renderer, error) {
	return newRenderer(m, ctx, patchSYNACK)
}

// MakeTemplate implements Templater.
func (m ICMPEchoScan) MakeTemplate(ctx *Context) (*Renderer, error) {
	return newRenderer(m, ctx, patchICMP)
}

// MakeTemplate implements Templater.
func (m UDPScan) MakeTemplate(ctx *Context) (*Renderer, error) {
	return newRenderer(m, ctx, patchUDP)
}
