package probe

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"zmapgo/internal/packet"
	"zmapgo/internal/validate"
)

func templateTestContext(t testing.TB, layout packet.OptionLayout, randomIPID bool, sportCount uint16) *Context {
	t.Helper()
	var key [validate.KeySize]byte
	copy(key[:], "template-equivalence-test-key-00")
	return &Context{
		SrcIP:           0x0A000001,
		SrcMAC:          packet.MAC{2, 0, 0, 0, 0, 1},
		GwMAC:           packet.MAC{2, 0, 0, 0, 0, 2},
		Validator:       validate.New(key),
		SourcePortBase:  32768,
		SourcePortCount: sportCount,
		Options:         layout,
		RandomIPID:      randomIPID,
		TTL:             packet.DefaultProbeTTL,
		TimestampValue:  0xDEADBEEF,
	}
}

// TestRenderMatchesMakeProbe is the template-equivalence property test:
// for every module, every TCP option layout, both IP ID modes, and both
// source-port range shapes, a template-rendered frame must equal the
// from-scratch MakeProbe frame byte for byte — including across slot
// reuse, where each Render starts from the previous target's bytes.
func TestRenderMatchesMakeProbe(t *testing.T) {
	modules := []Module{SYNScan{}, SYNACKScan{}, ICMPEchoScan{}, UDPScan{}}
	for _, m := range modules {
		layouts := []packet.OptionLayout{packet.LayoutNone}
		if (m.Name()) == "tcp_synscan" {
			layouts = packet.AllOptionLayouts()
		}
		for _, layout := range layouts {
			for _, randomIPID := range []bool{false, true} {
				for _, sportCount := range []uint16{1, 256} {
					name := fmt.Sprintf("%s/%v/random_ipid=%v/sports=%d", m.Name(), layout, randomIPID, sportCount)
					t.Run(name, func(t *testing.T) {
						ctx := templateTestContext(t, layout, randomIPID, sportCount)
						r, err := m.MakeTemplate(ctx)
						if err != nil {
							t.Fatalf("MakeTemplate: %v", err)
						}
						if r.Len() != m.ProbeLen(ctx) {
							t.Fatalf("Len %d != ProbeLen %d", r.Len(), m.ProbeLen(ctx))
						}
						frame := make([]byte, r.Len())
						r.Seed(frame)
						rng := rand.New(rand.NewSource(int64(layout)<<8 | int64(sportCount)))
						for i := 0; i < 256; i++ {
							ip := rng.Uint32()
							port := uint16(rng.Uint32())
							if i == 0 {
								ip, port = 0xFFFFFFFF, 0xFFFF
							}
							r.Render(frame, ip, port)
							want, err := m.MakeProbe(nil, ctx, ip, port)
							if err != nil {
								t.Fatalf("MakeProbe(%#x, %d): %v", ip, port, err)
							}
							if !bytes.Equal(frame, want) {
								t.Fatalf("target %d (%#x:%d): rendered frame differs from MakeProbe\n got %x\nwant %x",
									i, ip, port, frame, want)
							}
							if !packet.VerifyChecksums(frame) {
								t.Fatalf("target %d: invalid checksums", i)
							}
						}
					})
				}
			}
		}
	}
}

// TestRenderZeroAllocs pins the hot-path contract: rendering a probe
// into a seeded slot allocates nothing, for every module.
func TestRenderZeroAllocs(t *testing.T) {
	for _, m := range []Module{SYNScan{}, SYNACKScan{}, ICMPEchoScan{}, UDPScan{}} {
		t.Run(m.Name(), func(t *testing.T) {
			ctx := templateTestContext(t, packet.LayoutLinux, true, 256)
			r, err := m.MakeTemplate(ctx)
			if err != nil {
				t.Fatal(err)
			}
			frame := make([]byte, r.Len())
			r.Seed(frame)
			ip := uint32(0x01000000)
			allocs := testing.AllocsPerRun(1000, func() {
				ip++
				r.Render(frame, ip, 443)
			})
			if allocs != 0 {
				t.Fatalf("Render allocates %.1f objects per call, want 0", allocs)
			}
		})
	}
}

// TestRenderedProbeClassifies closes the loop: a frame produced by the
// template path must carry validator fields the module itself accepts,
// exercised here through the synack-echo a responder would send.
func TestRenderedProbeValidatorFields(t *testing.T) {
	ctx := templateTestContext(t, packet.LayoutOptimal, true, 256)
	r, err := SYNScan{}.MakeTemplate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, r.Len())
	r.Seed(frame)
	r.Render(frame, 0x01020304, 443)
	f, err := packet.Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if want := ctx.word(0x01020304, 443).Seq(); f.TCP.Seq != want {
		t.Fatalf("rendered seq %#x != validator %#x", f.TCP.Seq, want)
	}
	if want := ctx.sourcePort(ctx.word(0x01020304, 443)); f.TCP.SrcPort != want {
		t.Fatalf("rendered sport %d != validator %d", f.TCP.SrcPort, want)
	}
}

func BenchmarkMakeProbe(b *testing.B) {
	ctx := templateTestContext(b, packet.LayoutLinux, true, 256)
	m := SYNScan{}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = m.MakeProbe(buf[:0], ctx, uint32(i), 443)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRender(b *testing.B) {
	ctx := templateTestContext(b, packet.LayoutLinux, true, 256)
	r, err := SYNScan{}.MakeTemplate(ctx)
	if err != nil {
		b.Fatal(err)
	}
	frame := make([]byte, r.Len())
	r.Seed(frame)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Render(frame, uint32(i), 443)
	}
}
