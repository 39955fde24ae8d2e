package netsim

import (
	"testing"
	"time"

	"zmapgo/internal/packet"
)

// TestFaultWrappersStackInEitherOrder drives the same probes through
// Faulty(RecvFault(link)) and RecvFault(Faulty(link)). Each injector
// overrides only the half of the contract it faults, so the order they
// stack in must be invisible: the same send-fault schedule, the same
// receive-fault tallies for one seed, and every delivered frame, once
// released through the top of the stack, in the pool exactly once.
func TestFaultWrappersStackInEitherOrder(t *testing.T) {
	sendCfg := FaultConfig{Seed: 5, FailFirstN: 1, TransientProb: 0.1}
	recvCfg := RecvFaultConfig{Seed: 5, TruncateProb: 0.2, CorruptProb: 0.2, DuplicateProb: 0.3, SpoofProb: 0.3}
	orders := []struct {
		name  string
		build func(*Link) (Transport, *FaultyTransport, *RecvFaultTransport)
	}{
		{"faulty-over-recvfault", func(l *Link) (Transport, *FaultyTransport, *RecvFaultTransport) {
			r := NewRecvFaultTransport(l, recvCfg)
			f := NewFaultyTransport(r, sendCfg)
			return f, f, r
		}},
		{"recvfault-over-faulty", func(l *Link) (Transport, *FaultyTransport, *RecvFaultTransport) {
			f := NewFaultyTransport(l, sendCfg)
			r := NewRecvFaultTransport(f, recvCfg)
			return r, f, r
		}},
	}

	type tally struct {
		attempts, injected uint64
		recv               [numRecvFaultClasses]uint64
		delivered          int
	}
	var tallies []tally
	for _, o := range orders {
		t.Run(o.name, func(t *testing.T) {
			link := NewLink(New(lossless(94)), 1<<14, 0)
			defer link.Close()
			top, sendFault, recvFault := o.build(link)
			defer recvFault.Stop()
			drainPool()

			// One sender, instant delivery: the traffic order, and with
			// it both seeded schedules, is fixed. Batches of 16 retry
			// from the failed frame, as the engine does.
			batch := make([][]byte, 0, 16)
			for ip := uint32(0x0A000000); ip < 0x0A000000+2048; ip++ {
				batch = append(batch, buildSYNProbe(ip, 80, packet.LayoutMSS))
				if len(batch) < cap(batch) {
					continue
				}
				for idx := 0; idx < len(batch); {
					sent, err := top.SendBatch(batch[idx:])
					idx += sent
					if se, _ := err.(*SendError); err != nil && (se == nil || !se.Transient()) {
						t.Fatal(err)
					}
				}
				batch = batch[:0]
			}

			// The pump has handled every frame the link delivered once
			// the stack has emitted that many plus the injector's own.
			want := func() int {
				_, rcvd, _ := link.Stats()
				return int(rcvd + recvFault.Injected(RecvFaultDuplicate) + recvFault.Injected(RecvFaultSpoof))
			}
			var frames [][]byte
			scratch := make([][]byte, 64)
			timeout := time.After(10 * time.Second)
			for len(frames) < want() {
				select {
				case f := <-top.Recv():
					frames = append(frames, f)
					n := top.RecvBatch(scratch)
					frames = append(frames, scratch[:n]...)
				case <-timeout:
					t.Fatalf("stack delivered %d of %d frames", len(frames), want())
				}
			}
			if _, _, drops := top.Stats(); drops != 0 || recvFault.InjectedTotal() == 0 {
				t.Fatalf("%d ring drops, %d receive faults: the comparison below is vacuous", drops, recvFault.InjectedTotal())
			}

			// Nothing was released while frames were being built, so the
			// pool holds exactly what goes back through the top now.
			for _, f := range frames {
				top.Release(f)
			}
			puts := len(framePool)
			pooled := map[*byte]bool{}
			for len(framePool) > 0 {
				b := <-framePool
				pooled[&b[:1][0]] = true
			}
			if puts != len(frames) || len(pooled) != len(frames) {
				t.Errorf("released %d frames, pool holds %d buffers, %d distinct", len(frames), puts, len(pooled))
			}
			for _, f := range frames {
				if !pooled[&f[:1][0]] {
					t.Fatal("a released frame never reached the pool")
				}
			}

			tl := tally{attempts: sendFault.Attempts(), injected: sendFault.Injected(), delivered: len(frames)}
			for c := range tl.recv {
				tl.recv[c] = recvFault.Injected(RecvFaultClass(c))
			}
			t.Logf("%+v", tl)
			tallies = append(tallies, tl)
		})
	}
	if len(tallies) == 2 && tallies[0] != tallies[1] {
		t.Errorf("stacking order changed the fault schedule:\n%s %+v\n%s %+v",
			orders[0].name, tallies[0], orders[1].name, tallies[1])
	}
}
