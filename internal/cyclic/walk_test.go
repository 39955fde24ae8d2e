package cyclic_test

import (
	"fmt"
	"math/rand"
	"testing"

	"zmapgo/internal/cyclic"
	"zmapgo/internal/mathx"
	"zmapgo/internal/shard"
)

// mulModChain is the reference walk Next must reproduce: Element(start),
// then one mathx.MulMod by Generator^stride per step.
func mulModChain(c cyclic.Cycle, start, stride uint64, n int) []uint64 {
	p := c.Group.P
	step := mathx.PowMod(c.Generator, stride%c.Group.Order(), p)
	out := make([]uint64, n)
	cur := c.Element(start)
	for i := range out {
		out[i] = cur
		cur = mathx.MulMod(cur, step, p)
	}
	return out
}

// TestNextMatchesMulModChain pins the division-free step to the
// division-based one for every group: random starts, the strides the
// shard plans use (1, the interleaved N·T) plus 3 and random ones, and
// the edge where both the element and the step are P−1.
func TestNextMatchesMulModChain(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const steps = 256
	for _, g := range cyclic.Groups() {
		c := cyclic.NewCycle(g, rng)
		order := g.Order()
		strides := []uint64{1, 3}
		for _, nt := range [][2]int{{2, 1}, {3, 4}, {7, 8}} {
			strides = append(strides, shard.Plan(shard.Interleaved, order, nt[0], nt[1], 0, 0).Stride)
		}
		for i := 0; i < 4; i++ {
			strides = append(strides, uint64(rng.Int63n(int64(order-1)))+1)
		}
		for _, stride := range strides {
			for i := 0; i < 4; i++ {
				start := uint64(rng.Int63n(int64(order)))
				checkChain(t, c, start, stride, steps)
			}
		}
		// Generator^(order/2) = −1 = P−1: with offset 0, the walk starts at
		// P−1 and multiplies by P−1.
		edge := cyclic.Cycle{Group: g, Generator: c.Generator}
		if e := edge.Element(order / 2); e != g.P-1 {
			t.Fatalf("group %d: Element(order/2) = %d, want P-1", g.P, e)
		}
		checkChain(t, edge, order/2, order/2, 4)
	}
}

func checkChain(t *testing.T, c cyclic.Cycle, start, stride uint64, n int) {
	t.Helper()
	want := mulModChain(c, start, stride, n)
	it := c.Iterate(start, uint64(n), stride)
	for i, w := range want {
		got, ok := it.Next()
		if !ok || got != w {
			t.Fatalf("group %d start %d stride %d: element %d = %d (ok=%v), MulMod chain %d",
				c.Group.P, start, stride, i, got, ok, w)
		}
	}
}

// TestGroupPrimesBelow2To63: Shoup's step is exact only for P < 2^63.
func TestGroupPrimesBelow2To63(t *testing.T) {
	for _, g := range cyclic.Groups() {
		if g.P >= 1<<63 {
			t.Errorf("group %d is not below 2^63", g.P)
		}
	}
}

// TestIteratorKnownAnswer pins the permutation itself: the generator,
// offset and first eight elements of the seed-1 cycle of every group, as
// the MulMod-based iterator produced them. A checkpoint resumes by
// element position, so any change here breaks every saved scan.
func TestIteratorKnownAnswer(t *testing.T) {
	kat := []struct {
		p, gen, offset uint64
		first          [8]uint64
	}{
		{257, 14, 79, [8]uint64{74, 8, 112, 26, 107, 213, 155, 114}},
		{65537, 7407, 5711, [8]uint64{18895, 33770, 45198, 18590, 2893, 63389, 15255, 7997}},
		{16777259, 62007, 1782138, [8]uint64{12057980, 618525, 65601, 7624529, 7788342, 15099338, 9712871, 12725774}},
		{268435459, 7407, 49010245, [8]uint64{130507884, 35808929, 22503611, 254262097, 244607594, 137535967, 16340664, 239341698}},
		{4294967311, 63465, 1793800691, [8]uint64{3102075358, 500993852, 4226781158, 1892849343, 3742832136, 1379409074, 4173148608, 4012141216}},
		{17179869209, 29899, 61325777, [8]uint64{16451466960, 5575314161, 47164812, 1431438850, 3535976531, 14427057392, 2432863836, 629601658}},
		{68719476767, 7407, 62235489679, [8]uint64{8369557946, 8347662188, 52324212983, 56316075968, 5950719286, 27793143755, 48982876120, 46045567847}},
		{1099511627791, 35543, 856341515751, [8]uint64{73867516487, 938882960324, 539155339082, 909567849978, 929211457072, 932054751829, 836210543108, 532522869123}},
		{17592186044423, 62007, 1675255116074, [8]uint64{16770707146858, 9528783336053, 107830647493, 1224262217711, 2544551920732, 13306502443660, 5179354542497, 10880875669614}},
		{281474976710677, 62007, 230373675403940, [8]uint64{92183729307887, 124151130431370, 180006597654317, 60374266048461, 9924614917127, 91298076753967, 95113678095945, 250125653157111}},
	}
	groups := cyclic.Groups()
	if len(kat) != len(groups) {
		t.Fatalf("known answers for %d groups, table has %d", len(kat), len(groups))
	}
	for i, g := range groups {
		k := kat[i]
		c := cyclic.NewCycle(g, rand.New(rand.NewSource(1)))
		if g.P != k.p || c.Generator != k.gen || c.Offset != k.offset {
			t.Errorf("group %d: cycle (P %d, g %d, offset %d), want (%d, %d, %d)",
				i, g.P, c.Generator, c.Offset, k.p, k.gen, k.offset)
			continue
		}
		it := c.Iterate(0, 8, 1)
		for j, want := range k.first {
			if got, _ := it.Next(); got != want {
				t.Errorf("group %d: element %d = %d, want %d", g.P, j, got, want)
			}
		}
	}
}

// TestNextInSpaceMatchesNextDecode: the walk yields exactly the elements
// Next+Decode accept, in order, and its walked counts (the final,
// exhausted call's trailing run included) sum to the assignment's Count.
func TestNextInSpaceMatchesNextDecode(t *testing.T) {
	cases := []struct {
		ips, ports uint64
		groupOrder uint64 // 0: the space's own group
	}{
		{1, 1, 0},
		{256, 1, 1 << 16}, // a /24 in the 65537 group: 1 element in 256
		{1 << 12, 3, 0},
		{1<<16 + 1, 1, 0}, // just past a group boundary: 1 in 256
		{1000, 7, 0},
	}
	for _, tc := range cases {
		s, err := cyclic.NewSpace(tc.ips, tc.ports)
		if err != nil {
			t.Fatal(err)
		}
		g := s.Group()
		if tc.groupOrder != 0 {
			if g, err = cyclic.GroupForOrder(tc.groupOrder); err != nil {
				t.Fatal(err)
			}
		}
		c := cyclic.NewCycle(g, rand.New(rand.NewSource(int64(tc.ips*tc.ports))))
		// Each plan set covers the space once: one full walk, pizza
		// subshards, and interleaved strides.
		for _, plans := range [][]shard.Assignment{
			shard.PlanAll(shard.Pizza, g.Order(), 1, 1),
			shard.PlanAll(shard.Pizza, g.Order(), 2, 3),
			shard.PlanAll(shard.Interleaved, g.Order(), 1, 3),
		} {
			var found uint64
			for _, a := range plans {
				name := fmt.Sprintf("space %dx%d group %d plan %+v", tc.ips, tc.ports, g.P, a)
				found += checkWalk(t, name, s, a.Iterator(c), a.Iterator(c), a.Count)
			}
			if found != s.Targets() {
				t.Errorf("space %dx%d: %d plans found %d targets, want %d",
					tc.ips, tc.ports, len(plans), found, s.Targets())
			}
		}
	}
}

// checkWalk drives walk with NextInSpace and ref with Next+Decode in
// lockstep and reports how many targets the walk found.
func checkWalk(t *testing.T, name string, s *cyclic.Space, walk, ref *cyclic.Iterator, count uint64) (found uint64) {
	t.Helper()
	var walkedSum uint64
	for {
		ip, port, walked, ok := walk.NextInSpace(s)
		walkedSum += walked
		var refWalked uint64
		var refIP, refPort uint64
		refOK := false
		for {
			e, more := ref.Next()
			if !more {
				break
			}
			refWalked++
			if refIP, refPort, refOK = s.Decode(e); refOK {
				break
			}
		}
		if ok != refOK || walked != refWalked || ip != refIP || port != refPort {
			t.Fatalf("%s: walk (%d,%d) after %d ok=%v, Next+Decode (%d,%d) after %d ok=%v",
				name, ip, port, walked, ok, refIP, refPort, refWalked, refOK)
		}
		if !ok {
			break
		}
		found++
	}
	if walkedSum != count {
		t.Errorf("%s: walked %d elements, Count %d", name, walkedSum, count)
	}
	if _, _, walked, ok := walk.NextInSpace(s); ok || walked != 0 {
		t.Errorf("%s: exhausted walk returned walked=%d ok=%v", name, walked, ok)
	}
	return found
}

// BenchmarkNextInSpace walks a 2^19-target space in the 2^24+43 group,
// 32 elements per target, the shape of a sparse scan's fill loop. ns/op
// is per target found.
func BenchmarkNextInSpace(b *testing.B) {
	s, err := cyclic.NewSpace(1<<19, 1)
	if err != nil {
		b.Fatal(err)
	}
	c := cyclic.NewCycle(s.Group(), rand.New(rand.NewSource(1)))
	it := c.Iterate(0, ^uint64(0), 1)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip, _, _, _ := it.NextInSpace(s)
		sink += ip
	}
	benchSink = sink
}

var benchSink uint64
