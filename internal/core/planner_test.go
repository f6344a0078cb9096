package core

import (
	"reflect"
	"testing"
	"time"

	"hoplite/internal/linkstate"
	"hoplite/internal/transport"
	"hoplite/internal/types"
)

// seededPlanner returns a link planner whose tracker has absorbed one
// bandwidth sample per entry in bw (bytes/second). Decay is disabled so the
// estimates are exactly the seeded values.
func seededPlanner(priorLat time.Duration, priorBW float64, bw map[types.NodeID]float64) linkPlanner {
	tr := linkstate.New(linkstate.Config{PriorRTT: priorLat, PriorBandwidth: priorBW, HalfLife: -1})
	for peer, b := range bw {
		// One transfer of b bytes over one second yields a first sample
		// that sets the EWMA directly to b.
		tr.ObserveTransfer(peer, int64(b), time.Second)
	}
	return linkPlanner{links: tr}
}

func TestLinkPlannerRanksSendersByBandwidth(t *testing.T) {
	// Unmeasured "c" sits at the 100 MB/s prior, between the two measured
	// peers, so the ranking exercises measured and prior estimates at once.
	p := seededPlanner(200*time.Microsecond, 100<<20, map[types.NodeID]float64{
		"a": 200 << 20,
		"b": 50 << 20,
	})
	got := p.rankSenders([]types.NodeID{"b", "c", "a"})
	want := []types.NodeID{"a", "c", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rankSenders = %v, want %v", got, want)
		}
	}
}

func TestLinkPlannerStripeSpansProportional(t *testing.T) {
	p := seededPlanner(200*time.Microsecond, 100<<20, map[types.NodeID]float64{
		"fast":  200 << 20,
		"slow1": 50 << 20,
		"slow2": 50 << 20,
	})
	const base = 1 << 20
	spans := p.stripeSpans([]types.NodeID{"fast", "slow1", "slow2"}, base)
	// Mean is 100 MB/s: the fast sender is 2x the mean, the slow ones are
	// below it and clamp up to one grid chunk.
	if spans[0] != 2*base {
		t.Fatalf("fast span = %d, want %d", spans[0], 2*base)
	}
	if spans[1] != base || spans[2] != base {
		t.Fatalf("slow spans = %d/%d, want %d each", spans[1], spans[2], base)
	}
}

func TestLinkPlannerStripeSpanCap(t *testing.T) {
	// One sender measured far above a crowd of slow peers would claim the
	// whole ledger per trip without the cap.
	bw := map[types.NodeID]float64{"fast": 1000 << 20}
	senders := []types.NodeID{"fast"}
	for _, s := range []types.NodeID{"s1", "s2", "s3", "s4", "s5", "s6", "s7"} {
		bw[s] = 1 << 20
		senders = append(senders, s)
	}
	p := seededPlanner(200*time.Microsecond, 100<<20, bw)
	const base = 1 << 20
	spans := p.stripeSpans(senders, base)
	if spans[0] != maxSpanFactor*base {
		t.Fatalf("fast span = %d, want capped %d", spans[0], maxSpanFactor*base)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i] != base {
			t.Fatalf("slow span[%d] = %d, want %d", i, spans[i], base)
		}
	}
}

// With nothing measured the link planner must treat all links as equal:
// arrival order, one grid chunk per claim, the priors, the lowest free slot.
func TestLinkPlannerColdIsEqualLinks(t *testing.T) {
	lat, bw := 500*time.Microsecond, float64(64<<20)
	lp := seededPlanner(lat, bw, nil)

	senders := []types.NodeID{"x", "y", "z"}
	if got := lp.rankSenders(senders); !reflect.DeepEqual(got, senders) {
		t.Fatalf("cold rankSenders = %v, want arrival order", got)
	}
	if got, want := lp.stripeSpans(senders, 1<<20), []int64{1 << 20, 1 << 20, 1 << 20}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cold stripeSpans = %v, want equal spans %v", got, want)
	}
	gl, gb := lp.reduceParams()
	if gl != lat || gb != bw {
		t.Fatalf("cold reduceParams = (%v, %g), want priors (%v, %g)", gl, gb, lat, bw)
	}
	if got := lp.chooseSlot([]int{2, 5}, 5, func(int) bool { return true }, "x"); got != 2 {
		t.Fatalf("cold chooseSlot = %d, want lowest free slot 2", got)
	}
}

// Measured link state must shift the reduce degree away from what the
// priors alone would pick: on the fast priors a binary tree's fewer hops
// beat the chain for a 4 MiB reduce, but once the links are measured three
// orders of magnitude slower, the bandwidth term dominates and the chain
// (d=1) wins Eq. 1.
func TestLinkPlannerReduceParamsShiftDegree(t *testing.T) {
	const (
		n     = 16
		size  = 4 << 20
		chunk = transport.DefaultChunkSize
	)
	priorLat, priorBW := 200*time.Microsecond, 1.25e9
	p := seededPlanner(priorLat, priorBW, map[types.NodeID]float64{
		"a": 1 << 20,
		"b": 1 << 20,
	})
	p.links.ObserveRTT("a", 200*time.Microsecond)
	p.links.ObserveRTT("b", 200*time.Microsecond)

	dPrior := chooseDegree(n, priorLat, priorBW, size, chunk)
	if dPrior != 2 {
		t.Fatalf("degree from priors = %d, want 2", dPrior)
	}
	lat, bw := p.reduceParams()
	if bw > 2<<20 {
		t.Fatalf("measured bandwidth estimate = %g, want ~1 MiB/s", bw)
	}
	if dMeasured := chooseDegree(n, lat, bw, size, chunk); dMeasured != 1 {
		t.Fatalf("degree from measured links = %d, want 1 (chain)", dMeasured)
	}
}

// The coordinator's own source takes the root slot, so the reduced object
// lands where the caller waits for it; in a chain, arrival order alone
// would make it the deepest leaf. Every other host keeps arrival order,
// and a taken root falls back to it too.
func TestLinkPlannerChooseSlotRootsAtCoordinator(t *testing.T) {
	p := seededPlanner(200*time.Microsecond, 100<<20, map[types.NodeID]float64{
		"coord": 10 << 20, // measured slow: the root rule still wins
		"h1":    100 << 20,
		"h2":    100 << 20,
	})
	p.self = "coord"
	parent, children := treeShape(8, 1)
	root := treeRoot(parent)
	if root != 7 {
		t.Fatalf("chain root = %d, want 7", root)
	}
	isLeaf := func(s int) bool { return len(children[s]) == 0 }
	free := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if got := p.chooseSlot(free, root, isLeaf, "coord"); got != root {
		t.Fatalf("coordinator's source assigned slot %d, want root %d", got, root)
	}
	if got := p.chooseSlot(free, root, isLeaf, "h1"); got != 0 {
		t.Fatalf("peer's source assigned slot %d, want lowest free 0", got)
	}
	if got := p.chooseSlot([]int{3, 4}, root, isLeaf, "coord"); got != 3 {
		t.Fatalf("coordinator's source with the root taken assigned slot %d, want 3", got)
	}
}

// A host measured well below the median peer bandwidth must be steered to
// a free leaf slot of the reduce tree instead of the lowest free slot, so
// its starved link never sits on interior fan-in.
func TestLinkPlannerChooseSlotSteersSlowHostToLeaf(t *testing.T) {
	p := seededPlanner(200*time.Microsecond, 100<<20, map[types.NodeID]float64{
		"h1":   100 << 20,
		"h2":   100 << 20,
		"h3":   100 << 20,
		"slow": 10 << 20, // < slowFraction x median (100 MB/s)
	})
	parent, children := treeShape(7, 2)
	root := treeRoot(parent)
	isLeaf := func(s int) bool { return len(children[s]) == 0 }
	var interior, leaf int = -1, -1
	for s := 0; s < 7; s++ {
		if isLeaf(s) && leaf < 0 {
			leaf = s
		}
		if !isLeaf(s) && interior < 0 {
			interior = s
		}
	}
	if interior < 0 || leaf < 0 {
		t.Fatal("treeShape(7,2) produced no interior or no leaf slot")
	}
	free := []int{interior, leaf}

	if got := p.chooseSlot(free, root, isLeaf, "slow"); got != leaf {
		t.Fatalf("slow host assigned slot %d, want leaf %d", got, leaf)
	}
	// A healthy measured host and an unmeasured host keep arrival order.
	if got := p.chooseSlot(free, root, isLeaf, "h1"); got != interior {
		t.Fatalf("healthy host assigned slot %d, want lowest free %d", got, interior)
	}
	if got := p.chooseSlot(free, root, isLeaf, "stranger"); got != interior {
		t.Fatalf("unmeasured host assigned slot %d, want lowest free %d", got, interior)
	}
	// With no free leaf left the slow host still gets a slot.
	if got := p.chooseSlot([]int{interior}, root, isLeaf, "slow"); got != interior {
		t.Fatalf("slow host with no free leaf assigned %d, want %d", got, interior)
	}
}
