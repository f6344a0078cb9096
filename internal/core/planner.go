package core

import (
	"math"
	"slices"
	"sort"
	"time"

	"hoplite/internal/linkstate"
	"hoplite/internal/types"
)

// maxSpanFactor caps how much longer a fast sender's claim span may grow
// than the grid chunk: unbounded spans would let one optimistic estimate
// absorb the whole ledger into a single claim, defeating work stealing.
const maxSpanFactor = 4

// slowFraction is the below-the-median cutoff for pushing a reduce
// participant to a leaf slot: only a host measured at less than half the
// median peer bandwidth deviates from arrival-order placement.
const slowFraction = 0.5

// linkPlanner folds link estimates into the three transfer-planning
// decisions a node makes: which senders a striped Get prefers (and how much
// each claims per trip), what L and B feed the reduce-tree degree model
// (Eq. 1), and which tree slot a ready source is assigned to. It plans
// against measured per-link estimates and falls back to the configured
// priors where nothing has been measured, so a cold cluster behaves as if
// all links were equal: arrival order, equal spans, the prior scalars.
type linkPlanner struct {
	links *linkstate.Tracker
	self  types.NodeID // the planning node: a reduce coordinator
}

// rankSenders orders leased senders most-preferred (highest estimated
// bandwidth) first. The first entry is also what the non-striped fallback
// keeps.
func (p linkPlanner) rankSenders(s []types.NodeID) []types.NodeID {
	if len(s) < 2 {
		return s
	}
	out := append([]types.NodeID(nil), s...)
	sort.SliceStable(out, func(i, j int) bool {
		return p.links.Estimate(out[i]).Bandwidth > p.links.Estimate(out[j]).Bandwidth
	})
	return out
}

// stripeSpans sizes each ranked sender's per-claim span given the ledger
// grid chunk: a faster sender claims a longer run of chunks per ClaimNext
// trip, so the work-stealing split converges on a bandwidth-proportional
// byte partition with fewer claim round-trips.
func (p linkPlanner) stripeSpans(senders []types.NodeID, base int64) []int64 {
	spans := make([]int64, len(senders))
	bw := make([]float64, len(senders))
	var sum float64
	for i, s := range senders {
		bw[i] = p.links.Estimate(s).Bandwidth
		sum += bw[i]
	}
	mean := sum / float64(len(senders))
	for i := range spans {
		// A whole number of grid chunks, rounded to the nearest: ClaimNext
		// rounds a span up to whole chunks, so a sender 1% above the mean
		// would claim two and could straggle a chunk time behind the
		// others. Rounding down instead would snap a 2x sender to one chunk
		// as soon as its estimate decays a hair toward the prior. Never
		// below one chunk (a slow sender still claims whole chunks;
		// stealing keeps it busy) and never above the cap.
		factor := int64(1)
		if mean > 0 {
			factor = int64(math.Round(bw[i] / mean))
		}
		spans[i] = base * min(max(factor, 1), maxSpanFactor)
	}
	return spans
}

// reduceParams aggregates the measured links into one (L, B) pair for the
// degree model: the mean RTT and mean bandwidth across measured peers.
// Equation 1 models the cluster with scalar L and B, so the mean is the
// faithful reduction; per-slot asymmetry is handled by slot placement, not
// by the degree.
func (p linkPlanner) reduceParams() (time.Duration, float64) {
	var rtt, bw float64
	n := 0
	for _, r := range p.links.Snapshot() {
		if r.Measured {
			rtt += r.RTT.Seconds()
			bw += r.Bandwidth
			n++
		}
	}
	if n == 0 {
		return p.links.Prior()
	}
	return time.Duration(rtt / float64(n) * float64(time.Second)), bw / float64(n)
}

// chooseSlot picks which free tree slot the next ready source (hosted on
// host) fills; root is the tree's root slot and leaf reports whether a
// slot has no children. A source held by the planning node itself takes a
// free root: the reduced object then lands where the caller waits for it
// instead of costing one more transfer back. Otherwise it fills the lowest
// free slot except for hosts measured well below the median peer
// bandwidth, which are steered to a free leaf slot: a leaf uploads its
// subtree output once and receives nothing, so a starved link contributes
// its object without sitting on every descendant's critical path.
func (p linkPlanner) chooseSlot(free []int, root int, leaf func(int) bool, host types.NodeID) int {
	if host == p.self && slices.Contains(free, root) {
		return root
	}
	est := p.links.Estimate(host)
	if !est.Measured {
		return free[0]
	}
	med, ok := p.medianMeasuredBandwidth()
	if !ok || est.Bandwidth >= med*slowFraction {
		return free[0]
	}
	for _, s := range free {
		if leaf(s) {
			return s
		}
	}
	return free[0]
}

func (p linkPlanner) medianMeasuredBandwidth() (float64, bool) {
	var bws []float64
	for _, r := range p.links.Snapshot() {
		if r.Measured {
			bws = append(bws, r.Bandwidth)
		}
	}
	if len(bws) == 0 {
		return 0, false
	}
	sort.Float64s(bws)
	return bws[len(bws)/2], true
}
