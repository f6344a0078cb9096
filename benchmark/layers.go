package main

import (
	"fmt"
	"math"
)

// counters sums the public counters of every node of the workload's
// cluster. Their difference over the measured cycles gives the counts per
// op, taken at the same boundaries as the spans.
type counters struct {
	pulls, rangedPulls float64 // data-plane pulls served (transport.Stats)
	dirCalls           float64 // directory RPC attempts (directory.ClientStats)
	frames, flushes    float64 // control-plane write batching (wire.BatchStats)
	demotions          float64 // objects handed to the spill tier (store.Demotions)
	hits, misses       float64 // location cache (core.CacheStats)
}

func (e *env) counters() counters {
	var c counters
	for _, n := range e.c.Nodes() {
		data := n.DataStats()
		c.pulls += float64(data.Pulls)
		c.rangedPulls += float64(data.RangedPulls)
		dir := n.Directory().Stats()
		c.dirCalls += float64(dir.Calls)
		c.frames += float64(dir.Wire.Frames)
		c.flushes += float64(dir.Wire.Flushes)
		c.demotions += float64(n.Store().Demotions())
		cache := n.CacheStats()
		c.hits += float64(cache.Hits)
		c.misses += float64(cache.Misses)
	}
	return c
}

func (c counters) add(o counters) counters {
	return counters{
		pulls: c.pulls + o.pulls, rangedPulls: c.rangedPulls + o.rangedPulls,
		dirCalls: c.dirCalls + o.dirCalls,
		frames:   c.frames + o.frames, flushes: c.flushes + o.flushes,
		demotions: c.demotions + o.demotions,
		hits:      c.hits + o.hits, misses: c.misses + o.misses,
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		pulls: c.pulls - o.pulls, rangedPulls: c.rangedPulls - o.rangedPulls,
		dirCalls: c.dirCalls - o.dirCalls,
		frames:   c.frames - o.frames, flushes: c.flushes - o.flushes,
		demotions: c.demotions - o.demotions,
		hits:      c.hits - o.hits, misses: c.misses - o.misses,
	}
}

// ratio is a/b, and 0 when nothing was counted at all.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// bwEstimateRatio is the mean bandwidth the nodes' link-state trackers
// measured for their peers, over the bandwidth the cluster was configured
// with; 0 when no link carried enough bytes to be measured.
func (e *env) bwEstimateRatio() float64 {
	var sum float64
	n := 0
	for _, node := range e.c.Nodes() {
		for _, est := range node.LinkState() {
			if est.Measured {
				sum += est.Bandwidth
				n++
			}
		}
	}
	return ratio(sum, float64(n)*e.bandwidth)
}

// reportLayers fills in every per-layer metric: the ladder's rungs, the
// workload cluster's counters per cycle, and what the traced cycles and
// collective rounds say about core.
func (e *env) reportLayers(res *result, lad *ladder, rec recorder, cycles int, c counters) {
	set := func(name string, v float64, note string) { res.set(perLayer, name, v, note) }
	for name, v := range lad.vals {
		set(name, v, "ladder")
	}
	perCycle := "per cycle, all nodes"
	set("transport.pulls", perOp(c.pulls, cycles), perCycle)
	set("transport.ranged_pulls", perOp(c.rangedPulls, cycles), perCycle)
	set("directory.rpcs_per_op", perOp(c.dirCalls, cycles), perCycle)
	// The directory client's own retry count is not public; what shows from
	// outside is a call that came back with an error, and any such call
	// has already failed the run before this line.
	set("directory.retries", 0, "directory calls that returned an error")
	set("store.demotions", perOp(c.demotions, cycles), perCycle)
	set("wire.frames_per_flush", ratio(c.frames, c.flushes), "directory clients of all nodes")
	set("core.loccache_hit_ratio", ratio(c.hits, c.hits+c.misses), "")
	set("linkstate.bw_estimate_ratio", e.bwEstimateRatio(), "measured over configured")

	puts, gets := e.putsAndGets(rec)
	tail, pct := gets.tail()
	set("core.get_tail_ms", tail, fmt.Sprintf("p%g, n=%d", pct, len(gets)))
	tail, pct = puts.tail()
	set("core.put_tail_ms", tail, fmt.Sprintf("p%g, n=%d", pct, len(puts)))

	ideal := float64(e.w.collSize) / e.bandwidth * 1000 // ms to move one object at the configured rate
	bcast, reduce, allreduce := rec.coll.bcast.median(), rec.coll.reduce.median(), rec.coll.allreduce.median()
	set("core.bcast_ideal_ratio", bcast/ideal, "bcast_ms over size/bandwidth")
	set("core.reduce_ideal_ratio", reduce/ideal, "reduce_ms over size/bandwidth")
	set("hoplite.allreduce_overhead_ms", allreduce-reduce-bcast, "")
	striped := 0.0
	if len(rec.coll.striped) > 0 {
		striped = mbPerSec(bigSize, duration(rec.coll.striped.median()))
	}
	set("core.striped_get_MBps", striped, "32 MiB by node 8 from 4 copies")

	// Traced and untraced cycles alternate inside one loop, so the two
	// medians see the same machine state.
	overhead := 100 * (rec.cycle[1].median() - rec.cycle[0].median()) / rec.cycle[0].median()
	if math.IsNaN(overhead) {
		overhead = 0
	}
	set("trace.overhead_pct", overhead, "median cycle time, traced against untraced cycles")
}
