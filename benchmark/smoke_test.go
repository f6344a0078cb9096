package main

import (
	"context"
	"testing"
)

// TestSmoke drives every workload for a second with tracing off, and the
// smallest one traced, ladder included: every metric of BENCHMARK.json
// must come out, no operation may fail, and leakcheck sees to it that
// every cluster and bare server was torn down.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 5 clusters; skipped under -short")
	}
	check := func(t *testing.T, res *result, defs []metricDef) {
		t.Helper()
		if res.err != nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("correct %v, attempted %d, failed %d: %v", res.Correct, res.Attempted, res.Failed, res.err)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("metric %s: reported %+v (present %v), want unit %s", d.name, m, ok, d.unit)
			}
		}
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res := runWorkload(context.Background(), runConfig{w: w, seed: 7, seconds: 1, quick: true, outDir: t.TempDir()})
			check(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %g; they must never be 0", d.name, res.Metrics[d.name].Value)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		res := runWorkload(context.Background(), runConfig{w: workloads[0], seed: 7, seconds: 1, trace: true, outDir: t.TempDir()})
		check(t, res, perLayer)
		if v := res.Metrics["transport.pulls"].Value; v != 0 {
			t.Errorf("small objects ride inline, yet %g pulls per cycle", v)
		}
		if v := res.Metrics["directory.rpcs_per_op"].Value; v != 3 {
			t.Errorf("put, cold get and delete of an inline object are 3 RPCs, counted %g", v)
		}
	})
}
