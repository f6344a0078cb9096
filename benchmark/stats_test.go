package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileCutOff(t *testing.T) {
	// A percentile is reported only with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 75}, {39, 75}, // too few even for p75: p75 all the same, never the maximum
		{40, 75}, {99, 75}, // 99 leave 9.9 beyond p90
		{100, 90}, {199, 90},
		{200, 95}, {100000, 95}, // never above p95, however many samples
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {75, 8}, {90, 9}, {95, 10}, {100, 10}, {0, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestSamples(t *testing.T) {
	var s samples
	if !math.IsNaN(s.median()) {
		t.Error("the median of no samples must be NaN, so that the run fails instead of reporting 0")
	}
	for i := 200; i >= 1; i-- { // unsorted on purpose
		s.add(time.Duration(i) * time.Millisecond)
	}
	if got := s.median(); got != 100 {
		t.Errorf("median = %g ms, want 100", got)
	}
	if v, pct := s.tail(); pct != 95 || v != 190 {
		t.Errorf("tail = %g ms at p%g, want 190 at p95", v, pct)
	}
	if s[0] != 200 {
		t.Error("median and tail must not reorder the samples")
	}
}

func TestRatesAndPerOp(t *testing.T) {
	// Two closed loops whose cycle takes 4 ms complete 500 cycles a second.
	if got := opsPerSec(2, duration(4)); got != 500 {
		t.Errorf("opsPerSec = %g, want 500", got)
	}
	if got := mbPerSec(3e6, 2*time.Second); got != 1.5 {
		t.Errorf("mbPerSec = %g, want 1.5", got)
	}
	if got := perOp(1000, 8); got != 125 {
		t.Errorf("perOp = %g, want 125", got)
	}
	// No operations or no time must not read as a perfect score; NaN fails
	// the run.
	for name, v := range map[string]float64{
		"opsPerSec": opsPerSec(2, 0), "mbPerSec": mbPerSec(5, 0), "perOp": perOp(5, 0),
		"opsPerSec of no samples": opsPerSec(2, duration(samples(nil).median())),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s = %g, want NaN", name, v)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(values, n=4) returns, because that is what the
// driver computes the spread from.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{2, 4}, 1.5, 3, 4.5}, // two points extrapolate, as in Python
		{[]float64{10.5, 11.5, 9.5, 10, 12, 11, 10.25}, 10, 10.5, 11.5},
	} {
		q1, q2, q3 := quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q2-c.q2) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.vs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}
