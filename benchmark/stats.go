package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles a tail metric may report, highest
// first. The reported one is the highest with at least tailBeyond
// samples above it, so a "p95" backed by two samples is never printed; a
// sample too small even for p75 reports p75 all the same, never its
// maximum, which one stall of the host would own.
// p99 is left out on purpose: on the 2-core hosts this runs on, its spread
// over ten runs of the same code was 15-35 % on the loopback workloads,
// above any bound BENCHMARK.json may set, where p95 stayed within 7 %.
var tailCandidates = []float64{95, 90, 75}

const tailBeyond = 10

// tailPercentile returns the percentile a tail metric over n samples
// reports.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= tailBeyond {
			return p
		}
	}
	return tailCandidates[len(tailCandidates)-1]
}

// percentile returns the nearest-rank p-th percentile of sorted (ascending,
// non-empty).
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// samples is a set of per-operation durations in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// sorted returns an ascending copy.
func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median returns the p50 of s, or NaN when s is empty so that a metric
// that was never sampled fails the run instead of reading as zero.
func (s samples) median() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return percentile(s.sorted(), 50)
}

// tail returns the tail value of s with the percentile it stands for.
func (s samples) tail() (value, pct float64) {
	pct = tailPercentile(len(s))
	if len(s) == 0 {
		return math.NaN(), pct
	}
	return percentile(s.sorted(), pct), pct
}

// duration turns a sample value (milliseconds) back into a Duration; the
// NaN of an empty sample becomes 0, which the rates below turn into NaN.
func duration(ms float64) time.Duration {
	if math.IsNaN(ms) {
		return 0
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// opsPerSec is the rate of `clients` closed loops whose cycle takes d.
func opsPerSec(clients int, d time.Duration) float64 {
	if d <= 0 {
		return math.NaN()
	}
	return float64(clients) / d.Seconds()
}

// mbPerSec is the rate, in MB/s (10^6 bytes), of moving size bytes in d.
func mbPerSec(size int64, d time.Duration) float64 {
	if d <= 0 {
		return math.NaN()
	}
	return float64(size) / 1e6 / d.Seconds()
}

// perOp normalises a run total to one operation.
func perOp(total float64, ops int) float64 {
	if ops <= 0 {
		return math.NaN()
	}
	return total / float64(ops)
}

// quartiles returns the first quartile, median and third quartile of vs
// by the exclusive method, the same as Python's
// statistics.quantiles(vs, n=4), which is what the driver computes.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range of vs as a share of its median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}
