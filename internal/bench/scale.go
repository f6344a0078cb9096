// Package bench regenerates every table and figure of the paper's
// evaluation (§5, Appendices A and B) on the emulated testbed. The
// paper's cluster — 16 m5.4xlarge nodes with 10 Gbps networking — is
// replaced by in-process nodes on a shaped loopback fabric, and object
// sizes are scaled down by a constant divisor so the whole suite runs on
// one machine in minutes. Absolute numbers therefore differ from the
// paper; the shapes (which system wins, by what factor, where crossovers
// sit) are what the harness is built to reproduce.
package bench

import (
	"time"

	"hoplite/internal/netem"
)

// Scale maps the paper's testbed onto the emulated one.
type Scale struct {
	// Bandwidth is the emulated full-duplex per-node bandwidth in
	// bytes/s, standing in for the paper's 10 Gbps (1.25 GB/s).
	Bandwidth float64
	// Latency is the emulated one-way link latency.
	Latency time.Duration
	// SizeDivisor scales the paper's object sizes down: a "1 GB" point
	// runs with 1 GB / SizeDivisor bytes. The small-object threshold is
	// divided by the same factor so the fast-path crossover scales too.
	SizeDivisor int64
	// Repeats is how many times each measurement runs (the paper uses
	// 10); the mean is reported.
	Repeats int
}

// DefaultScale is used by the benchmarks and the CLI unless overridden:
// 1/32 sizes at 64 MB/s per node, so a paper-"1 GB" broadcast moves 32 MB
// and takes ~0.5 s, with the S/(B·L) ratio within 2x of the testbed's.
func DefaultScale() Scale {
	return Scale{
		Bandwidth:   64 << 20,
		Latency:     200 * time.Microsecond,
		SizeDivisor: 32,
		Repeats:     3,
	}
}

// QuickScale is a faster, coarser scale for smoke benches and tests.
func QuickScale() Scale {
	return Scale{
		Bandwidth:   128 << 20,
		Latency:     100 * time.Microsecond,
		SizeDivisor: 256,
		Repeats:     1,
	}
}

// Size converts a paper object size to the scaled size, never below 256
// bytes.
func (sc Scale) Size(paper int64) int64 {
	s := paper / sc.SizeDivisor
	if s < 256 {
		s = 256
	}
	// Element-align for f32 reduce kernels.
	return s - s%4
}

// SmallObject returns the scaled small-object threshold (paper: 64 KB).
func (sc Scale) SmallObject() int64 {
	t := (64 << 10) / sc.SizeDivisor
	if t < 512 {
		// Keep minimum-sized scaled objects below the threshold so the
		// paper's "1 KB and 32 KB are inline" property survives scaling.
		t = 512
	}
	return t
}

// Link returns the netem link configuration for this scale.
func (sc Scale) Link() netem.LinkConfig {
	return netem.LinkConfig{Latency: sc.Latency, BytesPerSec: sc.Bandwidth}
}

// Optimal returns the theoretical transfer time for size bytes over one
// link: size/B (the paper's "Optimal" line divides total bytes moved by
// the bandwidth).
func (sc Scale) Optimal(size int64) time.Duration {
	return time.Duration(float64(size) / sc.Bandwidth * float64(time.Second))
}
