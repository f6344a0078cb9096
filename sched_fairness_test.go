package hoplite

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"hoplite/internal/netem"
)

// fairnessPhase measures small-Get latency on one cluster configuration
// while concurrent bulk streams saturate the holder's capped egress link.
// It returns the sorted latency samples.
func fairnessPhase(t *testing.T, schedClasses int) []time.Duration {
	t.Helper()
	const (
		bulkSize   = 4 << 20
		smallSize  = 1 << 10
		smallGets  = 120
		bulkFlows  = 12
		egressRate = 32 << 20
	)
	ctx := testCtx(t)
	c := startCluster(t, 3, Options{
		Emulate: &netem.LinkConfig{Latency: 200 * time.Microsecond, BytesPerSec: egressRate},
		Node: Config{
			InlineThreshold: -1,       // small objects must ride the data plane to contend
			ChunkSize:       64 << 10, // short scheduler turns: one bulk chunk drains in ~2ms
			SchedClasses:    schedClasses,
		},
	})

	// Node 0 holds everything; bulk pullers and the small-Get client are
	// distinct nodes so every Get is a remote data-plane pull against
	// node 0's egress.
	bulkOIDs := make([]ObjectID, bulkFlows)
	for i := range bulkOIDs {
		bulkOIDs[i] = ObjectIDFromString(fmt.Sprintf("fair-bulk-%d", i))
		if err := c.Node(0).Put(ctx, bulkOIDs[i], payload(bulkSize, byte(i))); err != nil {
			t.Fatalf("Put bulk: %v", err)
		}
	}
	smallOIDs := make([]ObjectID, smallGets)
	for i := range smallOIDs {
		smallOIDs[i] = ObjectIDFromString(fmt.Sprintf("fair-small-%d", i))
		if err := c.Node(0).Put(ctx, smallOIDs[i], payload(smallSize, byte(i))); err != nil {
			t.Fatalf("Put small: %v", err)
		}
	}

	// Bulk streams: loop cold pulls of the big objects from node 1,
	// dropping the fetched copy each round so the next pull hits the
	// network again.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < bulkFlows; i++ {
		wg.Add(1)
		go func(oid ObjectID) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Node(1).Get(ctx, oid); err != nil {
					return // cluster shutting down
				}
				c.Node(1).Store().Delete(oid)
				if err := c.Node(1).Directory().RemoveLocation(ctx, oid); err != nil {
					return
				}
			}
		}(bulkOIDs[i])
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	// Let the bulk streams ramp up before sampling.
	time.Sleep(300 * time.Millisecond)

	samples := make([]time.Duration, 0, smallGets)
	for _, oid := range smallOIDs {
		start := time.Now()
		if _, err := c.Node(2).Get(ctx, oid); err != nil {
			t.Fatalf("small Get: %v", err)
		}
		samples = append(samples, time.Since(start))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples
}

func pct(sorted []time.Duration, p float64) time.Duration {
	i := int(float64(len(sorted)-1) * p)
	return sorted[i]
}

// With a single scheduler class, small data-plane Gets queue behind bulk
// chunk trains on the holder's saturated egress link; with the default two
// classes the weighted-deficit scheduler drains latency-class pulls ahead
// of bulk. The strict ≥5x p99 assertion only runs when
// HOPLITE_FAIRNESS_STRICT is set (the CI scheduling-fairness job sets it);
// otherwise the test just reports both distributions, keeping tier-1
// robust on noisy shared machines.
func TestSchedulerIsolatesSmallGetsFromBulk(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped with -short")
	}
	unfair := fairnessPhase(t, 1)
	fair := fairnessPhase(t, 2)
	up99, fp99 := pct(unfair, 0.99), pct(fair, 0.99)
	t.Logf("classes=1: p50=%v p95=%v p99=%v max=%v", pct(unfair, 0.50), pct(unfair, 0.95), up99, unfair[len(unfair)-1])
	t.Logf("classes=2: p50=%v p95=%v p99=%v max=%v", pct(fair, 0.50), pct(fair, 0.95), fp99, fair[len(fair)-1])
	if fp99 >= up99 {
		t.Errorf("scheduler did not improve small-Get p99: classes=1 %v vs classes=2 %v", up99, fp99)
	}
	if os.Getenv("HOPLITE_FAIRNESS_STRICT") == "" {
		t.Log("HOPLITE_FAIRNESS_STRICT unset; skipping the 5x assertion")
		return
	}
	if fp99*5 > up99 {
		t.Errorf("small-Get p99 improved only %.1fx (classes=1 %v vs classes=2 %v), want >=5x",
			float64(up99)/float64(fp99), up99, fp99)
	}
}
