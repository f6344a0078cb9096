package hoplite

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"hoplite/internal/netem"
)

const (
	fairBulkFlows  = 12
	fairSmallGets  = 120
	fairChunk      = 64 << 10 // short scheduler turns: one bulk chunk drains in ~2ms
	fairEgressRate = 32 << 20
	// fairChunkTime is one bulk chunk's time on the holder's capped link.
	fairChunkTime = time.Duration(float64(fairChunk) / fairEgressRate * float64(time.Second))
)

// timeSmallGets times one cold data-plane Get from node 2 of each of n fresh
// 1 KiB objects held by node 0, and returns the sorted samples.
func timeSmallGets(t *testing.T, ctx context.Context, c *Cluster, prefix string, n int) []time.Duration {
	t.Helper()
	oids := make([]ObjectID, n)
	for i := range oids {
		oids[i] = ObjectIDFromString(fmt.Sprintf("%s-%d", prefix, i))
		if err := c.Node(0).Put(ctx, oids[i], payload(1<<10, byte(i))); err != nil {
			t.Fatalf("Put small: %v", err)
		}
	}
	samples := make([]time.Duration, 0, n)
	for _, oid := range oids {
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

// Small data-plane Gets must not queue behind bulk chunk trains on the
// holder's saturated egress link. Each small Get is a new flow for the
// sender's fair-queuing scheduler, which sends it ahead of the backlogged
// bulk flows' next chunks, so under load its p99 stays within a few chunk
// times of the idle p99. Unscheduled, the same load adds about one chunk
// per bulk flow and more (p99 ≈ 120 ms against ≈ 11 ms idle). The test
// always asserts that looser bound and reports both distributions; the
// strict bound of four chunk times runs only when HOPLITE_FAIRNESS_STRICT
// is set (the CI scheduling-fairness job sets it), keeping tier-1 robust
// on noisy shared machines.
func TestSchedulerIsolatesSmallGetsFromBulk(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped with -short")
	}
	ctx := testCtx(t)
	c := startCluster(t, 3, Options{
		Emulate: &netem.LinkConfig{Latency: 200 * time.Microsecond, BytesPerSec: fairEgressRate},
		Node: Config{
			InlineThreshold: -1, // small objects must ride the data plane to contend
			ChunkSize:       fairChunk,
		},
	})
	// Node 0 holds everything; the bulk puller and the small-Get client
	// are distinct nodes, so every Get is a remote pull against node 0's
	// egress.
	idle := timeSmallGets(t, ctx, c, "fair-idle", fairSmallGets)

	bulkOIDs := make([]ObjectID, fairBulkFlows)
	for i := range bulkOIDs {
		bulkOIDs[i] = ObjectIDFromString(fmt.Sprintf("fair-bulk-%d", i))
		if err := c.Node(0).Put(ctx, bulkOIDs[i], payload(4<<20, byte(i))); err != nil {
			t.Fatalf("Put bulk: %v", err)
		}
	}
	// Bulk flows: loop cold pulls of the big objects from node 1, dropping
	// the fetched copy each round so the next pull hits the network again.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, oid := range bulkOIDs {
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
		}(oid)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	// Let the bulk flows ramp up before sampling.
	time.Sleep(300 * time.Millisecond)
	loaded := timeSmallGets(t, ctx, c, "fair-loaded", fairSmallGets)

	ip99, lp99 := pct(idle, 0.99), pct(loaded, 0.99)
	t.Logf("idle:   p50=%v p95=%v p99=%v max=%v", pct(idle, 0.50), pct(idle, 0.95), ip99, idle[len(idle)-1])
	t.Logf("loaded: p50=%v p95=%v p99=%v max=%v (chunk time %v)", pct(loaded, 0.50), pct(loaded, 0.95), lp99, loaded[len(loaded)-1], fairChunkTime)
	if bound := ip99 + fairBulkFlows*fairChunkTime; lp99 >= bound {
		t.Errorf("loaded small-Get p99 %v >= idle p99 + %d chunk times (%v): small Gets queue behind the bulk flows", lp99, fairBulkFlows, bound)
	}
	if os.Getenv("HOPLITE_FAIRNESS_STRICT") == "" {
		t.Log("HOPLITE_FAIRNESS_STRICT unset; skipping the four-chunk-time assertion")
		return
	}
	if bound := ip99 + 4*fairChunkTime; lp99 > bound {
		t.Errorf("loaded small-Get p99 %v > idle p99 + 4 chunk times (%v)", lp99, bound)
	}
}
