package directory

import (
	"context"
	"net"
	"slices"
	"testing"
	"time"

	"hoplite/internal/netem"
	"hoplite/internal/types"
	"hoplite/internal/wire"
)

// TestEmulatedLookupLatency times an idle Lookup across the emulated
// fabric at the benchmark's 200 µs one-way latency: one round trip, so
// 0.4 ms of link plus the codec and the shard, within 0.8 ms.
func TestEmulatedLookupLatency(t *testing.T) {
	em := netem.NewEmulated(netem.LinkConfig{Latency: 200 * time.Microsecond})
	defer em.Close()
	ln, err := em.Listen("shard")
	if err != nil {
		t.Fatal(err)
	}
	shard := NewServer()
	srv := wire.NewServer(ln, shard.Handler())
	go srv.Serve()
	defer srv.Close()
	c := NewClient("client", []string{ln.Addr().String()}, func(ctx context.Context, addr string) (net.Conn, error) {
		return em.Dial(ctx, "client", addr)
	})
	defer c.Close()
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("lookup")
	if err := c.PutInline(ctx, oid, []byte("x")); err != nil {
		t.Fatal(err)
	}
	samples := make([]time.Duration, 50)
	for i := range samples {
		t0 := time.Now()
		if _, err := c.Lookup(ctx, oid, false); err != nil {
			t.Fatal(err)
		}
		samples[i] = time.Since(t0)
	}
	slices.Sort(samples)
	med := samples[len(samples)/2]
	t.Logf("median idle Lookup %v", med)
	if med > 800*time.Microsecond {
		t.Fatalf("median idle Lookup %v, want ≤ 0.8 ms", med)
	}
}
