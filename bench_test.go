package hoplite_test

// One benchmark per paper table/figure (§5, Appendices A, B), each
// regenerating the corresponding experiment at the quick scale, plus
// microbenchmarks for the hot primitives. Run the full-fidelity versions
// with cmd/hoplite-bench. The scale model is internal/bench's Scale.

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hoplite"
	"hoplite/internal/bench"
	"hoplite/internal/netem"
	"hoplite/internal/types"
	"hoplite/internal/wire"
)

func benchFigure(b *testing.B, fn func(sc bench.Scale) ([]*bench.Table, error)) {
	b.Helper()
	sc := bench.QuickScale()
	for i := 0; i < b.N; i++ {
		tables, err := fn(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			for _, t := range tables {
				t.Fprint(os.Stdout)
			}
		}
	}
}

func BenchmarkDirectoryMicro(b *testing.B) {
	benchFigure(b, bench.DirectoryMicro)
}

func BenchmarkFig6PointToPoint(b *testing.B) {
	benchFigure(b, bench.Figure6)
}

func BenchmarkFig7Collectives(b *testing.B) {
	benchFigure(b, func(sc bench.Scale) ([]*bench.Table, error) {
		return bench.Figure7(sc, []int{4, 8})
	})
}

func BenchmarkFig8Asynchrony(b *testing.B) {
	benchFigure(b, func(sc bench.Scale) ([]*bench.Table, error) {
		return bench.Figure8(sc, 8, []time.Duration{0, 100 * time.Millisecond, 300 * time.Millisecond})
	})
}

func BenchmarkFig9AsyncSGD(b *testing.B) {
	benchFigure(b, func(sc bench.Scale) ([]*bench.Table, error) {
		return bench.Figure9(sc, []int{8}, 4)
	})
}

func BenchmarkFig10RL(b *testing.B) {
	benchFigure(b, func(sc bench.Scale) ([]*bench.Table, error) {
		return bench.Figure10(sc, []int{8}, 4)
	})
}

func BenchmarkFig11Serving(b *testing.B) {
	benchFigure(b, func(sc bench.Scale) ([]*bench.Table, error) {
		return bench.Figure11(sc, []int{8}, 8)
	})
}

func BenchmarkFig12FaultTolerance(b *testing.B) {
	benchFigure(b, func(sc bench.Scale) ([]*bench.Table, error) {
		return bench.Figure12(sc, 18)
	})
}

func BenchmarkFig13SyncTraining(b *testing.B) {
	benchFigure(b, func(sc bench.Scale) ([]*bench.Table, error) {
		return bench.Figure13(sc, []int{8}, 2)
	})
}

func BenchmarkFig14SmallObjects(b *testing.B) {
	benchFigure(b, func(sc bench.Scale) ([]*bench.Table, error) {
		return bench.Figure14(sc, []int{4, 8})
	})
}

func BenchmarkFig15ReduceDegree(b *testing.B) {
	benchFigure(b, func(sc bench.Scale) ([]*bench.Table, error) {
		return bench.Figure15(sc, []int64{4 << 10, 4 << 20}, []int{8})
	})
}

func BenchmarkCtrlPlaneMicro(b *testing.B) {
	benchFigure(b, bench.ControlPlaneMicro)
}

// --- control-plane codec microbenchmarks ---

// ctrlPlaneMessage is a representative directory RPC frame: the shape of
// a MethodLookup response (size + location list) or a MethodAcquire
// exchange, the two hottest control-plane messages.
func ctrlPlaneMessage() wire.Message {
	return wire.Message{
		Method: wire.MethodLookup,
		ID:     12345,
		Flags:  wire.FlagResponse,
		OID:    hoplite.ObjectIDFromString("bench-object"),
		Node:   "10.0.0.1:7777",
		Sender: "10.0.0.2:7777",
		Size:   64 << 20,
		Gen:    3,
		Locs: []types.Location{
			{Node: "10.0.0.2:7777", Progress: types.ProgressComplete},
			{Node: "10.0.0.3:7777", Progress: types.ProgressPartial},
		},
	}
}

// BenchmarkWireRoundTrip measures one encode+decode of a control-plane
// message through the fixed-layout binary codec. Compare with
// BenchmarkWireRoundTripGob: the acceptance bar for the codec is ≥3x
// fewer allocs/op.
func BenchmarkWireRoundTrip(b *testing.B) {
	m := ctrlPlaneMessage()
	var buf []byte
	var out wire.Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = wire.AppendMessage(buf[:0], &m)
		if err != nil {
			b.Fatal(err)
		}
		if err := wire.UnmarshalMessage(buf[4:], &out); err != nil {
			b.Fatal(err)
		}
	}
	if out.Size != m.Size || len(out.Locs) != len(m.Locs) {
		b.Fatal("round trip mismatch")
	}
}

// BenchmarkWireRoundTripGob is the retained reference: the same message
// through encoding/gob with a persistent encoder/decoder pair, exactly as
// the pre-codec control plane ran its connections.
func BenchmarkWireRoundTripGob(b *testing.B) {
	m := ctrlPlaneMessage()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	dec := gob.NewDecoder(&buf)
	var out wire.Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(&m); err != nil {
			b.Fatal(err)
		}
		if err := dec.Decode(&out); err != nil {
			b.Fatal(err)
		}
	}
	if out.Size != m.Size || len(out.Locs) != len(m.Locs) {
		b.Fatal("round trip mismatch")
	}
}

// benchWireCall measures live RPC round trips (request + matched
// response) over loopback TCP through the wire client/server.
func benchWireCall(b *testing.B, req wire.Message, h wire.Handler) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := wire.NewServer(ln, h)
	go srv.Serve()
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	c := wire.NewClient(conn, nil)
	defer c.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.Call(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if e := resp.ErrorOf(); e != nil {
			b.Fatal(e)
		}
	}
}

func BenchmarkWireCallLookup(b *testing.B) {
	resp := ctrlPlaneMessage()
	benchWireCall(b,
		wire.Message{Method: wire.MethodLookup, OID: resp.OID},
		func(ctx context.Context, m wire.Message, p *wire.Peer) wire.Message { return resp })
}

func BenchmarkWireCallAcquire(b *testing.B) {
	benchWireCall(b,
		wire.Message{Method: wire.MethodAcquire, OID: hoplite.ObjectIDFromString("bench-object"), Node: "10.0.0.1:7777", Wait: true},
		func(ctx context.Context, m wire.Message, p *wire.Peer) wire.Message {
			return wire.Message{Sender: "10.0.0.2:7777", Size: 64 << 20, Gen: 1}
		})
}

// --- primitive microbenchmarks (plain loopback TCP, no emulation) ---

func BenchmarkPutGet1MB(b *testing.B) {
	c, err := hoplite.StartLocalCluster(2, hoplite.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	data := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oid := hoplite.RandomObjectID()
		if err := c.Node(0).Put(ctx, oid, data); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Node(1).GetImmutable(ctx, oid); err != nil {
			b.Fatal(err)
		}
		c.Node(0).Delete(ctx, oid)
	}
}

// benchOIDOnShard crafts an ObjectID that maps to the given directory
// shard, so the failover benchmark targets the killed primary's shard.
func benchOIDOnShard(b *testing.B, label string, shards, want int) hoplite.ObjectID {
	b.Helper()
	for i := 0; i < 1_000_000; i++ {
		oid := hoplite.ObjectIDFromString(fmt.Sprintf("%s-%d", label, i))
		if oid.Shard(shards) == want {
			return oid
		}
	}
	b.Fatal("could not craft ObjectID on shard")
	return hoplite.ObjectID{}
}

// BenchmarkDirectoryFailover measures metadata-plane recovery: the wall
// time from killing a directory shard's primary replica to the first
// successful mutation on that shard through the promoted backup — the
// lease expiry + succession probe + promotion window the client's
// failover retry loop rides out.
func BenchmarkDirectoryFailover(b *testing.B) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := hoplite.StartLocalCluster(3, hoplite.Options{
			Emulate: &netem.LinkConfig{Latency: 200 * time.Microsecond, BytesPerSec: 1.25e9},
		})
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		warm := benchOIDOnShard(b, fmt.Sprintf("failover-warm-%d", i), c.Size(), 0)
		if err := c.Node(1).Put(ctx, warm, []byte("warm the shard-0 path")); err != nil {
			b.Fatal(err)
		}
		if err := c.KillNode(0); err != nil { // shard 0's primary
			b.Fatal(err)
		}
		b.StartTimer()
		start := time.Now()
		pctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		oid := benchOIDOnShard(b, fmt.Sprintf("failover-probe-%d", i), c.Size(), 0)
		if err := c.Node(1).Put(pctx, oid, []byte("first write after primary kill")); err != nil {
			b.Fatalf("mutation never recovered: %v", err)
		}
		cancel()
		total += time.Since(start)
		b.StopTimer()
		c.Close()
	}
	if b.N > 0 {
		b.ReportMetric(float64(total.Microseconds())/1000/float64(b.N), "ms/recovery")
	}
}

func BenchmarkBroadcast8Nodes4MB(b *testing.B) {
	c, err := hoplite.StartLocalCluster(8, hoplite.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	data := make([]byte, 4<<20)
	b.SetBytes(4 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oid := hoplite.RandomObjectID()
		if err := c.Node(0).Put(ctx, oid, data); err != nil {
			b.Fatal(err)
		}
		errc := make(chan error, 7)
		for w := 1; w < 8; w++ {
			go func(w int) {
				_, err := c.Node(w).GetImmutable(ctx, oid)
				errc <- err
			}(w)
		}
		for w := 1; w < 8; w++ {
			if err := <-errc; err != nil {
				b.Fatal(err)
			}
		}
		c.Node(0).Delete(ctx, oid)
	}
}

func BenchmarkReduce8Nodes4MB(b *testing.B) {
	c, err := hoplite.StartLocalCluster(8, hoplite.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	data := make([]byte, 4<<20)
	b.SetBytes(4 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oids := make([]hoplite.ObjectID, 8)
		for w := 0; w < 8; w++ {
			oids[w] = hoplite.RandomObjectID()
			if err := c.Node(w).Put(ctx, oids[w], data); err != nil {
				b.Fatal(err)
			}
		}
		target := hoplite.RandomObjectID()
		if _, err := c.Node(0).Reduce(ctx, target, oids, 8, hoplite.SumF32); err != nil {
			b.Fatal(err)
		}
		if err := c.Node(0).WaitLocal(ctx, target); err != nil {
			b.Fatal(err)
		}
		c.Node(0).Delete(ctx, target)
		for _, oid := range oids {
			c.Node(0).Delete(ctx, oid)
		}
	}
}

// BenchmarkStripedGet compares a single-source pipelined Get against a
// striped multi-source Get of the same object under netem per-node
// bandwidth caps. Senders are capped at 32 MB/s egress while the receiver
// has a fat ingress link, so the single-source fetch is sender-bound and
// the striped fetch aggregates the copies' bandwidth: sources=4 should
// beat sources=1 by roughly the source count. The sweep over source
// counts shows the aggregation scaling (and where it saturates).
func BenchmarkStripedGet(b *testing.B) {
	const size = 32 << 20
	for _, srcs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("sources=%d", srcs), func(b *testing.B) {
			c, err := hoplite.StartLocalCluster(6, hoplite.Options{
				Emulate: &netem.LinkConfig{
					Latency:     200 * time.Microsecond,
					BytesPerSec: 32 << 20,
				},
				Node: hoplite.Config{StripeThreshold: 1 << 20, MaxSources: srcs},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			// Receiver ingress is not the bottleneck: the measured fetch
			// is limited by sender egress, the regime striping targets.
			if err := c.SetNodeLink(5, netem.LinkConfig{BytesPerSec: 512 << 20}); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			data := make([]byte, size)
			oid := hoplite.RandomObjectID()
			if err := c.Node(0).Put(ctx, oid, data); err != nil {
				b.Fatal(err)
			}
			// Warm four complete copies (nodes 0..3) to stripe across,
			// then wait for their complete locations to land in the
			// directory (WaitLocal returns before the sender's completion
			// RPC is processed).
			for i := 1; i <= 3; i++ {
				if err := c.Node(i).WaitLocal(ctx, oid); err != nil {
					b.Fatal(err)
				}
			}
			deadline := time.Now().Add(20 * time.Second)
			for {
				rec, err := c.Node(5).Directory().Lookup(ctx, oid, false)
				complete := 0
				if err == nil {
					for _, l := range rec.Locs {
						if l.Progress == types.ProgressComplete {
							complete++
						}
					}
				}
				if complete >= 4 {
					break
				}
				if time.Now().After(deadline) {
					b.Fatalf("only %d complete copies registered", complete)
				}
				time.Sleep(10 * time.Millisecond)
			}
			b.SetBytes(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Node(5).GetImmutable(ctx, oid); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				// Drop the receiver's copy so the next iteration fetches
				// over the network again.
				c.Node(5).Store().Delete(oid)
				if err := c.Node(5).Directory().RemoveLocation(ctx, oid); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkGetRef measures the zero-copy handle path on a warmed local
// complete copy. The acceptance bar — asserted by the bench-smoke CI job —
// is 0 B/op and 0 allocs/op: no payload bytes are copied and the handle
// itself is pooled. Contrast with BenchmarkGetRefCopy, where the legacy
// Get of the same object copies the full payload every op.
func BenchmarkGetRef(b *testing.B) {
	c, oid, size := benchWarmLocalCopy(b)
	ctx := context.Background()
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, err := c.Node(1).GetRef(ctx, oid)
		if err != nil {
			b.Fatal(err)
		}
		if ref.Bytes()[0] != 42 {
			b.Fatal("bad payload")
		}
		ref.Release()
	}
}

// BenchmarkGetRefCopy is the legacy contrast for BenchmarkGetRef: the
// same warmed local object through Get, which materializes a private
// copy — one full object of allocation and memcpy per op.
func BenchmarkGetRefCopy(b *testing.B) {
	c, oid, size := benchWarmLocalCopy(b)
	ctx := context.Background()
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := c.Node(1).Get(ctx, oid)
		if err != nil {
			b.Fatal(err)
		}
		if out[0] != 42 {
			b.Fatal("bad payload")
		}
	}
}

// benchWarmLocalCopy puts one object and warms a complete copy of it
// into node 1's store, so the measured loop exercises only the local
// read path.
func benchWarmLocalCopy(b *testing.B) (*hoplite.Cluster, hoplite.ObjectID, int64) {
	b.Helper()
	c, err := hoplite.StartLocalCluster(2, hoplite.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	ctx := context.Background()
	const size = 16 << 20
	data := make([]byte, size)
	data[0] = 42
	oid := hoplite.RandomObjectID()
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		b.Fatal(err)
	}
	if err := c.Node(1).WaitLocal(ctx, oid); err != nil {
		b.Fatal(err)
	}
	// Populate the handle pool so the measured loop is steady state.
	ref, err := c.Node(1).GetRef(ctx, oid)
	if err != nil {
		b.Fatal(err)
	}
	ref.Release()
	return c, oid, size
}

func BenchmarkSmallObjectInline(b *testing.B) {
	c, err := hoplite.StartLocalCluster(2, hoplite.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	data := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oid := hoplite.RandomObjectID()
		if err := c.Node(0).Put(ctx, oid, data); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Node(1).Get(ctx, oid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpillRestore measures the spill tier's restore path: two
// objects share a memory budget that fits only one, so every Get of the
// cold one streams its payload back off the spill file (demoting the
// other). The reported MB/s is disk-restore throughput including the
// demotion it triggers.
// BenchmarkSmallObjectQPS measures the small-object fast path end to end
// on the paper's emulated testbed link (200µs, 10 Gbps): concurrent
// workers drive Put+Get pairs of 1 KiB objects between two nodes.
//
//	baseline — the fast path ablated: inline payloads off, so every Get
//	  is a directory acquire plus a data-plane pull.
//	fastpath — the default configuration: sub-threshold objects ride
//	  inline in directory replies (a cold Get is one RPC). Control frames
//	  coalesce in both variants.
//
// CI's bench-smoke job asserts a floor on the fastpath ops/sec and the
// fastpath/baseline ratio (see .github/workflows/ci.yml).
func BenchmarkSmallObjectQPS(b *testing.B) {
	const (
		workers = 256
		round   = 250 * time.Millisecond
	)
	link := &netem.LinkConfig{Latency: 200 * time.Microsecond, BytesPerSec: 1.25e9}
	run := func(b *testing.B, opts hoplite.Options) {
		opts.Emulate = link
		// Single-replica directory: replication forwarding (PR 5) is
		// orthogonal to the control-plane path being compared, and both
		// variants share the setting.
		opts.ReplicationFactor = 1
		c, err := hoplite.StartLocalCluster(2, opts)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		ctx := context.Background()
		data := make([]byte, 1024)
		var totalOps int64
		var totalTime time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var ops atomic.Int64
			var wg sync.WaitGroup
			start := time.Now()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for j := 0; time.Since(start) < round; j++ {
						oid := hoplite.ObjectIDFromString(fmt.Sprintf("qps-%d-%d-%d", i, w, j))
						if err := c.Node(0).Put(ctx, oid, data); err != nil {
							b.Error(err)
							return
						}
						if _, err := c.Node(1).Get(ctx, oid); err != nil {
							b.Error(err)
							return
						}
						ops.Add(2)
					}
				}(w)
			}
			wg.Wait()
			totalOps += ops.Load()
			totalTime += time.Since(start)
		}
		b.StopTimer()
		if totalTime > 0 {
			b.ReportMetric(float64(totalOps)/totalTime.Seconds(), "ops/sec")
		}
	}
	b.Run("baseline", func(b *testing.B) {
		run(b, hoplite.Options{Node: hoplite.Config{InlineThreshold: -1}})
	})
	b.Run("fastpath", func(b *testing.B) {
		run(b, hoplite.Options{})
	})
}

func BenchmarkSpillRestore(b *testing.B) {
	const (
		memLimit = 8 << 20
		objSize  = 6 << 20
	)
	c, err := hoplite.StartLocalCluster(1, hoplite.Options{
		MemoryLimit: memLimit,
		SpillDir:    b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	n := c.Node(0)
	oids := [2]hoplite.ObjectID{
		hoplite.ObjectIDFromString("spill-a"),
		hoplite.ObjectIDFromString("spill-b"),
	}
	for _, oid := range oids {
		if err := n.Put(ctx, oid, make([]byte, objSize)); err != nil {
			b.Fatal(err)
		}
	}
	if n.Spill().Len() == 0 {
		b.Fatal("second Put did not demote the first object")
	}
	b.SetBytes(objSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate: the requested object is always the spilled one.
		ref, err := n.GetRef(ctx, oids[i%2])
		if err != nil {
			b.Fatal(err)
		}
		ref.Release()
	}
	b.StopTimer()
	if n.Store().Demotions() < int64(b.N) {
		b.Fatalf("only %d demotions over %d restores; restores were served from memory", n.Store().Demotions(), b.N)
	}
}

// BenchmarkOutOfCore runs the full out-of-core workload (working set 4x
// the memory budget, produce + two-pass read-back) at a small scale.
func BenchmarkOutOfCore(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := bench.OutOfCore(ctx, b.TempDir(), 4<<20, 512<<10, 4)
		if err != nil {
			b.Fatal(err)
		}
		if res.Demotions == 0 {
			b.Fatal("workload never spilled")
		}
		b.ReportMetric(res.ReadBps/1e6, "read-MB/s")
		b.ReportMetric(res.PutBps/1e6, "put-MB/s")
	}
}
