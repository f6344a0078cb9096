package hoplite

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"hoplite/internal/netem"
	"hoplite/internal/types"
)

// TestConcurrentIndependentReduces runs several reduces with disjoint
// source sets at once; coordinators, executors and the directory must not
// cross-talk.
func TestConcurrentIndependentReduces(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{})
	const elems = 16 << 10
	const jobs = 5
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			sources := make([]ObjectID, 4)
			var want float32
			for i := range sources {
				sources[i] = ObjectIDFromString(fmt.Sprintf("cr-%d-%d", j, i))
				val := float32(j*10 + i)
				want += val
				xs := make([]float32, elems)
				for k := range xs {
					xs[k] = val
				}
				if err := c.Node(i).Put(ctx, sources[i], types.EncodeF32(xs)); err != nil {
					errs <- err
					return
				}
			}
			target := ObjectIDFromString(fmt.Sprintf("cr-out-%d", j))
			if _, err := c.Node(j%4).Reduce(ctx, target, sources, 4, SumF32); err != nil {
				errs <- err
				return
			}
			raw, err := c.Node((j+1)%4).Get(ctx, target)
			if err != nil {
				errs <- err
				return
			}
			got := types.DecodeF32(raw)
			if got[0] != want || got[elems-1] != want {
				errs <- fmt.Errorf("job %d: got %v want %v", j, got[0], want)
			}
		}(j)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRestartNodeRejoins kills a worker node, restarts it under the same
// fabric name, and checks the fresh node participates fully.
func TestRestartNodeRejoins(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{Emulate: slowEmu(), ShardNodes: 1})
	oid := oidOnShard(t, "restart", 1, 0)
	data := payload(2<<20, 5)
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(3).Get(ctx, oid); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(3); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := c.RestartNode(3); err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	got, err := c.Node(3).Get(ctx, oid)
	if err != nil {
		t.Fatalf("Get on restarted node: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restarted node payload mismatch")
	}
	// The restarted node can also produce objects.
	oid2 := oidOnShard(t, "restart2", 1, 0)
	if err := c.Node(3).Put(ctx, oid2, data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(1).Get(ctx, oid2); err != nil {
		t.Fatal(err)
	}
}

// TestRestartShardHost restarts nodes hosting directory shard replicas —
// with replication, a shard host no longer takes its shards' metadata
// down with it: the restarted node rebinds its old address, rejoins its
// groups as an out-of-sync backup, and is re-synced by the promoted
// primaries.
func TestRestartShardHost(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 3, Options{Emulate: slowEmu()})
	defer c.Close()
	data := payload(2<<20, 9)
	oid := oidOnShard(t, "shost", c.Size(), 1)
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatal(err)
	}
	// Node 1 is shard 1's initial primary and a backup of shards 0 and 2.
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := c.RestartNode(1); err != nil {
		t.Fatalf("RestartNode on shard host: %v", err)
	}
	got, err := c.Node(1).Get(ctx, oid)
	if err != nil {
		t.Fatalf("Get on restarted shard host: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restarted shard host payload mismatch")
	}
	// The restarted host serves new objects on its shards too.
	oid2 := oidOnShard(t, "shost2", c.Size(), 1)
	if err := c.Node(1).Put(ctx, oid2, data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(2).Get(ctx, oid2); err != nil {
		t.Fatal(err)
	}
}

// TestGetImmutableSmallObject covers zero-copy reads through the inline
// fast path.
func TestGetImmutableSmallObject(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	oid := ObjectIDFromString("imm-small")
	data := []byte("hello inline world")
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Node(1).GetImmutable(ctx, oid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
}

// TestAllReduceStaggered runs the cluster AllReduce helper with sources
// appearing over time.
func TestAllReduceStaggered(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{})
	const elems = 16 << 10
	sources := make([]ObjectID, 4)
	for i := range sources {
		sources[i] = ObjectIDFromString(fmt.Sprintf("ars-%d", i))
		go func(i int) {
			time.Sleep(time.Duration(i) * 25 * time.Millisecond)
			xs := make([]float32, elems)
			for k := range xs {
				xs[k] = 1
			}
			c.Node(i).Put(ctx, sources[i], types.EncodeF32(xs))
		}(i)
	}
	target := ObjectIDFromString("ars-out")
	if _, err := c.AllReduce(ctx, 2, target, sources, 4, SumF32); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		raw, err := c.Node(i).GetImmutable(ctx, target)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if got := types.DecodeF32(raw); got[0] != 4 {
			t.Fatalf("node %d: got %v", i, got[0])
		}
	}
}

// TestClusterCloseIdempotent verifies shutdown is clean and repeatable.
func TestClusterCloseIdempotent(t *testing.T) {
	c, err := StartLocalCluster(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := c.Node(0).Put(ctx, RandomObjectID(), make([]byte, 1<<20)); err == nil {
		t.Fatal("Put on closed cluster succeeded")
	}
}

// TestNewNodeBootForms covers NewNode's three ways to obtain its cluster
// map over plain TCP (the hoplited / hoplite-cli deployment paths): a head
// with neither InitialMap nor JoinAddrs founds a one-member cluster on its
// own address; workers join it by address; an ephemeral client boots from
// the fetched map without becoming a member.
func TestNewNodeBootForms(t *testing.T) {
	for _, tc := range []struct {
		name string
		// peer builds the second node's config against a running head;
		// nil exercises the self-founded head alone.
		peer      func(ctx context.Context, head *Node) (Config, error)
		member    bool // the peer ends up in the cluster map...
		shardHost bool // ...eligible for directory shard replicas
	}{
		{name: "self-founded"},
		{
			name: "join storage-only",
			peer: func(_ context.Context, head *Node) (Config, error) {
				return Config{JoinAddrs: []string{head.Addr()}, JoinStorageOnly: true}, nil
			},
			member: true,
		},
		{
			name: "join as shard host",
			peer: func(_ context.Context, head *Node) (Config, error) {
				return Config{JoinAddrs: []string{head.Addr()}}, nil
			},
			member: true, shardHost: true,
		},
		{
			name: "fetched map, non-member client",
			peer: func(ctx context.Context, head *Node) (Config, error) {
				cm, err := FetchClusterMap(ctx, tcpFabric(), []string{head.Addr()})
				return Config{InitialMap: &cm}, err
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := testCtx(t)
			head, err := NewNode(Config{Fabric: tcpFabric()})
			if err != nil {
				t.Fatal(err)
			}
			defer head.Close()
			cm := head.ClusterMap()
			if cm.Epoch != 1 || len(cm.Members) != 1 || cm.Members[0].Addr != head.ID() || !cm.Members[0].ShardHost {
				t.Fatalf("self-founded map = %+v, want epoch 1 with the head as only shard host", cm)
			}
			if got := head.ShardServer().HostedReplicas(); got != 1 {
				t.Fatalf("head hosts %d shard replicas, want 1", got)
			}
			oid := ObjectIDFromString("boot-form")
			data := payload(1<<20, 8)
			if err := head.Put(ctx, oid, data); err != nil {
				t.Fatal(err)
			}
			getter := head
			if tc.peer != nil {
				cfg, err := tc.peer(ctx, head)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Fabric = tcpFabric()
				peer, err := NewNode(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer peer.Close()
				i := peer.ClusterMap().MemberIndex(peer.ID())
				if (i >= 0) != tc.member {
					t.Fatalf("peer membership = %v, want %v (map %+v)", i >= 0, tc.member, peer.ClusterMap())
				}
				if tc.member && peer.ClusterMap().Members[i].ShardHost != tc.shardHost {
					t.Fatalf("peer ShardHost = %v, want %v", !tc.shardHost, tc.shardHost)
				}
				// The reverse direction: the head reads what the peer wrote.
				back := ObjectIDFromString("boot-form-back")
				if err := peer.Put(ctx, back, data[:2048]); err != nil {
					t.Fatal(err)
				}
				if got, err := head.Get(ctx, back); err != nil || !bytes.Equal(got, data[:2048]) {
					t.Fatalf("head Get of the peer's object: err %v, match %v", err, bytes.Equal(got, data[:2048]))
				}
				getter = peer
			}
			got, err := getter.Get(ctx, oid)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("mismatch")
			}
		})
	}
}

// A map that names no directory shard host cannot be booted from: there
// would be nowhere to route the first directory call.
func TestNewNodeRejectsMapWithoutShardHosts(t *testing.T) {
	for _, cm := range []ClusterMap{
		{},
		{Epoch: 3, NumShards: 2, DirRF: 1, Members: []types.Member{{Addr: "10.0.0.9:1", State: types.MemberActive}}},
	} {
		if n, err := NewNode(Config{Fabric: tcpFabric(), InitialMap: &cm}); err == nil {
			n.Close()
			t.Fatalf("NewNode booted from %+v", cm)
		}
	}
}

// tcpFabric returns a fresh plain-TCP fabric for standalone-node tests.
func tcpFabric() netem.Fabric { return &netem.TCP{} }
