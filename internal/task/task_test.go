package task

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"hoplite"
	"hoplite/internal/types"
)

func startTaskCluster(t *testing.T, n int) (*hoplite.Cluster, *Cluster) {
	t.Helper()
	hc, err := hoplite.StartLocalCluster(n, hoplite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tc := NewCluster(hc.Nodes(), 2)
	t.Cleanup(func() { tc.Close(); hc.Close() })
	return hc, tc
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestSubmitAndGet(t *testing.T) {
	_, tc := startTaskCluster(t, 3)
	tc.Register("hello", func(inv *Invocation) error {
		return inv.SetReturn(0, []byte("world"))
	})
	out := tc.Submit("hello", nil, 1, AnyNode)
	got, err := tc.Get(ctxT(t), out[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "world" {
		t.Fatalf("got %q", got)
	}
}

func TestArgumentPassing(t *testing.T) {
	_, tc := startTaskCluster(t, 3)
	tc.Register("produce", func(inv *Invocation) error {
		return inv.SetReturn(0, []byte{21})
	})
	tc.Register("double", func(inv *Invocation) error {
		a, err := inv.Arg(0)
		if err != nil {
			return err
		}
		return inv.SetReturn(0, []byte{a[0] * 2})
	})
	// Pass the future before the producer runs (§2.1).
	x := tc.Submit("produce", nil, 1, AnyNode)
	y := tc.Submit("double", x, 1, AnyNode)
	got, err := tc.Get(ctxT(t), y[0])
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Fatalf("got %d", got[0])
	}
}

func TestPinnedPlacement(t *testing.T) {
	_, tc := startTaskCluster(t, 4)
	tc.Register("where", func(inv *Invocation) error {
		return inv.SetReturn(0, []byte{byte(inv.NodeIndex)})
	})
	for node := 0; node < 4; node++ {
		out := tc.Submit("where", nil, 1, node)
		got, err := tc.Get(ctxT(t), out[0])
		if err != nil {
			t.Fatal(err)
		}
		if int(got[0]) != node {
			t.Fatalf("ran on %d, pinned to %d", got[0], node)
		}
	}
}

func TestWait(t *testing.T) {
	_, tc := startTaskCluster(t, 3)
	tc.Register("slowfast", func(inv *Invocation) error {
		a, err := inv.Arg(0)
		if err != nil {
			return err
		}
		d := time.Duration(binary.BigEndian.Uint32(a)) * time.Millisecond
		time.Sleep(d)
		return inv.SetReturn(0, a)
	})
	ctx := ctxT(t)
	mk := func(ms uint32) types.ObjectID {
		arg := make([]byte, 4)
		binary.BigEndian.PutUint32(arg, ms)
		in := types.RandomObjectID()
		if err := tc.Node(0).Put(ctx, in, arg); err != nil {
			t.Fatal(err)
		}
		return tc.Submit("slowfast", []types.ObjectID{in}, 1, AnyNode)[0]
	}
	fast := mk(1)
	slow := mk(400)
	ready, rest, err := tc.Wait(ctx, []types.ObjectID{slow, fast}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 1 || ready[0] != fast || len(rest) != 1 {
		t.Fatalf("ready=%v rest=%v", ready, rest)
	}
}

func TestTaskRetryOnError(t *testing.T) {
	_, tc := startTaskCluster(t, 2)
	var attempts atomic.Int32
	tc.Register("flaky", func(inv *Invocation) error {
		if attempts.Add(1) < 3 {
			return fmt.Errorf("transient")
		}
		return inv.SetReturn(0, []byte("ok"))
	})
	out := tc.Submit("flaky", nil, 1, AnyNode)
	got, err := tc.Get(ctxT(t), out[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ok" || attempts.Load() != 3 {
		t.Fatalf("got %q after %d attempts", got, attempts.Load())
	}
}

func TestLineageReconstructionAfterDelete(t *testing.T) {
	_, tc := startTaskCluster(t, 3)
	tc.GetTimeout = 300 * time.Millisecond
	var runs atomic.Int32
	tc.Register("produce", func(inv *Invocation) error {
		runs.Add(1)
		return inv.SetReturn(0, []byte("data"))
	})
	ctx := ctxT(t)
	out := tc.Submit("produce", nil, 1, AnyNode)
	if _, err := tc.Get(ctx, out[0]); err != nil {
		t.Fatal(err)
	}
	// Lose the object: the next Get must re-execute the task.
	if err := tc.Node(0).Delete(ctx, out[0]); err != nil {
		t.Fatal(err)
	}
	got, err := tc.Get(ctx, out[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "data" || runs.Load() < 2 {
		t.Fatalf("got %q after %d runs", got, runs.Load())
	}
}

func TestGetWithoutLineageFails(t *testing.T) {
	_, tc := startTaskCluster(t, 2)
	tc.GetTimeout = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := tc.Get(ctx, types.RandomObjectID())
	if err == nil {
		t.Fatal("Get of unknown object succeeded")
	}
}

func TestKillNodeReexecutesElsewhere(t *testing.T) {
	hc, err := hoplite.StartLocalCluster(4, hoplite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	tc := NewCluster(hc.Nodes(), 1)
	defer tc.Close()
	started := make(chan int, 8)
	release := make(chan struct{})
	tc.Register("slow", func(inv *Invocation) error {
		started <- inv.NodeIndex
		select {
		case <-release:
		case <-inv.Ctx.Done():
			return inv.Ctx.Err()
		}
		return inv.SetReturn(0, []byte{byte(inv.NodeIndex)})
	})
	out := tc.Submit("slow", nil, 1, 2)
	first := <-started
	if first != 2 {
		t.Fatalf("started on %d", first)
	}
	tc.KillNode(2) // worker dies mid-task; re-executed elsewhere
	second := <-started
	if second == 2 {
		t.Fatal("re-executed on the dead node")
	}
	close(release)
	got, err := tc.Get(ctxT(t), out[0])
	if err != nil {
		t.Fatal(err)
	}
	if int(got[0]) == 2 {
		t.Fatal("result produced by dead node")
	}
}

func TestReviveNodeRunsTasksAgain(t *testing.T) {
	_, tc := startTaskCluster(t, 3)
	tc.Register("where", func(inv *Invocation) error {
		return inv.SetReturn(0, []byte{byte(inv.NodeIndex)})
	})
	tc.KillNode(1)
	tc.ReviveNode(1)
	out := tc.Submit("where", nil, 1, 1)
	got, err := tc.Get(ctxT(t), out[0])
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("ran on %d", got[0])
	}
}

func TestManyParallelTasks(t *testing.T) {
	_, tc := startTaskCluster(t, 4)
	tc.Register("id", func(inv *Invocation) error {
		a, err := inv.Arg(0)
		if err != nil {
			return err
		}
		return inv.SetReturn(0, a)
	})
	ctx := ctxT(t)
	const n = 40
	outs := make([]types.ObjectID, n)
	for i := 0; i < n; i++ {
		in := types.RandomObjectID()
		if err := tc.Node(i%4).Put(ctx, in, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		outs[i] = tc.Submit("id", []types.ObjectID{in}, 1, AnyNode)[0]
	}
	for i, out := range outs {
		got, err := tc.Get(ctx, out)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("task %d returned %d", i, got[0])
		}
	}
}

func TestArgRefZeroCopy(t *testing.T) {
	_, tc := startTaskCluster(t, 3)
	payload := make([]byte, 128<<10) // above the inline threshold: a real store ref
	for i := range payload {
		payload[i] = byte(i)
	}
	tc.Register("produce-big", func(inv *Invocation) error {
		return inv.SetReturn(0, payload)
	})
	tc.Register("sum", func(inv *Invocation) error {
		ref, err := inv.ArgRef(0)
		if err != nil {
			return err
		}
		defer ref.Release()
		data := ref.Bytes()
		if int64(len(data)) != ref.Size() || len(data) != len(payload) {
			return fmt.Errorf("ref size %d, want %d", len(data), len(payload))
		}
		var sum byte
		for _, b := range data {
			sum += b
		}
		return inv.SetReturn(0, []byte{sum})
	})
	x := tc.Submit("produce-big", nil, 1, 0)
	y := tc.Submit("sum", x, 1, 2)
	got, err := tc.Get(ctxT(t), y[0])
	if err != nil {
		t.Fatal(err)
	}
	var want byte
	for _, b := range payload {
		want += b
	}
	if got[0] != want {
		t.Fatalf("sum %d, want %d", got[0], want)
	}
}

func TestArgRefInlineSmallObject(t *testing.T) {
	_, tc := startTaskCluster(t, 2)
	tc.Register("produce", func(inv *Invocation) error {
		return inv.SetReturn(0, []byte{7})
	})
	tc.Register("relay", func(inv *Invocation) error {
		ref, err := inv.ArgRef(0)
		if err != nil {
			return err
		}
		out := []byte{ref.Bytes()[0] + 1}
		ref.Release()
		return inv.SetReturn(0, out)
	})
	x := tc.Submit("produce", nil, 1, AnyNode)
	y := tc.Submit("relay", x, 1, AnyNode)
	got, err := tc.Get(ctxT(t), y[0])
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 8 {
		t.Fatalf("got %d", got[0])
	}
}
