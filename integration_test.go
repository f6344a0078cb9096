package hoplite

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hoplite/internal/types"
)

// putF32 stores a constant-valued float32 array of elems elements.
func putF32(t *testing.T, ctx context.Context, n *Node, oid ObjectID, val float32, elems int) {
	t.Helper()
	xs := make([]float32, elems)
	for i := range xs {
		xs[i] = val
	}
	if err := n.Put(ctx, oid, types.EncodeF32(xs)); err != nil {
		t.Fatalf("put %v: %v", oid, err)
	}
}

func checkConst(t *testing.T, raw []byte, want float32) {
	t.Helper()
	xs := types.DecodeF32(raw)
	for i, x := range xs {
		if x != want {
			t.Fatalf("elem %d: %v want %v", i, x, want)
		}
	}
}

// TestReduceSubset reduces num < m sources: exactly the earliest num
// participate and the spares stay untouched.
func TestReduceSubset(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 6, Options{})
	const elems = 64 << 10
	sources := make([]ObjectID, 6)
	for i := range sources {
		sources[i] = ObjectIDFromString(fmt.Sprintf("sub-%d", i))
		putF32(t, ctx, c.Node(i), sources[i], 1, elems)
	}
	target := ObjectIDFromString("sub-out")
	used, err := c.Node(0).Reduce(ctx, target, sources, 4, SumF32)
	if err != nil {
		t.Fatal(err)
	}
	if len(used) != 4 {
		t.Fatalf("used %d", len(used))
	}
	raw, err := c.Node(0).Get(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	checkConst(t, raw, 4)
}

// TestReduceChained feeds one reduce's output into another — the
// composed-reduce pattern of §3.4.2, which pipelines through the
// directory because the first output is an ordinary (streamable) object.
func TestReduceChained(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{})
	const elems = 64 << 10
	a := ObjectIDFromString("ch-a")
	b := ObjectIDFromString("ch-b")
	d := ObjectIDFromString("ch-d")
	putF32(t, ctx, c.Node(1), a, 2, elems)
	putF32(t, ctx, c.Node(2), b, 3, elems)
	putF32(t, ctx, c.Node(3), d, 10, elems)

	sum1 := ObjectIDFromString("ch-sum1")
	done1 := make(chan error, 1)
	go func() {
		_, err := c.Node(0).Reduce(ctx, sum1, []ObjectID{a, b}, 2, SumF32)
		done1 <- err
	}()
	// The second reduce consumes sum1 as a source future immediately.
	sum2 := ObjectIDFromString("ch-sum2")
	if _, err := c.Node(0).Reduce(ctx, sum2, []ObjectID{sum1, d}, 2, SumF32); err != nil {
		t.Fatal(err)
	}
	if err := <-done1; err != nil {
		t.Fatal(err)
	}
	raw, err := c.Node(0).Get(ctx, sum2)
	if err != nil {
		t.Fatal(err)
	}
	checkConst(t, raw, 15)
}

// TestReduceArrivalOrderProperty verifies the core reduce invariant: any
// arrival order and any forced tree degree produce the exact fold.
func TestReduceArrivalOrderProperty(t *testing.T) {
	const elems = 4 << 10
	rng := rand.New(rand.NewSource(7))
	for _, degree := range []int{0, 1, 2, 5} {
		for trial := 0; trial < 3; trial++ {
			t.Run(fmt.Sprintf("d=%d/trial=%d", degree, trial), func(t *testing.T) {
				ctx := testCtx(t)
				c := startCluster(t, 5, Options{Node: Config{ReduceDegree: degree}})
				sources := make([]ObjectID, 5)
				perm := rng.Perm(5)
				var want float32
				var wg sync.WaitGroup
				for i := range sources {
					sources[i] = ObjectIDFromString(fmt.Sprintf("prop-%d-%d-%d", degree, trial, i))
					want += float32(i + 1)
				}
				for order, idx := range perm {
					wg.Add(1)
					go func(order, idx int) {
						defer wg.Done()
						time.Sleep(time.Duration(order) * 15 * time.Millisecond)
						putF32(t, ctx, c.Node(idx), sources[idx], float32(idx+1), elems)
					}(order, idx)
				}
				target := ObjectIDFromString(fmt.Sprintf("prop-out-%d-%d", degree, trial))
				if _, err := c.Node(0).Reduce(ctx, target, sources, 5, SumF32); err != nil {
					t.Fatal(err)
				}
				wg.Wait()
				raw, err := c.Node(0).Get(ctx, target)
				if err != nil {
					t.Fatal(err)
				}
				checkConst(t, raw, want)
			})
		}
	}
}

// TestReduceMinMax exercises non-sum kernels end to end.
func TestReduceMinMax(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 3, Options{})
	const elems = 32 << 10
	sources := make([]ObjectID, 3)
	vals := []float32{5, -2, 9}
	for i := range sources {
		sources[i] = ObjectIDFromString(fmt.Sprintf("mm-%d", i))
		putF32(t, ctx, c.Node(i), sources[i], vals[i], elems)
	}
	minOut := ObjectIDFromString("mm-min")
	if _, err := c.Node(0).Reduce(ctx, minOut, sources, 3, ReduceOp{Kind: Min, DType: F32}); err != nil {
		t.Fatal(err)
	}
	raw, err := c.Node(0).Get(ctx, minOut)
	if err != nil {
		t.Fatal(err)
	}
	checkConst(t, raw, -2)

	maxOut := ObjectIDFromString("mm-max")
	if _, err := c.Node(1).Reduce(ctx, maxOut, sources, 3, ReduceOp{Kind: Max, DType: F32}); err != nil {
		t.Fatal(err)
	}
	raw, err = c.Node(1).Get(ctx, maxOut)
	if err != nil {
		t.Fatal(err)
	}
	checkConst(t, raw, 9)
}

// TestReduceValidation covers argument errors.
func TestReduceValidation(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	src := ObjectIDFromString("v-src")
	if _, err := c.Node(0).Reduce(ctx, ObjectID{}, []ObjectID{src}, 1, SumF32); err == nil {
		t.Fatal("zero target accepted")
	}
	if _, err := c.Node(0).Reduce(ctx, ObjectIDFromString("v-t"), []ObjectID{src}, 2, SumF32); err == nil {
		t.Fatal("num > len(sources) accepted")
	}
	if _, err := c.Node(0).Reduce(ctx, ObjectIDFromString("v-t"), []ObjectID{src, src}, 1, SumF32); err == nil {
		t.Fatal("duplicate sources accepted")
	}
	if _, err := c.Node(0).Reduce(ctx, ObjectIDFromString("v-t"), []ObjectID{src}, 1, ReduceOp{Kind: OpKind(9)}); err == nil {
		t.Fatal("bad op accepted")
	}
}

// TestReduceSingleSource degenerates to a copy.
func TestReduceSingleSource(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	src := ObjectIDFromString("one-src")
	putF32(t, ctx, c.Node(1), src, 7, 32<<10)
	target := ObjectIDFromString("one-out")
	if _, err := c.Node(0).Reduce(ctx, target, []ObjectID{src}, 1, SumF32); err != nil {
		t.Fatal(err)
	}
	raw, err := c.Node(0).Get(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	checkConst(t, raw, 7)
}

// TestReduceSmallObjects exercises the inline gather-fold path (§3.2).
func TestReduceSmallObjects(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{})
	sources := make([]ObjectID, 4)
	for i := range sources {
		sources[i] = ObjectIDFromString(fmt.Sprintf("smr-%d", i))
		putF32(t, ctx, c.Node(i), sources[i], float32(i), 256) // 1 KB, inline
	}
	target := ObjectIDFromString("smr-out")
	used, err := c.Node(0).Reduce(ctx, target, sources, 4, SumF32)
	if err != nil {
		t.Fatal(err)
	}
	if len(used) != 4 {
		t.Fatalf("used %d", len(used))
	}
	raw, err := c.Node(1).Get(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	checkConst(t, raw, 0+1+2+3)
}

// TestEvictionUnderCapacity bounds every store and checks unpinned remote
// copies are evicted while the pinned origins survive and stay fetchable.
// Puts are admission-controlled, so each origin node holds exactly the
// three pinned originals that fit under the limit.
func TestEvictionUnderCapacity(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 3, Options{MemoryLimit: 3 << 20})
	data := payload(1<<20, 3)
	var oids []ObjectID
	for i := 0; i < 6; i++ {
		oid := ObjectIDFromString(fmt.Sprintf("evict-%d", i))
		oids = append(oids, oid)
		if err := c.Node(2*(i/3)).Put(ctx, oid, data); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		// Node 1 caches a remote copy each time; its 3 MB store must
		// evict older unpinned copies.
		if _, err := c.Node(1).Get(ctx, oid); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	if used := c.Node(1).Store().Used(); used > 3<<20 {
		t.Fatalf("node 1 store %d bytes exceeds capacity", used)
	}
	// Every object is still fetchable from its pinned origin.
	for _, oid := range oids {
		got, err := c.Node(1).Get(ctx, oid)
		if err != nil {
			t.Fatalf("refetch: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("refetch mismatch")
		}
	}
}

// TestManyObjectsManyNodes stresses mixed Put/Get traffic.
func TestManyObjectsManyNodes(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 5, Options{})
	const objs = 40
	var wg sync.WaitGroup
	errs := make(chan error, objs)
	for i := 0; i < objs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			oid := ObjectIDFromString(fmt.Sprintf("stress-%d", i))
			data := payload(10000+i*137, byte(i))
			if err := c.Node(i%5).Put(ctx, oid, data); err != nil {
				errs <- err
				return
			}
			got, err := c.Node((i+2)%5).Get(ctx, oid)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, data) {
				errs <- fmt.Errorf("obj %d mismatch", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGetImmutableSharesBuffer verifies the zero-copy read path returns
// the same backing array for repeated immutable gets.
func TestGetImmutableSharesBuffer(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	oid := ObjectIDFromString("imm")
	data := payload(1<<20, 4)
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatal(err)
	}
	a, err := c.Node(1).GetImmutable(ctx, oid)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Node(1).GetImmutable(ctx, oid)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("immutable gets copied the buffer")
	}
}

// TestBroadcastStaggeredArrivals checks late receivers still converge
// (the Figure 8 scenario at test scale).
func TestBroadcastStaggeredArrivals(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 6, Options{})
	oid := ObjectIDFromString("stag")
	data := payload(2<<20, 9)
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for i := 1; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 20 * time.Millisecond)
			got, err := c.Node(i).Get(ctx, oid)
			if err == nil && !bytes.Equal(got, data) {
				err = fmt.Errorf("node %d mismatch", i)
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPutIdempotentReput covers a restarted task re-producing its output
// on the same node.
func TestPutIdempotentReput(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	oid := ObjectIDFromString("reput")
	data := payload(1<<20, 1)
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatal(err)
	}
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("re-put failed: %v", err)
	}
	got, err := c.Node(1).Get(ctx, oid)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after re-put: %v", err)
	}
}

// TestDeleteSmallObject covers the inline-path delete.
func TestDeleteSmallObject(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	oid := ObjectIDFromString("small-del")
	if err := c.Node(0).Put(ctx, oid, []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if err := c.Node(1).Delete(ctx, oid); err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	if _, err := c.Node(1).Get(sctx, oid); err == nil {
		t.Fatal("deleted small object still readable")
	}
}
