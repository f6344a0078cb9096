package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hoplite/internal/buffer"
	"hoplite/internal/directory"
	"hoplite/internal/netem"
	"hoplite/internal/types"
)

var errSenderDied = errors.New("fake sender died")

// fakeSource serves claims out of a reference payload. With err set, its
// first fetch writes only failAfter bytes of the claim and then fails;
// with gate set, its first fetch waits for the gate to close first.
type fakeSource struct {
	data      []byte
	err       error
	failAfter int64
	gate      chan struct{}
	died      chan struct{} // closed by the failing fetch once its bytes are written

	mu       sync.Mutex
	claims   [][2]int64 // (off, length) of every fetch
	fetched  int64      // bytes written
	outcomes []outcome
}

func (f *fakeSource) fetch(_ context.Context, buf *buffer.Buffer, off, length int64) error {
	f.mu.Lock()
	f.claims = append(f.claims, [2]int64{off, length})
	first := len(f.claims) == 1
	f.mu.Unlock()
	if first && f.gate != nil {
		<-f.gate
	}
	end := off + length
	if length == 0 {
		end = buf.Size()
	}
	if first && f.err != nil {
		end = off + f.failAfter
	}
	if err := buf.WriteAt(f.data[off:end], off); err != nil {
		return err
	}
	f.mu.Lock()
	f.fetched += end - off
	f.mu.Unlock()
	if first && f.err != nil {
		if f.died != nil {
			close(f.died)
		}
		return f.err
	}
	return nil
}

func (f *fakeSource) done(o outcome) {
	f.mu.Lock()
	f.outcomes = append(f.outcomes, o)
	f.mu.Unlock()
}

// checkDone asserts the source left the pull exactly once, with want.
func (f *fakeSource) checkDone(t *testing.T, name string, want outcome) {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.outcomes) != 1 || f.outcomes[0] != want {
		t.Fatalf("%s: done outcomes %v, want exactly [%v]", name, f.outcomes, want)
	}
}

func testPayload(size int64, seed byte) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i)*13 + seed
	}
	return b
}

func testNode(t *testing.T) *Node {
	t.Helper()
	n, err := NewNode(Config{Fabric: &netem.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// testPlan registers a launched pull for oid over a fresh store buffer
// with the given ledger grid, as startPull would, without running it.
func testPlan(t *testing.T, n *Node, name string, size, chunk int64, first ...source) *pullPlan {
	t.Helper()
	oid := types.ObjectIDFromString(name)
	buf, err := n.store.CreateChunked(oid, size, chunk, false)
	if err != nil {
		t.Fatal(err)
	}
	p := &pull{ready: make(chan struct{}), buf: buf}
	close(p.ready)
	return &pullPlan{n: n, oid: oid, p: p, buf: buf, first: first}
}

func checkPayload(t *testing.T, pl *pullPlan, want []byte) {
	t.Helper()
	if !pl.buf.Complete() {
		t.Fatalf("buffer not complete: present %d of %d, err %v", pl.buf.Present(), pl.buf.Size(), pl.buf.Failed())
	}
	if !bytes.Equal(pl.buf.Bytes(), want) {
		t.Fatal("payload mismatch")
	}
}

// (a) A round of one that dies mid-stream is followed by a round that
// resumes from the watermark, as a full pull.
func TestPlanResumesFromWatermark(t *testing.T) {
	n := testNode(t)
	data := testPayload(10_000, 1)
	a := &fakeSource{data: data, err: errSenderDied, failAfter: 2_500}
	b := &fakeSource{data: data}
	pl := testPlan(t, n, "resume", int64(len(data)), 1_000, a)
	nexts := 0
	pl.next = func(*pullPlan) (source, error) { nexts++; return b, nil }
	n.runPlan(pl)

	checkPayload(t, pl, data)
	if nexts != 1 {
		t.Fatalf("next consulted %d times, want 1", nexts)
	}
	if len(a.claims) != 1 || a.claims[0] != [2]int64{0, 0} {
		t.Fatalf("first source fetched %v, want one full pull from 0", a.claims)
	}
	if len(b.claims) != 1 || b.claims[0] != [2]int64{2_500, 0} {
		t.Fatalf("second source fetched %v, want one full pull from the watermark 2500", b.claims)
	}
	if a.fetched+b.fetched != int64(len(data)) {
		t.Fatalf("fetched %d+%d bytes for a %d-byte object", a.fetched, b.fetched, len(data))
	}
	a.checkDone(t, "dead source", abortedDead)
	b.checkDone(t, "completing source", releasedComplete)
}

// (b) In a striped round, a source that dies mid-claim hands its unwritten
// chunks back and the survivors fetch exactly those: no byte twice.
func TestPlanStripedSurvivorsReclaim(t *testing.T) {
	n := testNode(t)
	const chunk = 1_000
	data := testPayload(8*chunk, 2)
	died := make(chan struct{})
	dead := &fakeSource{data: data, err: errSenderDied, failAfter: chunk / 2, died: died}
	x := &fakeSource{data: data, gate: died}
	y := &fakeSource{data: data, gate: died}
	pl := testPlan(t, n, "stripe", int64(len(data)), chunk, dead, x, y)
	pl.spans = []int64{chunk, chunk, chunk}
	pl.next = func(*pullPlan) (source, error) {
		t.Error("next consulted although survivors remained")
		return nil, errSenderDied
	}
	n.runPlan(pl)

	checkPayload(t, pl, data)
	if sum := dead.fetched + x.fetched + y.fetched; sum != int64(len(data)) {
		t.Fatalf("sources fetched %d+%d+%d = %d bytes for a %d-byte object", dead.fetched, x.fetched, y.fetched, sum, len(data))
	}
	for _, f := range []*fakeSource{dead, x, y} {
		for _, c := range f.claims {
			if c[1] == 0 {
				t.Fatalf("striped round issued a full pull %v", c)
			}
		}
	}
	dead.checkDone(t, "dead source", abortedDead)
	x.checkDone(t, "survivor x", releasedPartial)
	y.checkDone(t, "survivor y", releasedPartial)
}

// (c) When every source dies, next is consulted; the lease it brings
// rebinds the buffer: a new generation resets the prefix, a new size
// replaces the buffer.
func TestPlanNextRebinds(t *testing.T) {
	n := testNode(t)
	data := testPayload(6_000, 3)
	resized := testPayload(9_000, 4)
	a := &fakeSource{data: data, err: errSenderDied, failAfter: 2_000}
	b := &fakeSource{data: data, err: errSenderDied, failAfter: 1_000}
	c := &fakeSource{data: resized}
	pl := testPlan(t, n, "rebind", int64(len(data)), 1_000, a)
	old := pl.buf
	rounds := []struct {
		src  *fakeSource
		size int64
		gen  int64
	}{{b, int64(len(data)), 1}, {c, int64(len(resized)), 2}}
	pl.next = func(pl *pullPlan) (source, error) {
		r := rounds[0]
		rounds = rounds[1:]
		if err := pl.n.rebindLease(pl, directory.Lease{Size: r.size, Gen: r.gen}); err != nil {
			return nil, err
		}
		return r.src, nil
	}
	n.runPlan(pl)

	if len(rounds) != 0 {
		t.Fatalf("%d rounds left unconsulted", len(rounds))
	}
	if len(b.claims) != 1 || b.claims[0] != [2]int64{0, 0} {
		t.Fatalf("new-generation source fetched %v, want a full pull from 0 (stale prefix discarded)", b.claims)
	}
	if !errors.Is(old.Failed(), types.ErrDeleted) {
		t.Fatalf("replaced buffer not failed: %v", old.Failed())
	}
	if pl.p.buf != pl.buf || pl.buf == old {
		t.Fatal("the pull does not publish the replacement buffer")
	}
	checkPayload(t, pl, resized)
	if cur, ok := n.store.Get(pl.oid); !ok || cur != pl.buf {
		t.Fatal("the replacement buffer is not the store entry")
	}
	a.checkDone(t, "first source", abortedDead)
	b.checkDone(t, "second source", abortedDead)
	c.checkDone(t, "resized source", releasedComplete)
}

// (d) A source reporting the object deleted fails the buffer, drops the
// store entry and ends the pull without consulting next.
func TestPlanDeletedStops(t *testing.T) {
	n := testNode(t)
	data := testPayload(5_000, 5)
	a := &fakeSource{data: data, err: types.ErrDeleted, failAfter: 1_500}
	pl := testPlan(t, n, "deleted", int64(len(data)), 1_000, a)
	pl.next = func(*pullPlan) (source, error) {
		t.Error("next consulted after a deletion")
		return nil, types.ErrDeleted
	}
	n.runPlan(pl)

	if !errors.Is(pl.buf.Failed(), types.ErrDeleted) {
		t.Fatalf("buffer error %v, want ErrDeleted", pl.buf.Failed())
	}
	if n.store.Contains(pl.oid) {
		t.Fatal("deleted object left in the store")
	}
	a.checkDone(t, "source", abortedAlive)
}

// (f) A zero-size object has nothing to claim, yet its source still
// leaves the pull, registering the (empty) complete copy.
func TestPlanZeroSizeReleases(t *testing.T) {
	n := testNode(t)
	a := &fakeSource{}
	pl := testPlan(t, n, "empty", 0, 0, a)
	n.runPlan(pl)

	checkPayload(t, pl, []byte{})
	if len(a.claims) != 0 {
		t.Fatalf("zero-size object fetched %v", a.claims)
	}
	a.checkDone(t, "source", releasedComplete)
}

// (g) A pull reaching a node that saw the object deleted moments ago is
// answered "deleted" at once: a receiver leased before the deletion does
// not wait out serveBuffer's deadline. A node fetching the object back
// (a leased receiver of a re-creation) still waits for its buffer.
func TestServeAfterDeleteAnswersDeleted(t *testing.T) {
	n := testNode(t)
	oid := types.ObjectIDFromString("served-after-delete")
	n.noteTombstone(oid)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := n.serveBuffer(ctx, oid); !errors.Is(err, types.ErrDeleted) {
		t.Fatalf("serve after delete: %v, want ErrDeleted", err)
	}

	n.mu.Lock()
	n.pulls[oid] = &pull{ready: make(chan struct{})}
	n.mu.Unlock()
	short, cancelShort := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancelShort()
	if _, err := n.serveBuffer(short, oid); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("serve while pulling: %v, want a wait until the deadline", err)
	}
}
