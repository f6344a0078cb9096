package buffer

import (
	"errors"
	"testing"

	"hoplite/internal/types"
)

// countRecycles replaces the pool return with a recorder for one test and
// returns the arrays handed back so far.
func countRecycles(t *testing.T) *[][]byte {
	t.Helper()
	var got [][]byte
	prev := recycle
	recycle = func(b []byte) { got = append(got, b) }
	t.Cleanup(func() { recycle = prev })
	return &got
}

// sealed returns a complete buffer of size bytes.
func sealed(t *testing.T, size int64) *Buffer {
	t.Helper()
	b := New(size)
	if err := b.Append(make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	b.Seal()
	return b
}

// A retired buffer that readers still pin keeps its array until the last
// pin drops; only then does the array go back, and the buffer forgets it.
func TestRetirePinnedDefersRecycleToLastUnref(t *testing.T) {
	got := countRecycles(t)
	b := sealed(t, PoolMin)
	arr := b.Bytes()
	b.Ref()
	b.Ref()
	b.Retire()
	if len(*got) != 0 {
		t.Fatal("array recycled under a live pin")
	}
	if !b.Complete() {
		t.Fatal("retiring a sealed buffer failed it: pinned readers would lose a complete copy")
	}
	b.Unref()
	if len(*got) != 0 {
		t.Fatal("array recycled with one pin still held")
	}
	b.Unref()
	if len(*got) != 1 || &(*got)[0][0] != &arr[0] {
		t.Fatalf("last unref recycled %d arrays, want the buffer's one", len(*got))
	}
	if b.Bytes() != nil {
		t.Fatal("recycled array still reachable through Bytes")
	}
	if b.Size() != PoolMin {
		t.Fatalf("size %d after recycling, want %d", b.Size(), PoolMin)
	}
}

// Retiring an incomplete buffer fails it so writers and readers stop; an
// unpinned one recycles at once.
func TestRetireFailsAndRecyclesUnpinned(t *testing.T) {
	got := countRecycles(t)
	b := New(2 * PoolMin)
	if err := b.Append(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	b.Retire()
	if !errors.Is(b.Failed(), types.ErrDeleted) {
		t.Fatalf("retired buffer error %v, want ErrDeleted", b.Failed())
	}
	if err := b.Append([]byte{1}); !errors.Is(err, types.ErrDeleted) {
		t.Fatalf("append after retire: %v, want ErrDeleted", err)
	}
	if len(*got) != 1 {
		t.Fatalf("%d arrays recycled, want 1", len(*got))
	}
	if b.TryRef() {
		t.Fatal("TryRef pinned a retired buffer")
	}
}

// An escaped array (handed out unpinned) and an array below PoolMin stay
// with the garbage collector; so does one of a buffer that was never
// retired, however its pins come and go.
func TestNeverPooled(t *testing.T) {
	got := countRecycles(t)

	escaped := sealed(t, PoolMin)
	escaped.Ref()
	escaped.Escape()
	escaped.Unref()
	escaped.Retire()

	small := sealed(t, PoolMin-1)
	small.Retire()

	wrapped := FromBytes(make([]byte, 2*PoolMin))
	wrapped.Retire()

	live := sealed(t, PoolMin)
	live.Ref()
	live.Unref()

	if len(*got) != 0 {
		t.Fatalf("%d arrays recycled, want none", len(*got))
	}
	if escaped.Bytes() == nil || small.Bytes() == nil || wrapped.Bytes() == nil || live.Bytes() == nil {
		t.Fatal("an unpooled array was detached")
	}
}

// However retire and pins interleave — retire twice, unpin after an
// unpinned retire, pin again with TryRef — an array goes back exactly once.
func TestRecycledExactlyOnce(t *testing.T) {
	got := countRecycles(t)
	b := sealed(t, PoolMin)
	if !b.TryRef() {
		t.Fatal("TryRef refused a live buffer")
	}
	b.Retire()
	b.Retire()
	b.Unref()
	b.Retire()
	if b.TryRef() {
		t.Fatal("TryRef pinned a retired buffer")
	}
	b.Ref() // a stale pin taken without TryRef must not recycle again
	b.Unref()
	if len(*got) != 1 {
		t.Fatalf("array recycled %d times, want once", len(*got))
	}
}
