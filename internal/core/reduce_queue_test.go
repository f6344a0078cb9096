package core

import (
	"testing"

	"hoplite/internal/directory"
)

// A reduce's watch callbacks must never lose an update, however far the
// event loop falls behind: more pushes than a 4096-slot channel holds,
// with no reader, all come out one per receive, in order, and a push
// after the queue ran dry wakes the loop again.
func TestUpdateQueueNeverDrops(t *testing.T) {
	q := newUpdateQueue()
	const n = 5000
	for i := 0; i < n; i++ {
		q.push(directory.Update{Size: int64(i)})
	}
	for i := 0; i < n; i++ {
		select {
		case <-q.ready:
		default:
			t.Fatalf("no wake-up with %d updates queued", n-i)
		}
		u, ok := q.pop()
		if !ok || u.Size != int64(i) {
			t.Fatalf("receive %d got (%d, %v), want %d in order", i, u.Size, ok, i)
		}
	}
	select {
	case <-q.ready:
		t.Fatal("wake-up left on an empty queue")
	default:
	}
	q.push(directory.Update{Size: n})
	<-q.ready
	if u, ok := q.pop(); !ok || u.Size != n {
		t.Fatalf("push after draining: got (%d, %v)", u.Size, ok)
	}
}
