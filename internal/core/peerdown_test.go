package core

import (
	"context"
	"testing"
	"time"

	"hoplite/internal/netem"
	"hoplite/internal/types"
)

func TestDownSubsSubscribeUnsubscribe(t *testing.T) {
	var s downSubs
	s.fire("nobody-listens") // no subscribers yet: a no-op
	var a, b []types.NodeID
	unsubA := s.subscribe(func(p types.NodeID) { a = append(a, p) })
	unsubB := s.subscribe(func(p types.NodeID) { b = append(b, p) })
	s.fire("x")
	unsubA()
	s.fire("y")
	unsubB()
	unsubB() // idempotent
	s.fire("z")
	if len(a) != 1 || a[0] != "x" {
		t.Fatalf("first subscriber saw %v, want [x]", a)
	}
	if len(b) != 2 || b[0] != "x" || b[1] != "y" {
		t.Fatalf("second subscriber saw %v, want [x y]", b)
	}
}

// TestPeerCtrlDownReachesSubscribers closes a peer and checks that the
// loss of the cached control connection to it reaches a subscriber and
// evicts the connection from the cache.
func TestPeerCtrlDownReachesSubscribers(t *testing.T) {
	a, err := NewNode(Config{Fabric: &netem.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(Config{Fabric: &netem.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	down := make(chan types.NodeID, 1)
	defer a.peerDown.subscribe(func(p types.NodeID) { down <- p })()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := a.peerCtrl(ctx, b.Addr()); err != nil {
		t.Fatal(err)
	}
	b.Close()
	select {
	case p := <-down:
		if p != b.ID() {
			t.Fatalf("down report names %v, want %v", p, b.ID())
		}
	case <-ctx.Done():
		t.Fatal("closing the peer reached no subscriber")
	}
	a.mu.Lock()
	_, cached := a.peers[b.Addr()]
	a.mu.Unlock()
	if cached {
		t.Fatal("the dead connection is still cached")
	}
}
