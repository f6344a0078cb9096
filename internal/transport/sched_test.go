package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// One flow, however many goroutines drive it, must take the fast path: no
// serialisation, no contended flushes.
func TestEgressOneFlowFastPath(t *testing.T) {
	e := newEgress()
	var f flow
	e.enter(&f)
	defer e.exit()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				err := e.send(&f, 512, func(contended bool) error {
					if contended {
						t.Error("a lone flow took the contended path")
					}
					return nil
				})
				if err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if f.tag != 8*100*512 {
		t.Fatalf("tag %d, want %d", f.tag, 8*100*512)
	}
}

// sendOrder records the order in which contended sends run.
type sendOrder struct {
	mu    sync.Mutex
	names []string
}

func (o *sendOrder) record(name string) func(bool) error {
	return func(bool) error {
		o.mu.Lock()
		o.names = append(o.names, name)
		o.mu.Unlock()
		return nil
	}
}

func (o *sendOrder) len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.names)
}

func (o *sendOrder) check(t *testing.T, want ...string) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.names) != len(want) {
		t.Fatalf("order %v, want %v", o.names, want)
	}
	for i := range want {
		if o.names[i] != want[i] {
			t.Fatalf("order %v, want %v", o.names, want)
		}
	}
}

// holdSend starts a send of f that blocks inside fn, holding the gate,
// until release is closed; it returns once the send has been admitted.
func holdSend(t *testing.T, e *egress, f *flow, n int64, rec func(bool) error, release <-chan struct{}, wg *sync.WaitGroup) {
	t.Helper()
	var in atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.send(f, n, func(c bool) error {
			rec(c)
			in.Store(true)
			<-release
			return nil
		})
	}()
	waitFor(t, in.Load)
}

// parkSend starts a send of f and returns once it waits in the gate.
func parkSend(t *testing.T, e *egress, f *flow, n int64, rec func(bool) error, wg *sync.WaitGroup) {
	t.Helper()
	before := parked(e)
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.send(f, n, rec)
	}()
	waitFor(t, func() bool { return parked(e) == before+1 })
}

// parked counts the sends waiting in the gate.
func parked(e *egress) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.waiting)
}

// A small send from a pull that has just become active, parked behind an
// in-flight bulk chunk, must go out before the next chunk of each
// backlogged flow: it joins their round and wins the tie.
func TestEgressSmallSendPreemptsNextBulkChunk(t *testing.T) {
	e := newEgress()
	var a, b, c flow
	e.enter(&a)
	e.enter(&b)
	var o sendOrder
	var wg sync.WaitGroup
	// One round each, so both flows are backlogged at the same tag.
	e.send(&a, 100, o.record("a1"))
	e.send(&b, 100, o.record("b1"))

	release := make(chan struct{})
	holdSend(t, e, &a, 100, o.record("a2"), release, &wg)
	parkSend(t, e, &b, 100, o.record("b2"), &wg)
	parkSend(t, e, &a, 100, o.record("a3"), &wg)
	e.enter(&c)
	parkSend(t, e, &c, 10, o.record("c1"), &wg)
	close(release)
	wg.Wait()
	o.check(t, "a1", "b1", "a2", "c1", "b2", "a3")
	e.exit()
	e.exit()
	e.exit()
}

// Two backlogged flows take turns chunk by chunk. Each flow re-arrives
// while the other's chunk is in flight, the way a pull's serving loop does.
func TestEgressBackloggedFlowsAlternate(t *testing.T) {
	e := newEgress()
	var a, b flow
	e.enter(&a)
	e.enter(&b)
	defer e.exit()
	defer e.exit()
	const rounds = 3
	var o sendOrder
	var wg sync.WaitGroup
	run := func(f *flow, name string) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			e.send(f, 100, func(c bool) error {
				o.record(name)(c)
				// Hold the turn until the other flow is parked, so every
				// re-arrival meets a waiting flow at its own tag.
				if o.len() < 2*rounds {
					for deadline := time.Now().Add(5 * time.Second); parked(e) == 0 && time.Now().Before(deadline); {
						time.Sleep(time.Millisecond)
					}
				}
				return nil
			})
		}
	}
	wg.Add(2)
	go run(&a, "A")
	waitFor(t, func() bool { return o.len() == 1 })
	go run(&b, "B")
	wg.Wait()
	o.check(t, "A", "B", "A", "B", "A", "B")
}

// A flow that ran alone banks no credit against a newcomer: the newcomer's
// first send waits for at most the one send already in flight, and the
// old flow is not pushed back by more than one send either.
func TestEgressIdleCreditDoesNotCarryOver(t *testing.T) {
	e := newEgress()
	var old, newcomer flow
	e.enter(&old)
	defer e.exit()
	for i := 0; i < 10; i++ {
		if err := e.send(&old, 1000, func(bool) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	e.enter(&newcomer)
	defer e.exit()
	if lead := old.tag - newcomer.tag; lead < 0 || lead > 1000 {
		t.Fatalf("old flow leads the newcomer by %d bytes, want at most one send (1000)", lead)
	}
	var o sendOrder
	var wg sync.WaitGroup
	release := make(chan struct{})
	holdSend(t, e, &old, 1000, o.record("old1"), release, &wg)
	parkSend(t, e, &old, 1000, o.record("old2"), &wg)
	parkSend(t, e, &newcomer, 10, o.record("new"), &wg)
	close(release)
	wg.Wait()
	o.check(t, "old1", "new", "old2")
}

// Hammer 16 flows of mixed send sizes concurrently: every send completes
// (no deadlock), and the contended path never admits two sends at once.
func TestEgressConcurrentMixNoDeadlock(t *testing.T) {
	e := newEgress()
	var inFn atomic.Int32
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var f flow
			e.enter(&f)
			defer e.exit()
			for i := 0; i < 200; i++ {
				n := int64(1 + (i*7919+g*104729)%(32<<10))
				err := e.send(&f, n, func(contended bool) error {
					if contended {
						if inFn.Add(1) != 1 {
							t.Error("two contended sends in flight at once")
						}
						inFn.Add(-1)
					}
					return nil
				})
				if err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("egress scheduler deadlocked")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
