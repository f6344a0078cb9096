// Egress scheduling: start-time fair queuing over the concurrent pulls
// sharing one node's uplink. Each pull is a flow. Without a scheduler, a
// saturating striped Get fills the egress path (and, under emulation, the
// token bucket's debt) so deep that a small Get queued behind it waits for
// every in-flight bulk chunk. With it, contended chunk sends go out one at
// a time, lowest flow tag first, and each flushes inside its turn, so the
// backlog a newcomer lands behind is about one chunk.
//
// A flow's tag is the virtual start of its next send; vtime is the tag of
// the send last admitted. A flow that becomes active — a new pull, or one
// back from idling below vtime — starts at vtime, tied with the current
// round of backlogged flows, and wins the tie, so a small Get goes ahead
// of that round instead of behind it. Small transfers get low latency
// without a size classifier. Backlogged flows tie in arrival order, so
// they alternate chunk by chunk.
//
// With at most one flow registered and no contended send in flight — every
// single-stream workload — a send takes a fast path that neither
// serialises nor flushes: one mutex round per chunk.
package transport

import (
	"slices"
	"sync"
)

// flow is one pull's scheduling state, held by value in its pullState.
type flow struct {
	tag int64
	// fresh marks a flow that became active since its last admitted send.
	fresh bool
}

// egress is the fair-queuing gate. All bookkeeping is under one mutex; the
// guarded sections only mutate counters (no I/O).
type egress struct {
	mu   sync.Mutex
	cond *sync.Cond
	// flows counts registered pulls (enter/exit); waiting holds the sends
	// parked in the gate, in arrival order.
	flows   int
	waiting []*flow
	// busy marks a contended send in flight.
	busy  bool
	vtime int64
}

func newEgress() *egress {
	e := &egress{}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// enter registers f for its pull's lifetime, starting it at vtime.
func (e *egress) enter(f *flow) {
	e.mu.Lock()
	f.tag, f.fresh = e.vtime, true
	e.flows++
	e.mu.Unlock()
}

// exit deregisters a flow registered with enter. Parked sends wait on the
// gate, not on the flow count, so there is no one to wake.
func (e *egress) exit() {
	e.mu.Lock()
	e.flows--
	e.mu.Unlock()
}

// next returns the waiting flow with the lowest tag; on a tie a fresh flow
// first, then the earliest arrival. Some flow always passes, so the gate
// cannot deadlock.
func (e *egress) next() *flow {
	best := e.waiting[0]
	for _, f := range e.waiting[1:] {
		if f.tag < best.tag || (f.tag == best.tag && f.fresh && !best.fresh) {
			best = f
		}
	}
	return best
}

// admit starts f's send of n bytes at its tag.
func (e *egress) admit(f *flow, n int64) {
	e.vtime = f.tag
	f.tag += n
	f.fresh = false
}

// send charges n bytes to f and runs fn to perform the write. fn receives
// contended=true when the send was serialised behind other flows, so the
// caller flushes within its turn (bounding shaper debt to ~one chunk).
func (e *egress) send(f *flow, n int64, fn func(contended bool) error) error {
	e.mu.Lock()
	// Credit banked while idle does not carry over.
	if f.tag < e.vtime {
		f.tag, f.fresh = e.vtime, true
	}
	if e.flows <= 1 && !e.busy && len(e.waiting) == 0 {
		e.admit(f, n)
		e.mu.Unlock()
		return fn(false)
	}
	e.waiting = append(e.waiting, f)
	for e.busy || e.next() != f {
		e.cond.Wait()
	}
	i := slices.Index(e.waiting, f)
	e.waiting = slices.Delete(e.waiting, i, i+1)
	e.admit(f, n)
	e.busy = true
	e.mu.Unlock()
	err := fn(true)
	e.mu.Lock()
	e.busy = false
	e.mu.Unlock()
	e.cond.Broadcast()
	return err
}
