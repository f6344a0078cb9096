package netem

import (
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"hoplite/internal/pool"
)

// deliveryTimer is an emulated fabric's one clock. Every segment delivery
// and every token-bucket wake-up of the fabric registers its deadline here
// and parks on a channel; a single goroutine, locked to its own OS thread,
// keeps the deadlines in a min-heap and wakes each waiter when its
// deadline comes. The runtime's timers (time.Sleep) fire on the
// scheduler's schedule, about a millisecond late per wait on a virtualized
// host, which would inflate a 200 µs hop several times over. The thread
// sleeps in nanosleep(2) instead, with its timer slack cut to 1 ns, and
// returns a steady few microseconds after the time asked for. It measures
// that overshoot when the fabric starts and sleeps toward each deadline
// minus the overshoot.
//
// No deadline is released late by more than the overshoot, nor early by
// more than maxArm plus the overshoot. The thread sleeps toward its
// earliest deadline, but never longer than maxArm at a time, and publishes
// when it will next look at the heap (waking). A deadline registered after
// the armed sleep's end is found in time; one that falls before it is
// released at once, early rather than late: a short wait on a line, or a
// delivery whose pump ran late under load, can be. maxArm trades that
// early bound against how often the thread wakes while deadlines are
// pending. A sleep that an earlier deadline interrupts (ppoll on an
// eventfd) has no early bound, but it parks the waiters it wakes behind
// the thread's own blocking syscall on its P until the runtime's monitor
// takes the P away: a 200 µs hop measured 0.4–0.6 ms under load that way.
//
// Registering and waking allocate nothing: the heap is a plain slice of
// values and each waiter owns a buffered channel for its whole life.
type deliveryTimer struct {
	// overshoot is how late nanosleep returns, measured before
	// newDeliveryTimer returns and only read after.
	overshoot time.Duration

	mu      sync.Mutex
	q       []delivery // min-heap on at
	waking  time.Time  // when the sleeping thread next looks; zero while it is parked
	stopped bool
	kick    chan struct{} // cap 1: the heap went from empty to non-empty
	done    chan struct{} // closed by stop
}

const maxArm = 100 * time.Microsecond

type delivery struct {
	at   time.Time
	wake chan<- struct{}
}

func newDeliveryTimer() *deliveryTimer {
	t := &deliveryTimer{kick: make(chan struct{}, 1), done: make(chan struct{})}
	ready := make(chan struct{})
	go t.run(ready)
	<-ready
	return t
}

// wait blocks until at, or until done closes (false). wake must be a
// buffered channel that only this caller waits on.
func (t *deliveryTimer) wait(at time.Time, wake chan struct{}, done <-chan struct{}) bool {
	if time.Until(at) <= t.overshoot {
		return true
	}
	t.mu.Lock()
	if t.stopped || at.Before(t.waking) {
		t.mu.Unlock()
		return true
	}
	t.push(delivery{at: at, wake: wake})
	if len(t.q) == 1 {
		select {
		case t.kick <- struct{}{}:
		default:
		}
	}
	t.mu.Unlock()
	select {
	case <-wake:
		return true
	case <-done:
		return false
	}
}

// stop releases every waiter and ends the thread; later waits return at
// once.
func (t *deliveryTimer) stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return
	}
	t.stopped = true
	for _, d := range t.q {
		release(d.wake)
	}
	t.q = nil
	close(t.done)
}

// run is the timer thread. It never unlocks its OS thread, so the thread
// and its timer slack go away with it when the fabric closes.
func (t *deliveryTimer) run(ready chan<- struct{}) {
	runtime.LockOSThread()
	// PR_SET_TIMERSLACK: the default 50 µs slack lets the kernel fire a
	// sleep anywhere in the 50 µs after it is due. This thread only.
	syscall.Syscall(syscall.SYS_PRCTL, 29, 1, 0)
	t.overshoot = measureOvershoot()
	close(ready)
	for {
		t.mu.Lock()
		if t.stopped {
			t.mu.Unlock()
			return
		}
		now := time.Now()
		for len(t.q) > 0 && t.q[0].at.Sub(now) <= t.overshoot {
			release(t.pop().wake)
		}
		if len(t.q) == 0 {
			t.waking = time.Time{}
			t.mu.Unlock()
			select {
			case <-t.kick:
			case <-t.done:
				return
			}
			continue
		}
		d := min(t.q[0].at.Sub(now)-t.overshoot, maxArm)
		t.waking = now.Add(d + t.overshoot)
		t.mu.Unlock()
		nanosleep(d)
	}
}

// release wakes one waiter. The send never blocks: a waiter that gave up
// on its done channel may leave one stale token in its buffer.
func release(wake chan<- struct{}) {
	select {
	case wake <- struct{}{}:
	default:
	}
}

func (t *deliveryTimer) push(d delivery) {
	t.q = append(t.q, d)
	for i := len(t.q) - 1; i > 0; {
		p := (i - 1) / 2
		if !t.q[i].at.Before(t.q[p].at) {
			break
		}
		t.q[i], t.q[p] = t.q[p], t.q[i]
		i = p
	}
}

func (t *deliveryTimer) pop() delivery {
	top := t.q[0]
	last := len(t.q) - 1
	t.q[0] = t.q[last]
	t.q[last] = delivery{}
	t.q = t.q[:last]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < last && t.q[l].at.Before(t.q[m].at) {
			m = l
		}
		if r < last && t.q[r].at.Before(t.q[m].at) {
			m = r
		}
		if m == i {
			return top
		}
		t.q[i], t.q[m] = t.q[m], t.q[i]
		i = m
	}
}

// measureOvershoot returns how much later than asked a short nanosleep on
// this thread returns: the least of a few tries, since a busy host only
// ever adds to it, and an overestimate would release deadlines early.
func measureOvershoot() time.Duration {
	const probe = 50 * time.Microsecond
	least := time.Duration(1<<63 - 1)
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		nanosleep(probe)
		least = min(least, time.Since(t0)-probe)
	}
	return max(least, 0)
}

// nanosleep sleeps d on the calling thread. An interrupting signal ends
// the sleep early, which the timer loop absorbs by re-arming.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	syscall.Nanosleep(&ts, nil)
}

// segReader reads a connection's bytes into pooled arrays. It takes an
// array only once the socket has bytes: the read runs inside RawConn.Read,
// which parks on the runtime's poller until the socket is readable. So an
// idle connection's pump, as most of a cluster's hundreds are at any
// moment, holds none.
type segReader struct {
	raw syscall.RawConn
	fn  func(fd uintptr) bool // r.readFd, bound once: a closure per read would allocate
	buf []byte
	err error
}

// init binds the reader to c, a *net.TCPConn as every emulated connection
// is.
func (r *segReader) init(c net.Conn) {
	r.raw, r.err = c.(syscall.Conn).SyscallConn()
	r.fn = r.readFd
}

// read returns the next bytes in a pooled array, or nil and why the stream
// ended.
func (r *segReader) read() ([]byte, error) {
	if r.raw == nil {
		return nil, r.err
	}
	r.buf, r.err = nil, nil
	if err := r.raw.Read(r.fn); err != nil {
		return nil, err
	}
	return r.buf, r.err
}

// readFd reads the readable socket fd, or reports false to be called
// again once it is readable.
func (r *segReader) readFd(fd uintptr) bool {
	buf := pool.Get(segSize)
	n, err := syscall.Read(int(fd), buf)
	for err == syscall.EINTR {
		n, err = syscall.Read(int(fd), buf)
	}
	switch {
	case err == syscall.EAGAIN:
		pool.Put(buf)
		return false
	case err != nil:
		pool.Put(buf)
		r.err = &net.OpError{Op: "read", Net: "tcp", Err: os.NewSyscallError("read", err)}
	case n == 0:
		pool.Put(buf)
		r.err = io.EOF
	default:
		r.buf = buf[:n]
	}
	return true
}
