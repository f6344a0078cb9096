package transport

import (
	"net"
	"sync"
	"testing"
	"time"
)

// Single-class traffic must take the fast path: no serialization, no
// contended flushes, regardless of how many senders share the class.
func TestEgressSingleClassFastPath(t *testing.T) {
	e := newEgress(1 << 10)
	e.enter(classBulk)
	defer e.exit(classBulk)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				err := e.send(classBulk, 512, func(contended bool) error {
					if contended {
						t.Error("single-class send took the contended path")
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
	if got := e.granted[classBulk]; got != 8*100*512 {
		t.Fatalf("granted %d, want %d", got, 8*100*512)
	}
}

// With both classes active, a small send queued behind an in-flight bulk
// chunk must go out before the next bulk chunk: the deficit gate holds
// bulk back once it leads by more than a quantum while latency has a
// pending send.
func TestEgressSmallSendPreemptsNextBulkChunk(t *testing.T) {
	e := newEgress(100)
	e.enter(classLatency)
	e.enter(classBulk)
	defer e.exit(classLatency)
	defer e.exit(classBulk)

	release := make(chan struct{})
	var mu sync.Mutex
	var order []string
	record := func(name string) func(bool) error {
		return func(bool) error {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil
		}
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		e.send(classBulk, 80, func(bool) error {
			record("bulk1")(false)
			<-release // hold the busy token: the other sends must queue
			return nil
		})
	}()
	// Wait until bulk1 is inside its send before queueing the others.
	waitFor(t, func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.busy
	})
	go func() {
		defer wg.Done()
		e.send(classBulk, 80, record("bulk2"))
	}()
	go func() {
		defer wg.Done()
		e.send(classLatency, 10, record("small"))
	}()
	// Both followers must be parked in the gate before bulk1 finishes,
	// otherwise the wake order is not the one under test.
	waitFor(t, func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.pending[classBulk] == 1 && e.pending[classLatency] == 1
	})
	close(release)
	wg.Wait()

	want := []string{"bulk1", "small", "bulk2"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// A class that ran alone banks granted bytes; when the other class
// activates it must be rebased to at most one quantum behind, or the
// newcomer would transmit unopposed for the whole banked amount.
func TestEgressEnterRebasesIdleClass(t *testing.T) {
	e := newEgress(100)
	e.enter(classBulk)
	for i := 0; i < 10; i++ {
		if err := e.send(classBulk, 1000, func(bool) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	e.enter(classLatency)
	e.mu.Lock()
	gb, gl := e.granted[classBulk], e.granted[classLatency]
	e.mu.Unlock()
	if gb != 10000 {
		t.Fatalf("bulk granted %d, want 10000", gb)
	}
	if gl != gb-100 {
		t.Fatalf("latency rebased to %d, want %d", gl, gb-100)
	}
	e.exit(classLatency)
	e.exit(classBulk)
}

// Hammer both classes concurrently; every send must complete (no deadlock)
// and the contended-mode serialization must never admit two fns at once.
func TestEgressConcurrentMixNoDeadlock(t *testing.T) {
	e := newEgress(64 << 10)
	var inFn sync.Map
	var wg sync.WaitGroup
	done := make(chan struct{})
	for class := 0; class < 2; class++ {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(class int) {
				defer wg.Done()
				e.enter(class)
				defer e.exit(class)
				for i := 0; i < 200; i++ {
					n := int64(1 + (i*7919)%(32<<10))
					err := e.send(class, n, func(contended bool) error {
						if contended {
							if _, loaded := inFn.LoadOrStore("busy", true); loaded {
								t.Error("two contended sends in flight at once")
							}
							inFn.Delete("busy")
						}
						return nil
					})
					if err != nil {
						t.Error(err)
					}
				}
			}(class)
		}
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("egress scheduler deadlocked")
	}
}

// ConfigureScheduler must size the quantum to one chunk frame: a quantum
// smaller than a single send would wedge the deficit gate.
func TestConfigureSchedulerQuantumIsOneChunkFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	s := NewServer(ln, nil, 8<<10, nil)
	s.ConfigureScheduler(2)
	if s.sched == nil {
		t.Fatal("scheduler not installed")
	}
	if want := int64(8<<10 + frameOverhead); s.sched.quantum != want {
		t.Fatalf("quantum %d, want %d", s.sched.quantum, want)
	}
	s.ConfigureScheduler(1)
	if s.sched != nil {
		t.Fatal("classes=1 must remove the scheduler")
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
