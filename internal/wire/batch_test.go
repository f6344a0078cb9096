package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hoplite/internal/types"
)

// collectWriter records each Write as one batch so tests can inspect
// exactly how frames were coalesced onto the "wire". Each Write first
// reports itself on entered, then blocks until gate is closed: a stalled
// connection, under which every frame enqueued meanwhile must ride the
// next write.
type collectWriter struct {
	entered chan struct{}
	gate    chan struct{}
	mu      sync.Mutex
	batches [][]byte
}

func (w *collectWriter) Write(p []byte) (int, error) {
	w.entered <- struct{}{}
	<-w.gate
	w.mu.Lock()
	defer w.mu.Unlock()
	w.batches = append(w.batches, append([]byte(nil), p...))
	return len(p), nil
}

func (w *collectWriter) frames(t *testing.T) []Message {
	t.Helper()
	w.mu.Lock()
	var all []byte
	for _, b := range w.batches {
		all = append(all, b...)
	}
	w.mu.Unlock()
	br := bufio.NewReader(bytes.NewReader(all))
	var out []Message
	for {
		var m Message
		if err := readMessage(br, &m); err != nil {
			if err == io.EOF {
				return out
			}
			t.Fatalf("decode batched stream: %v", err)
		}
		out = append(out, m)
	}
}

// While one caller's write is stalled, concurrent callers append their
// frames and return at once. The stalled caller then writes all of them in
// one more write, in enqueue order, before it returns.
func TestBatcherCoalescesAndPreservesOrder(t *testing.T) {
	w := &collectWriter{entered: make(chan struct{}, 2), gate: make(chan struct{})}
	b := newBatcher(w, nil)
	defer b.close()

	writerDone := make(chan error, 1)
	go func() { writerDone <- b.enqueue(&Message{Method: MethodPing, Num: -1}) }()
	<-w.entered // the first caller is now inside its Write

	const senders, each = 8, 25
	var wg sync.WaitGroup
	for g := int64(0); g < senders; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			for i := int64(0); i < each; i++ {
				if err := b.enqueue(&Message{Method: MethodPing, Num: g*1000 + i}); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait() // every concurrent caller returned while the write is stalled
	select {
	case <-writerDone:
		t.Fatal("the writing caller returned before its stalled write finished")
	default:
	}

	close(w.gate)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	// No polling: the writer returned, so everything it found queued is
	// already written.
	got := w.frames(t)
	if len(got) != 1+senders*each {
		t.Fatalf("%d/%d frames written when the writing caller returned", len(got), 1+senders*each)
	}
	if got[0].Num != -1 {
		t.Fatalf("first frame carries Num %d, want the stalled caller's", got[0].Num)
	}
	next := make(map[int64]int64)
	for _, m := range got[1:] {
		g, i := m.Num/1000, m.Num%1000
		if i != next[g] {
			t.Fatalf("sender %d: frame %d written where %d was due: order not preserved", g, i, next[g])
		}
		next[g]++
	}
	st := b.stats()
	if st.Frames != 1+senders*each {
		t.Fatalf("stats.Frames = %d, want %d", st.Frames, 1+senders*each)
	}
	if st.Flushes > 2 {
		t.Fatalf("no coalescing: %d writes for %d frames", st.Flushes, st.Frames)
	}
}

type errWriter struct{ err error }

func (w errWriter) Write(p []byte) (int, error) { return 0, w.err }

// A write failure must mark the batcher dead and fire the error hook so
// the owning connection tears down.
func TestBatcherWriteFailureFiresHook(t *testing.T) {
	failed := make(chan error, 1)
	b := newBatcher(errWriter{errors.New("conn reset")}, func(err error) {
		failed <- err
	})
	_ = b.enqueue(&Message{Method: MethodPing})
	select {
	case <-failed:
	case <-time.After(2 * time.Second):
		t.Fatal("error hook never fired")
	}
	// Subsequent enqueues are rejected with the write error.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := b.enqueue(&Message{Method: MethodPing}); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("enqueue still accepted after write failure")
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedConn stalls every Write until gate is closed.
type gatedConn struct {
	net.Conn
	gate chan struct{}
}

func (c gatedConn) Write(p []byte) (int, error) {
	<-c.gate
	return c.Conn.Write(p)
}

// End to end: concurrent Calls over a real connection whose first write
// stalls must coalesce — the calls queued meanwhile share one write on the
// client's batcher — while every call still completes with its own
// response.
func TestClientCallsCoalesceUnderConcurrency(t *testing.T) {
	h := func(ctx context.Context, m Message, p *Peer) Message {
		return Message{Size: m.Size * 2}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, h)
	go srv.Serve()
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	c := NewClient(gatedConn{conn, gate}, nil)
	defer c.Close()

	const calls = 200
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := int64(1); i <= calls; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			resp, err := c.Call(context.Background(), Message{Method: MethodPing, Size: i})
			if err == nil && resp.Size != 2*i {
				err = errors.New("response mismatch")
			}
			errs <- err
		}(i)
	}
	for deadline := time.Now().Add(5 * time.Second); c.BatchStats().Frames < calls; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d calls enqueued", c.BatchStats().Frames, calls)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := c.BatchStats(); st.Flushes > 2 {
		t.Fatalf("no coalescing under concurrency: %d flushes for %d frames", st.Flushes, st.Frames)
	}
}

// Closing the client while calls are queued must fail them with
// ErrNodeDown rather than hanging.
func TestClientCloseFailsQueuedCalls(t *testing.T) {
	block := make(chan struct{})
	h := func(ctx context.Context, m Message, p *Peer) Message {
		<-block
		return m
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, h)
	go srv.Serve()
	defer srv.Close()
	defer close(block)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn, nil)

	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), Message{Method: MethodPing})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, types.ErrNodeDown) && !errors.Is(err, types.ErrClosed) {
			t.Fatalf("queued call failed with %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued call hung across Close")
	}
}

// wireGoroutines counts the live goroutines that package wire's non-test
// code started.
func wireGoroutines() int {
	buf := make([]byte, 1<<20)
	st := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(st, "created by hoplite/internal/wire.") - strings.Count(st, "created by hoplite/internal/wire.Test")
}

// A connection costs one goroutine per end, its reader: no writer
// goroutine runs on either side.
func TestConnectionsAddOnlyReaders(t *testing.T) {
	h := func(ctx context.Context, m Message, p *Peer) Message { return m }
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, h)
	go srv.Serve()
	defer srv.Close()

	const n = 4
	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(conn, nil)
		defer c.Close()
		if _, err := c.Call(context.Background(), Message{Method: MethodPing}); err != nil {
			t.Fatal(err)
		}
	}
	// Handler goroutines exit right after their reply; wait them out.
	got := wireGoroutines()
	for deadline := time.Now().Add(5 * time.Second); got != 2*n && time.Now().Before(deadline); got = wireGoroutines() {
		time.Sleep(time.Millisecond)
	}
	if got != 2*n {
		t.Fatalf("%d connections run %d wire goroutines, want %d (one reader per end)", n, got, 2*n)
	}
}

// failingConn fails every Write once broken is set.
type failingConn struct {
	net.Conn
	broken *atomic.Bool
}

func (c failingConn) Write(p []byte) (int, error) {
	if c.broken.Load() {
		return 0, errors.New("conn reset")
	}
	return c.Conn.Write(p)
}

// A write that fails on the caller's goroutine takes the client down
// there and then: every pending Call fails with ErrNodeDown, OnDown fires
// once, and nothing deadlocks on the way.
func TestCallerWriteFailureFailsPendingCalls(t *testing.T) {
	const pending = 5
	block := make(chan struct{})
	arrived := make(chan struct{}, pending+1)
	h := func(ctx context.Context, m Message, p *Peer) Message {
		arrived <- struct{}{}
		select {
		case <-block:
		case <-ctx.Done():
		}
		return m
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, h)
	go srv.Serve()
	defer srv.Close()
	defer close(block)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	broken := new(atomic.Bool)
	c := NewClient(failingConn{conn, broken}, nil)
	defer c.Close()
	downs := make(chan struct{}, 2)
	c.OnDown(func() { downs <- struct{}{} })

	errs := make(chan error, pending+1)
	for i := 0; i < pending; i++ {
		go func() {
			_, err := c.Call(context.Background(), Message{Method: MethodPing})
			errs <- err
		}()
	}
	for i := 0; i < pending; i++ {
		select {
		case <-arrived: // the server holds one more pending call
		case <-time.After(5 * time.Second):
			t.Fatal("the pending calls never reached the server")
		}
	}
	broken.Store(true)
	go func() {
		_, err := c.Call(context.Background(), Message{Method: MethodPing})
		errs <- err
	}()
	for i := 0; i < pending+1; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, types.ErrNodeDown) {
				t.Fatalf("call failed with %v, want ErrNodeDown", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d calls still hang after the write failure", pending+1-i)
		}
	}
	select {
	case <-downs:
	case <-time.After(5 * time.Second):
		t.Fatal("OnDown never fired")
	}
	c.Close()
	select {
	case <-downs:
		t.Fatal("OnDown fired twice")
	case <-time.After(20 * time.Millisecond):
	}
}
