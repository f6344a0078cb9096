package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"hoplite/internal/types"
)

// collectWriter records each Write as one batch so tests can inspect
// exactly how frames were coalesced onto the "wire". Writes block until
// gate is closed — a stalled connection, under which every frame enqueued
// meanwhile must ride the next write.
type collectWriter struct {
	gate    chan struct{}
	mu      sync.Mutex
	batches [][]byte
}

func (w *collectWriter) Write(p []byte) (int, error) {
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

// Frames enqueued while a write is in flight must drain in enqueue order
// and share the next write.
func TestBatcherCoalescesAndPreservesOrder(t *testing.T) {
	w := &collectWriter{gate: make(chan struct{})}
	b := newBatcher(w, nil)
	defer b.close()
	const n = 50
	for i := int64(0); i < n; i++ {
		if err := b.enqueue(&Message{Method: MethodPing, Num: i}); err != nil {
			t.Fatal(err)
		}
	}
	close(w.gate)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := w.frames(t); len(got) == n {
			for i, m := range got {
				if m.Num != int64(i) {
					t.Fatalf("frame %d carries Num %d: order not preserved", i, m.Num)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d frames drained", len(w.frames(t)), n)
		}
		time.Sleep(time.Millisecond)
	}
	st := b.stats()
	if st.Frames != n {
		t.Fatalf("stats.Frames = %d, want %d", st.Frames, n)
	}
	// The first write carried whatever was queued when the flusher woke;
	// everything enqueued while it was stalled shares the second.
	if st.Flushes > 2 {
		t.Fatalf("no coalescing: %d flushes for %d frames", st.Flushes, st.Frames)
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
