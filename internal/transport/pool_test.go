package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"hoplite/internal/buffer"
	"hoplite/internal/types"
)

// countingPool is a Pool whose dials are counted.
func countingPool(t *testing.T) (*Pool, *atomic.Int64) {
	t.Helper()
	dials := new(atomic.Int64)
	p := NewPool(func(ctx context.Context, addr string) (net.Conn, error) {
		dials.Add(1)
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	})
	t.Cleanup(func() { p.Close() })
	return p, dials
}

func (p *Pool) idleTo(addr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle[addr])
}

func (f *fixture) failures() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.fail)
}

func poolPull(t *testing.T, p *Pool, addr string, oid types.ObjectID, data []byte) {
	t.Helper()
	dst := buffer.New(int64(len(data)))
	if err := p.Pull(context.Background(), addr, "recv", oid, 0, 0, dst, nil); err != nil {
		t.Fatal(err)
	}
	if !dst.Complete() || !bytes.Equal(dst.Bytes(), data) {
		t.Fatal("pooled pull mismatch")
	}
}

func TestPoolSequentialPullsShareOneConnection(t *testing.T) {
	f := startFixture(t)
	a, b := types.ObjectIDFromString("a"), types.ObjectIDFromString("b")
	da, db := payload(5000), payload(300000)
	f.add(a, buffer.FromBytes(da))
	f.add(b, buffer.FromBytes(db))
	p, dials := countingPool(t)
	poolPull(t, p, f.addr, a, da)
	poolPull(t, p, f.addr, b, db)
	if st := f.srv.Stats(); st.Conns != 1 || st.Pulls != 2 {
		t.Fatalf("stats %+v, want 2 pulls over 1 connection", st)
	}
	if dials.Load() != 1 || p.idleTo(f.addr) != 1 {
		t.Fatalf("%d dials, %d idle; want 1 and 1", dials.Load(), p.idleTo(f.addr))
	}
}

// A sender that restarts closes the receiver's idle pooled connection.
// The next pull finds it dead before any response byte, retries once on a
// fresh dial and succeeds; neither incarnation reports the receiver.
func TestPoolRetriesConnectionClosedWhileIdle(t *testing.T) {
	f := startFixture(t)
	oid := types.ObjectIDFromString("x")
	data := payload(100000)
	f.add(oid, buffer.FromBytes(data))
	p, dials := countingPool(t)
	poolPull(t, p, f.addr, oid, data)

	f.srv.Close()
	g := startFixtureAt(t, f.addr)
	g.add(oid, buffer.FromBytes(data))
	if p.idleTo(f.addr) != 1 {
		t.Fatal("no idle connection to go stale")
	}
	poolPull(t, p, f.addr, oid, data)
	if dials.Load() != 2 {
		t.Fatalf("%d dials, want 2 (the first pull and one retry)", dials.Load())
	}
	if st := g.srv.Stats(); st.Conns != 1 || st.Pulls != 1 {
		t.Fatalf("restarted sender stats %+v, want 1 pull over 1 connection", st)
	}
	if n := f.failures() + g.failures(); n != 0 {
		t.Fatalf("%d receiver failures reported, want 0", n)
	}
}

// Cancelling a pull mid-stream on a reused connection is a receiver
// failure to the sender, and the connection is not pooled again.
func TestPoolCancelMidStreamReportsAndDiscards(t *testing.T) {
	f := startFixture(t)
	warm, oid := types.ObjectIDFromString("warm"), types.ObjectIDFromString("x")
	wdata := payload(1000)
	f.add(warm, buffer.FromBytes(wdata))
	src := buffer.New(1 << 20) // never completes
	src.Append(payload(64 << 10))
	f.add(oid, src)
	p, dials := countingPool(t)
	poolPull(t, p, f.addr, warm, wdata)

	dst := buffer.New(1 << 20)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Pull(ctx, f.addr, "receiver-7", oid, 0, 0, dst, nil) }()
	for dst.Watermark() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled pull succeeded")
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.failures() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sender did not report the broken receiver")
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.mu.Lock()
	got := f.fail[0]
	f.mu.Unlock()
	if got.oid != oid || got.recv != "receiver-7" {
		t.Fatalf("reported %+v", got)
	}
	if dials.Load() != 1 || p.idleTo(f.addr) != 0 {
		t.Fatalf("%d dials, %d idle; want the reused connection discarded", dials.Load(), p.idleTo(f.addr))
	}
	poolPull(t, p, f.addr, warm, wdata)
	if st := f.srv.Stats(); st.Conns != 2 {
		t.Fatalf("stats %+v, want a fresh connection after the cancel", st)
	}
}

// An error frame ends a pull without its EOF frame: both ends close the
// connection, and the next pull dials afresh.
func TestPoolErrorFrameClosesConnection(t *testing.T) {
	f := startFixture(t)
	oid := types.ObjectIDFromString("x")
	data := payload(1000)
	f.add(oid, buffer.FromBytes(data))
	p, dials := countingPool(t)
	err := p.Pull(context.Background(), f.addr, "recv", types.ObjectIDFromString("missing"), 0, 0, buffer.New(10), nil)
	if err == nil || !errors.Is(err, types.ErrAborted) {
		t.Fatalf("missing object: %v", err)
	}
	if p.idleTo(f.addr) != 0 {
		t.Fatal("connection pooled after an error frame")
	}
	poolPull(t, p, f.addr, oid, data)
	if dials.Load() != 2 || f.srv.Stats().Conns != 2 {
		t.Fatalf("%d dials, %d accepted; want 2 and 2", dials.Load(), f.srv.Stats().Conns)
	}
	if f.failures() != 0 {
		t.Fatal("an error frame was reported as a receiver failure")
	}
}
