package wire

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hoplite/internal/types"
)

func startPair(t *testing.T, h Handler) (*Client, *Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, h)
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn, nil)
	t.Cleanup(func() { c.Close() })
	return c, srv
}

func TestCallRoundTrip(t *testing.T) {
	echo := func(ctx context.Context, m Message, p *Peer) Message {
		m.Size++
		return m
	}
	c, _ := startPair(t, echo)
	ctx := context.Background()
	resp, err := c.Call(ctx, Message{Method: MethodPing, Size: 41})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Size != 42 {
		t.Fatalf("size %d", resp.Size)
	}
}

func TestPipelinedConcurrentCalls(t *testing.T) {
	h := func(ctx context.Context, m Message, p *Peer) Message {
		time.Sleep(time.Duration(m.Size%5) * time.Millisecond)
		return Message{Size: m.Size * 2}
	}
	c, _ := startPair(t, h)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := int64(1); i <= 64; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			resp, err := c.Call(context.Background(), Message{Size: i})
			if err == nil && resp.Size != 2*i {
				err = errors.New("response mismatch")
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoSendsBeforeWait enqueues two calls from one goroutine before
// waiting on either. The handler answers only once both requests are in,
// so the calls complete only if Go put each on the wire without waiting.
func TestGoSendsBeforeWait(t *testing.T) {
	var arrived sync.WaitGroup
	arrived.Add(2)
	h := func(ctx context.Context, m Message, p *Peer) Message {
		arrived.Done()
		arrived.Wait()
		return Message{Size: m.Size * 2}
	}
	c, _ := startPair(t, h)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	calls := []Pending{c.Go(Message{Size: 1}), c.Go(Message{Size: 2})}
	for i := len(calls) - 1; i >= 0; i-- { // the wait order does not matter
		resp, err := calls[i].Wait(ctx)
		if err != nil || resp.Size != int64(2*(i+1)) {
			t.Fatalf("call %d: size %d err %v", i, resp.Size, err)
		}
	}
	c.Close()
	late := c.Go(Message{Size: 3})
	if _, err := late.Wait(ctx); err == nil {
		t.Fatal("Go on a closed client succeeded")
	}
}

// TestWaitPrefersArrivedResponse waits on calls whose answers came in
// before their ctx expired, as a fan-out does on the peers after a slow
// one. Every answer must be returned; a Wait that let the expired ctx win
// would fail each call about half the time.
func TestWaitPrefersArrivedResponse(t *testing.T) {
	c, _ := startPair(t, func(ctx context.Context, m Message, p *Peer) Message {
		return Message{Size: m.Size * 2}
	})
	calls := make([]Pending, 16)
	for i := range calls {
		calls[i] = c.Go(Message{Size: int64(i)})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	<-ctx.Done() // the answers are long in by now
	for i := range calls {
		resp, err := calls[i].Wait(ctx)
		if err != nil || resp.Size != int64(2*i) {
			t.Fatalf("call %d answered before its deadline: size %d err %v", i, resp.Size, err)
		}
	}
}

func TestServerPush(t *testing.T) {
	var peerMu sync.Mutex
	var peer *Peer
	h := func(ctx context.Context, m Message, p *Peer) Message {
		peerMu.Lock()
		peer = p
		peerMu.Unlock()
		return Message{}
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
	got := make(chan Message, 1)
	c := NewClient(conn, func(m Message) { got <- m })
	defer c.Close()
	if _, err := c.Call(context.Background(), Message{Method: MethodSubscribe}); err != nil {
		t.Fatal(err)
	}
	peerMu.Lock()
	p := peer
	peerMu.Unlock()
	if err := p.Notify(Message{Method: MethodNotify, Size: 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Size != 7 || m.Flags&FlagNotify == 0 {
			t.Fatalf("bad notify %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("notify not delivered")
	}
}

func TestBlockingHandlerCancelOnClose(t *testing.T) {
	started := make(chan struct{})
	h := func(ctx context.Context, m Message, p *Peer) Message {
		close(started)
		<-ctx.Done()
		return Message{}
	}
	c, _ := startPair(t, h)
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), Message{})
		done <- err
	}()
	<-started
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, types.ErrClosed) && !errors.Is(err, types.ErrNodeDown) {
			t.Fatalf("got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call not released on close")
	}
}

func TestCallContextCancel(t *testing.T) {
	h := func(ctx context.Context, m Message, p *Peer) Message {
		<-ctx.Done()
		return Message{}
	}
	c, _ := startPair(t, h)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := c.Call(ctx, Message{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v", err)
	}
}

func TestServerCloseFailsPending(t *testing.T) {
	h := func(ctx context.Context, m Message, p *Peer) Message {
		<-ctx.Done()
		return Message{}
	}
	c, srv := startPair(t, h)
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), Message{})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call survived server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call not released")
	}
}

// TestConnAfterCloseIsDropped hands a closed server a connection, as an
// accept racing Close does: the server must close it at once and start
// nothing for it (the package's leak check fails on a goroutine left
// behind).
func TestConnAfterCloseIsDropped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, nil)
	srv.Close()
	a, b := net.Pipe()
	defer b.Close()
	srv.serveConn(a)
	if _, err := b.Read(make([]byte, 1)); err == nil {
		t.Fatal("the server left the connection open")
	}
}

func TestPeerOnClose(t *testing.T) {
	fired := make(chan struct{})
	h := func(ctx context.Context, m Message, p *Peer) Message {
		p.OnClose(func() { close(fired) })
		return Message{}
	}
	c, _ := startPair(t, h)
	if _, err := c.Call(context.Background(), Message{}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("OnClose not fired")
	}
}

func TestErrorOfSentinelMapping(t *testing.T) {
	for _, sentinel := range []error{
		types.ErrNotFound, types.ErrDeleted, types.ErrNoSender, types.ErrAborted,
		types.ErrNodeDown, types.ErrTooFewObjects, types.ErrExists, types.ErrClosed,
	} {
		var m Message
		m.SetError(sentinel)
		if got := m.ErrorOf(); !errors.Is(got, sentinel) {
			t.Fatalf("sentinel %v mapped to %v", sentinel, got)
		}
	}
	var m Message
	if m.ErrorOf() != nil {
		t.Fatal("empty error not nil")
	}
	m.SetError(errors.New("custom"))
	if m.ErrorOf() == nil || m.ErrorOf().Error() != "custom" {
		t.Fatal("custom error lost")
	}
}

// Property: arbitrary messages survive a server echo round trip intact.
func TestMessageRoundTripProperty(t *testing.T) {
	echo := func(ctx context.Context, m Message, p *Peer) Message { return m }
	c, _ := startPair(t, echo)
	fn := func(oid [20]byte, node string, size, off int64, payload []byte, complete bool) bool {
		m := Message{
			Method:   MethodLookup,
			OID:      types.ObjectID(oid),
			Node:     types.NodeID(node),
			Size:     size,
			Offset:   off,
			Payload:  payload,
			Complete: complete,
		}
		resp, err := c.Call(context.Background(), m)
		if err != nil {
			return false
		}
		if resp.OID != m.OID || resp.Node != m.Node || resp.Size != m.Size ||
			resp.Offset != m.Offset || resp.Complete != m.Complete {
			return false
		}
		if len(resp.Payload) != len(m.Payload) {
			return false
		}
		for i := range m.Payload {
			if resp.Payload[i] != m.Payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCallCancelPropagates: abandoning a Call (ctx cancel) sends a
// best-effort MethodCancel, which cancels the server-side handler's ctx —
// a blocked directory acquire must not keep waiting for a receiver that
// has given up.
func TestCallCancelPropagates(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	handlerCtx := make(chan error, 1)
	srv := NewServer(ln, func(ctx context.Context, m Message, p *Peer) Message {
		<-ctx.Done()
		handlerCtx <- ctx.Err()
		return Message{}
	})
	go srv.Serve()
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn, nil)
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, Message{Method: MethodPing})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the call reach the handler
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("call returned %v", err)
	}
	select {
	case err := <-handlerCtx:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("handler ctx err %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server handler ctx never canceled")
	}
}
