// Package wire implements the control-plane RPC used by Hoplite's object
// directory service and reduce coordination: length-delimited fixed-layout
// binary messages (see codec.go) over TCP with pipelined request/response
// matching and server→client push notifications. The paper uses gRPC for
// this role (§4); wire provides the same semantics with only the standard
// library, and the hand-rolled codec keeps the per-message cost to a
// pooled scratch buffer instead of a reflective, allocation-heavy
// serializer.
package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"hoplite/internal/types"
)

// Method identifies an RPC method. The set covers the directory service and
// the reduce control plane; unused fields of Message are simply zero.
type Method uint8

// RPC methods.
const (
	MethodNone Method = iota

	// Directory service (§3.2).
	MethodPutStarted  // object creation began on a node: register partial location (Complete: a complete one; Gen != 0: as the only holder of a new generation)
	MethodPutComplete // object fully present on a node: mark complete
	MethodPutInline   // small-object fast path: store payload in the directory
	MethodAcquire     // atomically lease a sender location for a receiver
	MethodAcquireMany // atomically lease up to Num complete-copy senders for a striped pull
	MethodRelease     // transfer finished: return sender, update receiver progress
	MethodAbort       // transfer failed: optionally drop the dead sender location
	MethodAbortDown   // sender saw the receiver's socket die: clear its lease/location
	MethodLookup      // non-mutating: size + all locations
	MethodSubscribe   // push future location updates for an object
	MethodUnsubscribe // stop pushing
	MethodDelete      // remove all copies of an object
	MethodPurgeNode   // drop every location on a (failed) node
	MethodNotify      // server→client push: location update
	MethodRemoveLoc   // drop one (object, node) location (eviction)
	MethodMarkSpilled // downgrade/register a node's location as disk-backed (spill tier)

	// Node control plane.
	MethodReduceStart  // coordinator → participant: run (or replace) a tree slot
	MethodReduceCancel // coordinator → participant: reduce done, clean up
	MethodEvictLocal   // drop the local copy of an object (Delete fan-out; Gen set: a re-creation superseded it)

	// Misc.
	MethodPing
	// MethodCancel aborts the in-flight call whose ID is in Num. It is a
	// transport-level frame sent best-effort by a client whose Call ctx
	// died: the server cancels that handler's ctx so a blocked acquire
	// releases its directory claim instead of leasing a sender to a
	// receiver that has already given up. Cancel frames get no response.
	MethodCancel

	// Directory shard replication (primary/backup fault tolerance).
	MethodReplicate    // primary → backup: one sequenced shard op log entry
	MethodDirHeartbeat // primary → backup lease heartbeat (also the boot-time state query)
	MethodDirSnapshot  // primary → backup: full shard state push (resync)

	// Cluster membership (epoch-versioned cluster map).
	MethodJoin       // node → membership primary: add me; response payload carries the new map
	MethodDrain      // Num selects: 0 start draining Node, 1 drain finished (remove), 2 declare Node dead (remove + purge)
	MethodMapPush    // encoded ClusterMap in Payload: install if newer (also the replicated membership op)
	MethodMapGet     // fetch the current encoded ClusterMap
	MethodRepairPull // repair scanner → node: fetch a complete copy of OID to restore replication
	MethodStatus     // membership observability: map epoch, shard roles, under-replicated / sole-copy counts

	// Link-state telemetry.
	MethodLinkState // fetch the node's link-state table (encoded linkstate snapshot in the response payload)
)

// Flags for Message.Flags.
const (
	FlagResponse uint8 = 1 << iota
	FlagNotify
)

// Message is the single concrete frame exchanged on control connections.
// It is a "fat union": each method uses a subset of the fields. Keeping one
// concrete struct gives the codec a fixed layout to encode against and
// keeps decoding allocation-light.
type Message struct {
	ID     uint64
	Flags  uint8
	Method Method

	OID     types.ObjectID
	Target  types.ObjectID
	Sources []types.ObjectID
	Node    types.NodeID
	Sender  types.NodeID
	Size    int64
	Offset  int64
	Num     int64
	Num2    int64
	Gen     int64
	// Epoch stamps the sender's cluster-map epoch on membership-aware
	// requests. 0 means unstamped (methods no map change can misroute, and
	// clients of a bare map-less directory shard); a receiver holding a
	// newer map bounces stamped requests with ErrStaleMap and its encoded
	// map in the response payload.
	Epoch    int64
	Complete bool
	Wait     bool
	Payload  []byte
	Locs     []types.Location
	Op       types.ReduceOp
	Err      string
}

// ErrorOf converts the message's error string back into an error, mapping
// the shared sentinel errors to their canonical values so errors.Is works
// across the wire.
func (m *Message) ErrorOf() error {
	switch m.Err {
	case "":
		return nil
	case types.ErrNotFound.Error():
		return types.ErrNotFound
	case types.ErrDeleted.Error():
		return types.ErrDeleted
	case types.ErrNoSender.Error():
		return types.ErrNoSender
	case types.ErrAborted.Error():
		return types.ErrAborted
	case types.ErrNodeDown.Error():
		return types.ErrNodeDown
	case types.ErrTooFewObjects.Error():
		return types.ErrTooFewObjects
	case types.ErrExists.Error():
		return types.ErrExists
	case types.ErrClosed.Error():
		return types.ErrClosed
	case types.ErrNotPrimary.Error():
		return types.ErrNotPrimary
	case types.ErrStaleMap.Error():
		return types.ErrStaleMap
	default:
		return errors.New(m.Err)
	}
}

// SetError stores err in the message, if non-nil.
func (m *Message) SetError(err error) {
	if err != nil {
		m.Err = err.Error()
	}
}

// Client is a control-plane connection with pipelined calls. Multiple
// goroutines may Call concurrently; responses are matched by message ID.
// A call writes its frame on the caller's goroutine unless another
// caller's write is in flight, which then carries it (see batch.go); the
// only goroutine per connection is the reader.
type Client struct {
	conn net.Conn
	b    *batcher

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan Message
	// abandoned tracks calls whose requester gave up (ctx cancel) before
	// the response arrived, keyed by ID to the original request. The
	// server answers every non-cancel request exactly once, so entries
	// are bounded: each is removed when its late response lands (feeding
	// the orphan callback) or when the connection fails.
	abandoned map[uint64]Message
	closed    error

	notify func(Message)
	orphan func(req, resp Message)
	down   func()
	rtt    func(time.Duration)
}

// NewClient wraps an established connection. notify, if non-nil, receives
// server push messages (FlagNotify) synchronously from the read loop.
func NewClient(conn net.Conn, notify func(Message)) *Client {
	c := &Client{
		conn:      conn,
		pending:   make(map[uint64]chan Message),
		abandoned: make(map[uint64]Message),
		notify:    notify,
	}
	c.b = newBatcher(conn, func(err error) {
		c.fail(fmt.Errorf("wire: send: %w", err))
	})
	go c.readLoop()
	return c
}

// BatchStats reports the connection's write-batching counters.
func (c *Client) BatchStats() BatchStats { return c.b.stats() }

// OnOrphan registers fn to receive late responses to abandoned calls
// (Call returned on ctx cancellation before the response arrived), so the
// owner can undo server-side effects the caller never observed — e.g. a
// directory acquire that granted a lease to a receiver that had already
// given up. fn runs on its own goroutine. Set it before issuing calls.
func (c *Client) OnOrphan(fn func(req, resp Message)) {
	c.mu.Lock()
	c.orphan = fn
	c.mu.Unlock()
}

// OnRTT registers fn to receive the wall-clock round-trip time of every
// completed Call — request enqueue to response arrival, the wait behind
// an in-flight write included, which is exactly the latency a control RPC
// experiences. The link-state estimator hangs off this hook, so ordinary
// traffic (heartbeats, pings, directory calls) doubles as RTT probing with
// no dedicated probe messages. fn runs on the caller's goroutine and must
// be cheap. Set it before issuing calls.
func (c *Client) OnRTT(fn func(time.Duration)) {
	c.mu.Lock()
	c.rtt = fn
	c.mu.Unlock()
}

// OnDown registers fn to run once when the connection fails or is closed,
// so the owner can react to the peer's death without waiting for its next
// call to error (e.g. re-subscribing push notifications on a live
// replica). fn runs on its own goroutine; if the client is already down,
// it fires immediately. Set it before issuing calls.
func (c *Client) OnDown(fn func()) {
	c.mu.Lock()
	if c.closed != nil {
		c.mu.Unlock()
		go fn()
		return
	}
	c.down = fn
	c.mu.Unlock()
}

func (c *Client) readLoop() {
	br := bufio.NewReader(c.conn)
	for {
		var m Message
		if err := readMessage(br, &m); err != nil {
			c.fail(fmt.Errorf("wire: connection lost: %w", err))
			return
		}
		if m.Flags&FlagNotify != 0 {
			if c.notify != nil {
				c.notify(m)
			}
			continue
		}
		c.mu.Lock()
		ch, ok := c.pending[m.ID]
		if ok {
			delete(c.pending, m.ID)
		}
		var req Message
		orphaned := false
		if !ok {
			if r, ok2 := c.abandoned[m.ID]; ok2 {
				req, orphaned = r, true
				delete(c.abandoned, m.ID)
			}
		}
		orphanFn := c.orphan
		c.mu.Unlock()
		switch {
		case ok:
			ch <- m
		case orphaned && orphanFn != nil:
			go orphanFn(req, m)
		}
	}
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	first := c.closed == nil
	if first {
		c.closed = err
	}
	pending := c.pending
	c.pending = make(map[uint64]chan Message)
	c.abandoned = make(map[uint64]Message) // their responses are never coming
	down := c.down
	c.mu.Unlock()
	if first && down != nil {
		go down()
	}
	for id, ch := range pending {
		var m Message
		m.ID = id
		m.SetError(types.ErrNodeDown)
		ch <- m
	}
	c.b.close()
	c.conn.Close()
}

// Close tears down the connection. Outstanding calls fail with ErrNodeDown.
func (c *Client) Close() error {
	c.fail(types.ErrClosed)
	return nil
}

// Pending is one call in flight: Go enqueues the request and Wait collects
// the response, so a caller can put one request on several connections
// before it waits on any of them, as net/rpc's Client.Go does.
type Pending struct {
	c     *Client
	req   Message
	ch    chan Message
	start time.Time
	rtt   func(time.Duration)
	err   error
}

// Go enqueues m and returns at once; its Wait yields the response.
func (c *Client) Go(m Message) Pending {
	p := Pending{c: c, ch: make(chan Message, 1)}
	c.mu.Lock()
	if c.closed != nil {
		p.err = c.closed
		c.mu.Unlock()
		return p
	}
	c.nextID++
	m.ID = c.nextID
	c.pending[m.ID] = p.ch
	p.rtt = c.rtt
	c.mu.Unlock()

	p.req = m
	p.start = time.Now()
	if err := c.b.enqueue(&m); err != nil {
		c.mu.Lock()
		delete(c.pending, m.ID)
		c.mu.Unlock()
		p.err = fmt.Errorf("wire: send: %w", err)
	}
	return p
}

// Call sends m and waits for the matching response or ctx cancellation.
func (c *Client) Call(ctx context.Context, m Message) (Message, error) {
	p := c.Go(m)
	return p.Wait(ctx)
}

// Wait blocks until the call's response arrives or ctx is done. A
// response that has already arrived wins over an expired ctx, so a caller
// that waits on several calls under one deadline still counts every
// answer that came in while it waited on a slower one. Call it once per
// Pending.
func (p *Pending) Wait(ctx context.Context) (Message, error) {
	if p.err != nil {
		return Message{}, p.err
	}
	select {
	case resp := <-p.ch:
		return p.done(resp)
	default:
	}
	c := p.c
	select {
	case resp := <-p.ch:
		return p.done(resp)
	case <-ctx.Done():
		c.mu.Lock()
		if _, ok := c.pending[p.req.ID]; ok {
			delete(c.pending, p.req.ID)
			c.abandoned[p.req.ID] = p.req
			c.mu.Unlock()
			// Tell the server to cancel the in-flight handler (best
			// effort, off this goroutine so a congested connection cannot
			// stall the caller's cancellation). The cancel may lose the
			// race against a handler that just granted something; the
			// late response then lands in the orphan callback, which
			// undoes the grant.
			go c.sendCancel(p.req.ID)
			return Message{}, ctx.Err()
		}
		orphanFn := c.orphan
		c.mu.Unlock()
		// The response raced our cancellation and is already in flight on
		// ch (readLoop removed the pending entry before we did); surface
		// it to the orphan callback so its effects are undone.
		resp := <-p.ch
		if orphanFn != nil {
			go orphanFn(p.req, resp)
		}
		return Message{}, ctx.Err()
	}
}

// done turns the call's response into Wait's result: the failure that
// fail injects when the connection dies is an error, anything the server
// sent is a response.
func (p *Pending) done(resp Message) (Message, error) {
	if e := resp.ErrorOf(); e != nil && (errors.Is(e, types.ErrNodeDown) || errors.Is(e, types.ErrClosed)) && resp.Method == MethodNone {
		return resp, e
	}
	if p.rtt != nil {
		p.rtt(time.Since(p.start))
	}
	return resp, nil
}

func (c *Client) sendCancel(id uint64) {
	m := Message{Method: MethodCancel, Num: int64(id)}
	// The request frame was enqueued before this cancel, and the queue is
	// written in FIFO order, so the server still sees request-before-cancel.
	_ = c.b.enqueue(&m)
}

// Peer is the server-side view of one client connection. Handlers can hold
// on to it to push notifications later. Responses and pushes are written
// on the handler's goroutine through the same batcher as the client side,
// so a burst of small replies from concurrent handlers shares one syscall.
type Peer struct {
	conn net.Conn
	b    *batcher

	mu      sync.Mutex
	closed  bool
	onClose []func()
}

// send writes or queues one frame to the client. A write failure reaches
// the batcher's error hook, which closes the peer.
func (p *Peer) send(m *Message) error {
	return p.b.enqueue(m)
}

// Notify pushes an unsolicited message to the client.
func (p *Peer) Notify(m Message) error {
	m.Flags |= FlagNotify
	return p.send(&m)
}

// OnClose registers a callback invoked when the connection closes.
func (p *Peer) OnClose(fn func()) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		fn()
		return
	}
	p.onClose = append(p.onClose, fn)
	p.mu.Unlock()
}

// RemoteAddr returns the peer's network address.
func (p *Peer) RemoteAddr() net.Addr { return p.conn.RemoteAddr() }

func (p *Peer) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	fns := p.onClose
	p.onClose = nil
	p.mu.Unlock()
	p.b.close()
	p.conn.Close()
	for _, fn := range fns {
		fn()
	}
}

// Handler processes one request. It runs on its own goroutine and may
// block; ctx is canceled when the connection closes or the server stops.
type Handler func(ctx context.Context, m Message, p *Peer) Message

// Server accepts control connections and dispatches requests.
type Server struct {
	ln      net.Listener
	handler Handler

	mu    sync.Mutex
	peers map[*Peer]struct{}
	done  chan struct{}
	once  sync.Once
}

// NewServer returns a server ready to Serve on ln.
func NewServer(ln net.Listener, h Handler) *Server {
	return &Server{ln: ln, handler: h, peers: make(map[*Peer]struct{}), done: make(chan struct{})}
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Serve accepts connections until Close. It always returns a non-nil error.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return types.ErrClosed
			default:
				return err
			}
		}
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	peer := &Peer{conn: conn}
	peer.b = newBatcher(conn, func(error) { peer.close() })
	s.mu.Lock()
	select {
	case <-s.done:
		s.mu.Unlock()
		conn.Close()
		return
	default:
	}
	s.peers[peer] = struct{}{}
	s.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		cancel()
		s.mu.Lock()
		delete(s.peers, peer)
		s.mu.Unlock()
		peer.close()
	}()

	// calls tracks in-flight handler cancel funcs by request ID, so a
	// MethodCancel frame can abort exactly the abandoned call. Frames on
	// one connection are read sequentially, so a request is always
	// registered before its cancel can be read.
	var callsMu sync.Mutex
	calls := make(map[uint64]context.CancelFunc)

	br := bufio.NewReader(conn)
	for {
		var m Message
		if err := readMessage(br, &m); err != nil {
			if err != io.EOF {
				_ = err // connection reset or node killed; handled by OnClose hooks
			}
			return
		}
		if m.Method == MethodCancel {
			callsMu.Lock()
			if cancel, ok := calls[uint64(m.Num)]; ok {
				cancel()
			}
			callsMu.Unlock()
			continue
		}
		cctx, ccancel := context.WithCancel(ctx)
		callsMu.Lock()
		calls[m.ID] = ccancel
		callsMu.Unlock()
		go func(req Message) {
			defer func() {
				callsMu.Lock()
				delete(calls, req.ID)
				callsMu.Unlock()
				ccancel()
			}()
			resp := s.handler(cctx, req, peer)
			resp.ID = req.ID
			resp.Flags |= FlagResponse
			if err := peer.send(&resp); err != nil {
				peer.close()
			}
		}(m)
	}
}

// Close stops accepting and closes every connection.
func (s *Server) Close() error {
	s.once.Do(func() { close(s.done) })
	err := s.ln.Close()
	s.mu.Lock()
	peers := make([]*Peer, 0, len(s.peers))
	for p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	for _, p := range peers {
		p.close()
	}
	return err
}
