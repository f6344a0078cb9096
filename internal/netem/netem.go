// Package netem provides the network fabric Hoplite nodes communicate
// over. A Fabric hands out listeners and dialers; two implementations
// exist:
//
//   - TCP: plain loopback/LAN TCP, the production path.
//   - Emulated: loopback TCP shaped per node with full-duplex token-bucket
//     bandwidth limits and one-way latency injection, plus node-kill fault
//     injection. This is the stand-in for the paper's testbed of 16
//     m5.4xlarge instances with 10 Gbps networking (§5): every scheduling
//     decision Hoplite makes depends only on latency L, per-node bandwidth
//     B, and object size S, all of which the emulated fabric reproduces.
package netem

import (
	"context"
	"fmt"
	"maps"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hoplite/internal/pool"
	"hoplite/internal/types"
)

// Fabric creates the listeners and connections of a cluster. The node
// argument is a stable per-node name used to attach traffic shaping and
// fault injection; plain TCP ignores it.
type Fabric interface {
	// Listen opens a listener owned by node.
	Listen(node string) (net.Listener, error)
	// Dial connects from node to addr.
	Dial(ctx context.Context, node, addr string) (net.Conn, error)
	// Close releases all fabric resources.
	Close() error
}

// TCP is the production fabric: plain TCP with no shaping.
type TCP struct {
	// ListenAddr is the address listeners bind to; defaults to
	// "127.0.0.1:0".
	ListenAddr string
}

// Listen implements Fabric.
func (t *TCP) Listen(string) (net.Listener, error) {
	addr := t.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	return net.Listen("tcp", addr)
}

// Dial implements Fabric.
func (t *TCP) Dial(ctx context.Context, _ string, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// Close implements Fabric.
func (t *TCP) Close() error { return nil }

// LinkConfig describes the emulated per-node link.
type LinkConfig struct {
	// Latency is the one-way propagation delay applied to received data.
	Latency time.Duration
	// BytesPerSec is the full-duplex per-node bandwidth (applied
	// independently to ingress and egress, like a NIC). Zero or negative
	// means unlimited.
	BytesPerSec float64
	// Burst is the token bucket depth in bytes; defaults to 256 KiB.
	Burst float64
}

func (c LinkConfig) burst() float64 {
	if c.Burst <= 0 {
		return 256 << 10
	}
	return c.Burst
}

// Emulated is a loopback fabric with per-node traffic shaping and fault
// injection.
type Emulated struct {
	cfg LinkConfig

	mu    sync.Mutex
	nodes map[string]*shapedNode
	// pairs holds directional pair-wise link overrides (SetPairLink),
	// keyed by (sender, receiver) node names. owners maps socket addresses
	// back to node names so a connection endpoint can tell which node is
	// on its far side: listener addresses are registered at ListenOn, and
	// a dialer's ephemeral local address at Dial.
	pairs  map[pairKey]*pairLink
	owners map[string]string
	timer  *deliveryTimer
}

type pairKey struct{ from, to string }

// pairLink shapes one direction of one node pair: the bucket meters the
// sender's writes toward that receiver, and latency (when positive)
// replaces the receiver's one-way delay for data arriving from that sender.
type pairLink struct {
	bucket  *bucket
	latency atomic.Int64 // nanoseconds
}

// NewEmulated returns a fabric applying cfg to every node.
func NewEmulated(cfg LinkConfig) *Emulated {
	cfg.Burst = cfg.burst()
	return &Emulated{
		cfg:    cfg,
		nodes:  make(map[string]*shapedNode),
		pairs:  make(map[pairKey]*pairLink),
		owners: make(map[string]string),
		timer:  newDeliveryTimer(),
	}
}

// SetPairLink shapes traffic flowing from node `from` to node `to`,
// independently of every other pair and direction: cfg.BytesPerSec caps
// that direction's rate (in addition to both nodes' own NIC buckets;
// <= 0 removes the pair cap) and cfg.Latency, when positive, replaces the
// one-way delay for data arriving at `to` from `from`. Call twice with the
// arguments swapped to shape both directions — asymmetric pairs (a rack
// with a thin, slow uplink to one peer and a fat link to another) are the
// point. Takes effect immediately, live connections included.
func (e *Emulated) SetPairLink(from, to string, cfg LinkConfig) {
	e.mu.Lock()
	pl, ok := e.pairs[pairKey{from, to}]
	if !ok {
		pl = &pairLink{bucket: &bucket{}}
		e.pairs[pairKey{from, to}] = pl
	}
	e.mu.Unlock()
	pl.bucket.setRate(cfg.BytesPerSec, cfg.burst())
	pl.latency.Store(int64(cfg.Latency))
}

// route returns the directional pair override from -> to, nil when none is
// configured, and the receiving node, nil while to is unknown.
func (e *Emulated) route(from, to string) (*pairLink, *shapedNode) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pairs[pairKey{from, to}], e.nodes[to]
}

// setOwner records the node owning socket address addr; "" forgets it.
func (e *Emulated) setOwner(addr, node string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if node == "" {
		delete(e.owners, addr)
	} else {
		e.owners[addr] = node
	}
}

func (e *Emulated) ownerOf(addr string) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.owners[addr]
}

type shapedNode struct {
	name    string
	egress  *bucket
	ingress *bucket

	latency atomic.Int64 // nanoseconds, for connections opened next

	killed atomic.Bool // set by Kill before it closes anything

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	listeners map[net.Listener]struct{}
}

func (e *Emulated) node(name string) *shapedNode {
	e.mu.Lock()
	defer e.mu.Unlock()
	n, ok := e.nodes[name]
	if !ok {
		n = &shapedNode{
			name:      name,
			egress:    &bucket{rate: e.cfg.BytesPerSec, burst: e.cfg.Burst},
			ingress:   &bucket{rate: e.cfg.BytesPerSec, burst: e.cfg.Burst},
			conns:     make(map[net.Conn]struct{}),
			listeners: make(map[net.Listener]struct{}),
		}
		n.latency.Store(int64(e.cfg.Latency))
		e.nodes[name] = n
	}
	return n
}

func (n *shapedNode) register(c net.Conn) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.killed.Load() {
		return fmt.Errorf("netem: node %s is down: %w", n.name, types.ErrNodeDown)
	}
	n.conns[c] = struct{}{}
	return nil
}

// Listen implements Fabric.
func (e *Emulated) Listen(node string) (net.Listener, error) {
	return e.ListenOn(node, "127.0.0.1:0")
}

// ListenOn opens a listener for node on a specific address. A restarted
// node uses it to reclaim its previous identity: the cluster map names
// members (and through them shard replicas) by address, so a shard host
// that comes back must come back at the same address.
func (e *Emulated) ListenOn(node, addr string) (net.Listener, error) {
	sn := e.node(node)
	if sn.killed.Load() {
		return nil, fmt.Errorf("netem: node %s is down: %w", node, types.ErrNodeDown)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	// Dialers resolve this listener's owner for pair-wise shaping. The
	// entry deliberately outlives the listener: a killed-and-revived node
	// keeps its identity.
	e.setOwner(ln.Addr().String(), node)
	sl := &shapedListener{Listener: ln, fab: e, node: sn}
	sn.mu.Lock()
	sn.listeners[ln] = struct{}{}
	sn.mu.Unlock()
	return sl, nil
}

// Dial implements Fabric.
func (e *Emulated) Dial(ctx context.Context, node, addr string) (net.Conn, error) {
	sn := e.node(node)
	if sn.killed.Load() {
		return nil, fmt.Errorf("netem: node %s is down: %w", node, types.ErrNodeDown)
	}
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	// Register the ephemeral local address before returning, so by the
	// time the acceptor sees any data from this connection it can resolve
	// who dialed (its first read arrives strictly after Dial returned).
	local := c.LocalAddr().String()
	e.setOwner(local, node)
	sc := newShapedConn(c, e, sn)
	sc.ownedAddr = local
	if err := sn.register(sc); err != nil {
		c.Close()
		e.setOwner(local, "")
		return nil, err
	}
	return sc, nil
}

// AddNode pre-registers a node with its own link shaping, overriding the
// fabric-wide LinkConfig: a late joiner added to a running cluster comes
// up already capped instead of inheriting the defaults. Re-shaping an
// existing node is allowed; bandwidth changes apply to live connections,
// the latency override to connections opened afterwards.
func (e *Emulated) AddNode(name string, cfg LinkConfig) {
	e.SetNodeLink(name, cfg)
	e.node(name).latency.Store(int64(cfg.Latency))
}

// RemoveNode kills the node and forgets its shaping state entirely: a
// future Listen/Dial under the same name starts a fresh node with the
// fabric-wide defaults (unlike Kill/Revive, which preserve overrides).
func (e *Emulated) RemoveNode(name string) {
	e.Kill(name)
	e.mu.Lock()
	delete(e.nodes, name)
	e.mu.Unlock()
}

// Kill abruptly disconnects a node: all of its connections and listeners
// close, and future Listen/Dial calls by it fail, until Revive. Peers
// observe broken sockets, which is exactly how Hoplite detects failures
// (§5.5: "Hoplite detects failure by checking the liveness of a socket
// connection").
func (e *Emulated) Kill(node string) {
	sn := e.node(node)
	sn.mu.Lock()
	sn.killed.Store(true)
	conns, lns := sn.conns, sn.listeners
	sn.conns = make(map[net.Conn]struct{})
	sn.listeners = make(map[net.Listener]struct{})
	sn.mu.Unlock()
	for c := range conns {
		c.Close()
	}
	for l := range lns {
		l.Close()
	}
}

// SetNodeLink re-shapes one node's bandwidth at runtime, overriding the
// fabric-wide LinkConfig for that node's ingress and egress token buckets
// (existing connections included). Latency is per-connection and keeps the
// fabric-wide value. Asymmetric setups — e.g. a receiver with a fat link
// pulling from senders with capped egress — are how striped multi-source
// fetches are benchmarked.
func (e *Emulated) SetNodeLink(node string, cfg LinkConfig) {
	sn := e.node(node)
	sn.egress.setRate(cfg.BytesPerSec, cfg.burst())
	sn.ingress.setRate(cfg.BytesPerSec, cfg.burst())
}

// Revive allows a previously killed node to create connections again.
func (e *Emulated) Revive(node string) {
	e.node(node).killed.Store(false)
}

// Close implements Fabric.
func (e *Emulated) Close() error {
	e.mu.Lock()
	nodes := maps.Clone(e.nodes)
	e.mu.Unlock()
	for name := range nodes {
		e.Kill(name)
	}
	e.timer.stop()
	return nil
}

type shapedListener struct {
	net.Listener
	fab  *Emulated
	node *shapedNode
}

func (l *shapedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	sc := newShapedConn(c, l.fab, l.node)
	if err := l.node.register(sc); err != nil {
		c.Close()
		return nil, err
	}
	return sc, nil
}

func (l *shapedListener) Close() error {
	l.node.mu.Lock()
	delete(l.node.listeners, l.Listener)
	l.node.mu.Unlock()
	return l.Listener.Close()
}

// segSize is the most one pump read or one shaped write moves at once.
const segSize = 64 << 10

// shapedConn wraps one endpoint of a TCP connection. A write waits out the
// sender's egress line, the pair's line if set, and the receiver's ingress
// line in turn: a busy receiver holds its senders back at once, as
// link-level flow control does. Reads are pumped through a delay queue
// that releases data one latency after it arrived. The queue holds at most
// cap(segCh) pooled arrays of segSize bytes, 4 MiB; behind it the socket
// buffers fill and the sender blocks, as on a link.
type shapedConn struct {
	net.Conn
	fab     *Emulated
	node    *shapedNode
	latency time.Duration

	// ownedAddr is the dialer-side local address registered in fab.owners
	// (empty on accepted connections); Close unregisters it so a recycled
	// ephemeral port cannot be mis-attributed.
	ownedAddr    string
	peerMu       sync.Mutex
	peer, remote string // far-side node name, resolved lazily from its address

	rd           segReader
	segCh        chan segment
	rerr         error         // why the stream ended: set by the pump before it queues the end
	done         chan struct{} // closed by Close
	ends         atomic.Int32  // pump returned, Close called: see end
	rwake, wwake chan struct{} // Read's and Write's on the fabric's timer

	readMu, writeMu sync.Mutex
	pend            segment // the segment Read is handing out; zero when none
	off             int     // how much of pend.buf Read has handed out
	ended           bool    // Read took the end of the stream

	closeOnce sync.Once
	closeErr  error
}

// segment is one pump read, released to Read at epoch+at: a pooled array,
// or nil at the end of the stream.
type segment struct {
	buf []byte
	at  time.Duration
}

// epoch anchors segment release times, which keep its monotonic clock.
var epoch = time.Now()

func newShapedConn(c net.Conn, fab *Emulated, node *shapedNode) *shapedConn {
	sc := &shapedConn{
		Conn: c, fab: fab, node: node, latency: time.Duration(node.latency.Load()), remote: c.RemoteAddr().String(),
		segCh: make(chan segment, 64), done: make(chan struct{}),
		rwake: make(chan struct{}, 1), wwake: make(chan struct{}, 1),
	}
	sc.rd.init(c)
	go sc.pump()
	return sc
}

// peerName resolves (and caches) which node owns the far side of this
// connection. Accepted connections cannot resolve until the dialer's Dial
// call has registered its ephemeral address, which always precedes its
// first byte arriving here.
func (c *shapedConn) peerName() string {
	c.peerMu.Lock()
	defer c.peerMu.Unlock()
	if c.peer == "" {
		c.peer = c.fab.ownerOf(c.remote)
	}
	return c.peer
}

func (c *shapedConn) pump() {
	defer c.end()
	for {
		buf, err := c.rd.read()
		at := time.Since(epoch) + c.latency
		if pl, _ := c.fab.route(c.peerName(), c.node.name); pl != nil && pl.latency.Load() > 0 {
			at += time.Duration(pl.latency.Load()) - c.latency
		}
		if err != nil {
			c.rerr = err
		}
		select {
		case c.segCh <- segment{buf: buf, at: at}:
		case <-c.done:
			pool.Put(buf)
			return
		}
		if err != nil {
			return
		}
	}
}

// Read implements net.Conn.
func (c *shapedConn) Read(p []byte) (int, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	if c.ended {
		return 0, c.rerr
	}
	if c.pend.buf == nil {
		select {
		case c.pend = <-c.segCh:
		case <-c.done:
			return 0, net.ErrClosed
		}
		if !c.fab.timer.wait(epoch.Add(c.pend.at), c.rwake, c.done) {
			return 0, net.ErrClosed
		}
		if c.ended = c.pend.buf == nil; c.ended {
			return 0, c.rerr
		}
	}
	n := copy(p, c.pend.buf[c.off:])
	if c.off += n; c.off == len(c.pend.buf) {
		pool.Put(c.pend.buf)
		c.pend, c.off = segment{}, 0
	}
	return n, nil
}

// Write implements net.Conn. Concurrent writes go out whole, one after
// the other, as on a TCP socket.
//
//hoplite:locked-io the write lock exists to send concurrent writes whole, as a socket's does
func (c *shapedConn) Write(p []byte) (int, error) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	var written int
	for len(p) > 0 {
		chunk := p[:min(len(p), segSize)]
		sz := int64(len(chunk))
		ok := c.fab.timer.wait(c.node.egress.take(sz), c.wwake, c.done)
		pl, peer := c.fab.route(c.node.name, c.peerName())
		if ok && pl != nil {
			ok = c.fab.timer.wait(pl.bucket.take(sz), c.wwake, c.done)
		}
		if ok && peer != nil {
			ok = c.fab.timer.wait(peer.ingress.take(sz), c.wwake, c.done)
		}
		if !ok || c.node.killed.Load() { // a killed node sends nothing more
			return written, net.ErrClosed
		}
		n, err := c.Conn.Write(chunk)
		written += n
		if err != nil {
			return written, err
		}
		p = p[len(chunk):]
	}
	return written, nil
}

// Close implements net.Conn.
func (c *shapedConn) Close() error {
	c.closeOnce.Do(func() {
		if c.ownedAddr != "" {
			c.fab.setOwner(c.ownedAddr, "")
		}
		c.node.mu.Lock()
		delete(c.node.conns, c)
		c.node.mu.Unlock()
		close(c.done)
		c.closeErr = c.Conn.Close()
		c.end()
	})
	return c.closeErr
}

// end runs when the pump returns and when Close runs, neither waiting on the
// other (Kill closes a node's sockets at once); the second frees the queue.
func (c *shapedConn) end() {
	if c.ends.Add(1) < 2 {
		return
	}
	c.readMu.Lock()
	defer c.readMu.Unlock()
	pool.Put(c.pend.buf)
	c.pend, c.off = segment{}, 0
	for len(c.segCh) > 0 {
		pool.Put((<-c.segCh).buf)
	}
}

// bucket models a rate-limited link as a FIFO serialization queue, the way
// a NIC transmit queue behaves: each take occupies the line for n/rate
// seconds and its writer waits until its own bytes have drained, behind
// whatever earlier takers already queued. A late small write therefore
// waits only for the bytes ahead of it — not, as a shared-debt token
// bucket would have it, for every byte any concurrent writer has charged —
// so egress scheduling at the sender is observable through the emulation.
// An idle line accrues up to burst bytes of credit, letting short bursts
// pass unshaped.
//
// A write of one packet goes out after the packet on the wire, as a NIC's
// fq/fq_codel queue discipline sends a sparse flow's packet ahead of a bulk
// backlog; its bytes still join the queue, so the line keeps its rate.
type bucket struct {
	mu    sync.Mutex
	rate  float64 // bytes per second; <=0 means unlimited
	burst float64
	free  time.Time // when the last queued byte drains
}

// setRate re-targets the bucket at runtime; the standing queue is forgiven
// so a rate change takes effect immediately.
func (b *bucket) setRate(rate, burst float64) {
	b.mu.Lock()
	b.rate = rate
	b.burst = burst
	b.free = time.Time{}
	b.mu.Unlock()
}

// take queues n bytes on the line and returns when they will have
// drained; the zero time on an unlimited line.
func (b *bucket) take(n int64) time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	// rate is read under the lock: SetNodeLink re-targets live buckets
	// while senders are mid-take.
	if b.rate <= 0 {
		return time.Time{}
	}
	now := time.Now()
	// An idle line owes up to burst bytes of credit: the queue tail never
	// lags more than burst/rate behind the present.
	if floor := now.Add(-time.Duration(b.burst / b.rate * float64(time.Second))); b.free.Before(floor) {
		b.free = floor
	}
	d := time.Duration(float64(n) / b.rate * float64(time.Second))
	b.free = b.free.Add(d)
	const packet = 1500 // bytes
	if at := now.Add(time.Duration(packet/b.rate*float64(time.Second)) + d); n <= packet && at.Before(b.free) {
		return at
	}
	return b.free
}
