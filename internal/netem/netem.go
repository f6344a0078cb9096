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
	"net"
	"runtime"
	"sync"
	"time"

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
}

type pairKey struct{ from, to string }

// pairLink shapes one direction of one node pair: the bucket meters the
// sender's writes toward that receiver, and latency (when positive)
// replaces the receiver's one-way delay for data arriving from that sender.
type pairLink struct {
	bucket *bucket

	mu      sync.Mutex
	latency time.Duration
}

func (p *pairLink) lat() (time.Duration, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.latency, p.latency > 0
}

// NewEmulated returns a fabric applying cfg to every node.
func NewEmulated(cfg LinkConfig) *Emulated {
	if cfg.Burst <= 0 {
		cfg.Burst = 256 << 10
	}
	return &Emulated{
		cfg:    cfg,
		nodes:  make(map[string]*shapedNode),
		pairs:  make(map[pairKey]*pairLink),
		owners: make(map[string]string),
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
	burst := cfg.Burst
	if burst <= 0 {
		burst = 256 << 10
	}
	e.mu.Lock()
	pl, ok := e.pairs[pairKey{from, to}]
	if !ok {
		pl = &pairLink{bucket: newBucket(cfg.BytesPerSec, burst)}
		e.pairs[pairKey{from, to}] = pl
	} else {
		pl.bucket.setRate(cfg.BytesPerSec, burst)
	}
	e.mu.Unlock()
	pl.mu.Lock()
	pl.latency = cfg.Latency
	pl.mu.Unlock()
}

// pair returns the directional pair override, nil when none is configured
// (or the far endpoint is not yet known).
func (e *Emulated) pair(from, to string) *pairLink {
	if from == "" || to == "" {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pairs[pairKey{from, to}]
}

func (e *Emulated) setOwner(addr, node string) {
	e.mu.Lock()
	e.owners[addr] = node
	e.mu.Unlock()
}

func (e *Emulated) forgetOwner(addr string) {
	e.mu.Lock()
	delete(e.owners, addr)
	e.mu.Unlock()
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

	mu        sync.Mutex
	latency   time.Duration
	killed    bool
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
			egress:    newBucket(e.cfg.BytesPerSec, e.cfg.Burst),
			ingress:   newBucket(e.cfg.BytesPerSec, e.cfg.Burst),
			latency:   e.cfg.Latency,
			conns:     make(map[net.Conn]struct{}),
			listeners: make(map[net.Listener]struct{}),
		}
		e.nodes[name] = n
	}
	return n
}

// lat returns the node's one-way latency; per-node overrides (AddNode)
// take effect on connections opened afterwards.
func (n *shapedNode) lat() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.latency
}

func (n *shapedNode) register(c net.Conn) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.killed {
		return fmt.Errorf("netem: node %s is down: %w", n.name, types.ErrNodeDown)
	}
	n.conns[c] = struct{}{}
	return nil
}

func (n *shapedNode) unregister(c net.Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
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
	sn.mu.Lock()
	if sn.killed {
		sn.mu.Unlock()
		return nil, fmt.Errorf("netem: node %s is down: %w", node, types.ErrNodeDown)
	}
	sn.mu.Unlock()
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
	sn.mu.Lock()
	killed := sn.killed
	sn.mu.Unlock()
	if killed {
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
	sc := newShapedConn(c, e, sn, sn.lat())
	sc.ownedAddr = local
	if err := sn.register(sc); err != nil {
		c.Close()
		e.forgetOwner(local)
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
	burst := cfg.Burst
	if burst <= 0 {
		burst = 256 << 10
	}
	sn := e.node(name)
	sn.egress.setRate(cfg.BytesPerSec, burst)
	sn.ingress.setRate(cfg.BytesPerSec, burst)
	sn.mu.Lock()
	sn.latency = cfg.Latency
	sn.mu.Unlock()
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
	sn.killed = true
	conns := make([]net.Conn, 0, len(sn.conns))
	for c := range sn.conns {
		conns = append(conns, c)
	}
	lns := make([]net.Listener, 0, len(sn.listeners))
	for l := range sn.listeners {
		lns = append(lns, l)
	}
	sn.conns = make(map[net.Conn]struct{})
	sn.listeners = make(map[net.Listener]struct{})
	sn.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	for _, l := range lns {
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
	burst := cfg.Burst
	if burst <= 0 {
		burst = 256 << 10
	}
	sn := e.node(node)
	sn.egress.setRate(cfg.BytesPerSec, burst)
	sn.ingress.setRate(cfg.BytesPerSec, burst)
}

// Revive allows a previously killed node to create connections again.
func (e *Emulated) Revive(node string) {
	sn := e.node(node)
	sn.mu.Lock()
	sn.killed = false
	sn.mu.Unlock()
}

// Close implements Fabric.
func (e *Emulated) Close() error {
	e.mu.Lock()
	nodes := make([]*shapedNode, 0, len(e.nodes))
	for _, n := range e.nodes {
		nodes = append(nodes, n)
	}
	e.mu.Unlock()
	for _, n := range nodes {
		e.Kill(n.name)
	}
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
	sc := newShapedConn(c, l.fab, l.node, l.node.lat())
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

// shapedConn wraps one endpoint of a TCP connection. Writes consume the
// owning node's egress tokens; reads are pumped through a delay queue that
// consumes ingress tokens and releases data one-way-latency after arrival.
type shapedConn struct {
	net.Conn
	fab     *Emulated
	node    *shapedNode
	latency time.Duration

	// ownedAddr is the dialer-side local address registered in fab.owners
	// (empty on accepted connections); Close unregisters it so a recycled
	// ephemeral port cannot be mis-attributed.
	ownedAddr string
	peerMu    sync.Mutex
	peer      string // far-side node name, resolved lazily

	segCh   chan segment
	readMu  sync.Mutex
	pendSeg *segment

	closeOnce sync.Once
	closeErr  error
}

type segment struct {
	data []byte
	at   time.Time
	err  error
}

func newShapedConn(c net.Conn, fab *Emulated, node *shapedNode, latency time.Duration) *shapedConn {
	sc := &shapedConn{Conn: c, fab: fab, node: node, latency: latency, segCh: make(chan segment, 64)}
	go sc.pump()
	return sc
}

// peerName resolves (and caches) which node owns the far side of this
// connection. Accepted connections cannot resolve until the dialer's Dial
// call has registered its ephemeral address, which always precedes its
// first byte arriving here.
func (c *shapedConn) peerName() string {
	c.peerMu.Lock()
	p := c.peer
	c.peerMu.Unlock()
	if p != "" {
		return p
	}
	// Resolve outside the lock: ownerOf takes the fabric lock, and the
	// race is benign (both resolvers compute the same owner).
	p = c.fab.ownerOf(c.Conn.RemoteAddr().String())
	c.peerMu.Lock()
	if c.peer == "" {
		c.peer = p
	}
	p = c.peer
	c.peerMu.Unlock()
	return p
}

func (c *shapedConn) pump() {
	for {
		buf := make([]byte, 64<<10)
		n, err := c.Conn.Read(buf)
		if n > 0 {
			c.node.ingress.take(int64(n))
			lat := c.latency
			if pl := c.fab.pair(c.peerName(), c.node.name); pl != nil {
				if d, ok := pl.lat(); ok {
					lat = d
				}
			}
			c.segCh <- segment{data: buf[:n], at: time.Now().Add(lat)}
		}
		if err != nil {
			c.segCh <- segment{err: err, at: time.Now().Add(c.latency)}
			return
		}
	}
}

// Read implements net.Conn.
func (c *shapedConn) Read(p []byte) (int, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	seg := c.pendSeg
	if seg == nil {
		s, ok := <-c.segCh
		if !ok {
			return 0, types.ErrClosed
		}
		seg = &s
	}
	sleepUntil(seg.at)
	if seg.err != nil {
		c.pendSeg = seg // sticky error
		return 0, seg.err
	}
	n := copy(p, seg.data)
	if n < len(seg.data) {
		seg.data = seg.data[n:]
		c.pendSeg = seg
	} else {
		c.pendSeg = nil
	}
	return n, nil
}

// Write implements net.Conn.
func (c *shapedConn) Write(p []byte) (int, error) {
	var written int
	for len(p) > 0 {
		chunk := p
		if len(chunk) > 64<<10 {
			chunk = chunk[:64<<10]
		}
		c.node.egress.take(int64(len(chunk)))
		if pl := c.fab.pair(c.node.name, c.peerName()); pl != nil {
			pl.bucket.take(int64(len(chunk)))
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
			c.fab.forgetOwner(c.ownedAddr)
		}
		c.node.unregister(c)
		c.closeErr = c.Conn.Close()
	})
	return c.closeErr
}

// sleepUntil waits until at with sub-millisecond accuracy: the kernel
// timer quantum can exceed 1 ms in virtualized environments, which would
// inflate injected latencies by an order of magnitude, so the tail of the
// wait is spun cooperatively.
//
// sleepUntil sleeps to a deadline with a only a tiny spin window at the
// end. The window must stay small: every shaped write and delayed segment
// delivery passes through here, so a generous busy-wait (an earlier
// version spun the last 2ms) multiplied by a few dozen concurrent streams
// oversubscribes the CPUs and delays every goroutine in the process by
// whole preemption quanta — swamping the very queueing behavior the
// fabric is supposed to emulate.
//
//hoplite:sleep-ok the loop is the timer itself: it models link delay, not polling for state
func sleepUntil(at time.Time) {
	for {
		d := time.Until(at)
		switch {
		case d <= 0:
			return
		case d > 50*time.Microsecond:
			time.Sleep(d - 20*time.Microsecond)
		default:
			runtime.Gosched()
		}
	}
}

// bucket models a rate-limited link as a FIFO serialization queue, the way
// a NIC transmit queue behaves: each take occupies the line for n/rate
// seconds and its writer sleeps until its own bytes have drained, behind
// whatever earlier takers already queued. A late small write therefore
// waits only for the bytes ahead of it — not, as a shared-debt token
// bucket would have it, for every byte any concurrent writer has charged —
// so egress scheduling at the sender is observable through the emulation.
// An idle line accrues up to burst bytes of credit, letting short bursts
// pass unshaped.
type bucket struct {
	mu    sync.Mutex
	rate  float64 // bytes per second; <=0 means unlimited
	burst float64
	free  time.Time // when the last queued byte drains
}

func newBucket(rate, burst float64) *bucket {
	return &bucket{rate: rate, burst: burst}
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

func (b *bucket) take(n int64) {
	b.mu.Lock()
	// rate is read under the lock: SetNodeLink re-targets live buckets
	// while senders are mid-take.
	if b.rate <= 0 {
		b.mu.Unlock()
		return
	}
	now := time.Now()
	// An idle line owes up to burst bytes of credit: the queue tail never
	// lags more than burst/rate behind the present.
	if floor := now.Add(-time.Duration(b.burst / b.rate * float64(time.Second))); b.free.Before(floor) {
		b.free = floor
	}
	b.free = b.free.Add(time.Duration(float64(n) / b.rate * float64(time.Second)))
	wakeAt := b.free
	b.mu.Unlock()
	if wakeAt.After(now) {
		sleepUntil(wakeAt)
	}
}
