package directory

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hoplite/internal/types"
	"hoplite/internal/wire"
)

// failoverBackoff is how long a caller waits after unsuccessfully cycling
// through a shard's whole replica group before trying again — roughly the
// promotion detection granularity.
const failoverBackoff = 30 * time.Millisecond

// Update is a push notification about an object's directory record,
// delivered to Watch callbacks (the paper's asynchronous location query,
// §3.2).
type Update struct {
	OID     types.ObjectID
	Size    int64
	Locs    []types.Location
	Inline  []byte
	Deleted bool
}

// Dialer connects to a directory shard address.
type Dialer func(ctx context.Context, addr string) (net.Conn, error)

// subscription is one registered Watch callback.
type subscription struct {
	id int
	fn func(Update)
}

// Client talks to every shard of the directory on behalf of one node.
// Each shard is a replica group: mutations go to the current primary and
// fail over in succession order on connection errors (retried acquires
// carry a per-client op sequence number, so the promoted backup returns
// the committed lease instead of granting a second one); reads spread
// across the replicas. It is safe for concurrent use.
type Client struct {
	self      types.NodeID
	numShards int // fixed for the cluster's lifetime, even as groups move
	dial      Dialer

	opSeq atomic.Int64 // per-client mutation sequence for acquire dedupe
	calls atomic.Int64 // RPC attempts issued to shard replicas

	mu          sync.Mutex
	groups      [][]string       // per-shard replica addresses; re-derived on map installs
	cmap        types.ClusterMap // installed cluster map (Epoch 0 = membership disabled)
	onMap       func(types.ClusterMap)
	retiredWire wire.BatchStats // batching counters of closed connections
	conns       map[string]*wire.Client
	primary     []int // per-shard guess of the current primary's group index
	readAt      []int // per-shard replica index currently serving reads
	closed      bool
	done        chan struct{}

	subMu   sync.Mutex
	subs    map[types.ObjectID][]subscription
	subAddr map[types.ObjectID]string // replica currently pushing for each oid
	nextSub int
}

// NewClient creates a directory client against unreplicated shards:
// shards lists every shard server address; an object's shard is
// oid.Shard(len(shards)). It is the single-replica form of NewReplicated.
func NewClient(self types.NodeID, shards []string, dial Dialer) *Client {
	groups := make([][]string, len(shards))
	for i, s := range shards {
		groups[i] = []string{s}
	}
	return NewReplicatedClient(self, groups, dial)
}

// NewReplicatedClient creates a directory client for a node against a
// replicated directory: groups[i] lists shard i's replica addresses in
// succession order. An object's shard is oid.Shard(len(groups)).
func NewReplicatedClient(self types.NodeID, groups [][]string, dial Dialer) *Client {
	c := &Client{
		self:      self,
		numShards: len(groups),
		groups:    groups,
		dial:      dial,
		conns:     make(map[string]*wire.Client),
		primary:   make([]int, len(groups)),
		readAt:    make([]int, len(groups)),
		done:      make(chan struct{}),
		subs:      make(map[types.ObjectID][]subscription),
		subAddr:   make(map[types.ObjectID]string),
	}
	// Spread read traffic: each client starts its reads at a replica
	// derived from its own identity instead of hammering the primary.
	h := fnv.New32a()
	h.Write([]byte(self))
	for i, g := range groups {
		// Modulo in uint32: int(h.Sum32()) is negative for high hashes
		// on 32-bit platforms, and Go's % preserves the sign.
		c.readAt[i] = int(h.Sum32() % uint32(len(g)))
	}
	// The retry-dedupe key is (NodeID, op seq), and a restarted node
	// reuses its NodeID: starting every incarnation at seq 1 would make
	// its first ops collide with its previous life's cached responses.
	// Seed the sequence space at a random positive origin so each
	// incarnation occupies its own range.
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err == nil {
		c.opSeq.Store(int64(binary.BigEndian.Uint64(seed[:]) >> 2)) // positive, headroom to count up
	}
	return c
}

// ClientStats is a snapshot of the client's control-plane activity, used
// by the RPC-count tests (a cold inline Get is one RPC, a remote Get two)
// and the benchmark.
type ClientStats struct {
	Calls int64           // RPC attempts issued to shard replicas
	Wire  wire.BatchStats // write batching aggregated across shard connections
}

// Stats snapshots the client's RPC and write-batching counters, including
// connections that have since been dropped.
func (c *Client) Stats() ClientStats {
	st := ClientStats{Calls: c.calls.Load()}
	c.mu.Lock()
	st.Wire = c.retiredWire
	for _, wc := range c.conns {
		st.Wire.Add(wc.BatchStats())
	}
	c.mu.Unlock()
	return st
}

// NumShards returns the number of directory shards. Shard count is fixed
// for the cluster's lifetime — membership changes move groups, not shards.
func (c *Client) NumShards() int { return c.numShards }

// Self returns the node this client acts for.
func (c *Client) Self() types.NodeID { return c.self }

func (c *Client) shardOf(oid types.ObjectID) int {
	return oid.Shard(c.numShards)
}

// OnMap registers fn to run (outside client locks) whenever a newer
// cluster map is installed. At most one callback; nil clears it.
func (c *Client) OnMap(fn func(types.ClusterMap)) {
	c.mu.Lock()
	c.onMap = fn
	c.mu.Unlock()
}

// Map returns the currently installed cluster map (Epoch 0 when
// membership is disabled or no map has been installed yet).
func (c *Client) Map() types.ClusterMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cmap.Clone()
}

// InstallMap installs a newer cluster map and re-derives the per-shard
// replica groups used for routing. It reports whether the map was
// installed: false when it is not newer than the current one, when its
// shard count does not match this cluster, or when any derived group is
// empty. Requests routed from here on are stamped with the new epoch.
func (c *Client) InstallMap(m types.ClusterMap) bool {
	groups := m.DeriveGroups()
	if len(groups) != c.numShards {
		return false
	}
	for _, g := range groups {
		if len(g) == 0 {
			return false
		}
	}
	c.mu.Lock()
	if c.closed || m.Epoch <= c.cmap.Epoch {
		c.mu.Unlock()
		return false
	}
	c.cmap = m.Clone()
	c.groups = groups
	onMap := c.onMap
	cm := c.cmap.Clone()
	c.mu.Unlock()
	if onMap != nil {
		onMap(cm)
	}
	return true
}

func (c *Client) connTo(ctx context.Context, addr string) (*wire.Client, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, types.ErrClosed
	}
	if wc, ok := c.conns[addr]; ok {
		c.mu.Unlock()
		return wc, nil
	}
	c.mu.Unlock()

	nc, err := c.dial(ctx, addr)
	if err != nil {
		return nil, fmt.Errorf("directory: dial shard %s: %w", addr, err)
	}
	wc := wire.NewClient(nc, c.onNotify)
	wc.OnOrphan(c.compensateOrphan)
	wc.OnDown(func() { c.connDown(addr, wc) })

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		wc.Close()
		return nil, types.ErrClosed
	}
	if existing, ok := c.conns[addr]; ok {
		c.mu.Unlock()
		wc.Close()
		return existing, nil
	}
	c.conns[addr] = wc
	c.mu.Unlock()
	return wc, nil
}

func (c *Client) dropConn(addr string, wc *wire.Client) {
	c.mu.Lock()
	if c.conns[addr] == wc {
		delete(c.conns, addr)
		c.retiredWire.Add(wc.BatchStats())
	}
	c.mu.Unlock()
	wc.Close()
}

func (c *Client) onNotify(m wire.Message) {
	u := Update{OID: m.OID, Size: m.Size, Locs: m.Locs, Inline: m.Payload}
	if err := m.ErrorOf(); err == types.ErrDeleted {
		u.Deleted = true
	}
	c.deliver(m.OID, u)
}

func (c *Client) deliver(oid types.ObjectID, u Update) {
	c.subMu.Lock()
	fns := make([]func(Update), 0, len(c.subs[oid]))
	for _, sub := range c.subs[oid] {
		fns = append(fns, sub.fn)
	}
	c.subMu.Unlock()
	for _, fn := range fns {
		fn(u)
	}
}

// compensateOrphan undoes grants delivered to calls whose requester gave
// up before the response arrived (ctx canceled mid-acquire). Without it,
// an acquire racing a cancellation can lease a sender to a receiver that
// will never pull, and with no lease expiry the object wedges: every
// later Get blocks behind a lease nobody returns. The granted lease is
// returned and this node's phantom partial location dropped, exactly as
// if the sender had observed our socket die (§5.5).
func (c *Client) compensateOrphan(req, resp wire.Message) {
	if resp.ErrorOf() != nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	switch req.Method {
	case wire.MethodAcquire:
		if resp.Sender != "" && resp.Payload == nil {
			_, _ = c.call(ctx, wire.Message{Method: wire.MethodAbortDown, OID: req.OID, Node: c.self, Sender: resp.Sender})
		}
	case wire.MethodAcquireMany:
		// AbortDown (not Abort) for the same reason as the single-acquire
		// branch: acquireMany also registered us as a phantom partial
		// location, which must be dropped along with each lease.
		for _, l := range resp.Locs {
			_, _ = c.call(ctx, wire.Message{Method: wire.MethodAbortDown, OID: req.OID, Node: c.self, Sender: l.Node})
		}
	}
}

// connDown reacts to a replica connection dying: drop it from the cache
// and move every push subscription it carried onto a live replica, so
// reduce coordinators and other passive subscribers keep receiving
// updates without ever issuing another call on the dead connection.
func (c *Client) connDown(addr string, wc *wire.Client) {
	c.dropConn(addr, wc)
	c.subMu.Lock()
	var lost []types.ObjectID
	for oid, a := range c.subAddr {
		if a == addr && len(c.subs[oid]) > 0 {
			lost = append(lost, oid)
		}
	}
	c.subMu.Unlock()
	if len(lost) == 0 {
		return
	}
	go func() {
		for _, oid := range lost {
			c.resubscribe(oid)
		}
	}()
}

// resubscribe re-establishes the push subscription for oid on a live
// replica and delivers the record returned by the new subscription as a
// synthetic update, so no location transition is missed across the
// switch.
func (c *Client) resubscribe(oid types.ObjectID) {
	backoff := 20 * time.Millisecond
	for {
		c.subMu.Lock()
		alive := len(c.subs[oid]) > 0
		c.subMu.Unlock()
		if !alive {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		resp, addr, err := c.readCall(ctx, wire.Message{Method: wire.MethodSubscribe, OID: oid, Node: c.self})
		cancel()
		if err == nil || errors.Is(err, types.ErrDeleted) {
			c.subMu.Lock()
			c.subAddr[oid] = addr
			c.subMu.Unlock()
			c.deliver(oid, Update{
				OID: oid, Size: resp.Size, Locs: resp.Locs,
				Inline: resp.Payload, Deleted: errors.Is(err, types.ErrDeleted),
			})
			return
		}
		if errors.Is(err, types.ErrClosed) {
			return
		}
		select {
		case <-time.After(backoff):
		case <-c.done:
			return
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// call routes one mutation to its shard's current primary with failover.
// Every mutation whose Node field carries the calling client is stamped
// with a fresh per-client op sequence number before the first attempt,
// so a retry is recognizably the same logical op: the shard dedupes on
// (client, seq) and a response that died with the old primary — a lease
// grant, a Delete's location list — is returned, not re-executed, by
// its successor. AbortDownstream is exempt: its Node field names the
// receiver, not the caller, so (Node, seq) is not a safe key — and the
// op is idempotent under re-execution anyway.
func (c *Client) call(ctx context.Context, m wire.Message) (wire.Message, error) {
	if m.Method != wire.MethodAbortDown {
		m.Num2 = c.opSeq.Add(1)
	}
	resp, _, err := c.route(ctx, c.shardOf(m.OID), m, false)
	return resp, err
}

func (c *Client) callShard(ctx context.Context, shard int, m wire.Message) (wire.Message, error) {
	resp, _, err := c.route(ctx, shard, m, false)
	return resp, err
}

// readCall routes a read (Lookup/Watch) across the shard's replicas,
// starting from this client's spread-assigned replica. It returns the
// address that served the call, so subscriptions can be re-homed if that
// replica dies.
func (c *Client) readCall(ctx context.Context, m wire.Message) (wire.Message, string, error) {
	return c.route(ctx, c.shardOf(m.OID), m, true)
}

// route is the shared failover loop: try the shard's replicas starting
// from the remembered index (the believed primary for mutations, the
// spread-assigned replica for reads), advancing on connection errors and
// ErrNotPrimary bounces — following a bounce's primary hint — and
// backing off one promotion window after each full unsuccessful cycle.
// A cycle in which no replica was even dialable fails the call: a live
// shard always has a dialable replica, so total unreachability means
// this node is the dead or partitioned side.
//
// With membership enabled every request is stamped with the installed
// map's epoch (a field on a call already being made — no extra round
// trip). An ErrStaleMap bounce carries the replica's newer map: install
// it, re-derive the group, and retry against the new topology.
func (c *Client) route(ctx context.Context, shard int, m wire.Message, read bool) (wire.Message, string, error) {
	slot := func() *int {
		if read {
			return &c.readAt[shard]
		}
		return &c.primary[shard]
	}
	c.mu.Lock()
	group := c.groups[shard]
	m.Epoch = c.cmap.Epoch
	idx := *slot()
	c.mu.Unlock()
	var lastErr error
	reached := false // any replica dialable in the current cycle
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return wire.Message{}, "", lastErr
			}
			return wire.Message{}, "", err
		}
		addr := group[idx%len(group)]
		wc, err := c.connTo(ctx, addr)
		if err == nil {
			reached = true
			c.calls.Add(1)
			var resp wire.Message
			resp, err = wc.Call(ctx, m)
			if err == nil {
				rerr := resp.ErrorOf()
				switch {
				case errors.Is(rerr, types.ErrStaleMap):
					// The replica runs a newer cluster map (or the shard
					// moved off it). Install the map it handed back and
					// retry with the re-derived group.
					if next, derr := types.DecodeClusterMap(resp.Payload); derr == nil {
						c.InstallMap(next)
					}
					c.mu.Lock()
					group = c.groups[shard]
					m.Epoch = c.cmap.Epoch
					c.mu.Unlock()
					lastErr = rerr
				case !errors.Is(rerr, types.ErrNotPrimary):
					c.mu.Lock()
					*slot() = idx % len(group)
					c.mu.Unlock()
					return resp, addr, rerr
				default:
					// Bounced off a backup (or an out-of-sync replica):
					// follow its primary hint if it names another replica,
					// otherwise try the next in order.
					if hint := string(resp.Node); hint != "" {
						for j, a := range group {
							if a == hint && j != idx%len(group) {
								idx = j - 1 // advanced below
								break
							}
						}
					}
					lastErr = rerr
				}
			} else {
				if ctx.Err() != nil {
					return wire.Message{}, "", ctx.Err()
				}
				c.dropConn(addr, wc)
				lastErr = err
			}
		} else {
			if errors.Is(err, types.ErrClosed) {
				return wire.Message{}, "", err
			}
			lastErr = err
		}
		idx++
		if (attempt+1)%len(group) == 0 {
			if !reached {
				return wire.Message{}, "", lastErr
			}
			reached = false
			select {
			case <-time.After(failoverBackoff):
			case <-ctx.Done():
				return wire.Message{}, "", lastErr
			case <-c.done:
				return wire.Message{}, "", types.ErrClosed
			}
		}
	}
}

// PutStarted registers a partial location: node began creating the object
// (a local Put copy or an inbound remote transfer). The directory learns
// the object size here, enabling pipelined downstream fetches before the
// copy finishes (§3.3).
func (c *Client) PutStarted(ctx context.Context, oid types.ObjectID, size int64) error {
	_, err := c.call(ctx, wire.Message{Method: wire.MethodPutStarted, OID: oid, Node: c.self, Size: size})
	return err
}

// PutComplete upgrades this node's location to complete.
func (c *Client) PutComplete(ctx context.Context, oid types.ObjectID) error {
	_, err := c.call(ctx, wire.Message{Method: wire.MethodPutComplete, OID: oid, Node: c.self})
	return err
}

// PutInline stores a small object's payload directly in the directory
// (§3.2, "optimization for small objects").
func (c *Client) PutInline(ctx context.Context, oid types.ObjectID, payload []byte) error {
	// Node carries the caller so the retry-dedupe key (client, seq) is
	// client-unique; the inline apply itself does not use it.
	_, err := c.call(ctx, wire.Message{Method: wire.MethodPutInline, OID: oid, Node: c.self, Payload: payload})
	return err
}

// Lease is the result of AcquireSender: either an inline payload (small
// objects) or a leased sender to pull from.
type Lease struct {
	Sender types.NodeID
	Size   int64
	Gen    int64
	Inline []byte
}

// AcquireSender atomically picks an eligible sender holding the object
// (preferring complete copies), removes it from the available set,
// registers this node as a partial location, and records the fetch
// dependency. If wait is true the call blocks until a sender is available.
func (c *Client) AcquireSender(ctx context.Context, oid types.ObjectID, wait bool) (Lease, error) {
	resp, err := c.call(ctx, wire.Message{Method: wire.MethodAcquire, OID: oid, Node: c.self, Wait: wait})
	if err != nil {
		return Lease{}, err
	}
	return Lease{Sender: resp.Sender, Size: resp.Size, Gen: resp.Gen, Inline: resp.Payload}, nil
}

// MultiLease is the result of AcquireSenders: either an inline payload
// (small objects) or up to max leased senders, each holding a complete
// copy, for a striped pull.
type MultiLease struct {
	Senders []types.NodeID
	Size    int64
	Gen     int64
	Inline  []byte
}

// AcquireSenders atomically leases up to max eligible senders holding
// complete copies of the object and registers this node as a partial
// location. It never blocks: with no eligible complete copy it returns
// ErrNoSender (or ErrNotFound when the object has no locations at all),
// and the caller falls back to the blocking single-sender AcquireSender.
// Each leased sender is returned individually via ReleaseSender or
// AbortTransfer.
func (c *Client) AcquireSenders(ctx context.Context, oid types.ObjectID, max int) (MultiLease, error) {
	resp, err := c.call(ctx, wire.Message{Method: wire.MethodAcquireMany, OID: oid, Node: c.self, Num: int64(max)})
	if err != nil {
		return MultiLease{}, err
	}
	ml := MultiLease{Size: resp.Size, Gen: resp.Gen, Inline: resp.Payload}
	for _, l := range resp.Locs {
		ml.Senders = append(ml.Senders, l.Node)
	}
	return ml, nil
}

// ReleaseSender returns a leased sender after a successful transfer and,
// when complete, marks this node as holding a complete copy.
func (c *Client) ReleaseSender(ctx context.Context, oid types.ObjectID, sender types.NodeID, complete bool) error {
	_, err := c.call(ctx, wire.Message{Method: wire.MethodRelease, OID: oid, Node: c.self, Sender: sender, Complete: complete})
	return err
}

// AbortTransfer returns a leased sender after a failed transfer. When
// senderDead is true the sender's location is dropped from the directory
// so no other receiver is routed to it.
func (c *Client) AbortTransfer(ctx context.Context, oid types.ObjectID, sender types.NodeID, senderDead bool) error {
	_, err := c.call(ctx, wire.Message{Method: wire.MethodAbort, OID: oid, Node: c.self, Sender: sender, Complete: senderDead})
	return err
}

// AbortDownstream reports, from the sender side, that the receiver's
// socket died mid-transfer: the lease is returned and the receiver's
// partial location dropped (§5.5 failure detection via socket liveness).
func (c *Client) AbortDownstream(ctx context.Context, oid types.ObjectID, receiver types.NodeID) error {
	_, err := c.call(ctx, wire.Message{Method: wire.MethodAbortDown, OID: oid, Node: receiver, Sender: c.self})
	return err
}

// MarkSpilled registers this node's location for oid as disk-backed: the
// in-memory copy was demoted to the spill tier, or a restarted node is
// re-offering an object rediscovered in its spill directory (size then
// comes from the file; pass types.SizeUnknown to leave the recorded size
// alone). A spilled location still serves pulls — the planner merely
// prefers in-memory senders. ErrDeleted means the object was tombstoned
// while spilled; the caller should discard the stale file.
func (c *Client) MarkSpilled(ctx context.Context, oid types.ObjectID, size int64) error {
	_, err := c.call(ctx, wire.Message{Method: wire.MethodMarkSpilled, OID: oid, Node: c.self, Size: size})
	return err
}

// Record is a Lookup result.
type Record struct {
	Size   int64
	Locs   []types.Location
	Inline []byte
}

// Lookup returns the current directory record. With wait set, it blocks
// until the object has at least one location (synchronous location query,
// §3.2). Lookups are served by any in-sync replica of the shard.
func (c *Client) Lookup(ctx context.Context, oid types.ObjectID, wait bool) (Record, error) {
	resp, _, err := c.readCall(ctx, wire.Message{Method: wire.MethodLookup, OID: oid, Wait: wait})
	if err != nil {
		return Record{}, err
	}
	return Record{Size: resp.Size, Locs: resp.Locs, Inline: resp.Payload}, nil
}

// Watch registers fn for push notifications about oid and returns the
// current record immediately. The registration lives until the returned
// cancel or client close; cancel removes just this callback, telling the
// shard to stop pushing only when no other local callback for oid remains.
// Watches are served by any in-sync replica — backups fan out the updates
// they apply — and are transparently re-homed onto a live replica when the
// serving one dies.
func (c *Client) Watch(ctx context.Context, oid types.ObjectID, fn func(Update)) (Record, func(), error) {
	c.subMu.Lock()
	c.nextSub++
	id := c.nextSub
	c.subs[oid] = append(c.subs[oid], subscription{id: id, fn: fn})
	c.subMu.Unlock()
	cancel := func() { c.unwatch(oid, id) }
	resp, addr, err := c.readCall(ctx, wire.Message{Method: wire.MethodSubscribe, OID: oid, Node: c.self})
	if err != nil && !errors.Is(err, types.ErrDeleted) {
		cancel() // the shard never learned of this registration
		return Record{}, cancel, err
	}
	c.subMu.Lock()
	c.subAddr[oid] = addr
	c.subMu.Unlock()
	// A deleted object still registers the watch: its re-creation is what
	// the caller is usually waiting for.
	return Record{Size: resp.Size, Locs: resp.Locs, Inline: resp.Payload}, cancel, err
}

func (c *Client) unwatch(oid types.ObjectID, id int) {
	c.subMu.Lock()
	subs := c.subs[oid]
	for i, sub := range subs {
		if sub.id == id {
			subs = append(subs[:i], subs[i+1:]...)
			break
		}
	}
	var addr string
	if len(subs) == 0 {
		delete(c.subs, oid)
		addr = c.subAddr[oid]
		delete(c.subAddr, oid)
	} else {
		c.subs[oid] = subs
	}
	c.subMu.Unlock()
	if addr != "" {
		c.wireUnsubscribe(oid, addr)
	}
}

// wireUnsubscribe tells the replica that was pushing for oid to stop,
// best effort: if it is unreachable its peer teardown drops the
// subscription anyway.
func (c *Client) wireUnsubscribe(oid types.ObjectID, addr string) {
	c.mu.Lock()
	wc := c.conns[addr]
	c.mu.Unlock()
	if wc == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	c.calls.Add(1)
	_, _ = wc.Call(ctx, wire.Message{Method: wire.MethodUnsubscribe, OID: oid, Node: c.self})
}

// Delete marks the object deleted and returns the locations that held
// copies, so the caller can evict them from the node stores (§6).
func (c *Client) Delete(ctx context.Context, oid types.ObjectID) ([]types.Location, error) {
	// Node carries the caller so the retry-dedupe key (client, seq) is
	// client-unique: a Delete retried across a primary failover must get
	// the original location list back (for the eviction fan-out), not a
	// re-execution's empty one.
	resp, err := c.call(ctx, wire.Message{Method: wire.MethodDelete, OID: oid, Node: c.self})
	if err != nil {
		return nil, err
	}
	return resp.Locs, nil
}

// RemoveLocation drops this node's location for oid (store eviction).
func (c *Client) RemoveLocation(ctx context.Context, oid types.ObjectID) error {
	_, err := c.call(ctx, wire.Message{Method: wire.MethodRemoveLoc, OID: oid, Node: c.self})
	return err
}

// PurgeNode removes every location and lease involving node from all
// shards; used when a node failure is detected.
func (c *Client) PurgeNode(ctx context.Context, node types.NodeID) error {
	var firstErr error
	for shard := 0; shard < c.numShards; shard++ {
		_, err := c.callShard(ctx, shard, wire.Message{
			Method: wire.MethodPurgeNode,
			Node:   node,
			Offset: int64(shard),
		})
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// membershipCall routes a join/drain transition to the membership shard's
// primary and installs the map the response carries.
func (c *Client) membershipCall(ctx context.Context, m wire.Message) (types.ClusterMap, error) {
	m.Num2 = c.opSeq.Add(1)
	resp, _, err := c.route(ctx, membershipShard, m, false)
	if err != nil {
		return types.ClusterMap{}, err
	}
	cm, derr := types.DecodeClusterMap(resp.Payload)
	if derr != nil {
		return types.ClusterMap{}, derr
	}
	c.InstallMap(cm)
	return cm, nil
}

// JoinNode registers node in the cluster map on its behalf — a client-side
// wrapper over the same transition a joining node's own Join performs.
// Idempotent; useful for re-registering a node that was declared dead by
// mistake.
func (c *Client) JoinNode(ctx context.Context, node types.NodeID, shardHost bool) (types.ClusterMap, error) {
	return c.membershipCall(ctx, wire.Message{Method: wire.MethodJoin, Node: node, Complete: shardHost})
}

// DrainNode marks node draining: it leaves every shard group, stops being
// a re-replication target, and the repair scanner starts copying its sole
// copies out. The node itself leaves the map later via DrainFinished.
func (c *Client) DrainNode(ctx context.Context, node types.NodeID) (types.ClusterMap, error) {
	return c.membershipCall(ctx, wire.Message{Method: wire.MethodDrain, Node: node, Num: DrainStart})
}

// DrainFinished removes a drained node from the map; called by the node
// itself once it holds no sole copies and hosts no shard replicas.
func (c *Client) DrainFinished(ctx context.Context, node types.NodeID) (types.ClusterMap, error) {
	return c.membershipCall(ctx, wire.Message{Method: wire.MethodDrain, Node: node, Num: DrainFinish})
}

// DeclareDead removes a permanently lost node from the map: its directory
// locations are purged and the repair scanner restores the replication
// factor from the surviving copies. Failure detection stays explicit —
// the paper's socket-liveness model handles transient faults, and only an
// operator (or test harness) decides a node is truly gone.
func (c *Client) DeclareDead(ctx context.Context, node types.NodeID) (types.ClusterMap, error) {
	return c.membershipCall(ctx, wire.Message{Method: wire.MethodDrain, Node: node, Num: DrainDead})
}

// FetchMap fetches and installs the cluster map from any membership-shard
// replica.
func (c *Client) FetchMap(ctx context.Context) (types.ClusterMap, error) {
	resp, _, err := c.route(ctx, membershipShard, wire.Message{Method: wire.MethodMapGet}, true)
	if err != nil {
		return types.ClusterMap{}, err
	}
	cm, derr := types.DecodeClusterMap(resp.Payload)
	if derr != nil {
		return types.ClusterMap{}, derr
	}
	c.InstallMap(cm)
	return cm, nil
}

// ShardStatus is one shard's membership observability snapshot, answered
// by the shard's primary.
type ShardStatus struct {
	Shard      int
	Primary    types.NodeID // replica that answered — the shard's primary
	Epoch      int64        // shard succession epoch
	Objects    int          // live entries in the shard
	Under      int          // entries below the effective replication factor
	SoleCopies int          // entries whose only active whole copy is on the queried node
}

// ClusterStatus aggregates every shard's status plus the cluster map.
type ClusterStatus struct {
	Map    types.ClusterMap
	Shards []ShardStatus
}

// Status queries every shard's primary for membership observability. When
// node is non-empty, each shard also counts the objects whose only active
// whole copy sits on it (the drain-safety number).
func (c *Client) Status(ctx context.Context, node types.NodeID) (ClusterStatus, error) {
	var st ClusterStatus
	for shard := 0; shard < c.numShards; shard++ {
		resp, addr, err := c.route(ctx, shard, wire.Message{
			Method: wire.MethodStatus,
			Offset: int64(shard),
			Node:   node,
		}, false)
		if err != nil {
			return st, err
		}
		st.Shards = append(st.Shards, ShardStatus{
			Shard:      shard,
			Primary:    types.NodeID(addr),
			Epoch:      resp.Gen,
			Objects:    int(resp.Size),
			Under:      int(resp.Num),
			SoleCopies: int(resp.Offset),
		})
		if st.Map.Epoch == 0 && len(resp.Payload) > 0 {
			if cm, derr := types.DecodeClusterMap(resp.Payload); derr == nil {
				st.Map = cm
				c.InstallMap(cm)
			}
		}
	}
	return st, nil
}

// UnderReplicated sums the under-replicated object count across shards.
func (c *Client) UnderReplicated(ctx context.Context) (int, error) {
	st, err := c.Status(ctx, "")
	if err != nil {
		return 0, err
	}
	n := 0
	for _, sh := range st.Shards {
		n += sh.Under
	}
	return n, nil
}

// SoleCopies sums, across shards, the objects whose only active whole
// copy sits on node. A draining node waits for zero before leaving.
func (c *Client) SoleCopies(ctx context.Context, node types.NodeID) (int, error) {
	st, err := c.Status(ctx, node)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, sh := range st.Shards {
		n += sh.SoleCopies
	}
	return n, nil
}

// Join dials seed control addresses and asks the cluster's membership
// primary to add self to the map, returning the map that includes it. It
// is a free function because the joiner has no directory client yet — the
// returned map is what it builds one from. ErrNotPrimary hints and
// ErrStaleMap bounces extend the candidate list, and unreachable seeds
// are retried until ctx expires, so one reachable seed suffices.
func Join(ctx context.Context, dial Dialer, seeds []string, self types.NodeID, shardHost bool, locality string) (types.ClusterMap, error) {
	if len(seeds) == 0 {
		return types.ClusterMap{}, errors.New("directory: join requires at least one seed address")
	}
	req := wire.Message{Method: wire.MethodJoin, Node: self, Complete: shardHost, Payload: []byte(locality)}
	// Never join through our own address: a rejoining node's hint chain can
	// point back at its previous life (it may have been the membership
	// primary), and its own half-started listener would swallow the call.
	var targets []string
	for _, s := range seeds {
		if s != string(self) {
			targets = append(targets, s)
		}
	}
	if len(targets) == 0 {
		return types.ClusterMap{}, errors.New("directory: join requires a seed other than self")
	}
	tried := map[string]bool{string(self): true}
	var lastErr error
	for {
		for i := 0; i < len(targets); i++ {
			if err := ctx.Err(); err != nil {
				if lastErr != nil {
					return types.ClusterMap{}, lastErr
				}
				return types.ClusterMap{}, err
			}
			addr := targets[i]
			// Bound each attempt: a dead-ish seed (accepting but not
			// serving) must cost one attempt window, not the whole join.
			actx, acancel := context.WithTimeout(ctx, 3*time.Second)
			nc, err := dial(actx, addr)
			if err != nil {
				acancel()
				lastErr = err
				continue
			}
			wc := wire.NewClient(nc, nil)
			resp, err := wc.Call(actx, req)
			wc.Close()
			acancel()
			if err != nil {
				lastErr = err
				continue
			}
			rerr := resp.ErrorOf()
			switch {
			case rerr == nil:
				return types.DecodeClusterMap(resp.Payload)
			case errors.Is(rerr, types.ErrNotPrimary):
				lastErr = rerr
				if hint := string(resp.Node); hint != "" && !tried[hint] {
					tried[hint] = true
					targets = append(targets, hint)
				}
			case errors.Is(rerr, types.ErrStaleMap):
				// The seed does not host the membership shard; its bounce
				// carries the map, which names the replicas that do.
				lastErr = rerr
				if cm, derr := types.DecodeClusterMap(resp.Payload); derr == nil {
					groups := cm.DeriveGroups()
					if len(groups) > membershipShard {
						for _, a := range groups[membershipShard] {
							if !tried[a] {
								tried[a] = true
								targets = append(targets, a)
							}
						}
					}
				}
			default:
				return types.ClusterMap{}, rerr
			}
		}
		select {
		case <-time.After(failoverBackoff):
		case <-ctx.Done():
			if lastErr != nil {
				return types.ClusterMap{}, lastErr
			}
			return types.ClusterMap{}, ctx.Err()
		}
	}
}

// Close tears down all shard connections.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.done)
	conns := make([]*wire.Client, 0, len(c.conns))
	for _, wc := range c.conns {
		conns = append(conns, wc)
		c.retiredWire.Add(wc.BatchStats())
	}
	c.conns = make(map[string]*wire.Client)
	c.mu.Unlock()
	for _, wc := range conns {
		wc.Close()
	}
	return nil
}
