package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hoplite/internal/buffer"
	"hoplite/internal/directory"
	"hoplite/internal/linkstate"
	"hoplite/internal/netem"
	"hoplite/internal/spill"
	"hoplite/internal/store"
	"hoplite/internal/transport"
	"hoplite/internal/types"
	"hoplite/internal/wire"
)

// Plane-select magic bytes: a dialer's first byte routes the connection to
// the control plane (wire RPC: directory shard + reduce control) or the
// data plane (transport pulls). One listener per node keeps NodeID — the
// node's address — sufficient to reach both planes.
const (
	magicCtrl byte = 0xC1
	magicData byte = 0xD1
)

// Node is one Hoplite object-store node: local store, directory client,
// data-plane server, control server, and the directory shard server that
// hosts whichever shard replicas the cluster map assigns it.
type Node struct {
	cfg  Config
	name string
	id   types.NodeID

	fab     netem.Fabric
	ln      net.Listener
	store   *store.Store
	spill   *spill.Spill // nil unless Config.SpillDir is set
	dir     *directory.Client
	shard   *directory.Server
	dataSrv *transport.Server
	data    *transport.Pool // this node's connections to other nodes' data servers
	ctrlSrv *wire.Server
	dataLn  *chanListener
	ctrlLn  *chanListener

	ctx    context.Context
	cancel context.CancelFunc

	// links accumulates per-peer RTT and bandwidth estimates from the
	// node's own traffic; plan turns them into transfer decisions.
	links *linkstate.Tracker
	plan  linkPlanner

	// cmap is the node's view of the epoch-versioned cluster map.
	// encodedMap caches its wire form for stale-epoch bounce responses;
	// drainMon latches the drain monitor so it starts at most once per
	// process.
	cmapMu     sync.Mutex
	cmap       types.ClusterMap
	encodedMap []byte
	drainMon   bool

	// tombs records recently observed cluster-wide deletions, keyed by
	// object, so the inline fast path cannot resurrect an object whose
	// eviction fan-out already visited this node (see noteTombstone).
	tombMu sync.Mutex
	tombs  map[types.ObjectID]time.Time

	mu          sync.Mutex
	pulls       map[types.ObjectID]*pull
	execs       map[execKey]*reduceExec
	peers       map[string]*wire.Client
	storeChange chan struct{}
	closed      bool

	// peerDown tells reduce coordinators which peers' control connections
	// dropped: socket liveness is their failure detector (§5.5).
	peerDown downSubs

	wg sync.WaitGroup
}

type execKey struct {
	reduceID types.ObjectID
	slot     int
}

// NewNode creates and starts a node. It boots from a cluster map obtained
// one of three ways: a live join (cfg.JoinAddrs), a given map
// (cfg.InitialMap), or — with neither — by founding a one-member cluster
// on its own listen address.
func NewNode(cfg Config) (*Node, error) {
	c := cfg.withDefaults()
	if c.Fabric == nil {
		return nil, fmt.Errorf("core: Config.Fabric is required")
	}
	name := c.Name
	ln := c.Listener
	if ln == nil {
		var err error
		ln, err = c.Fabric.Listen(nameOrTemp(name))
		if err != nil {
			return nil, fmt.Errorf("core: listen: %w", err)
		}
	}
	addr := ln.Addr().String()
	if name == "" {
		name = addr
	}
	n := &Node{
		cfg:         c,
		name:        name,
		id:          types.NodeID(addr),
		fab:         c.Fabric,
		ln:          ln,
		pulls:       make(map[types.ObjectID]*pull),
		execs:       make(map[execKey]*reduceExec),
		peers:       make(map[string]*wire.Client),
		storeChange: make(chan struct{}),
	}
	n.links = linkstate.New(linkstate.Config{PriorRTT: c.Latency, PriorBandwidth: c.Bandwidth})
	n.plan = linkPlanner{links: n.links, self: n.id}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	if c.SpillDir != "" {
		sp, err := spill.Open(c.SpillDir)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("core: %w", err)
		}
		n.spill = sp
	}
	// A memory limit always comes with admission backpressure (and, with a
	// spill dir, demotion); without one the store is unbounded.
	tier := store.Tier{
		Capacity:  c.MemoryLimit,
		Admission: c.MemoryLimit > 0,
		OnEvict:   n.onEvict,
	}
	if n.spill != nil {
		tier.Demote = n.demoteToSpill
		tier.PrepareDemote = n.spill.Reserve
	}
	n.store = store.NewTiered(tier)

	// Resolve the boot map: a live join against a running cluster, a given
	// map, or a one-member cluster founded on this node's own address.
	var bootMap types.ClusterMap
	joined := len(c.JoinAddrs) > 0
	switch {
	case joined:
		jctx, jcancel := context.WithTimeout(n.ctx, 30*time.Second)
		cm, err := directory.Join(jctx, n.dialCtrl, c.JoinAddrs, n.id, !c.JoinStorageOnly, c.Locality)
		jcancel()
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("core: join cluster: %w", err)
		}
		bootMap = cm
	case c.InitialMap != nil:
		bootMap = c.InitialMap.Clone()
	default:
		bootMap = types.FoundingMap([]string{addr}, 1, 1, 1)
		bootMap.Members[0].Locality = c.Locality
	}
	topo := bootMap.DeriveGroups()
	if bootMap.Epoch < 1 || len(topo) == 0 || len(topo[0]) == 0 {
		ln.Close()
		return nil, fmt.Errorf("core: cluster map (epoch %d, %d shards) names no directory shard host", bootMap.Epoch, bootMap.NumShards)
	}
	// Every node runs the replicated shard server — even one hosting zero
	// replicas today — so map pushes, snapshots and later rebalances land
	// on live machinery.
	n.shard = directory.NewReplicated(directory.Config{
		Self:           addr,
		Groups:         topo,
		Dial:           n.dialCtrl,
		InitialMap:     &bootMap,
		RepairInterval: c.RepairInterval,
		OnMap:          n.applyMap,
	})
	n.dir = directory.NewReplicatedClient(n.id, topo, n.dialCtrl)
	n.cmap = bootMap.Clone()
	n.encodedMap = types.EncodeClusterMap(nil, n.cmap)
	n.links.SetLocality(n.cmap.Localities())
	n.dir.InstallMap(bootMap)
	n.dir.OnMap(n.applyMap)

	n.dataLn = newChanListener(ln.Addr())
	n.ctrlLn = newChanListener(ln.Addr())
	n.dataSrv = transport.NewServer(n.dataLn, n.serveBuffer, c.ChunkSize, n.onSendFailure)
	n.dataSrv.SetTelemetry(func(peer types.NodeID, bytes int64, d time.Duration) {
		n.links.ObserveTransfer(peer, bytes, d)
	})
	n.data = transport.NewPool(n.dialData)
	n.ctrlSrv = wire.NewServer(n.ctrlLn, n.handleCtrl)

	n.wg.Add(3)
	go func() { defer n.wg.Done(); n.acceptLoop() }()
	go func() { defer n.wg.Done(); _ = n.dataSrv.Serve() }()
	go func() { defer n.wg.Done(); _ = n.ctrlSrv.Serve() }()
	// Replication loops start after the control plane is serving, so peer
	// replicas probing this shard during its boot query get answers instead
	// of timeouts.
	n.shard.Start()
	if joined {
		// A (re)joining node's in-memory store is empty, but a previous
		// life of the same address may have registered locations that were
		// never purged (a crashed-and-restarted member is never removed
		// from the map). Those phantom copies would mask under-replication
		// from the repair scanner, so clear them before serving. Runs
		// before the spill re-offer: disk-backed locations are purged too
		// and then re-registered from the surviving spill files.
		pctx, pcancel := context.WithTimeout(n.ctx, 30*time.Second)
		err := n.dir.PurgeNode(pctx, n.id)
		pcancel()
		if err != nil {
			n.Close()
			return nil, fmt.Errorf("core: purge stale locations on join: %w", err)
		}
	}
	if n.spill != nil && n.spill.Len() > 0 {
		n.wg.Add(1)
		go func() { defer n.wg.Done(); n.reofferSpilled() }()
	}
	return n, nil
}

// reofferSpilled re-registers every object found in the spill directory
// at boot: a restarted node still holds those bytes on disk and can serve
// them, so its previous life's spilled objects outlive the process (the
// paper leaves task restarts to the framework, §5.5; the spill tier makes
// restarted nodes come back warm). Objects the directory has tombstoned
// since are discarded from disk. Registrations that fail transiently —
// a rolling restart often boots workers before their directory shard is
// reachable — are retried with backoff for the life of the node.
func (n *Node) reofferSpilled() {
	pending := n.spill.List()
	backoff := 250 * time.Millisecond
	for len(pending) > 0 && n.ctx.Err() == nil {
		var failed []spill.Entry
		for _, ent := range pending {
			ctx, cancel := n.rpcCtx()
			err := n.dir.MarkSpilled(ctx, ent.OID, ent.Size)
			cancel()
			switch {
			case err == nil:
			case errors.Is(err, types.ErrDeleted):
				n.spill.Remove(ent.OID)
			default:
				failed = append(failed, ent)
			}
			if n.ctx.Err() != nil {
				return
			}
		}
		n.signalStoreChange()
		pending = failed
		if len(pending) == 0 {
			return
		}
		select {
		case <-time.After(backoff):
		case <-n.ctx.Done():
			return
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// demoteToSpill persists an eviction victim to the spill tier (called by
// the store, outside its lock) and downgrades the directory location to
// Spilled. The file write is deliberately synchronous — write-through
// demotion is the backpressure that keeps a producer from racing ahead
// of the disk — but the directory downgrade is fired asynchronously: the
// copy serves pulls under either flavor (ranking lags one RPC at most),
// and a burst demoting many victims must not serialize N directory
// round-trips into one unlucky Put. Returning false (disk trouble) falls
// the victim back to plain eviction or, for pinned locals, reinsertion.
func (n *Node) demoteToSpill(oid types.ObjectID, buf *buffer.Buffer) bool {
	if err := n.spill.Write(oid, buf); err != nil {
		return false
	}
	// Wake pull servers parked on a store miss: the object is servable
	// again, now off disk.
	n.signalStoreChange()
	size := buf.Size()
	go func() {
		ctx, cancel := n.rpcCtx()
		err := n.dir.MarkSpilled(ctx, oid, size)
		cancel()
		if errors.Is(err, types.ErrDeleted) {
			// Tombstoned while we were demoting: the file is stale.
			n.spill.Remove(oid)
		}
	}()
	return true
}

// ctrlRPCTimeout bounds one control RPC the node makes on its own behalf.
const ctrlRPCTimeout = 10 * time.Second

// rpcCtx bounds a best-effort control call the node makes on its own
// behalf: a pull's lease return, a spill downgrade, a reduce's specs and
// cleanup. It derives from the node's context, not a caller's: a cancelled
// Get must not leave its sender leased, and a cancelled Reduce must not
// abandon a spec call that its cleanup has to follow.
func (n *Node) rpcCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(n.ctx, ctrlRPCTimeout)
}

func nameOrTemp(name string) string {
	if name == "" {
		return "node-pending"
	}
	return name
}

// ID returns the node's identity: its listen address.
func (n *Node) ID() types.NodeID { return n.id }

// Addr returns the node's listen address (same string as ID).
func (n *Node) Addr() string { return string(n.id) }

// Directory exposes the node's directory client (used by tests and tools).
func (n *Node) Directory() *directory.Client { return n.dir }

// Store exposes the node's local store (used by tests and tools).
func (n *Node) Store() *store.Store { return n.store }

// Spill exposes the node's spill tier, nil unless Config.SpillDir was set
// (used by tests and tools).
func (n *Node) Spill() *spill.Spill { return n.spill }

// DataStats reports the node's data-plane serve counters: how many pulls
// (and ranged striped pulls) this node's store served to receivers.
func (n *Node) DataStats() transport.Stats { return n.dataSrv.Stats() }

// CacheStats is the location-cache counter pair the benchmark reports.
type CacheStats struct {
	Hits   int64
	Misses int64
}

// CacheStats reports location-cache counters. Nodes keep no location
// cache (every remote Get leases its sender through the directory), so it
// is always the zero value; it stays because the benchmark's layer ladder
// reads it.
func (n *Node) CacheStats() CacheStats { return CacheStats{} }

// PeerDataStats reports per-receiver serve counters: how many pulls and
// bytes this node's store served to each peer.
func (n *Node) PeerDataStats() map[types.NodeID]transport.PeerStat { return n.dataSrv.PeerStats() }

// Links exposes the node's link-state tracker (used by tests and tools).
func (n *Node) Links() *linkstate.Tracker { return n.links }

// LinkState returns the node's current per-peer link estimate table.
func (n *Node) LinkState() []linkstate.PeerEstimate { return n.links.Snapshot() }

// PeerLinkState fetches peer's link estimate table (the rows LinkState
// returns locally) over the control plane, so tools can print a
// cluster-wide link matrix from any vantage point.
func (n *Node) PeerLinkState(ctx context.Context, peer types.NodeID) ([]linkstate.PeerEstimate, error) {
	cl, err := n.peerCtrl(ctx, string(peer))
	if err != nil {
		return nil, err
	}
	resp, err := cl.Call(ctx, wire.Message{Method: wire.MethodLinkState})
	if err != nil {
		return nil, err
	}
	if e := resp.ErrorOf(); e != nil {
		return nil, e
	}
	return linkstate.DecodeSnapshot(resp.Payload)
}

func (n *Node) acceptLoop() {
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			n.dataLn.Close()
			n.ctrlLn.Close()
			return
		}
		go n.routeConn(conn)
	}
}

// routeConn reads the plane-select magic byte and hands the connection to
// the right server.
func (n *Node) routeConn(conn net.Conn) {
	var magic [1]byte
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(magic[:]); err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	switch magic[0] {
	case magicData:
		if !n.dataLn.deliver(conn) {
			conn.Close()
		}
	case magicCtrl:
		if !n.ctrlLn.deliver(conn) {
			conn.Close()
		}
	default:
		conn.Close()
	}
}

func (n *Node) dialPlane(ctx context.Context, addr string, magic byte) (net.Conn, error) {
	conn, err := n.fab.Dial(ctx, n.name, addr)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write([]byte{magic}); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

func (n *Node) dialCtrl(ctx context.Context, addr string) (net.Conn, error) {
	return n.dialPlane(ctx, addr, magicCtrl)
}

// FetchClusterMap asks each seed in turn for the cluster map of a running
// cluster. Ephemeral clients (the CLI) use it before NewNode to derive the
// shard topology from a single seed address instead of requiring the
// operator to restate the founding list; pass the result as
// Config.InitialMap.
func FetchClusterMap(ctx context.Context, fab netem.Fabric, seeds []string) (types.ClusterMap, error) {
	var lastErr error = fmt.Errorf("core: no seed addresses")
	for _, addr := range seeds {
		conn, err := fab.Dial(ctx, "", addr)
		if err != nil {
			lastErr = err
			continue
		}
		if _, err := conn.Write([]byte{magicCtrl}); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		wc := wire.NewClient(conn, nil)
		resp, err := wc.Call(ctx, wire.Message{Method: wire.MethodMapGet})
		wc.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if rerr := resp.ErrorOf(); rerr != nil {
			lastErr = rerr
			continue
		}
		cm, derr := types.DecodeClusterMap(resp.Payload)
		if derr != nil {
			lastErr = derr
			continue
		}
		return cm, nil
	}
	return types.ClusterMap{}, lastErr
}

func (n *Node) dialData(ctx context.Context, addr string) (net.Conn, error) {
	return n.dialPlane(ctx, addr, magicData)
}

// peerCtrl returns a cached control-plane RPC client to a peer node.
func (n *Node) peerCtrl(ctx context.Context, addr string) (*wire.Client, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, types.ErrClosed
	}
	if c, ok := n.peers[addr]; ok {
		n.mu.Unlock()
		return c, nil
	}
	n.mu.Unlock()
	conn, err := n.dialCtrl(ctx, addr)
	if err != nil {
		return nil, err
	}
	c := wire.NewClient(conn, nil)
	// Every control round-trip on this client doubles as an RTT probe for
	// the link estimator. Peer control handlers respond immediately (no
	// blocking waits), so the measured time is genuine RPC latency.
	peer := types.NodeID(addr)
	c.OnRTT(func(d time.Duration) { n.links.ObserveRTT(peer, d) })
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		c.Close()
		return nil, types.ErrClosed
	}
	if existing, ok := n.peers[addr]; ok {
		n.mu.Unlock()
		c.Close()
		return existing, nil
	}
	n.peers[addr] = c
	n.mu.Unlock()
	// Registered after the client won the cache, so a loser's Close is no
	// death; a client that already failed fires at once.
	c.OnDown(func() {
		n.mu.Lock()
		if n.peers[addr] == c {
			delete(n.peers, addr)
		}
		n.mu.Unlock()
		n.peerDown.fire(peer)
	})
	return c, nil
}

// downSubs fans one peer's control-connection loss out to every
// subscriber: wire.Client.OnDown takes a single callback per client, and
// any number of concurrent reduces may depend on the same peer.
type downSubs struct {
	mu   sync.Mutex
	next int
	fns  map[int]func(types.NodeID)
}

// subscribe registers fn for every later loss and returns its removal.
func (s *downSubs) subscribe(fn func(types.NodeID)) (unsubscribe func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fns == nil {
		s.fns = make(map[int]func(types.NodeID))
	}
	s.next++
	id := s.next
	s.fns[id] = fn
	return func() {
		s.mu.Lock()
		delete(s.fns, id)
		s.mu.Unlock()
	}
}

// fire calls every current subscriber with the peer that went down.
func (s *downSubs) fire(peer types.NodeID) {
	s.mu.Lock()
	fns := make([]func(types.NodeID), 0, len(s.fns))
	for _, fn := range s.fns {
		fns = append(fns, fn)
	}
	s.mu.Unlock()
	for _, fn := range fns {
		fn(peer)
	}
}

// dropPeer discards a (possibly broken) cached peer connection.
func (n *Node) dropPeer(addr string, c *wire.Client) {
	n.mu.Lock()
	if n.peers[addr] == c {
		delete(n.peers, addr)
	}
	n.mu.Unlock()
	c.Close()
}

// handleCtrl dispatches control-plane requests: directory methods go to
// the hosted shard, reduce and eviction methods to the node itself.
func (n *Node) handleCtrl(ctx context.Context, m wire.Message, p *wire.Peer) wire.Message {
	if resp, stale := n.staleCheck(&m); stale {
		return resp
	}
	switch m.Method {
	case wire.MethodReduceStart:
		return n.handleReduceStart(m)
	case wire.MethodReduceCancel:
		return n.handleReduceCancel(m)
	case wire.MethodRepairPull:
		// Re-replication: the membership shard asked this node to become a
		// holder. Pull through the ordinary receiver-driven data plane,
		// which registers the complete copy in the directory as it lands.
		var resp wire.Message
		if err := n.WaitLocal(ctx, m.OID); err != nil {
			resp.SetError(err)
		}
		return resp
	case wire.MethodEvictLocal:
		n.dropLocal(m)
		return wire.Message{}
	case wire.MethodPing:
		return wire.Message{Method: wire.MethodPing}
	case wire.MethodLinkState:
		// Link-state telemetry: return this node's per-peer estimate table
		// (hoplite-cli status renders it).
		return wire.Message{Payload: linkstate.EncodeSnapshot(n.links.Snapshot())}
	default:
		return n.shard.Handler()(ctx, m, p)
	}
}

// staleCheck bounces epoch-stamped control requests from peers whose
// cluster map is older than ours: the response carries the current map so
// the caller can catch up and retry. Membership-plane methods are exempt —
// they carry the map itself or have their own epoch semantics (a joiner's
// first request is legitimately unstamped-or-old) — and so are unstamped
// requests (Epoch 0: reduce control and pings, which no map change can
// misroute).
func (n *Node) staleCheck(m *wire.Message) (wire.Message, bool) {
	switch m.Method {
	case wire.MethodJoin, wire.MethodDrain, wire.MethodMapPush, wire.MethodMapGet:
		return wire.Message{}, false
	}
	n.cmapMu.Lock()
	defer n.cmapMu.Unlock()
	if m.Epoch == 0 || m.Epoch >= n.cmap.Epoch {
		return wire.Message{}, false
	}
	var resp wire.Message
	resp.SetError(types.ErrStaleMap)
	resp.Epoch = n.cmap.Epoch
	resp.Payload = append([]byte(nil), n.encodedMap...)
	return resp, true
}

// mapEpoch returns the node's current cluster-map epoch.
func (n *Node) mapEpoch() int64 {
	n.cmapMu.Lock()
	defer n.cmapMu.Unlock()
	return n.cmap.Epoch
}

// ClusterMap returns the node's view of the cluster map.
func (n *Node) ClusterMap() types.ClusterMap {
	n.cmapMu.Lock()
	defer n.cmapMu.Unlock()
	return n.cmap.Clone()
}

// ShardServer exposes the node's directory shard server (used by tests and
// tools).
func (n *Node) ShardServer() *directory.Server { return n.shard }

// applyMap reacts to a newer cluster map from any source — shard server
// install, client-observed stale bounce, or direct push: cache it for
// stale checks, propagate it to the other local components (each install
// is an epoch-guarded no-op once everyone agrees, so the hooks cannot
// recurse), and start the drain monitor when this node is now draining.
func (n *Node) applyMap(cm types.ClusterMap) {
	n.cmapMu.Lock()
	if cm.Epoch <= n.cmap.Epoch {
		n.cmapMu.Unlock()
		return
	}
	n.cmap = cm.Clone()
	n.encodedMap = types.EncodeClusterMap(n.encodedMap[:0], n.cmap)
	startDrain := false
	if st, ok := n.cmap.MemberState(n.id); ok && st == types.MemberDraining && !n.drainMon {
		n.drainMon = true
		startDrain = true
	}
	n.cmapMu.Unlock()
	n.dir.InstallMap(cm)
	n.links.SetLocality(cm.Localities())
	n.shard.InstallMap(cm)
	if startDrain {
		n.detach(n.drainMonitor)
	}
}

// detach runs fn on a node goroutine, off the caller's path. A closing
// node skips it: its teardown ends whatever fn would.
func (n *Node) detach(fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		fn()
	}()
}

// Drain retires this node gracefully: mark it draining in the cluster
// map (no new placements, shard replicas hand off, the repair scanner
// evacuates sole copies), then block until the node has been removed
// from the map. The node keeps serving reads throughout; callers
// typically Close it once Drain returns.
func (n *Node) Drain(ctx context.Context) error {
	if _, err := n.dir.DrainNode(ctx, n.id); err != nil {
		return err
	}
	// The response map marked us draining; applyMap (via the client's
	// install hook) started the drain monitor, which finishes the drain
	// once nothing depends on this node. Wait for our own removal.
	ticker := time.NewTicker(20 * time.Millisecond)
	defer ticker.Stop()
	for {
		if _, ok := n.dir.Map().MemberState(n.id); !ok {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-n.ctx.Done():
			return types.ErrClosed
		case <-ticker.C:
		}
	}
}

// drainMonitor runs on a draining node (started by applyMap, at most
// once): poll until no shard replica and no sole object copy lives here,
// then report the drain finished so the membership shard removes us.
func (n *Node) drainMonitor() {
	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-ticker.C:
		}
		if !n.drainComplete() {
			continue
		}
		ctx, cancel := n.rpcCtx()
		_, err := n.dir.DrainFinished(ctx, n.id)
		cancel()
		if err == nil {
			return
		}
	}
}

// drainComplete reports whether this node can leave without losing data
// or a shard: it hosts no directory replicas and holds no object's only
// whole copy.
func (n *Node) drainComplete() bool {
	if n.shard.HostedReplicas() > 0 {
		return false
	}
	ctx, cancel := context.WithTimeout(n.ctx, 5*time.Second)
	defer cancel()
	sole, err := n.dir.SoleCopies(ctx, n.id)
	return err == nil && sole == 0
}

// onSendFailure clears a dead receiver's directory lease after the data
// plane saw its socket break (§5.5). A reduce intermediate has no lease:
// its parent's death reaches the coordinator over the control plane.
func (n *Node) onSendFailure(oid types.ObjectID, receiver types.NodeID) {
	n.mu.Lock()
	intermediate := n.intermediateLocked(oid) != nil
	n.mu.Unlock()
	if intermediate {
		return
	}
	ctx, cancel := context.WithTimeout(n.ctx, 5*time.Second)
	defer cancel()
	_ = n.dir.AbortDownstream(ctx, oid, receiver)
}

// onEvict reconciles the directory after a copy was dropped from memory
// (best effort): if the object still lives in the spill tier the dropped
// buffer was only a cache over the file, so the location is downgraded to
// Spilled rather than removed — this node can still serve every byte.
func (n *Node) onEvict(oid types.ObjectID) {
	ctx, cancel := context.WithTimeout(n.ctx, 5*time.Second)
	defer cancel()
	if n.spill != nil {
		if size, ok := n.spill.Contains(oid); ok {
			_ = n.dir.MarkSpilled(ctx, oid, size)
			return
		}
	}
	_ = n.dir.RemoveLocation(ctx, oid)
}

// signalStoreChange wakes serveBuffer waiters after a store insert.
func (n *Node) signalStoreChange() {
	n.mu.Lock()
	close(n.storeChange)
	n.storeChange = make(chan struct{})
	n.mu.Unlock()
}

// serveBuffer resolves pull requests against reduce intermediates and the
// local store, falling back to the spill tier: a demoted object is served
// straight off its chunk-aligned disk file (full or ranged pulls alike)
// without being rehydrated into memory. A freshly leased receiver (or a
// reduce parent) may ask for the object a moment before it exists here,
// so absence waits briefly for creation — unless this node saw the object
// deleted moments ago and is not fetching it back: a receiver leased
// before the deletion then hears "deleted" at once. A buffer is served
// under a pin, dropped when the pull is done, so a Delete racing the pull
// cannot recycle the array mid-send.
func (n *Node) serveBuffer(ctx context.Context, oid types.ObjectID) (transport.Payload, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Every lookup follows the capture of ch, so a creation between
		// them still wakes the wait below.
		n.mu.Lock()
		ch := n.storeChange
		out := n.intermediateLocked(oid)
		pinned := out != nil && out.TryRef()
		n.mu.Unlock()
		if pinned {
			return transport.Payload{Buf: out, Release: out.Unref}, nil
		}
		if buf, ok := n.store.Acquire(oid); ok {
			return transport.Payload{Buf: buf, Release: buf.Unref}, nil
		}
		if n.spill != nil {
			if f, size, err := n.spill.Open(oid); err == nil {
				return transport.Payload{File: f, Size: size, Release: func() { f.Close() }}, nil
			}
		}
		n.mu.Lock()
		_, pulling := n.pulls[oid]
		n.mu.Unlock()
		if !pulling && n.tombstonedSince(oid, time.Now().Add(-tombstoneTTL)) {
			return transport.Payload{}, types.ErrDeleted
		}
		if time.Now().After(deadline) {
			return transport.Payload{}, types.ErrNotFound
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return transport.Payload{}, ctx.Err()
		case <-time.After(time.Until(deadline)):
			return transport.Payload{}, types.ErrNotFound
		}
	}
}

// Close shuts the node down: all servers, connections and buffers are
// released. In-flight operations fail with ErrClosed.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	peers := make([]*wire.Client, 0, len(n.peers))
	for _, c := range n.peers {
		peers = append(peers, c)
	}
	n.peers = make(map[string]*wire.Client)
	execs := make([]*reduceExec, 0, len(n.execs))
	for _, e := range n.execs {
		execs = append(execs, e)
	}
	n.execs = make(map[execKey]*reduceExec)
	n.mu.Unlock()

	n.cancel()
	for _, e := range execs {
		e.cancel()
	}
	n.ln.Close()
	n.ctrlSrv.Close()
	n.dataSrv.Close()
	n.data.Close()
	n.shard.Close()
	for _, c := range peers {
		c.Close()
	}
	n.dir.Close()
	n.store.Close()
	if n.spill != nil {
		n.spill.Close() // files stay on disk for the next incarnation
	}
	n.wg.Wait()
	return nil
}

// chanListener adapts the connection mux to net.Listener.
type chanListener struct {
	addr net.Addr
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newChanListener(addr net.Addr) *chanListener {
	return &chanListener{addr: addr, ch: make(chan net.Conn), done: make(chan struct{})}
}

func (l *chanListener) deliver(c net.Conn) bool {
	select {
	case l.ch <- c:
		return true
	case <-l.done:
		return false
	}
}

// Accept implements net.Listener.
func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, types.ErrClosed
	}
}

// Close implements net.Listener.
func (l *chanListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Addr implements net.Listener.
func (l *chanListener) Addr() net.Addr { return l.addr }
