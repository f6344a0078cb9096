// Package directory implements Hoplite's object directory service (§3.2):
// a sharded table mapping each ObjectID to its size and the set of node
// locations holding a partial or complete copy. It supports synchronous
// (blocking) and asynchronous (push-notification) location queries, the
// atomic sender-acquisition protocol that drives receiver-driven broadcast
// (§3.4.1), fetch-dependency tracking for cycle avoidance (§3.5.1), and the
// small-object fast path that caches payloads < 64 KB inline (§3.2).
//
// Each shard is replicated across a group of servers (see replica.go): the
// primary resolves and applies mutations and forwards them to backups,
// which serve reads and Subscribe fan-out and promote themselves in
// succession order when the primary dies. Every mutation therefore flows
// through applyLocked, a deterministic state transition on the resolved
// op, so primaries and backups converge on the same state.
package directory

import (
	"context"
	"sync"
	"time"

	"hoplite/internal/types"
	"hoplite/internal/wire"
)

// entry is the directory record for one object.
type entry struct {
	size    int64
	inline  []byte // small-object fast path payload (nil if none)
	deleted bool
	// gen counts re-creations of the object: it is bumped whenever the
	// entry gains its first location after having none. A receiver whose
	// lease generation changes across a retry must discard its partial
	// bytes instead of resuming, because the object was re-produced (for
	// example a reduce root re-executed with a different source set).
	gen int64

	// prog is the authoritative progress of every node holding a copy.
	prog map[types.NodeID]types.Progress
	// leasedTo maps a holder to the single receiver it is currently
	// sending to. A holder is an eligible sender iff it is in prog and
	// not in leasedTo — this is the paper's "remove the location from the
	// directory while it serves one receiver" rule, which caps every node
	// at one downstream receiver per object.
	leasedTo map[types.NodeID]types.NodeID
	// deps maps a receiver to the upstream sender it is currently
	// fetching from; walking deps detects cycles when choosing a sender
	// for a restarted fetch (§3.5.1).
	deps map[types.NodeID]types.NodeID

	// waiters are closed on every mutation, waking blocked Acquire calls.
	waiters []chan struct{}
	// subs receive push notifications on every mutation.
	subs map[*wire.Peer]types.NodeID
}

func newEntry() *entry {
	return &entry{
		size:     types.SizeUnknown,
		prog:     make(map[types.NodeID]types.Progress),
		leasedTo: make(map[types.NodeID]types.NodeID),
		deps:     make(map[types.NodeID]types.NodeID),
		subs:     make(map[*wire.Peer]types.NodeID),
	}
}

func (e *entry) wake() {
	for _, ch := range e.waiters {
		close(ch)
	}
	e.waiters = nil
}

func (e *entry) snapshotLocs() []types.Location {
	locs := make([]types.Location, 0, len(e.prog))
	for n, p := range e.prog {
		locs = append(locs, types.Location{Node: n, Progress: p})
	}
	return locs
}

// Server hosts this node's directory shard replicas: for every replica
// group in Config.Groups containing Config.Self, one primary-or-backup
// replica. A zero-config server (NewServer) is the legacy standalone
// mode: one unreplicated shard accepting every op.
type Server struct {
	cfg Config

	mu      sync.Mutex
	entries map[types.ObjectID]*entry
	reps    map[int]*replica
	conns   map[string]*wire.Client
	closed  bool
	// cmap is the installed cluster map (Epoch 0 = membership disabled).
	// encodedMap caches its encoding for stale-epoch bounce payloads.
	cmap       types.ClusterMap
	encodedMap []byte
	// repairing tracks in-flight re-replication pulls (see membership.go).
	repairing map[repairKey]bool

	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// NewServer creates a standalone (unreplicated) shard server, the legacy
// single-shard mode. Call Handler to embed it into a control plane.
func NewServer() *Server {
	return NewReplicated(Config{})
}

// NewReplicated creates a server hosting a replica of every shard group
// in cfg.Groups that contains cfg.Self. Call Start after the control
// plane begins serving, and Close on shutdown.
func NewReplicated(cfg Config) *Server {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = DefaultLeaseTimeout
	}
	s := &Server{
		cfg:       cfg,
		entries:   make(map[types.ObjectID]*entry),
		reps:      make(map[int]*replica),
		conns:     make(map[string]*wire.Client),
		repairing: make(map[repairKey]bool),
		done:      make(chan struct{}),
	}
	if cfg.InitialMap != nil {
		s.cmap = cfg.InitialMap.Clone()
		s.encodedMap = types.EncodeClusterMap(nil, s.cmap)
	}
	for i, group := range cfg.Groups {
		selfIdx := -1
		for j, addr := range group {
			if addr == cfg.Self {
				selfIdx = j
				break
			}
		}
		if selfIdx < 0 {
			continue
		}
		r := &replica{
			shard:    i,
			group:    group,
			selfIdx:  selfIdx,
			lastBeat: time.Now(),
			pending:  make(map[int64]wire.Message),
			backups:  make(map[string]*backupState),
			dedupe:   make(map[dedupeKey]wire.Message),
		}
		for _, addr := range group {
			if addr != cfg.Self {
				r.backups[addr] = &backupState{lastSeq: -1}
			}
		}
		s.reps[i] = r
	}
	return s
}

// Close stops the replication loops and tears down replica connections.
func (s *Server) Close() {
	s.once.Do(func() { close(s.done) })
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]*wire.Client, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.conns = make(map[string]*wire.Client)
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// Handler returns the wire handler for this shard, for embedding into a
// node's control server.
func (s *Server) Handler() wire.Handler {
	return s.handle
}

func (s *Server) entryLocked(oid types.ObjectID) *entry {
	e, ok := s.entries[oid]
	if !ok {
		e = newEntry()
		s.entries[oid] = e
	}
	return e
}

// notifyLocked builds the notification sends for e's subscribers; the
// returned closure must be invoked after releasing s.mu so that a slow
// subscriber cannot stall the shard.
func (s *Server) notifyLocked(oid types.ObjectID, e *entry) func() {
	if len(e.subs) == 0 {
		return func() {}
	}
	msg := wire.Message{
		Method:  wire.MethodNotify,
		OID:     oid,
		Size:    e.size,
		Locs:    e.snapshotLocs(),
		Payload: e.inline,
	}
	if e.deleted {
		msg.SetError(types.ErrDeleted)
	}
	peers := make([]*wire.Peer, 0, len(e.subs))
	for p := range e.subs {
		peers = append(peers, p)
	}
	return func() {
		for _, p := range peers {
			_ = p.Notify(msg)
		}
	}
}

func (s *Server) handle(ctx context.Context, m wire.Message, p *wire.Peer) wire.Message {
	switch m.Method {
	case wire.MethodPing:
		return wire.Message{Method: wire.MethodPing}
	case wire.MethodAcquire:
		return s.acquire(ctx, m)
	case wire.MethodAcquireMany:
		return s.acquireMany(m)
	case wire.MethodLookup:
		return s.lookup(ctx, m)
	case wire.MethodSubscribe:
		return s.subscribe(m, p)
	case wire.MethodUnsubscribe:
		return s.unsubscribe(m, p)
	case wire.MethodReplicate:
		return s.replicate(m, p)
	case wire.MethodDirHeartbeat:
		return s.heartbeat(m, p)
	case wire.MethodDirSnapshot:
		return s.snapshot(m)
	case wire.MethodJoin, wire.MethodDrain:
		return s.membership(m)
	case wire.MethodMapPush:
		return s.mapPush(m)
	case wire.MethodMapGet:
		return s.mapGet()
	case wire.MethodStatus:
		return s.status(m)
	case wire.MethodPutStarted, wire.MethodPutComplete, wire.MethodPutInline,
		wire.MethodRelease, wire.MethodAbort, wire.MethodAbortDown,
		wire.MethodDelete, wire.MethodRemoveLoc, wire.MethodMarkSpilled,
		wire.MethodPurgeNode:
		return s.mutate(m)
	default:
		var resp wire.Message
		resp.Err = "directory: unknown method"
		return resp
	}
}

// shardOf returns the shard index a mutation targets: derived from the
// OID, except PurgeNode and Status (no OID) which carry it in Offset, and
// the membership ops, which always resolve on the membership shard. -1
// means standalone mode (no topology).
func (s *Server) shardOf(m *wire.Message) int {
	if len(s.cfg.Groups) == 0 {
		return -1
	}
	switch m.Method {
	case wire.MethodPurgeNode, wire.MethodStatus:
		return int(m.Offset)
	case wire.MethodJoin, wire.MethodDrain:
		return membershipShard
	}
	return s.shardOfOID(m.OID)
}

// admitLocked gates a mutation: the op must target a shard replica hosted
// here, the replica must be the in-sync primary, and a retried acquire
// (same client sequence number) short-circuits to its cached response.
// ok=false means resp is final.
func (s *Server) admitLocked(m *wire.Message) (rep *replica, resp wire.Message, ok bool) {
	if s.closed {
		resp.SetError(types.ErrClosed)
		return nil, resp, false
	}
	if s.cmap.Epoch > 0 && m.Epoch > 0 && m.Epoch < s.cmap.Epoch {
		// The caller derived its routing from an older map; refresh it
		// instead of executing against a topology it no longer sees.
		return nil, s.staleMapRespLocked(), false
	}
	shard := s.shardOf(m)
	if shard < 0 {
		return nil, wire.Message{}, true // standalone: wildcard primary
	}
	rep = s.reps[shard]
	if rep == nil {
		if s.cmap.Epoch > 0 {
			// Membership mode: the shard moved away from this server (or
			// never lived here). Hand the caller the current map so it can
			// re-derive the group, whatever epoch it stamped.
			return nil, s.staleMapRespLocked(), false
		}
		resp.Err = "directory: shard not hosted here"
		return nil, resp, false
	}
	if !rep.primary || rep.needSync {
		resp.SetError(types.ErrNotPrimary)
		resp.Node = types.NodeID(rep.primaryAddr) // best-effort successor hint
		return nil, resp, false
	}
	if m.Num2 > 0 {
		if cached, hit := rep.dedupe[dedupeKey{m.Node, m.Num2}]; hit {
			return nil, cached, false
		}
	}
	return rep, wire.Message{}, true
}

// readRedirectLocked gates reads: backups serve them from replicated
// state, but an out-of-sync replica (restarted, or mid-takeover) must
// bounce the reader to a replica with authoritative state, and a reader
// stamping an older map epoch gets the current map — its routing may
// place this shard on a different group entirely.
func (s *Server) readRedirectLocked(m *wire.Message) (wire.Message, bool) {
	if s.cmap.Epoch > 0 && m.Epoch > 0 && m.Epoch < s.cmap.Epoch {
		return s.staleMapRespLocked(), true
	}
	oid := m.OID
	shard := s.shardOfOID(oid)
	if shard < 0 {
		return wire.Message{}, false
	}
	var resp wire.Message
	rep := s.reps[shard]
	if rep == nil {
		if s.cmap.Epoch > 0 {
			return s.staleMapRespLocked(), true
		}
		resp.Err = "directory: shard not hosted here"
		return resp, true
	}
	if rep.needSync || (!rep.booted && !rep.primary) {
		// Out of sync, or the boot query hasn't yet established whether
		// the shard has history elsewhere (a joiner's empty replica must
		// not answer ErrNotFound for entries the incumbents hold).
		resp.SetError(types.ErrNotPrimary)
		resp.Node = types.NodeID(rep.primaryAddr)
		return resp, true
	}
	return wire.Message{}, false
}

// mutate is the common path for every non-acquire mutation: admit,
// apply, sequence + forward to backups, reply.
func (s *Server) mutate(m wire.Message) wire.Message {
	s.mu.Lock()
	rep, resp, ok := s.admitLocked(&m)
	if !ok {
		s.mu.Unlock()
		return resp
	}
	return s.applyUnlock(rep, m)
}

// applyUnlock applies a resolved op, sequences and forwards it to the
// backups when it changed state, and releases s.mu, which the caller
// holds.
func (s *Server) applyUnlock(rep *replica, op wire.Message) wire.Message {
	resp, mutated, notify := s.applyLocked(op)
	var fwd func() bool
	if mutated {
		fwd = s.commitLocked(rep, op, resp)
	}
	s.mu.Unlock()
	if fwd != nil && !fwd() {
		// Deposed mid-commit: the op exists only in this replica's
		// soon-to-be-wiped history. Bounce the client to the real primary
		// instead of acknowledging a write that will vanish.
		return s.deposedResp(rep)
	}
	if notify != nil {
		notify()
	}
	return resp
}

// applyLocked performs one resolved op's deterministic state transition
// and derives its response. It runs on the primary (between resolution
// and commit) and on backups (replicated op, log replay, or promotion),
// so it must not make choices — acquires arrive with the sender already
// chosen. mutated reports whether the op changed state (and therefore
// must be sequenced and forwarded).
func (s *Server) applyLocked(m wire.Message) (resp wire.Message, mutated bool, notify func()) {
	switch m.Method {
	case wire.MethodPutStarted:
		e := s.entryLocked(m.OID)
		if e.deleted {
			// A Put after Delete recreates the object (task re-execution).
			e.deleted = false
			e.inline = nil
		}
		if m.Gen != 0 {
			// A re-creation in place (a restarted reduce root, §3.5.2): every
			// other copy and lease belongs to the superseded generation. A
			// call that finds any drops them all and returns them, without
			// registering the caller, so none is leased out while the
			// caller evicts the copies; its next call registers it.
			for node, p := range e.prog {
				if node != m.Node {
					resp.Locs = append(resp.Locs, types.Location{Node: node, Progress: p})
				}
			}
			clear(e.prog)
			clear(e.leasedTo)
			clear(e.deps)
			if len(resp.Locs) > 0 {
				e.wake()
				return resp, true, s.notifyLocked(m.OID, e)
			}
		}
		if len(e.prog) == 0 {
			e.gen++
		}
		e.size = m.Size
		if _, ok := e.prog[m.Node]; !ok {
			e.prog[m.Node] = types.ProgressPartial
		}
		if m.Complete {
			e.prog[m.Node] = types.ProgressComplete
		}
		e.wake()
		return resp, true, s.notifyLocked(m.OID, e)

	case wire.MethodPutComplete:
		e := s.entryLocked(m.OID)
		if e.deleted {
			resp.SetError(types.ErrDeleted)
			return resp, false, nil
		}
		if _, held := e.prog[m.Node]; !held {
			// The location went with a re-creation (or a purge): the copy
			// may be of a superseded generation, and its holder drops it.
			resp.SetError(types.ErrAborted)
			return resp, false, nil
		}
		e.prog[m.Node] = types.ProgressComplete
		e.wake()
		return resp, true, s.notifyLocked(m.OID, e)

	case wire.MethodPutInline:
		e := s.entryLocked(m.OID)
		e.deleted = false
		e.inline = append([]byte(nil), m.Payload...)
		e.size = int64(len(e.inline))
		e.wake()
		return resp, true, s.notifyLocked(m.OID, e)

	case wire.MethodAcquire, wire.MethodAcquireMany:
		e := s.entryLocked(m.OID)
		resp.Size = e.size
		resp.Gen = e.gen
		switch {
		case m.Complete:
			// Inline delivery resolved by the primary (no sender chosen):
			// the receiver materializes a complete copy from the payload
			// riding the reply, so register it like any other holder. A
			// later Delete's snapshot then includes this receiver and the
			// eviction fan-out reaches the copy — an inline reply can no
			// longer resurrect a deleted object.
			e.prog[m.Node] = types.ProgressComplete
			resp.Payload = e.inline
		case m.Method == wire.MethodAcquire:
			// m.Sender carries the sender chosen by the primary's resolution.
			e.leasedTo[m.Sender] = m.Node
			e.deps[m.Node] = m.Sender
			resp.Sender = m.Sender
		default:
			// m.Locs carries the leases chosen by the primary's resolution.
			for _, l := range m.Locs {
				e.leasedTo[l.Node] = m.Node
			}
			resp.Locs = m.Locs
		}
		if _, held := e.prog[m.Node]; !held {
			e.prog[m.Node] = types.ProgressPartial
		}
		if m.Complete || m.Method == wire.MethodAcquireMany {
			e.wake()
		}
		return resp, true, s.notifyLocked(m.OID, e)

	case wire.MethodRelease:
		e := s.entryLocked(m.OID)
		if e.leasedTo[m.Sender] == m.Node {
			delete(e.leasedTo, m.Sender)
			if m.Complete {
				e.prog[m.Node] = types.ProgressComplete
			}
		} else if m.Complete {
			// A Delete or a re-creation took the lease: the record no
			// longer lists the copy's generation, and its holder drops it.
			resp.SetError(types.ErrAborted)
		}
		delete(e.deps, m.Node)
		e.wake()
		return resp, true, s.notifyLocked(m.OID, e)

	case wire.MethodAbort:
		// A failed transfer: the lease is returned and, when m.Complete is
		// set (meaning "the sender is dead"), the sender's location is
		// dropped. The receiver keeps its partial copy and will re-acquire,
		// resuming from its watermark (§3.5.1).
		e, ok := s.entries[m.OID]
		if !ok {
			return resp, false, nil // nothing leased or located to drop
		}
		if e.leasedTo[m.Sender] == m.Node {
			delete(e.leasedTo, m.Sender)
			// Only a live lease vouches for the report: once a re-creation
			// dropped it, the sender may already hold the new generation.
			if m.Complete {
				delete(e.prog, m.Sender)
			}
		}
		delete(e.deps, m.Node)
		e.wake()
		return resp, true, s.notifyLocked(m.OID, e)

	case wire.MethodAbortDown:
		// Sender-side failure report: the sender (m.Sender) observed its
		// receiver's (m.Node) socket die mid-transfer. The lease is
		// returned and the receiver's (possibly stale) partial location
		// dropped; a live receiver that merely lost the connection
		// re-registers itself on its next acquire. A reduce intermediate
		// is served without a lease and never had an entry.
		e, ok := s.entries[m.OID]
		if !ok {
			return resp, false, nil
		}
		if e.leasedTo[m.Sender] == m.Node {
			delete(e.leasedTo, m.Sender)
		}
		delete(e.deps, m.Node)
		if e.prog[m.Node] == types.ProgressPartial {
			delete(e.prog, m.Node)
		}
		e.wake()
		return resp, true, s.notifyLocked(m.OID, e)

	case wire.MethodDelete:
		e := s.entryLocked(m.OID)
		resp.Locs = e.snapshotLocs()
		e.deleted = true
		e.inline = nil
		e.prog = make(map[types.NodeID]types.Progress)
		e.leasedTo = make(map[types.NodeID]types.NodeID)
		e.deps = make(map[types.NodeID]types.NodeID)
		e.wake()
		return resp, true, s.notifyLocked(m.OID, e)

	case wire.MethodRemoveLoc:
		e, ok := s.entries[m.OID]
		if !ok {
			return resp, false, nil
		}
		delete(e.prog, m.Node)
		e.wake()
		return resp, true, s.notifyLocked(m.OID, e)

	case wire.MethodMarkSpilled:
		// Register m.Node's location as disk-backed. Two callers: a node
		// that just demoted its in-memory copy to the spill tier, and a
		// restarted node re-offering the objects found in its spill
		// directory, with m.Size carrying the size learned from the file.
		// Marking a tombstoned object returns ErrDeleted, which the caller
		// uses to discard the stale spill file.
		e := s.entryLocked(m.OID)
		if e.deleted {
			resp.SetError(types.ErrDeleted)
			return resp, false, nil
		}
		if len(e.prog) == 0 {
			// First location after none — same re-creation accounting as
			// PutStarted (the restart-rediscovery path): receivers
			// mid-retry must not resume partial bytes from a previous
			// generation.
			e.gen++
		}
		if e.size == types.SizeUnknown && m.Size >= 0 {
			e.size = m.Size
		}
		e.prog[m.Node] = types.ProgressSpilled
		e.wake()
		return resp, true, s.notifyLocked(m.OID, e)

	case wire.MethodPurgeNode:
		return s.applyPurgeLocked(m)

	case wire.MethodMapPush:
		// The replicated membership op: the membership primary resolved a
		// transition and ships the whole resulting map through the shard's
		// op log, so backups (and promoted successors replaying the tail)
		// install exactly the state the primary acknowledged.
		next, err := types.DecodeClusterMap(m.Payload)
		if err != nil {
			resp.SetError(err)
			return resp, false, nil
		}
		after := s.installMapLocked(next)
		resp.Epoch = s.cmap.Epoch
		// Carry the resulting map in the response: it is cached for retry
		// dedupe, and a client retrying the transition against a promoted
		// successor expects the map payload the original primary would have
		// answered with — an empty replay fails its decode.
		resp.Payload = append([]byte(nil), m.Payload...)
		return resp, true, func() {
			for _, fn := range after {
				fn()
			}
		}

	default:
		resp.Err = "directory: unknown replicated op"
		return resp, false, nil
	}
}

// applyPurgeLocked drops every location and lease involving a failed node
// across the targeted shard's entries.
func (s *Server) applyPurgeLocked(m wire.Message) (wire.Message, bool, func()) {
	node := m.Node
	shard := s.shardOf(&m)
	var notifies []func()
	for oid, e := range s.entries {
		if shard >= 0 && s.shardOfOID(oid) != shard {
			continue
		}
		touched := false
		if _, ok := e.prog[node]; ok {
			delete(e.prog, node)
			touched = true
		}
		if _, ok := e.leasedTo[node]; ok {
			delete(e.leasedTo, node)
			touched = true
		}
		// Leases the failed node held as a receiver. Multi-sender acquires
		// record no deps entry (see MethodAcquireMany), so the deps lookup
		// below cannot find them: scan by receiver instead, or a getter
		// that died between its striped acquire and its release pins the
		// sender busy forever and later blocking acquires park on it.
		for sender, recv := range e.leasedTo {
			if recv == node {
				delete(e.leasedTo, sender)
				touched = true
			}
		}
		if _, ok := e.deps[node]; ok {
			// The scan above returned the lease it was fetching under.
			delete(e.deps, node)
			touched = true
		}
		for recv, up := range e.deps {
			if up == node {
				delete(e.deps, recv)
			}
		}
		if touched {
			e.wake()
			notifies = append(notifies, s.notifyLocked(oid, e))
		}
	}
	return wire.Message{}, true, func() {
		for _, fn := range notifies {
			fn()
		}
	}
}

// cyclicLocked reports whether candidate's fetch-dependency chain reaches
// receiver, which would create a cyclic object transfer.
func cyclicLocked(e *entry, candidate, receiver types.NodeID) bool {
	cur := candidate
	for i := 0; i <= len(e.deps); i++ {
		up, ok := e.deps[cur]
		if !ok {
			return false
		}
		if up == receiver {
			return true
		}
		cur = up
	}
	return true // defensive: treat unexpected longer chains as cyclic
}

// pickLocked selects an eligible sender for receiver, ranking in-memory
// complete copies over spilled (disk-backed, still whole) ones over
// partial ones (§3.4.1 extended with the spill tier): a memory sender
// streams at memory bandwidth, a spilled sender at disk bandwidth, and a
// partial sender only up to its watermark.
func pickLocked(e *entry, receiver types.NodeID) (types.NodeID, bool) {
	var best types.NodeID
	bestRank := 0 // 1 = partial, 2 = spilled, 3 = complete in memory
	for n, prog := range e.prog {
		if n == receiver {
			continue
		}
		if _, leased := e.leasedTo[n]; leased {
			continue
		}
		if cyclicLocked(e, n, receiver) {
			continue
		}
		rank := 1
		switch prog {
		case types.ProgressComplete:
			rank = 3
		case types.ProgressSpilled:
			rank = 2
		}
		if rank == 3 {
			return n, true
		}
		if rank > bestRank {
			best, bestRank = n, rank
		}
	}
	return best, bestRank > 0
}

// acquire resolves a sender for the receiver and commits the lease: the
// only blocking mutation. Each pass through the loop re-admits, so a
// replica that loses primaryship while calls are parked bounces them to
// the successor instead of leaving them waiting forever.
func (s *Server) acquire(ctx context.Context, m wire.Message) wire.Message {
	receiver := m.Node
	for {
		s.mu.Lock()
		rep, resp, ok := s.admitLocked(&m)
		if !ok {
			s.mu.Unlock()
			return resp
		}
		e := s.entryLocked(m.OID)
		switch {
		case e.deleted:
			resp.SetError(types.ErrDeleted)
			s.mu.Unlock()
			return resp
		case e.inline != nil:
			// Inline fast path: deliver the payload in the reply AND commit
			// the receiver as a complete-copy holder (replicated op, so the
			// registration survives failover and Delete's fan-out covers the
			// copy this response materializes).
			return s.applyUnlock(rep, inlineOp(m))
		default:
			if sender, ok := pickLocked(e, receiver); ok {
				op := m
				op.Sender = sender
				return s.applyUnlock(rep, op)
			}
		}
		if !m.Wait {
			resp.SetError(noSender(e))
			s.mu.Unlock()
			return resp
		}
		ch := make(chan struct{})
		e.waiters = append(e.waiters, ch)
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			var resp wire.Message
			resp.SetError(ctx.Err())
			return resp
		}
	}
}

// acquireMany resolves up to m.Num eligible senders holding whole copies —
// complete in memory or spilled to disk — and commits the leases in one
// atomic step, for a striped pull that drains disjoint ranges from every
// copy concurrently. In-memory copies are leased first; disk-backed
// senders fill the remaining slots. Unlike acquire it never blocks: with
// no eligible whole copy the receiver falls back to the single-sender
// (possibly partial, possibly waiting) path. Whole-copy holders never
// fetch, so multi-leases cannot create fetch cycles and no deps entries
// are recorded; each lease is returned individually through the existing
// Release/Abort methods.
func (s *Server) acquireMany(m wire.Message) wire.Message {
	receiver := m.Node
	want := int(m.Num)
	if want < 1 {
		want = 1
	}
	s.mu.Lock()
	rep, resp, ok := s.admitLocked(&m)
	if !ok {
		s.mu.Unlock()
		return resp
	}
	e := s.entryLocked(m.OID)
	switch {
	case e.deleted:
		resp.SetError(types.ErrDeleted)
		s.mu.Unlock()
		return resp
	case e.inline != nil:
		// Inline fast path: same replicated receiver registration as the
		// single-sender acquire above.
		return s.applyUnlock(rep, inlineOp(m))
	}
	var memory, disk []types.NodeID
	for node, prog := range e.prog {
		if node == receiver || !prog.HasAll() {
			continue
		}
		if _, busy := e.leasedTo[node]; busy {
			continue
		}
		if prog == types.ProgressComplete {
			memory = append(memory, node)
		} else {
			disk = append(disk, node)
		}
	}
	var leased []types.Location
	for _, tier := range [2][]types.NodeID{memory, disk} {
		for _, node := range tier {
			if len(leased) == want {
				break
			}
			leased = append(leased, types.Location{Node: node, Progress: e.prog[node]})
		}
	}
	if len(leased) == 0 {
		resp.SetError(noSender(e))
		s.mu.Unlock()
		return resp
	}
	op := m
	op.Locs = leased
	return s.applyUnlock(rep, op)
}

// inlineOp marks an acquire as an inline delivery: no sender is chosen.
func inlineOp(m wire.Message) wire.Message {
	m.Complete = true
	m.Sender = ""
	m.Locs = nil
	return m
}

// noSender is why an acquire that may not wait found no sender.
func noSender(e *entry) error {
	if len(e.prog) == 0 {
		return types.ErrNotFound
	}
	return types.ErrNoSender
}

func (s *Server) lookup(ctx context.Context, m wire.Message) wire.Message {
	for {
		s.mu.Lock()
		if redirect, ok := s.readRedirectLocked(&m); ok {
			s.mu.Unlock()
			return redirect
		}
		e := s.entryLocked(m.OID)
		var resp wire.Message
		if e.deleted {
			resp.SetError(types.ErrDeleted)
			s.mu.Unlock()
			return resp
		}
		if e.inline != nil {
			resp.Payload = e.inline
			resp.Size = e.size
			s.mu.Unlock()
			return resp
		}
		if len(e.prog) > 0 || !m.Wait {
			resp.Size = e.size
			resp.Locs = e.snapshotLocs()
			if len(e.prog) == 0 {
				resp.SetError(types.ErrNotFound)
			}
			s.mu.Unlock()
			return resp
		}
		ch := make(chan struct{})
		e.waiters = append(e.waiters, ch)
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			var resp wire.Message
			resp.SetError(ctx.Err())
			return resp
		}
	}
}

func (s *Server) subscribe(m wire.Message, p *wire.Peer) wire.Message {
	s.mu.Lock()
	if redirect, ok := s.readRedirectLocked(&m); ok {
		s.mu.Unlock()
		return redirect
	}
	e := s.entryLocked(m.OID)
	e.subs[p] = m.Node
	var resp wire.Message
	resp.Size = e.size
	resp.Locs = e.snapshotLocs()
	resp.Payload = e.inline
	if e.deleted {
		resp.SetError(types.ErrDeleted)
	}
	s.mu.Unlock()
	oid := m.OID
	p.OnClose(func() {
		s.mu.Lock()
		if e, ok := s.entries[oid]; ok {
			delete(e.subs, p)
		}
		s.mu.Unlock()
	})
	return resp
}

func (s *Server) unsubscribe(m wire.Message, p *wire.Peer) wire.Message {
	s.mu.Lock()
	if e, ok := s.entries[m.OID]; ok {
		delete(e.subs, p)
	}
	s.mu.Unlock()
	return wire.Message{}
}

// Stats reports shard-level counters, used by tests and the CLI.
type Stats struct {
	Objects int
	Inline  int
	// Leases counts senders currently leased to a receiver in the shards
	// this server hosts (a replica rotated out of its group leaves stale
	// entries behind; they are not counted). Once transfers quiesce it
	// must return to 0: every granted lease is returned exactly once.
	Leases int
}

// Stats returns current shard statistics.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Objects: len(s.entries)}
	for oid, e := range s.entries {
		if e.inline != nil {
			st.Inline++
		}
		if sh := s.shardOfOID(oid); sh < 0 || s.reps[sh] != nil {
			st.Leases += len(e.leasedTo)
		}
	}
	return st
}

// Primary reports whether this server currently acts as the primary for
// the given shard (always true in standalone mode); used by tests and
// tools.
func (s *Server) Primary(shard int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cfg.Groups) == 0 {
		return true
	}
	r := s.reps[shard]
	return r != nil && r.primary
}

// ShardSeq returns the replica's (epoch, applied sequence) for a shard;
// used by tests.
func (s *Server) ShardSeq(shard int) (epoch, seq int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.reps[shard]; r != nil {
		return r.epoch, r.seq
	}
	return 0, 0
}
