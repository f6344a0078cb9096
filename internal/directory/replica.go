// Shard replication: each directory shard is hosted by a group of R
// replicas in a fixed succession order. The primary applies every
// mutation, assigns it a per-shard sequence number, and forwards the
// resolved op to every live backup at once (MethodReplicate), replying to
// the client once all have answered. Backups apply ops in sequence order
// (buffering a bounded out-of-order tail), serve reads and Subscribe
// fan-out from the replicated state, and monitor the primary through a
// lease heartbeat (MethodDirHeartbeat) plus the replication connection's
// OnClose. When the lease expires, the live replica with the best (epoch,
// seq) promotes itself, the group index breaking ties: it bumps the
// succession epoch, replays its buffered log tail, and takes over
// mutations. A replica that falls behind — or restarts empty — is caught
// by the heartbeat exchange and re-synced with a full shard snapshot push
// (MethodDirSnapshot).
//
// The scheme trades consensus for the paper's socket-liveness failure
// model (§5.5): forwarding is synchronous, so an op acknowledged to a
// client is on every reachable backup, and the client-side retry dedupe
// (per-client op sequence numbers, see client.go) makes a retried Acquire
// land on the committed lease instead of taking a second one. Ops in
// flight at the instant the primary dies can be lost; every directory op
// is either idempotent or (for acquires) deduped, and the data plane's
// abort/re-acquire machinery self-heals a lost lease.

package directory

import (
	"context"
	"encoding/binary"
	"errors"
	"sort"
	"time"

	"hoplite/internal/types"
	"hoplite/internal/wire"
)

// Replication timing defaults: the primary heartbeats each backup every
// HeartbeatInterval; a backup whose lease has been silent for LeaseTimeout
// queries its group and promotes itself if no live peer leads or beats it.
const (
	DefaultHeartbeatInterval = 50 * time.Millisecond
	DefaultLeaseTimeout      = 300 * time.Millisecond
)

const (
	// maxPendingOps bounds a backup's out-of-order log tail; overflowing
	// it marks the replica out of sync, which the next heartbeat repairs
	// with a snapshot.
	maxPendingOps = 4096
	// maxDedupeOps bounds the per-shard retried-acquire response cache.
	maxDedupeOps = 4096
	// snapshotChunk is the soft payload bound of one DirSnapshot frame.
	snapshotChunk = 2 << 20
	// forwardTimeout bounds one replication, heartbeat or query round.
	forwardTimeout = 2 * time.Second
)

// Config configures a replicated shard server. The zero value is the
// legacy standalone mode: a single unreplicated server that accepts every
// op (used by tests and single-node deployments).
type Config struct {
	// Self is this server's control address, as it appears in Groups.
	Self string
	// Groups lists every shard's replica addresses in succession order:
	// Groups[i][0] is shard i's initial primary; on failure the live
	// replica with the best (epoch, seq) takes over, index breaking ties.
	// The server hosts a replica of every group containing Self.
	Groups [][]string
	// Dial connects to peer replicas for replication, heartbeats and
	// promotion probes. Required when Groups is set.
	Dial Dialer
	// HeartbeatInterval and LeaseTimeout override the replication timing
	// defaults (tests use tighter values).
	HeartbeatInterval time.Duration
	LeaseTimeout      time.Duration
	// InitialMap, when set, enables epoch-versioned membership: Groups
	// should be the map's DeriveGroups result, stamped requests are
	// epoch-checked, and membership transitions (join/drain/remove) are
	// resolved by the membership shard's primary. Nil keeps the legacy
	// fixed-topology behavior (epoch 0 everywhere, no checks).
	InitialMap *types.ClusterMap
	// RepairInterval is the re-replication scanner period (see
	// membership.go). 0 uses DefaultRepairInterval; negative disables the
	// scanner. The scanner only runs when membership is enabled and the
	// map's ObjectRF is positive.
	RepairInterval time.Duration
	// OnMap, if non-nil, runs (outside the server lock) after a newer
	// cluster map is installed — the node embedding this server uses it to
	// re-point its directory client and propagate the map.
	OnMap func(types.ClusterMap)
}

// dedupeKey identifies one client-side acquire attempt: retries reuse the
// sequence number, so a lease granted by a primary that died before its
// response reached the client is returned — not granted twice — by the
// promoted backup.
type dedupeKey struct {
	client types.NodeID
	seq    int64
}

// backupState is the primary's view of one backup replica.
type backupState struct {
	down    bool  // last forward or heartbeat failed; skip until it answers
	lastSeq int64 // seq the backup reported at the previous heartbeat
	beatSeq int64 // seq the primary had applied when it sent that heartbeat
	waiting bool  // backup reported needSync at the previous heartbeat
}

// replica is one hosted shard replica. All fields are guarded by the
// server mutex.
type replica struct {
	shard   int
	group   []string
	selfIdx int

	primary     bool
	retiring    bool       // primary rotated out of the group by a map change: serve as lame duck until a successor is caught up
	primaryAddr string     // believed current primary ("" when unknown)
	primaryPeer *wire.Peer // connection the current primary talks over
	epoch       int64      // succession epoch, bumped on every promotion
	seq         int64      // last applied shard op sequence number
	needSync    bool       // state may diverge from the primary; serve nothing until re-synced
	booted      bool       // bootQuery finished; promotion is allowed
	installing  bool       // a snapshot push is mid-install; buffer replicated ops
	lastBeat    time.Time

	pending map[int64]wire.Message // out-of-order replicated ops (the log tail)
	backups map[string]*backupState
	dedupe  map[dedupeKey]wire.Message
	dedupeQ []dedupeKey
	// installTouched accumulates the entries replaced across a
	// multi-chunk snapshot install, so the final chunk wakes and
	// notifies all of them — not just its own.
	installTouched map[types.ObjectID]bool
}

func (r *replica) cacheLocked(key dedupeKey, resp wire.Message) {
	if _, ok := r.dedupe[key]; ok {
		return
	}
	if len(r.dedupeQ) >= maxDedupeOps {
		delete(r.dedupe, r.dedupeQ[0])
		r.dedupeQ = r.dedupeQ[1:]
	}
	r.dedupe[key] = resp
	r.dedupeQ = append(r.dedupeQ, key)
}

// better reports whether primacy claim a=(epoch, seq, groupIdx) beats b.
// Higher epoch wins; within an epoch the replica with more applied ops
// wins (it loses less state), and the earlier group index breaks ties.
func better(aEpoch, aSeq int64, aIdx int, bEpoch, bSeq int64, bIdx int) bool {
	if aEpoch != bEpoch {
		return aEpoch > bEpoch
	}
	if aSeq != bSeq {
		return aSeq > bSeq
	}
	return aIdx < bIdx
}

func (r *replica) indexOf(addr string) int {
	for i, a := range r.group {
		if a == addr {
			return i
		}
	}
	return len(r.group)
}

// hasPeers reports whether the replica's group names anyone besides self.
// A retiring primary's group excludes self entirely, so the heartbeat loop
// cannot use len(group) > 1 to decide whether there is anyone to beat.
func (r *replica) hasPeers(self string) bool {
	for _, a := range r.group {
		if a != self {
			return true
		}
	}
	return false
}

// Start launches the replication goroutines: a boot-time state query (so
// a restarted replica rejoins as a backup instead of split-braining the
// shard), the primary heartbeat loop, the backup promotion monitor, and —
// when membership is enabled — the re-replication scanner. With membership
// on, the loops run even when this server hosts no replica yet: map
// installs create replicas dynamically and the per-tick scans pick them
// up. It is a no-op for a standalone server.
func (s *Server) Start() {
	s.mu.Lock()
	reps := make([]*replica, 0, len(s.reps))
	for _, r := range s.reps {
		reps = append(reps, r)
	}
	membership := s.cmap.Epoch > 0
	repair := membership && s.cfg.RepairInterval >= 0
	interval := s.cfg.RepairInterval
	if interval == 0 {
		interval = DefaultRepairInterval
	}
	s.mu.Unlock()
	if len(reps) == 0 && !membership {
		return
	}
	if len(reps) > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for _, r := range reps {
				s.bootQuery(r)
			}
		}()
	}
	s.wg.Add(2)
	go func() { defer s.wg.Done(); s.heartbeatLoop() }()
	go func() { defer s.wg.Done(); s.monitorLoop() }()
	if repair {
		s.wg.Add(1)
		go func() { defer s.wg.Done(); s.repairLoop(interval) }()
	}
}

// bootQuery asks the other replicas of r's group for their view of the
// shard before this replica assumes any role. A fresh cluster finds no
// higher epoch anywhere and lets group index 0 take primaryship; a
// restarted replica finds the current epoch (or a peer with more applied
// ops) and rejoins as an out-of-sync backup that the primary re-syncs.
func (s *Server) bootQuery(r *replica) {
	s.mu.Lock()
	peers := s.peersLocked(r, false, nil)
	// Num -1 makes the heartbeat a state query, not a primacy claim.
	query := wire.Message{Method: wire.MethodDirHeartbeat, Offset: int64(r.shard), Num: -1}
	s.mu.Unlock()
	var bestEpoch, bestSeq int64
	bestPrimary := ""
	for _, p := range s.fanOut(peers, query) {
		resp := p.resp // zero for a peer that did not answer: it counts for nothing
		if resp.Gen > bestEpoch {
			bestEpoch = resp.Gen
			bestPrimary = string(resp.Node)
		}
		if resp.Num > bestSeq {
			bestSeq = resp.Num
		}
		if resp.Complete { // the peer is primary right now
			bestPrimary = p.addr
			if resp.Gen >= bestEpoch {
				bestEpoch = resp.Gen
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r.booted = true // promotion checks may run from here on
	if s.closed || r.primary {
		return
	}
	if bestEpoch > r.epoch {
		r.epoch = bestEpoch
	}
	if bestPrimary != "" && bestPrimary != s.cfg.Self {
		r.primaryAddr = bestPrimary
	}
	if bestEpoch > 0 || bestSeq > r.seq {
		// The shard has history this replica does not: stay a backup and
		// wait for the snapshot push.
		r.needSync = true
		r.lastBeat = time.Now()
		return
	}
	if r.selfIdx == 0 {
		// Fresh shard, and this replica heads the succession order.
		s.runAfterUnlock(s.promoteLocked(r))
	} else {
		r.lastBeat = time.Now()
	}
}

// runAfterUnlock schedules deferred notify closures; callers must hold
// s.mu and arrange for fns to run after releasing it. With the deferred
// Unlock idiom used here a goroutine keeps the call sites simple.
func (s *Server) runAfterUnlock(fns []func()) {
	if len(fns) == 0 {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for _, fn := range fns {
			fn()
		}
	}()
}

// promoteLocked makes r the shard primary: bump the succession epoch
// (callers first raise r.epoch to the highest epoch they saw), replay the
// buffered log tail in sequence order (this is the committed suffix the
// dead primary forwarded before dying), and wake every blocked call so it
// re-evaluates against the new role. It returns the notify
// closures produced by the replay, to run outside the lock.
func (s *Server) promoteLocked(r *replica) []func() {
	r.primary = true
	r.primaryAddr = s.cfg.Self
	r.primaryPeer = nil
	r.epoch++
	r.needSync = false
	var notifies []func()
	if len(r.pending) > 0 {
		seqs := make([]int64, 0, len(r.pending))
		for q := range r.pending {
			seqs = append(seqs, q)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, q := range seqs {
			if fn := s.applyOpLocked(r, q, r.pending[q]); fn != nil {
				notifies = append(notifies, fn)
			}
		}
		r.pending = make(map[int64]wire.Message)
	}
	for _, b := range r.backups {
		b.down = false
		b.lastSeq = -1
	}
	s.wakeShardLocked(r.shard)
	return notifies
}

// stepDownLocked demotes a (possibly former-primary) replica: the winner
// of a primacy conflict or a higher epoch was observed elsewhere. The
// replica re-syncs before serving anything again.
func (s *Server) stepDownLocked(r *replica, epoch int64, primaryAddr string) {
	r.primary = false
	if epoch > r.epoch {
		r.epoch = epoch
	}
	if primaryAddr != "" {
		r.primaryAddr = primaryAddr
	}
	r.needSync = true
	// Our dedupe cache may hold responses for ops that never reached the
	// new primary's history (a commit aborted mid-forward); cacheLocked
	// never overwrites, so stale entries would permanently shadow the
	// committed responses the resync snapshot carries. Drop everything —
	// the snapshot reinstalls the authoritative cache.
	r.dedupe = make(map[dedupeKey]wire.Message)
	r.dedupeQ = nil
	r.lastBeat = time.Now()
	s.wakeShardLocked(r.shard)
}

// wakeShardLocked wakes every blocked call on the shard's entries so it
// re-checks the replica's role (blocked acquires on a demoted primary
// must bounce to the new one instead of waiting forever).
func (s *Server) wakeShardLocked(shard int) {
	for oid, e := range s.entries {
		if s.shardOfOID(oid) == shard {
			e.wake()
		}
	}
}

func (s *Server) shardOfOID(oid types.ObjectID) int {
	if len(s.cfg.Groups) == 0 {
		return -1
	}
	return oid.Shard(len(s.cfg.Groups))
}

// conn returns a cached replication connection to a peer replica.
func (s *Server) conn(addr string) (*wire.Client, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, types.ErrClosed
	}
	if c, ok := s.conns[addr]; ok {
		s.mu.Unlock()
		return c, nil
	}
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), forwardTimeout)
	nc, err := s.cfg.Dial(ctx, addr)
	cancel()
	if err != nil {
		return nil, err
	}
	c := wire.NewClient(nc, nil)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.Close()
		return nil, types.ErrClosed
	}
	if existing, ok := s.conns[addr]; ok {
		s.mu.Unlock()
		c.Close()
		return existing, nil
	}
	s.conns[addr] = c
	s.mu.Unlock()
	return c, nil
}

func (s *Server) dropConn(addr string, c *wire.Client) {
	s.mu.Lock()
	if s.conns[addr] == c {
		delete(s.conns, addr)
	}
	s.mu.Unlock()
	c.Close()
}

// callReplica performs one replication-plane call to a peer, bounded by
// forwardTimeout (see callReplicaTimeout).
func (s *Server) callReplica(addr string, m wire.Message) (wire.Message, error) {
	return s.callReplicaTimeout(addr, m, forwardTimeout)
}

// groupReply is one peer's part in a fan-out to a replica group.
type groupReply struct {
	addr string
	idx  int // the peer's index in the group when it was snapshotted
	c    *wire.Client
	call wire.Pending
	resp wire.Message
	err  error
}

// peersLocked appends to dst the members of r's group other than self, in
// group order; live leaves out backups marked down. installMapLocked
// replaces r.group under s.mu, so callers hold it.
func (s *Server) peersLocked(r *replica, live bool, dst []groupReply) []groupReply {
	for i, addr := range r.group {
		if b := r.backups[addr]; addr == s.cfg.Self || live && b != nil && b.down {
			continue
		}
		dst = append(dst, groupReply{addr: addr, idx: i})
	}
	return dst
}

// fanOut sends m to every peer at once and then waits for all of them
// under one forwardTimeout, so a group round costs one round trip rather
// than one per peer. Each peer's answer or error lands in its reply, in
// group order; a failed peer's cached connection is dropped.
func (s *Server) fanOut(peers []groupReply, m wire.Message) []groupReply {
	for i := range peers {
		p := &peers[i]
		if p.c, p.err = s.conn(p.addr); p.err == nil {
			p.call = p.c.Go(m)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), forwardTimeout)
	defer cancel()
	for i := range peers {
		p := &peers[i]
		if p.err != nil {
			continue
		}
		if p.resp, p.err = p.call.Wait(ctx); p.err != nil {
			s.dropConn(p.addr, p.c)
		}
	}
	return peers
}

// commitLocked sequences a freshly applied op and returns the closure
// that forwards it to every live backup at once and waits until all have
// answered; the caller runs the closure after releasing s.mu and before
// replying, so an acknowledged op is on every reachable backup. The
// closure reports whether this replica remained primary through the
// forwards — a false return means a backup exposed a higher epoch and the
// op lives only in this deposed replica's history (about to be wiped by
// resync), so the caller must answer ErrNotPrimary and let the client
// retry against the real primary instead of acknowledging a write that
// will vanish. rep is nil in standalone mode.
func (s *Server) commitLocked(rep *replica, op wire.Message, resp wire.Message) func() bool {
	if rep == nil {
		return nil
	}
	rep.seq++
	if op.Num2 > 0 {
		rep.cacheLocked(dedupeKey{op.Node, op.Num2}, resp)
	}
	if !rep.hasPeers(s.cfg.Self) {
		return nil
	}
	payload, err := wire.AppendMessage(nil, &op)
	if err != nil {
		return nil
	}
	epoch, seq := rep.epoch, rep.seq
	return func() bool {
		var buf [4]groupReply // R <= 5 fans out without a heap allocation
		s.mu.Lock()
		peers := s.peersLocked(rep, true, buf[:0])
		s.mu.Unlock()
		s.fanOut(peers, wire.Message{
			Method:   wire.MethodReplicate,
			Offset:   int64(rep.shard),
			Gen:      epoch,
			Num:      seq,
			Node:     types.NodeID(s.cfg.Self),
			Complete: true,
			Payload:  payload,
		})
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, p := range peers {
			switch {
			case p.err != nil:
				if b := rep.backups[p.addr]; b != nil {
					b.down = true // heartbeat re-admits and re-syncs it
				}
			case !rep.primary:
				return false
			case p.resp.Gen > rep.epoch:
				s.stepDownLocked(rep, p.resp.Gen, string(p.resp.Node))
				return false
			}
		}
		return true
	}
}

// deposedResp builds the ErrNotPrimary bounce returned when a commit
// discovered mid-forward that this replica was deposed.
func (s *Server) deposedResp(rep *replica) wire.Message {
	var resp wire.Message
	resp.SetError(types.ErrNotPrimary)
	s.mu.Lock()
	resp.Node = types.NodeID(rep.primaryAddr)
	s.mu.Unlock()
	return resp
}

// replicate handles one forwarded op on a backup: adopt the sender's
// primacy if it wins, then apply in sequence order, buffering a bounded
// out-of-order tail.
func (s *Server) replicate(m wire.Message, p *wire.Peer) wire.Message {
	var resp wire.Message
	var op wire.Message
	if err := decodeFramedMessage(m.Payload, &op); err != nil {
		resp.SetError(err)
		return resp
	}
	s.mu.Lock()
	rep := s.reps[int(m.Offset)]
	if rep == nil {
		s.mu.Unlock()
		resp.Err = "directory: shard not hosted here"
		return resp
	}
	if !s.adoptPrimacyLocked(rep, m, p) {
		resp.Gen = rep.epoch
		resp.Num = rep.seq
		resp.Node = types.NodeID(rep.primaryAddr)
		resp.SetError(types.ErrNotPrimary)
		s.mu.Unlock()
		return resp
	}
	rep.lastBeat = time.Now()
	var notifies []func()
	switch {
	case m.Num <= rep.seq:
		// Duplicate (already applied, or covered by a snapshot).
	case m.Num == rep.seq+1 && !rep.installing:
		notifies = s.applyReplicatedLocked(rep, m.Num, op)
	default:
		// Out of order — or a snapshot install is in progress, in which
		// case applying against half-replaced entries would diverge;
		// buffer until the install's final chunk drains the tail.
		if len(rep.pending) >= maxPendingOps {
			rep.needSync = true
		} else {
			rep.pending[m.Num] = op
		}
	}
	resp.Gen = rep.epoch
	resp.Num = rep.seq
	resp.Wait = rep.needSync
	s.mu.Unlock()
	for _, fn := range notifies {
		fn()
	}
	return resp
}

// adoptPrimacyLocked evaluates a primacy claim carried by a heartbeat or
// replicate frame from m.Node and reports whether the sender is accepted
// as the shard primary. A replica that is itself primary steps down only
// to a strictly better claim.
func (s *Server) adoptPrimacyLocked(rep *replica, m wire.Message, p *wire.Peer) bool {
	sender := string(m.Node)
	senderIdx := rep.indexOf(sender)
	if rep.primary {
		if !better(m.Gen, m.Num, senderIdx, rep.epoch, rep.seq, rep.selfIdx) {
			return false
		}
		s.stepDownLocked(rep, m.Gen, sender)
	} else {
		if m.Gen < rep.epoch {
			return false
		}
		if m.Gen > rep.epoch || rep.primaryAddr != sender {
			if rep.primaryAddr != sender {
				if rep.seq > 0 {
					// A new primary took over: our log may diverge from
					// its replayed tail, so hold reads until it re-syncs
					// us.
					rep.needSync = true
				}
				// The out-of-order tail buffered from the previous
				// primary belongs to a dead history; replaying it into
				// the new primary's sequence numbers would silently
				// diverge this replica.
				rep.pending = make(map[int64]wire.Message)
			}
			rep.epoch = m.Gen
			rep.primaryAddr = sender
		}
	}
	if p != nil && rep.primaryPeer != p {
		rep.primaryPeer = p
		shard := rep.shard
		epoch := rep.epoch
		// Async: OnClose runs its callback synchronously when the peer is
		// already closed, and this code path holds s.mu.
		p.OnClose(func() { go s.primaryConnLost(shard, epoch, p) })
	}
	return true
}

// primaryConnLost reacts to the primary's replication connection dying:
// expire the lease immediately so the monitor probes and, if this replica
// heads the surviving succession order, promotes without waiting out the
// full timeout.
func (s *Server) primaryConnLost(shard int, epoch int64, p *wire.Peer) {
	s.mu.Lock()
	rep := s.reps[shard]
	if s.closed || rep == nil || rep.primary || rep.primaryPeer != p || rep.epoch != epoch {
		s.mu.Unlock()
		return
	}
	rep.primaryPeer = nil
	rep.lastBeat = rep.lastBeat.Add(-s.cfg.LeaseTimeout)
	// wg.Add under the lock, after the closed check: Close sets closed
	// before it Waits, so it cannot miss this goroutine.
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		s.checkPromotion(rep)
	}()
}

// applyOpLocked applies one replicated op at sequence q, caching its
// derived response for retry dedupe. It returns the op's notify closure
// (nil when the op produced none).
func (s *Server) applyOpLocked(rep *replica, q int64, op wire.Message) func() {
	resp, _, notify := s.applyLocked(op)
	if op.Num2 > 0 {
		rep.cacheLocked(dedupeKey{op.Node, op.Num2}, resp)
	}
	rep.seq = q
	return notify
}

// applyReplicatedLocked applies one in-order op and drains any buffered
// tail that became consecutive.
func (s *Server) applyReplicatedLocked(rep *replica, seq int64, op wire.Message) []func() {
	var notifies []func()
	if fn := s.applyOpLocked(rep, seq, op); fn != nil {
		notifies = append(notifies, fn)
	}
	return append(notifies, s.drainPendingLocked(rep)...)
}

// drainPendingLocked applies buffered ops that are consecutive with the
// replica's applied sequence.
func (s *Server) drainPendingLocked(rep *replica) []func() {
	var notifies []func()
	for {
		next, ok := rep.pending[rep.seq+1]
		if !ok {
			return notifies
		}
		delete(rep.pending, rep.seq+1)
		if fn := s.applyOpLocked(rep, rep.seq+1, next); fn != nil {
			notifies = append(notifies, fn)
		}
	}
}

// heartbeat handles MethodDirHeartbeat: the boot-time state query
// (m.Num < 0) and the primary's lease renewal, which also reports this
// backup's applied sequence so the primary can detect a stalled or empty
// replica and push a snapshot.
func (s *Server) heartbeat(m wire.Message, p *wire.Peer) wire.Message {
	var resp wire.Message
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := s.reps[int(m.Offset)]
	if rep == nil {
		resp.Err = "directory: shard not hosted here"
		return resp
	}
	// Every heartbeat answer reports this server's cluster-map epoch: the
	// primary uses it as anti-entropy, pushing (or pulling) the map when
	// the two sides disagree — a member that missed a map push converges
	// through the lease traffic that is flowing anyway.
	resp.Epoch = s.cmap.Epoch
	if m.Num < 0 {
		// State query from a booting replica: report, claim nothing.
		resp.Gen = rep.epoch
		resp.Num = rep.seq
		resp.Node = types.NodeID(rep.primaryAddr)
		resp.Complete = rep.primary
		return resp
	}
	if !s.adoptPrimacyLocked(rep, m, p) {
		resp.Gen = rep.epoch
		resp.Num = rep.seq
		resp.Node = types.NodeID(rep.primaryAddr)
		resp.Complete = rep.primary
		resp.SetError(types.ErrNotPrimary)
		return resp
	}
	rep.lastBeat = time.Now()
	resp.Gen = rep.epoch
	resp.Num = rep.seq
	resp.Wait = rep.needSync
	return resp
}

// heartbeatLoop renews the primary lease on every backup and repairs
// replicas that report themselves out of sync or stalled.
func (s *Server) heartbeatLoop() {
	ticker := time.NewTicker(s.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		var primaries []*replica
		for _, r := range s.reps {
			if r.primary && r.hasPeers(s.cfg.Self) {
				primaries = append(primaries, r)
			}
		}
		s.mu.Unlock()
		for _, r := range primaries {
			s.beatBackups(r)
		}
	}
}

func (s *Server) beatBackups(r *replica) {
	s.mu.Lock()
	if !r.primary {
		s.mu.Unlock()
		return
	}
	m := wire.Message{
		Method:   wire.MethodDirHeartbeat,
		Offset:   int64(r.shard),
		Gen:      r.epoch,
		Num:      r.seq,
		Node:     types.NodeID(s.cfg.Self),
		Complete: true,
	}
	peers := s.peersLocked(r, false, nil)
	s.mu.Unlock()
	// Map anti-entropy gathered from heartbeat answers: members behind our
	// cluster-map epoch get a push, and a member ahead of us is pulled
	// from, both after the beat loop (no I/O while iterating under s.mu).
	var mapBehind []string
	mapAhead := ""
	for _, p := range s.fanOut(peers, m) {
		addr, resp := p.addr, p.resp
		s.mu.Lock()
		b := r.backups[addr]
		if p.err != nil {
			if b != nil {
				b.down = true
			}
			s.mu.Unlock()
			continue
		}
		if !r.primary {
			s.mu.Unlock()
			return
		}
		if resp.Gen > r.epoch {
			s.stepDownLocked(r, resp.Gen, string(resp.Node))
			s.mu.Unlock()
			return
		}
		switch {
		case s.cmap.Epoch > 0 && resp.Epoch > 0 && resp.Epoch < s.cmap.Epoch:
			mapBehind = append(mapBehind, addr)
		case resp.Epoch > s.cmap.Epoch:
			mapAhead = addr
		}
		needSnapshot := resp.Wait
		if b != nil {
			b.down = false
			b.waiting = resp.Wait
			// Stalled: no progress since the previous beat, and still short
			// of what we had applied when we sent it. An op forwarded since
			// then may simply be in flight.
			if resp.Num < b.beatSeq && resp.Num == b.lastSeq {
				needSnapshot = true
			}
			b.lastSeq, b.beatSeq = resp.Num, m.Num
		}
		s.mu.Unlock()
		if needSnapshot {
			s.pushSnapshot(r, addr)
		}
	}
	if len(mapBehind) > 0 {
		s.pushMapAsync(mapBehind)
	}
	if mapAhead != "" {
		s.pullMapFrom(mapAhead)
	}
	s.mu.Lock()
	if r.primary && r.retiring {
		// Rotated-out lame duck: once any successor in the new group holds
		// the full history, step out and stop renewing its lease, so lease
		// expiry promotes it. Parked calls wake, bounce with the current
		// map, and the client retries against the new group.
		for _, b := range r.backups {
			if !b.down && !b.waiting && b.lastSeq == r.seq {
				r.primary = false
				if s.reps[r.shard] == r {
					delete(s.reps, r.shard)
				}
				s.wakeShardLocked(r.shard)
				break
			}
		}
	}
	s.mu.Unlock()
}

// monitorLoop is the backup side of the lease: when the primary has been
// silent past LeaseTimeout, run checkPromotion.
func (s *Server) monitorLoop() {
	interval := s.cfg.LeaseTimeout / 4
	if interval <= 0 {
		interval = DefaultLeaseTimeout / 4
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		var expired []*replica
		for _, r := range s.reps {
			if !r.primary && r.booted && time.Since(r.lastBeat) >= s.cfg.LeaseTimeout {
				expired = append(expired, r)
			}
		}
		s.mu.Unlock()
		for _, r := range expired {
			s.checkPromotion(r)
		}
	}
}

// checkPromotion surveys the live replicas of r's group after the lease
// expired and promotes r only if it carries the best (epoch, seq) state
// among them, with the earlier group index breaking ties. Comparing
// state — not just liveness — means an empty restarted replica can never
// claim a shard over a synced survivor, while the best-synced survivor
// is never blocked by a live-but-stale peer. Replicas that hold no op
// hold the same empty state whatever epoch each has heard of, so the
// group order alone ranks them: a fresh shard whose first primary dies
// before its first beat reached every backup is still succeeded in order.
func (s *Server) checkPromotion(r *replica) {
	s.mu.Lock()
	if s.closed || r.primary || !r.booted || time.Since(r.lastBeat) < s.cfg.LeaseTimeout {
		s.mu.Unlock()
		return
	}
	// The group's order ranks the replicas (installMapLocked rewrites it
	// under s.mu), so every index is read here, with the epoch and seq.
	myEpoch, mySeq, myIdx := r.epoch, r.seq, r.selfIdx
	peers := s.peersLocked(r, false, nil)
	query := wire.Message{Method: wire.MethodDirHeartbeat, Offset: int64(r.shard), Num: -1} // state query
	s.mu.Unlock()
	seen := myEpoch // the highest epoch any answer reported
	for _, p := range s.fanOut(peers, query) {
		if p.err != nil || p.resp.Err != "" {
			continue // dead, unreachable or not hosting the shard: not a contender
		}
		resp := p.resp
		seen = max(seen, resp.Gen)
		if resp.Complete && resp.Gen >= myEpoch {
			// A live primary exists; its heartbeat just has not reached
			// us yet. Adopt it and renew the lease.
			s.mu.Lock()
			if !r.primary {
				if resp.Gen > r.epoch {
					r.epoch = resp.Gen
				}
				r.primaryAddr = p.addr
				r.lastBeat = time.Now()
			}
			s.mu.Unlock()
			return
		}
		gen, mine := resp.Gen, myEpoch
		if resp.Num == 0 && mySeq == 0 {
			gen, mine = 0, 0 // both empty: rank by index
		}
		if better(gen, resp.Num, p.idx, mine, mySeq, myIdx) {
			// A live, better-synced replica exists: the shard is its to
			// claim. Give it a lease period to do so.
			s.mu.Lock()
			r.lastBeat = time.Now()
			s.mu.Unlock()
			return
		}
	}
	s.mu.Lock()
	if s.closed || r.primary || time.Since(r.lastBeat) < s.cfg.LeaseTimeout {
		s.mu.Unlock()
		return
	}
	// Promote past every epoch the survey saw (the view-change rule of
	// Viewstamped Replication), so no two primaries ever share an epoch.
	r.epoch = max(r.epoch, seen)
	notifies := s.promoteLocked(r)
	s.mu.Unlock()
	for _, fn := range notifies {
		fn()
	}
}

// pushSnapshot sends the shard's full state to one backup in bounded
// chunks. The sequence number captured with the state tells the receiver
// which replicated ops the snapshot already contains.
func (s *Server) pushSnapshot(r *replica, addr string) {
	s.mu.Lock()
	if !r.primary {
		s.mu.Unlock()
		return
	}
	epoch, seq := r.epoch, r.seq
	// Each chunk starts empty and grows with the entries it carries, so a
	// push costs what the shard's state is worth.
	var chunks [][]byte
	var cur []byte
	for oid, e := range s.entries {
		if s.shardOfOID(oid) != r.shard {
			continue
		}
		cur = appendSnapshotEntry(cur, oid, e)
		if len(cur) >= snapshotChunk {
			chunks = append(chunks, cur)
			cur = nil
		}
	}
	dedupe := appendSnapshotDedupe(nil, r)
	var mapSec []byte
	if r.shard == membershipShard && s.cmap.Epoch > 0 {
		// The membership shard's snapshot carries the cluster map, so a
		// resynced replica lands on exactly the epoch its new state was
		// captured at even if it missed every push.
		mapSec = append([]byte(nil), s.encodedMap...)
	}
	s.mu.Unlock()
	if len(cur) > 0 || len(chunks) == 0 {
		chunks = append(chunks, cur)
	}
	// The entry chunks go first (the first one clears the backup's shard),
	// then the dedupe section (Num2 1) and the cluster-map section (Num2
	// 2) if any; the last frame completes the push.
	sections := make([]int64, len(chunks), len(chunks)+2)
	if len(dedupe) > 0 {
		chunks, sections = append(chunks, dedupe), append(sections, 1)
	}
	if len(mapSec) > 0 {
		chunks, sections = append(chunks, mapSec), append(sections, 2)
	}
	for i, chunk := range chunks {
		m := wire.Message{
			Method:   wire.MethodDirSnapshot,
			Offset:   int64(r.shard),
			Gen:      epoch,
			Num:      seq,
			Num2:     sections[i],
			Node:     types.NodeID(s.cfg.Self),
			Payload:  chunk,
			Wait:     i == 0,
			Complete: i == len(chunks)-1,
		}
		if resp, err := s.callReplica(addr, m); err != nil || resp.ErrorOf() != nil {
			return
		}
	}
}

// snapshot installs a pushed shard state on a backup. The first chunk
// clears the shard (preserving subscriber and waiter registrations, which
// are connection-local); the last chunk marks the replica in sync and
// drops the now-covered log tail.
func (s *Server) snapshot(m wire.Message) wire.Message {
	var resp wire.Message
	s.mu.Lock()
	rep := s.reps[int(m.Offset)]
	if rep == nil {
		s.mu.Unlock()
		resp.Err = "directory: shard not hosted here"
		return resp
	}
	if rep.primary || m.Gen < rep.epoch {
		resp.Gen = rep.epoch
		resp.SetError(types.ErrNotPrimary)
		s.mu.Unlock()
		return resp
	}
	if m.Gen > rep.epoch {
		rep.epoch = m.Gen
		rep.primaryAddr = string(m.Node)
	}
	rep.lastBeat = time.Now()
	var touched []types.ObjectID
	if m.Wait { // first chunk: replace the shard's entries
		if m.Num < rep.seq {
			// The capture is older than ops this replica has already
			// applied — installing it would silently roll them back.
			// Reject; the primary's stall detection recaptures fresh.
			resp.Num = rep.seq
			resp.Err = "directory: stale snapshot capture"
			s.mu.Unlock()
			return resp
		}
		rep.installing = true
		rep.installTouched = make(map[types.ObjectID]bool)
		// The incoming dedupe section is authoritative; entries cached by
		// this replica's own (possibly deposed-primary) history must not
		// shadow it, since cacheLocked never overwrites.
		rep.dedupe = make(map[dedupeKey]wire.Message)
		rep.dedupeQ = nil
		for oid, e := range s.entries {
			if s.shardOfOID(oid) != rep.shard {
				continue
			}
			e.prog = make(map[types.NodeID]types.Progress)
			e.leasedTo = make(map[types.NodeID]types.NodeID)
			e.deps = make(map[types.NodeID]types.NodeID)
			e.inline = nil
			e.size = types.SizeUnknown
			touched = append(touched, oid)
		}
	}
	var err error
	var mapAfter []func()
	switch m.Num2 {
	case 1:
		err = s.installSnapshotDedupe(rep, m.Payload)
	case 2:
		next, derr := types.DecodeClusterMap(m.Payload)
		if derr != nil {
			err = derr
		} else {
			mapAfter = s.installMapLocked(next)
		}
	default:
		touched, err = s.installSnapshotEntries(m.Payload, touched)
	}
	if err != nil {
		rep.needSync = true
		rep.installing = false
		resp.SetError(err)
		s.mu.Unlock()
		return resp
	}
	rep.seq = m.Num
	if rep.installTouched == nil {
		rep.installTouched = make(map[types.ObjectID]bool)
	}
	for _, oid := range touched {
		rep.installTouched[oid] = true
	}
	var notifies []func()
	if m.Complete {
		rep.needSync = false
		rep.installing = false
		for q := range rep.pending {
			if q <= rep.seq {
				delete(rep.pending, q)
			}
		}
		notifies = append(notifies, s.drainPendingLocked(rep)...)
		for oid := range rep.installTouched {
			if e, ok := s.entries[oid]; ok {
				e.wake()
				notifies = append(notifies, s.notifyLocked(oid, e))
			}
		}
		rep.installTouched = nil
	}
	resp.Gen = rep.epoch
	resp.Num = rep.seq
	notifies = append(notifies, mapAfter...)
	s.mu.Unlock()
	for _, fn := range notifies {
		fn()
	}
	return resp
}

// Snapshot wire format (all integers big-endian). Entries:
//
//	[20] oid
//	u64  size, u64 gen
//	u8   flags (bit0 deleted)
//	u32  inline len + bytes
//	u32  prog count   + count × (u16 node + u8 progress)
//	u32  lease count  + count × (u16 sender + u16 receiver)
//	u32  dep count    + count × (u16 receiver + u16 sender)
//
// Dedupe section (Num2 == 1):
//
//	u32 count + count × (u16 client + u64 seq + framed response message)
//
// Cluster-map section (Num2 == 2, membership shard only): one encoded
// ClusterMap (see types.EncodeClusterMap).

func appendStr16(dst []byte, v string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(v)))
	return append(dst, v...)
}

func appendSnapshotEntry(dst []byte, oid types.ObjectID, e *entry) []byte {
	dst = append(dst, oid[:]...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(e.size))
	dst = binary.BigEndian.AppendUint64(dst, uint64(e.gen))
	var flags byte
	if e.deleted {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.inline)))
	dst = append(dst, e.inline...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.prog)))
	for n, p := range e.prog {
		dst = appendStr16(dst, string(n))
		dst = append(dst, byte(p))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.leasedTo)))
	for sender, recv := range e.leasedTo {
		dst = appendStr16(dst, string(sender))
		dst = appendStr16(dst, string(recv))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.deps)))
	for recv, sender := range e.deps {
		dst = appendStr16(dst, string(recv))
		dst = appendStr16(dst, string(sender))
	}
	return dst
}

func appendSnapshotDedupe(dst []byte, r *replica) []byte {
	if len(r.dedupeQ) == 0 {
		return nil
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.dedupeQ)))
	for _, key := range r.dedupeQ {
		resp := r.dedupe[key]
		dst = appendStr16(dst, string(key.client))
		dst = binary.BigEndian.AppendUint64(dst, uint64(key.seq))
		framed, err := wire.AppendMessage(dst, &resp)
		if err != nil {
			// Encoding a response we produced cannot fail; bail out of the
			// optional section rather than ship a torn snapshot.
			return nil
		}
		dst = framed
	}
	return dst
}

// snapReader walks a snapshot payload with bounds checks.
type snapReader struct {
	b   []byte
	off int
	bad bool
}

func (r *snapReader) take(n int) []byte {
	if r.bad || n < 0 || len(r.b)-r.off < n {
		r.bad = true
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *snapReader) u8() byte {
	if v := r.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (r *snapReader) u16() int {
	if v := r.take(2); v != nil {
		return int(binary.BigEndian.Uint16(v))
	}
	return 0
}

func (r *snapReader) u32() int {
	if v := r.take(4); v != nil {
		return int(binary.BigEndian.Uint32(v))
	}
	return 0
}

func (r *snapReader) u64() uint64 {
	if v := r.take(8); v != nil {
		return binary.BigEndian.Uint64(v)
	}
	return 0
}

func (r *snapReader) str16() string { return string(r.take(r.u16())) }

// errCorruptSnapshot reports a snapshot or framed-op payload whose fields
// overrun its length.
var errCorruptSnapshot = errors.New("directory: corrupt snapshot payload")

func (s *Server) installSnapshotEntries(payload []byte, touched []types.ObjectID) ([]types.ObjectID, error) {
	r := snapReader{b: payload}
	for r.off < len(r.b) && !r.bad {
		var oid types.ObjectID
		copy(oid[:], r.take(types.ObjectIDSize))
		size := int64(r.u64())
		gen := int64(r.u64())
		flags := r.u8()
		var inline []byte
		if n := r.u32(); n > 0 {
			inline = append([]byte(nil), r.take(n)...)
		}
		e := s.entryLocked(oid)
		e.size = size
		e.gen = gen
		e.deleted = flags&1 != 0
		e.inline = inline
		e.prog = make(map[types.NodeID]types.Progress)
		for i, n := 0, r.u32(); i < n && !r.bad; i++ {
			node := types.NodeID(r.str16())
			e.prog[node] = types.Progress(r.u8())
		}
		e.leasedTo = make(map[types.NodeID]types.NodeID)
		for i, n := 0, r.u32(); i < n && !r.bad; i++ {
			sender := types.NodeID(r.str16())
			e.leasedTo[sender] = types.NodeID(r.str16())
		}
		e.deps = make(map[types.NodeID]types.NodeID)
		for i, n := 0, r.u32(); i < n && !r.bad; i++ {
			recv := types.NodeID(r.str16())
			e.deps[recv] = types.NodeID(r.str16())
		}
		touched = append(touched, oid)
	}
	if r.bad {
		return touched, errCorruptSnapshot
	}
	return touched, nil
}

func (s *Server) installSnapshotDedupe(rep *replica, payload []byte) error {
	r := snapReader{b: payload}
	n := r.u32()
	for i := 0; i < n && !r.bad; i++ {
		client := types.NodeID(r.str16())
		seq := int64(r.u64())
		var resp wire.Message
		frame := r.take(4)
		if frame == nil {
			break
		}
		body := r.take(int(binary.BigEndian.Uint32(frame)))
		if body == nil {
			break
		}
		if err := wire.UnmarshalMessage(body, &resp); err != nil {
			r.bad = true
			break
		}
		rep.cacheLocked(dedupeKey{client, seq}, resp)
	}
	if r.bad {
		return errCorruptSnapshot
	}
	return nil
}

// decodeFramedMessage decodes a wire.AppendMessage frame (length prefix +
// body) carried inside another message's payload.
func decodeFramedMessage(payload []byte, m *wire.Message) error {
	if len(payload) < 4 {
		return errCorruptSnapshot
	}
	n := int(binary.BigEndian.Uint32(payload))
	if len(payload)-4 < n {
		return errCorruptSnapshot
	}
	return wire.UnmarshalMessage(payload[4:4+n], m)
}
