package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"hoplite/internal/buffer"
	"hoplite/internal/directory"
	"hoplite/internal/types"
	"hoplite/internal/wire"
)

// reduceSpec tells a participant node to run one slot of a reduce tree
// (§3.4.2). The slot's intermediate output is an ordinary directory object
// named (ReduceID, Slot, Epoch), which its parent pulls through the normal
// data plane — this is what lets reduce outputs stream into downstream
// broadcasts and chained reduces while still partial (§3.3).
type reduceSpec struct {
	// ReduceID names one run of a reduce, fresh per Reduce call: it keys
	// the participants' executors and seeds the intermediates' names, so
	// the cleanup of a run, which finishes after Reduce returns, can never
	// reach a later run into the same target.
	ReduceID types.ObjectID
	Slot     int
	Epoch    int64
	OwnOID   types.ObjectID // the source object this slot folds in
	// OutputOID names this slot's output: the true target for the root,
	// an ephemeral coordinator-chosen object otherwise. The coordinator
	// pins ephemeral IDs onto the target's directory shard so that a
	// participant's death never takes reduce metadata down with it.
	OutputOID types.ObjectID
	Children  []childRef
	IsRoot    bool
	Size      int64
	Op        types.ReduceOp
}

type childRef struct {
	Slot int
	OID  types.ObjectID // the child slot's current OutputOID
}

// pinToShard derives an ObjectID for (run, slot, epoch) that lands on the
// same directory shard as the target object.
func pinToShard(target, run types.ObjectID, slot int, epoch int64, shards int) types.ObjectID {
	want := target.Shard(shards)
	for nonce := int64(0); ; nonce++ {
		oid := run.Derive("reduce-slot", int64(slot)<<20|nonce, epoch)
		if oid.Shard(shards) == want {
			return oid
		}
	}
}

// The spec travels in a wire.Message payload using the same fixed-layout
// binary style as the control-plane codec (internal/wire/codec.go): every
// field explicit, big-endian, length-checked on decode.
//
//	[20] reduce id      [20] own oid      [20] output oid
//	u32  slot           u64  epoch        u64  size
//	u8   is-root        u8   op kind      u8   op dtype
//	u32  children count + count × (u32 slot + [20] oid)
const specFixedSize = 3*types.ObjectIDSize + 4 + 8 + 8 + 3 + 4

func encodeSpec(s *reduceSpec) ([]byte, error) {
	if s.Slot < 0 || int64(uint32(s.Slot)) != int64(s.Slot) {
		return nil, fmt.Errorf("core: reduce slot %d out of range", s.Slot)
	}
	b := make([]byte, 0, specFixedSize+len(s.Children)*(4+types.ObjectIDSize))
	b = append(b, s.ReduceID[:]...)
	b = append(b, s.OwnOID[:]...)
	b = append(b, s.OutputOID[:]...)
	b = binary.BigEndian.AppendUint32(b, uint32(s.Slot))
	b = binary.BigEndian.AppendUint64(b, uint64(s.Epoch))
	b = binary.BigEndian.AppendUint64(b, uint64(s.Size))
	var root byte
	if s.IsRoot {
		root = 1
	}
	b = append(b, root, byte(s.Op.Kind), byte(s.Op.DType))
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Children)))
	for _, c := range s.Children {
		if c.Slot < 0 || int64(uint32(c.Slot)) != int64(c.Slot) {
			return nil, fmt.Errorf("core: child slot %d out of range", c.Slot)
		}
		b = binary.BigEndian.AppendUint32(b, uint32(c.Slot))
		b = append(b, c.OID[:]...)
	}
	return b, nil
}

func decodeSpec(p []byte) (*reduceSpec, error) {
	if len(p) < specFixedSize {
		return nil, fmt.Errorf("core: reduce spec truncated: %d bytes", len(p))
	}
	var s reduceSpec
	off := 0
	off += copy(s.ReduceID[:], p[off:])
	off += copy(s.OwnOID[:], p[off:])
	off += copy(s.OutputOID[:], p[off:])
	s.Slot = int(binary.BigEndian.Uint32(p[off:]))
	off += 4
	s.Epoch = int64(binary.BigEndian.Uint64(p[off:]))
	off += 8
	s.Size = int64(binary.BigEndian.Uint64(p[off:]))
	off += 8
	s.IsRoot = p[off] != 0
	s.Op.Kind = types.OpKind(p[off+1])
	s.Op.DType = types.DType(p[off+2])
	off += 3
	n := int(binary.BigEndian.Uint32(p[off:]))
	off += 4
	// Divide rather than multiply: n is attacker-controlled and the
	// product could overflow int on 32-bit platforms.
	const childSize = 4 + types.ObjectIDSize
	if n < 0 || (len(p)-off)%childSize != 0 || n != (len(p)-off)/childSize {
		return nil, fmt.Errorf("core: reduce spec children length mismatch")
	}
	if n > 0 {
		s.Children = make([]childRef, n)
		for i := range s.Children {
			s.Children[i].Slot = int(binary.BigEndian.Uint32(p[off:]))
			off += 4
			off += copy(s.Children[i].OID[:], p[off:])
		}
	}
	return &s, nil
}

// reduceExec is one running slot executor on a participant node.
type reduceExec struct {
	spec   *reduceSpec
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	// completed is set before done closes when the executor sealed its
	// output and registered it complete in the directory.
	completed bool
}

// handleReduceStart starts the slot executor a coordinator's spec names.
func (n *Node) handleReduceStart(m wire.Message) wire.Message {
	var resp wire.Message
	spec, err := decodeSpec(m.Payload)
	if err != nil {
		resp.SetError(fmt.Errorf("core: bad reduce spec: %w", err))
		return resp
	}
	_, err = n.startReduceSlot(spec)
	resp.SetError(err)
	return resp
}

// startReduceSlot starts (or, on an epoch bump, replaces) a slot
// executor; it returns nil for a stale or duplicate start. Replacement is
// how ancestors of a failed slot "clear the reduced object" and restart
// (§3.5.2, Figure 5b).
func (n *Node) startReduceSlot(spec *reduceSpec) (*reduceExec, error) {
	key := execKey{reduceID: spec.ReduceID, slot: spec.Slot}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, types.ErrClosed
	}
	old := n.execs[key]
	if old != nil && old.spec.Epoch >= spec.Epoch {
		n.mu.Unlock()
		return nil, nil // stale or duplicate start
	}
	ctx, cancel := context.WithCancel(n.ctx)
	e := &reduceExec{spec: spec, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	n.execs[key] = e
	n.mu.Unlock()
	if old != nil {
		old.cancel()
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer close(e.done)
		if old != nil {
			// Wait out the superseded executor (off the node lock) before
			// touching its output: for the root slot both epochs share the
			// target OutputOID, so a dying executor still inside its
			// store.Create/Delete sequence would otherwise clobber the
			// replacement's freshly created buffer and wedge the reduce.
			select {
			case <-old.done:
			case <-n.ctx.Done():
				return
			}
			// Drop the superseded epoch's local output so readers abort.
			n.store.Delete(old.spec.OutputOID)
		}
		n.runReduceSlot(e)
	}()
	return e, nil
}

// ReduceExecutors reports how many reduce slot executors this node holds
// (used by tests and tools): a finished or cancelled reduce leaves none.
func (n *Node) ReduceExecutors() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.execs)
}

// handleReduceCancel stops every executor of a reduce. The coordinator
// deletes the intermediate outputs cluster-wide itself (cleanupReduce).
func (n *Node) handleReduceCancel(m wire.Message) wire.Message {
	n.mu.Lock()
	var victims []*reduceExec
	for key, e := range n.execs {
		if key.reduceID == m.Target {
			victims = append(victims, e)
			delete(n.execs, key)
		}
	}
	n.mu.Unlock()
	for _, e := range victims {
		e.cancel()
	}
	return wire.Message{}
}

// runReduceSlot streams this slot's reduction one wire frame (ChunkSize
// bytes, element-aligned) at a time: once its own object and each child
// subtree's watermark pass a run, it copies its own run into the slot
// output and folds each child's run into it there — so a hop forwards a frame
// while the next is still in flight, and a chain of n hops costs n frame
// times plus one object time (fine-grained pipelining, §3.3).
func (n *Node) runReduceSlot(e *reduceExec) {
	spec := e.spec
	ctx := e.ctx
	outOID := spec.OutputOID

	out, err := n.store.Create(outOID, spec.Size, true)
	if errors.Is(err, types.ErrExists) {
		// Residue from a canceled epoch; replace it.
		n.store.Delete(outOID)
		out, err = n.store.Create(outOID, spec.Size, true)
	}
	if err != nil {
		return
	}
	n.signalStoreChange()
	fail := func(err error) {
		out.Fail(err)
		if ctx.Err() != nil && !spec.IsRoot {
			// Cancelled: nobody reads this intermediate, and the
			// coordinator's cleanup may not see it if it was never
			// registered.
			n.store.Delete(outOID)
		}
	}
	if err := n.dir.PutStarted(ctx, outOID, spec.Size); err != nil {
		fail(err)
		return
	}

	// Own object: the coordinator placed this slot on a node already
	// holding it, so this is normally a store lookup; after an eviction
	// it becomes a remote fetch.
	own, err := n.ensureLocal(ctx, spec.OwnOID)
	if err != nil {
		fail(err)
		return
	}
	// Every input is read under a pin, so a Delete racing the fold cannot
	// recycle its array.
	if !own.TryRef() {
		fail(types.ErrAborted)
		return
	}
	defer own.Unref()
	// Children outputs: fetched through the ordinary receiver-driven data
	// plane; each blocks until the child slot is assigned and starts
	// producing. Fetches run concurrently.
	type childSlot struct {
		buf *buffer.Buffer
		err error
	}
	childCh := make([]chan childSlot, len(spec.Children))
	for i, c := range spec.Children {
		childCh[i] = make(chan childSlot, 1)
		go func(i int, c childRef) {
			buf, err := n.ensureLocal(ctx, c.OID)
			childCh[i] <- childSlot{buf, err}
		}(i, c)
	}
	children := make([]*buffer.Buffer, len(spec.Children)) // pinned once set
	defer func() {
		for _, b := range children {
			if b != nil {
				b.Unref()
			}
		}
	}()

	block := min(int64(n.cfg.ChunkSize), spec.Size)
	if es := int64(spec.Op.DType.Size()); es > 0 {
		block = max(block-block%es, es)
	}
	waitRange := func(b *buffer.Buffer, end int64) error {
		wm, _, err := b.WaitAt(ctx, end-1)
		if err != nil {
			return err
		}
		if wm < end {
			return fmt.Errorf("core: reduce input short: %d < %d", wm, end)
		}
		return nil
	}
	for off := int64(0); off < spec.Size; off += block {
		end := min(off+block, spec.Size)
		if err := waitRange(own, end); err != nil {
			fail(err)
			return
		}
		for i := range spec.Children {
			if children[i] == nil {
				select {
				case cs := <-childCh[i]:
					if cs.err == nil && !cs.buf.TryRef() {
						cs.err = types.ErrAborted
					}
					if cs.err != nil {
						fail(cs.err)
						return
					}
					children[i] = cs.buf
				case <-ctx.Done():
					fail(ctx.Err())
					return
				}
			}
			if err := waitRange(children[i], end); err != nil {
				fail(err)
				return
			}
		}
		// Fold in place: the run lands in the output's own array, so a
		// leaf copies its source once and an inner slot folds each child
		// straight into that copy.
		err := out.Fill(off, end-off, func(p []byte) error {
			copy(p, own.Bytes()[off:end])
			for _, c := range children {
				if err := spec.Op.Accumulate(p, c.Bytes()[off:end]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			fail(err)
			return
		}
	}
	out.Seal()
	cctx, cancel := n.rpcCtx()
	defer cancel()
	e.completed = n.dir.PutComplete(cctx, outOID) == nil
}

// assignment tracks which source object fills a tree slot and where.
type assignment struct {
	src  types.ObjectID
	host types.NodeID
}

// Reduce creates target = op-fold over num of the given source objects
// (Table 1). Sources join the reduce tree in the order they become
// available; if num < len(sources), only the earliest num participate,
// and the used sources are returned in slot order. Reduce tolerates up to
// len(sources)-num source/task failures; beyond that it blocks until
// failed tasks are re-executed and their objects reappear (§3.5.2).
func (n *Node) Reduce(ctx context.Context, target types.ObjectID, sources []types.ObjectID, num int, op types.ReduceOp) ([]types.ObjectID, error) {
	if err := op.Validate(); err != nil {
		return nil, err
	}
	if num <= 0 || num > len(sources) {
		return nil, fmt.Errorf("core: reduce num %d out of range [1,%d]", num, len(sources))
	}
	if target.IsZero() {
		return nil, fmt.Errorf("core: reduce target is the zero ObjectID")
	}

	updates := newUpdateQueue()
	seen := make(map[types.ObjectID]bool)
	for _, src := range sources {
		if seen[src] {
			return nil, fmt.Errorf("core: duplicate source %v", src)
		}
		seen[src] = true
	}
	// Watches, not subscriptions: a concurrent reduce on this node may
	// watch the same object (a chained reduce's source is another's
	// target), and ending ours must not end theirs. The initial records
	// queue in source order, so slots fill as a serial loop would fill them.
	recs, stop, err := n.watchAll(ctx, sources, updates.push)
	if err != nil {
		return nil, err
	}
	defer stop()
	for i, rec := range recs {
		updates.push(directory.Update{OID: sources[i], Size: rec.Size, Locs: rec.Locs, Inline: rec.Inline})
	}

	// Wait for the first available source to learn the object size, which
	// fixes the tree degree.
	var size int64 = types.SizeUnknown
	srcLocs := make(map[types.ObjectID][]types.Location)
	srcInline := make(map[types.ObjectID][]byte)
	var readyOrder []types.ObjectID
	inQueue := make(map[types.ObjectID]bool)
	absorb := func(u directory.Update) {
		if !seen[u.OID] {
			return
		}
		if u.Deleted {
			delete(srcLocs, u.OID)
			delete(srcInline, u.OID)
			return
		}
		if u.Inline != nil {
			srcInline[u.OID] = u.Inline
			if size < 0 {
				size = int64(len(u.Inline))
			}
			if !inQueue[u.OID] {
				inQueue[u.OID] = true
				readyOrder = append(readyOrder, u.OID)
			}
			return
		}
		srcLocs[u.OID] = u.Locs
		if len(u.Locs) > 0 {
			if size < 0 && u.Size >= 0 {
				size = u.Size
			}
			if !inQueue[u.OID] {
				inQueue[u.OID] = true
				readyOrder = append(readyOrder, u.OID)
			}
		}
	}
	for size < 0 {
		select {
		case <-updates.ready:
			if u, ok := updates.pop(); ok {
				absorb(u)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	// Small objects live inline in the directory; there is no collective
	// transfer to schedule — the coordinator folds them locally (§3.2).
	if size < n.cfg.InlineThreshold {
		return n.reduceSmall(ctx, target, sources, num, op, size, updates, absorb, srcInline, &readyOrder)
	}
	return n.reduceTree(ctx, target, num, op, size, updates, absorb, srcLocs, &readyOrder, inQueue)
}

// updateQueue carries directory pushes to a reduce's event loop, one
// update per receive as a channel would, but push never blocks the watch
// callback and never drops: the queue grows on demand. ready holds a token
// whenever the queue is non-empty.
type updateQueue struct {
	ready chan struct{}
	mu    sync.Mutex
	items []directory.Update
}

func newUpdateQueue() *updateQueue {
	return &updateQueue{ready: make(chan struct{}, 1)}
}

func (q *updateQueue) push(u directory.Update) {
	q.mu.Lock()
	q.items = append(q.items, u)
	q.mu.Unlock()
	q.signal()
}

func (q *updateQueue) signal() {
	select {
	case q.ready <- struct{}{}:
	default:
	}
}

// pop takes the oldest update after a receive from ready. Updates are
// absorbed one at a time, each followed by the loop's reaction to it: a
// source's initial record can queue behind a newer push for the same
// source, and must not overwrite it before the newer one was acted on.
func (q *updateQueue) pop() (directory.Update, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return directory.Update{}, false
	}
	u := q.items[0]
	q.items[0] = directory.Update{}
	q.items = q.items[1:]
	if len(q.items) > 0 {
		q.signal()
	}
	return u, true
}

// watchAll watches every oid at once, so n watches cost one round trip,
// not n. It returns the initial records in oid order and a stop that ends
// every watch, again at once. A deleted object still registers its watch:
// its re-creation is what a reduce waits for.
func (n *Node) watchAll(ctx context.Context, oids []types.ObjectID, fn func(directory.Update)) ([]directory.Record, func(), error) {
	recs := make([]directory.Record, len(oids))
	stops := make([]func(), len(oids))
	errs := make([]error, len(oids))
	var wg sync.WaitGroup
	for i, oid := range oids {
		wg.Add(1)
		go func(i int, oid types.ObjectID) {
			defer wg.Done()
			rec, stop, err := n.dir.Watch(ctx, oid, fn)
			if err != nil && !errors.Is(err, types.ErrDeleted) {
				errs[i] = err
				return
			}
			recs[i], stops[i] = rec, stop
		}(i, oid)
	}
	wg.Wait()
	stopAll := func() {
		var wg sync.WaitGroup
		for _, stop := range stops {
			if stop != nil {
				wg.Add(1)
				go func(stop func()) { defer wg.Done(); stop() }(stop)
			}
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			stopAll()
			return nil, nil, err
		}
	}
	return recs, stopAll, nil
}

// reduceSmall gathers the first num small source payloads at the
// coordinator and publishes the folded result.
func (n *Node) reduceSmall(ctx context.Context, target types.ObjectID, sources []types.ObjectID, num int, op types.ReduceOp, size int64, updates *updateQueue, absorb func(directory.Update), inline map[types.ObjectID][]byte, readyOrder *[]types.ObjectID) ([]types.ObjectID, error) {
	var used []types.ObjectID
	acc := make([]byte, size)
	next := 0
	for len(used) < num {
		for next < len(*readyOrder) && len(used) < num {
			src := (*readyOrder)[next]
			next++
			payload := inline[src]
			if payload == nil {
				// Stored (not inline) small object: fetch it.
				var err error
				payload, err = n.Get(ctx, src)
				if err != nil {
					continue
				}
			}
			if int64(len(payload)) != size {
				return nil, fmt.Errorf("core: source %v size %d != %d", src, len(payload), size)
			}
			if len(used) == 0 {
				copy(acc, payload)
			} else if err := op.Accumulate(acc, payload); err != nil {
				return nil, err
			}
			used = append(used, src)
		}
		if len(used) >= num {
			break
		}
		select {
		case <-updates.ready:
			if u, ok := updates.pop(); ok {
				absorb(u)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err := n.Put(ctx, target, acc); err != nil && !errors.Is(err, types.ErrExists) {
		return nil, err
	}
	return used, nil
}

// reduceTree runs the dynamic d-ary tree reduce: slots fill with sources
// in arrival order (generalized in-order traversal), specs stream to
// participant hosts, a participant's dropped control connection marks it
// dead (socket liveness, §5.5), and failures trigger slot replacement plus
// epoch-bumped restarts of the ancestors (§3.5.2).
//
// Only the event loop's goroutine writes the slot state (assigned, epoch,
// outOID). Everything that waits on the network — spec calls, the target
// watch, the local root executor — runs beside it and reports back over a
// channel, so no round trip ever stalls the loop.
func (n *Node) reduceTree(ctx context.Context, target types.ObjectID, num int, op types.ReduceOp, size int64, updates *updateQueue, absorb func(directory.Update), srcLocs map[types.ObjectID][]types.Location, readyOrder *[]types.ObjectID, inQueue map[types.ObjectID]bool) ([]types.ObjectID, error) {
	d := n.cfg.ReduceDegree
	if d <= 0 {
		// The planner supplies L and B: measured link aggregates once the
		// cluster has traffic history, the configured priors before that.
		lat, bw := n.plan.reduceParams()
		d = chooseDegree(num, lat, bw, size, int64(n.cfg.ChunkSize))
	}
	if d > num {
		d = num
	}
	parent, children := treeShape(num, d)
	root := treeRoot(parent)
	isLeaf := func(slot int) bool { return len(children[slot]) == 0 }

	run := types.RandomObjectID()
	epoch := make([]int64, num)
	outOID := make([]types.ObjectID, num)
	shards := n.dir.NumShards()
	for i := range epoch {
		epoch[i] = 1
		if i == root {
			outOID[i] = target
		} else {
			outOID[i] = pinToShard(target, run, i, epoch[i], shards)
		}
	}
	assigned := make([]*assignment, num)
	assignedSrc := make(map[types.ObjectID]int) // src -> slot
	nextReady := 0
	// freeSlots returns the unfilled slots, lowest first: by default slots
	// fill in arrival order (in-order traversal positions) and after a
	// failure the vacated slot is refilled by the next ready source
	// ("replaced by the next ready source object", §3.5.2); the planner
	// roots the tree at this node when it holds a ready source and may
	// steer a slow host to a leaf slot.
	freeSlots := func() []int {
		var free []int
		for i, a := range assigned {
			if a == nil {
				free = append(free, i)
			}
		}
		return free
	}

	// finished releases every helper still waiting to report to the loop.
	finished := make(chan struct{})
	defer close(finished)

	// failed carries hosts whose spec call or control connection failed;
	// it holds a report per slot, so reporters seldom wait on the loop.
	// The subscription precedes the first spec, so no participant's loss
	// can fall between them.
	failed := make(chan types.NodeID, num)
	reportFailed := func(host types.NodeID) {
		select {
		case failed <- host:
		case <-finished:
		}
	}
	defer n.peerDown.subscribe(reportFailed)()

	// The target watch reports a remote root's completion, so it is off
	// the critical path: it registers while the specs go out.
	targetDone := make(chan struct{}, 1)
	markDone := func(locs []types.Location) {
		for _, l := range locs {
			if l.Progress.HasAll() {
				select {
				case targetDone <- struct{}{}:
				default:
				}
				return
			}
		}
	}
	type watched struct {
		stop func()
		err  error
	}
	targetWatch := make(chan watched, 1)
	go func() {
		recs, stop, err := n.watchAll(ctx, []types.ObjectID{target}, func(u directory.Update) { markDone(u.Locs) })
		if err == nil {
			markDone(recs[0].Locs)
		}
		targetWatch <- watched{stop, err}
	}()
	var stopTarget func()
	defer func() {
		if targetWatch != nil {
			stopTarget = (<-targetWatch).stop
		}
		if stopTarget != nil {
			stopTarget()
		}
	}()
	// rootDone carries the epoch of a local root executor that sealed and
	// registered the target: the reduce is over without waiting for the
	// directory to push that news back.
	rootDone := make(chan int64, 1)

	pickHost := func(locs []types.Location) (types.NodeID, bool) {
		var partial types.NodeID
		var ok bool
		for _, l := range locs {
			if l.Progress.HasAll() {
				return l.Node, true
			}
			if !ok {
				partial, ok = l.Node, true
			}
		}
		return partial, ok
	}

	buildSpec := func(slot int) *reduceSpec {
		refs := make([]childRef, 0, len(children[slot]))
		for _, c := range children[slot] {
			refs = append(refs, childRef{Slot: c, OID: outOID[c]})
		}
		return &reduceSpec{
			ReduceID:  run,
			Slot:      slot,
			Epoch:     epoch[slot],
			OwnOID:    assigned[slot].src,
			OutputOID: outOID[slot],
			Children:  refs,
			IsRoot:    slot == root,
			Size:      size,
			Op:        op,
		}
	}

	// sentTo is every host that was sent a spec; inflight counts the spec
	// calls not yet answered. Cleanup cancels the executors on all of them
	// once every call is answered, so no late start outlives the reduce.
	sentTo := make(map[types.NodeID]bool)
	var inflight sync.WaitGroup

	// sendSpec starts a slot on its host: directly when the host is this
	// node, else by a call that runs beside the loop and reports failure.
	sendSpec := func(slot int) {
		spec := buildSpec(slot)
		host := assigned[slot].host
		sentTo[host] = true
		if host == n.id {
			// Fails only when this node is closing, which ends the loop.
			e, err := n.startReduceSlot(spec)
			if err != nil || e == nil || !spec.IsRoot {
				return
			}
			go func() {
				select {
				case <-e.done:
				case <-finished:
					return
				}
				if e.completed {
					select {
					case rootDone <- spec.Epoch:
					case <-finished:
					}
				}
			}()
			return
		}
		payload, err := encodeSpec(spec)
		if err != nil {
			return
		}
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			if err := n.callReduceStart(host, payload); err != nil {
				reportFailed(host)
			}
		}()
	}

	// tryAssign fills open slots with ready sources in arrival order; the
	// planner picks which open slot each source gets (the root for this
	// node's own source, else the lowest free slot, a leaf for a
	// measured-slow host).
	tryAssign := func() {
		for {
			free := freeSlots()
			if len(free) == 0 {
				return
			}
			// Find the next ready, unassigned source with a live host.
			var src types.ObjectID
			var host types.NodeID
			found := false
			for nextReady < len(*readyOrder) {
				cand := (*readyOrder)[nextReady]
				nextReady++
				if _, dup := assignedSrc[cand]; dup {
					continue
				}
				if h, ok := pickHost(srcLocs[cand]); ok {
					src, host, found = cand, h, true
					break
				}
				inQueue[cand] = false // became unavailable; may re-arrive
			}
			if !found {
				return
			}
			slot := n.plan.chooseSlot(free, root, isLeaf, host)
			assigned[slot] = &assignment{src: src, host: host}
			assignedSrc[src] = slot
			sendSpec(slot)
		}
	}

	failHost := func(host types.NodeID) {
		if n.ctx.Err() != nil {
			return // this node is closing: its connections drop, not the peer
		}
		// Collect this host's slots, lowest (deepest in-order) first. A
		// host holding none is a stale report or a peer this reduce does
		// not use.
		var failedSlots []int
		for slot, a := range assigned {
			if a != nil && a.host == host {
				failedSlots = append(failedSlots, slot)
			}
		}
		if len(failedSlots) == 0 {
			return
		}
		pctx, cancel := n.rpcCtx()
		_ = n.dir.PurgeNode(pctx, host)
		cancel()
		// Drop the dead host from our cached locations right away: the
		// purge notification will confirm, but assignment must not route
		// to it in the meantime.
		for src, locs := range srcLocs {
			kept := locs[:0]
			for _, l := range locs {
				if l.Node != host {
					kept = append(kept, l)
				}
			}
			srcLocs[src] = kept
		}
		restart := make(map[int]bool)
		for _, slot := range failedSlots {
			a := assigned[slot]
			delete(assignedSrc, a.src)
			assigned[slot] = nil
			inQueue[a.src] = false // re-queue only if it re-arrives with a live location
			// The source may survive on another node (an extra copy);
			// requeue it directly in that case.
			if _, ok := pickHost(srcLocs[a.src]); ok {
				inQueue[a.src] = true
				*readyOrder = append(*readyOrder, a.src)
			}
			// The failed slot and all ancestors clear their outputs and
			// restart at a new epoch (Figure 5b).
			for s := slot; s != -1; s = parent[s] {
				restart[s] = true
			}
		}
		// Delete superseded outputs (waking any reader blocked on them),
		// bump epochs and reissue output IDs, then resend specs to live
		// hosts.
		dctx, cancel := n.rpcCtx()
		for s := range restart {
			_ = n.Delete(dctx, outOID[s])
		}
		cancel()
		for s := range restart {
			epoch[s]++
			if s == root {
				outOID[s] = target
			} else {
				outOID[s] = pinToShard(target, run, s, epoch[s], shards)
			}
		}
		for s := range restart {
			if assigned[s] != nil {
				sendSpec(s)
			}
		}
		tryAssign()
	}

	// cleanup hands the teardown to cleanupReduce, off the caller's path.
	cleanup := func() {
		var intermediates []types.ObjectID
		for s, a := range assigned {
			if a != nil && s != root {
				intermediates = append(intermediates, outOID[s])
			}
		}
		n.cleanupReduce(run, sentTo, intermediates, &inflight)
	}

	// finish returns the used sources, slot order, and tears down.
	finish := func() []types.ObjectID {
		used := make([]types.ObjectID, 0, num)
		for _, a := range assigned {
			if a != nil {
				used = append(used, a.src)
			}
		}
		cleanup()
		return used
	}

	tryAssign()

	// Event loop: absorb arrivals, replace failed participants, finish
	// when the target object is complete.
	for {
		select {
		case <-updates.ready:
			if u, ok := updates.pop(); ok {
				absorb(u)
				tryAssign()
			}
		case host := <-failed:
			failHost(host)
		case w := <-targetWatch:
			targetWatch = nil
			if w.err != nil {
				cleanup()
				return nil, w.err
			}
			stopTarget = w.stop
		case ep := <-rootDone:
			if ep == epoch[root] { // not a superseded root epoch
				return finish(), nil
			}
		case <-targetDone:
			return finish(), nil
		case <-ctx.Done():
			cleanup()
			return nil, ctx.Err()
		case <-n.ctx.Done():
			return nil, types.ErrClosed
		}
	}
}

// callReduceStart sends one slot spec to a remote host under the node's
// control-RPC bound.
func (n *Node) callReduceStart(host types.NodeID, payload []byte) error {
	ctx, cancel := n.rpcCtx()
	defer cancel()
	c, err := n.peerCtrl(ctx, string(host))
	if err != nil {
		return err
	}
	resp, err := c.Call(ctx, wire.Message{Method: wire.MethodReduceStart, Payload: payload})
	if err != nil {
		n.dropPeer(string(host), c)
		return err
	}
	return resp.ErrorOf()
}

// cleanupReduce tears a finished or cancelled reduce down off the caller's
// path: once every spec call is answered, every host that was sent a spec
// stops its executors, then every non-root slot output is deleted
// cluster-wide, which drops both the producer's copy and the parent's
// pulled copy (failHost does the same for a restarted subtree). The root's
// output is the target, which belongs to the application until Delete.
func (n *Node) cleanupReduce(run types.ObjectID, hosts map[types.NodeID]bool, intermediates []types.ObjectID, inflight *sync.WaitGroup) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		// A start still in flight could land after its cancel and leave
		// an executor nobody stops.
		inflight.Wait()
		ctx, cancel := n.rpcCtx()
		defer cancel()
		cancelMsg := wire.Message{Method: wire.MethodReduceCancel, Target: run}
		for host := range hosts {
			if host == n.id {
				n.handleReduceCancel(cancelMsg)
				continue
			}
			c, err := n.peerCtrl(ctx, string(host))
			if err != nil {
				continue
			}
			_, _ = c.Call(ctx, cancelMsg)
		}
		for _, oid := range intermediates {
			_ = n.Delete(ctx, oid)
		}
	}()
}
