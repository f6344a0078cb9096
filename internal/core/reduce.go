package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hoplite/internal/buffer"
	"hoplite/internal/directory"
	"hoplite/internal/types"
	"hoplite/internal/wire"
)

// reduceSpec tells a participant node to run one slot of a reduce tree
// (§3.4.2). The root's output is the target, which streams into broadcasts
// and chained reduces while still partial (§3.3). Any other slot's output
// is private to its run: its executor holds it, out of the store and the
// directory, and its parent alone pulls it, straight from the child's host.
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
	// intermediateOID(ReduceID, Slot, Epoch) otherwise.
	OutputOID types.ObjectID
	Children  []childRef
	IsRoot    bool
	Size      int64
	Op        types.ReduceOp
}

type childRef struct {
	OID  types.ObjectID // the child slot's current OutputOID
	Host types.NodeID   // the node running the child slot
}

// intermediateOID names a non-root slot's output for one epoch of one run,
// so a restarted slot's output never shares a name with the one it
// replaces, nor with any other run's.
func intermediateOID(run types.ObjectID, slot int, epoch int64) types.ObjectID {
	return run.Derive("reduce-slot", int64(slot), epoch)
}

// The spec travels in a wire.Message payload using the same fixed-layout
// binary style as the control-plane codec (internal/wire/codec.go): every
// field explicit, big-endian, length-checked on decode.
//
//	[20] reduce id      [20] own oid      [20] output oid
//	u32  slot           u64  epoch        u64  size
//	u8   is-root        u8   op kind      u8   op dtype
//	u32  children count + count × ([20] oid + u16 host length + host)
const (
	specFixedSize = 3*types.ObjectIDSize + 4 + 8 + 8 + 3 + 4
	childMinSize  = types.ObjectIDSize + 2
)

var errSpecChildren = errors.New("core: reduce spec children length mismatch")

func encodeSpec(s *reduceSpec) ([]byte, error) {
	if s.Slot < 0 || int64(uint32(s.Slot)) != int64(s.Slot) {
		return nil, fmt.Errorf("core: reduce slot %d out of range", s.Slot)
	}
	b := make([]byte, 0, specFixedSize+len(s.Children)*childMinSize)
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
		if len(c.Host) > 0xFFFF {
			return nil, fmt.Errorf("core: child host of %d bytes too long", len(c.Host))
		}
		b = append(b, c.OID[:]...)
		b = binary.BigEndian.AppendUint16(b, uint16(len(c.Host)))
		b = append(b, c.Host...)
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
	// n is attacker-controlled: bound it by the bytes left before
	// allocating for it.
	n := binary.BigEndian.Uint32(p[off:])
	if off += 4; uint64(n) > uint64((len(p)-off)/childMinSize) {
		return nil, errSpecChildren
	}
	s.Children = make([]childRef, n)
	for i := range s.Children {
		c := &s.Children[i]
		if len(p)-off < childMinSize {
			return nil, errSpecChildren
		}
		copy(c.OID[:], p[off:])
		hl := int(binary.BigEndian.Uint16(p[off+types.ObjectIDSize:]))
		if off += childMinSize; len(p)-off < hl {
			return nil, errSpecChildren
		}
		c.Host = types.NodeID(p[off : off+hl])
		off += hl
	}
	if off != len(p) {
		return nil, errSpecChildren
	}
	return &s, nil
}

// reduceExec is one running slot executor on a participant node.
type reduceExec struct {
	spec   *reduceSpec
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	// out is a non-root slot's output, served from here to the parent and
	// retired with the executor (nil for the root: the target is stored).
	out *buffer.Buffer
	// completed is set before done closes when the executor sealed its
	// output and registered it complete in the directory.
	completed bool
	// superseded is set before a newer epoch's executor cancels this one.
	superseded atomic.Bool
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
// (§3.5.2, Figure 5b): a non-root slot's new epoch writes a new private
// output, and a new root re-creates the target in place.
func (n *Node) startReduceSlot(spec *reduceSpec) (*reduceExec, error) {
	key := execKey{reduceID: spec.ReduceID, slot: spec.Slot}
	ctx, cancel := context.WithCancel(n.ctx)
	e := &reduceExec{spec: spec, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	if !spec.IsRoot {
		e.out = buffer.New(spec.Size)
	}
	n.mu.Lock()
	old, closed := n.execs[key], n.closed
	if closed || (old != nil && old.spec.Epoch >= spec.Epoch) {
		n.mu.Unlock()
		e.retire()
		if closed {
			return nil, types.ErrClosed
		}
		return nil, nil // stale or duplicate start
	}
	n.execs[key] = e
	n.mu.Unlock()
	// Wake a parent's pull parked on this output before it existed.
	n.signalStoreChange()
	if old != nil {
		old.superseded.Store(true)
		old.cancel()
	}
	n.detach(func() {
		defer close(e.done)
		if old != nil {
			// Wait out the superseded executor (off the node lock) before
			// touching its output: for the root slot both epochs share the
			// target OutputOID, so a dying executor still creating its
			// buffer would otherwise clobber the replacement's and wedge
			// the reduce.
			select {
			case <-old.done:
			case <-n.ctx.Done():
				return
			}
			old.retire()
		}
		n.runReduceSlot(e)
	})
	return e, nil
}

// retire cancels the executor and drops its private output; a serve
// still streaming it keeps the array until its pin drops.
func (e *reduceExec) retire() {
	e.cancel()
	if e.out != nil {
		e.out.Retire()
	}
}

// intermediateLocked returns this node's non-root slot output oid, or nil.
func (n *Node) intermediateLocked(oid types.ObjectID) *buffer.Buffer {
	for _, e := range n.execs {
		if e.out != nil && e.spec.OutputOID == oid {
			return e.out
		}
	}
	return nil
}

// ReduceExecutors reports how many reduce slot executors this node holds
// (used by tests and tools): a finished or cancelled reduce leaves none.
func (n *Node) ReduceExecutors() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.execs)
}

// handleReduceCancel stops every executor of a reduce and drops their
// intermediate outputs; the root's output is the target, which belongs to
// the application.
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
		e.retire()
	}
	return wire.Message{}
}

// runReduceSlot runs one slot to its end: the root creates and registers
// the target, any other slot fills the private output it was started
// with, and a fold that fails fails the output, so its reader stops too.
//
// The root re-creates the target in place (registerTarget), never through
// a Delete: a reader of the old bytes fails over onto the new ones.
func (n *Node) runReduceSlot(e *reduceExec) {
	spec, out := e.spec, e.out
	var err error
	if spec.IsRoot {
		if out, err = n.registerTarget(e.ctx, spec); out == nil {
			return
		}
	}
	if err == nil {
		err = n.fold(e.ctx, spec, out)
	}
	if err != nil && spec.IsRoot {
		// An input fails when a participant dies: wait for the coordinator.
		// A restart's Replace fails this buffer with ErrAborted, so local
		// readers move onto the new one; a cancel gives the target up.
		<-e.ctx.Done()
		if e.superseded.Load() {
			return
		}
	}
	if err != nil {
		// %v, not %w: the failure is final for this output. Its readers
		// must match the cause neither as a deletion (a child's retired
		// output) nor as a local race they should retry.
		out.Fail(fmt.Errorf("core: reduce slot %d: %v", spec.Slot, err))
		return
	}
	out.Seal()
	if spec.IsRoot {
		cctx, cancel := n.rpcCtx()
		defer cancel()
		e.completed = n.dir.PutComplete(cctx, spec.OutputOID) == nil
	}
}

// registerTarget creates the root's target and registers it as its only
// copy under a new generation. While other copies are listed, the
// directory drops them all instead: they are evicted, and a fresh buffer
// replaces this one, which a reader leased under the old generation may
// be streaming. No byte is written before the registration, so none
// reaches such a reader.
func (n *Node) registerTarget(ctx context.Context, spec *reduceSpec) (*buffer.Buffer, error) {
	for {
		out, err := n.store.Replace(spec.OutputOID, nil, spec.Size, true)
		if err != nil {
			return nil, err
		}
		n.signalStoreChange()
		stale, err := n.dir.Supersede(ctx, spec.OutputOID, spec.Size)
		if err != nil || len(stale) == 0 {
			return out, err
		}
		_ = n.evict(ctx, stale, wire.Message{Method: wire.MethodEvictLocal, OID: spec.OutputOID, Gen: 1})
	}
}

// fold streams this slot's reduction into out one wire frame (ChunkSize
// bytes, element-aligned) at a time: once its own object and each child
// subtree's watermark pass a run, it copies its own run into the slot
// output and folds each child's run into it there — so a hop forwards a frame
// while the next is still in flight, and a chain of n hops costs n frame
// times plus one object time (fine-grained pipelining, §3.3).
func (n *Node) fold(ctx context.Context, spec *reduceSpec, out *buffer.Buffer) error {
	// Own object: the coordinator placed this slot on a node already
	// holding it, so this is normally a store lookup; after an eviction
	// it becomes a remote fetch. Every input is read under a pin, so a
	// Delete racing the fold cannot recycle its array.
	own, err := n.ensureLocal(ctx, spec.OwnOID)
	if err == nil && !own.TryRef() {
		err = types.ErrAborted
	}
	if err != nil {
		return err
	}
	defer own.Unref()
	// Children outputs stream in concurrently, each straight from the
	// child's host, and are dropped when the fold ends.
	inputs := []*buffer.Buffer{own}
	for _, c := range spec.Children {
		b, drop, err := n.childInput(ctx, c, spec.Size)
		if err != nil {
			return err
		}
		defer drop()
		inputs = append(inputs, b)
	}

	block := min(int64(n.cfg.ChunkSize), spec.Size)
	if es := int64(spec.Op.DType.Size()); es > 0 {
		block = max(block-block%es, es)
	}
	for off := int64(0); off < spec.Size; off += block {
		end := min(off+block, spec.Size)
		for _, b := range inputs {
			wm, _, err := b.WaitAt(ctx, end-1)
			if err != nil {
				return err
			}
			if wm < end {
				return fmt.Errorf("core: reduce input short: %d < %d", wm, end)
			}
		}
		// Fold in place: the run lands in the output's own array, so a
		// leaf copies its source once and an inner slot folds each child
		// straight into that copy.
		err := out.Fill(off, end-off, func(p []byte) error {
			copy(p, own.Bytes()[off:end])
			for _, c := range inputs[1:] {
				if err := spec.Op.Accumulate(p, c.Bytes()[off:end]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// childInput returns the buffer a child slot's output streams into and
// its drop. A child on this node is read in place, pinned; a remote child
// is pulled straight from its host into a private buffer. No lease is
// taken: the parent is the output's only reader by construction.
func (n *Node) childInput(ctx context.Context, c childRef, size int64) (*buffer.Buffer, func(), error) {
	if c.Host == n.id {
		p, err := n.serveBuffer(ctx, c.OID) // finds it in its executor
		return p.Buf, p.Release, err
	}
	buf := buffer.New(size)
	n.detach(func() {
		err := n.data.Pull(ctx, string(c.Host), n.id, c.OID, 0, 0, buf, func(b int64, d time.Duration) {
			n.links.ObserveTransfer(c.Host, b, d)
		})
		if err != nil {
			buf.Fail(err)
		}
	})
	return buf, buf.Retire, nil
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
	recs, unwatch, err := n.watchAll(ctx, sources, updates.push)
	if err != nil {
		return nil, err
	}
	// The unwatches run after the result is decided, off the return path.
	defer func() { n.detach(func() { unwatchAll(unwatch) }) }()
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
	return n.reduceTree(ctx, target, num, op, size, updates, absorb, srcLocs, &readyOrder, inQueue, &unwatch)
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
// not n. It returns the initial records in oid order and the stops that
// end the watches (unwatchAll). A deleted object still registers its
// watch: its re-creation is what a reduce waits for.
func (n *Node) watchAll(ctx context.Context, oids []types.ObjectID, fn func(directory.Update)) ([]directory.Record, []func(), error) {
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
	for _, err := range errs {
		if err != nil {
			unwatchAll(stops)
			return nil, nil, err
		}
	}
	return recs, stops, nil
}

// unwatchAll ends watches one after another.
func unwatchAll(stops []func()) {
	for _, stop := range stops {
		if stop != nil {
			stop()
		}
	}
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
// epoch-bumped restarts of the ancestors (§3.5.2). It adds the target
// watch's stop to unwatch.
//
// Only the event loop's goroutine writes the slot state (assigned, epoch,
// sent). Everything that waits on the network — spec calls, the
// target watch, the local root executor — runs beside it and reports back
// over a channel, so no round trip ever stalls the loop.
func (n *Node) reduceTree(ctx context.Context, target types.ObjectID, num int, op types.ReduceOp, size int64, updates *updateQueue, absorb func(directory.Update), srcLocs map[types.ObjectID][]types.Location, readyOrder *[]types.ObjectID, inQueue map[types.ObjectID]bool, unwatch *[]func()) ([]types.ObjectID, error) {
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
	for i := range epoch {
		epoch[i] = 1
	}
	// sent is the epoch each slot's spec went out at (0: none yet).
	sent := make([]int64, num)
	output := func(slot int) types.ObjectID {
		if slot == root {
			return target
		}
		return intermediateOID(run, slot, epoch[slot])
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
		stops []func()
		err   error
	}
	targetWatch := make(chan watched, 1)
	go func() {
		recs, stops, err := n.watchAll(ctx, []types.ObjectID{target}, func(u directory.Update) { markDone(u.Locs) })
		if err == nil {
			markDone(recs[0].Locs)
		}
		targetWatch <- watched{stops, err}
	}()
	defer func() {
		if tw := targetWatch; tw != nil {
			*unwatch = append(*unwatch, func() { unwatchAll((<-tw).stops) })
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
			refs = append(refs, childRef{OID: output(c), Host: assigned[c].host})
		}
		return &reduceSpec{
			ReduceID:  run,
			Slot:      slot,
			Epoch:     epoch[slot],
			OwnOID:    assigned[slot].src,
			OutputOID: output(slot),
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
		sent[slot] = epoch[slot]
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

	// dispatch sends every slot whose current epoch has not gone out once
	// its spec can name each child's host: a leaf when it is assigned, a
	// parent with its last child.
	dispatch := func() {
		for s, a := range assigned {
			ready := a != nil && sent[s] != epoch[s]
			for _, c := range children[s] {
				ready = ready && assigned[c] != nil
			}
			if ready {
				sendSpec(s)
			}
		}
	}

	// tryAssign fills open slots with ready sources in arrival order; the
	// planner picks which open slot each source gets (the root for this
	// node's own source, else the lowest free slot, a leaf for a
	// measured-slow host). It then sends every spec that became ready.
	tryAssign := func() {
		defer dispatch()
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
		// A restarted intermediate gets a fresh ID at its new epoch, and its
		// host drops the superseded output when the new epoch replaces the
		// executor. A restarted root re-creates the target in place under a
		// new generation (runReduceSlot). tryAssign resends the specs.
		for s := range restart {
			epoch[s]++
		}
		tryAssign()
	}

	// cleanup tears the reduce down off the caller's path: once every spec
	// call is answered (a start landing after its cancel would leave an
	// executor nobody stops), every host that was sent a spec stops its
	// executors, which drops their intermediate outputs. The root's output
	// is the target, which belongs to the application until Delete.
	cleanup := func() {
		n.detach(func() {
			inflight.Wait()
			ctx, cancel := n.rpcCtx()
			defer cancel()
			cancelMsg := wire.Message{Method: wire.MethodReduceCancel, Target: run}
			for host := range sentTo {
				if host == n.id {
					n.handleReduceCancel(cancelMsg)
				} else if c, err := n.peerCtrl(ctx, string(host)); err == nil {
					_, _ = c.Call(ctx, cancelMsg)
				}
			}
		})
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
			*unwatch = append(*unwatch, w.stops...)
		case ep := <-rootDone:
			if ep == epoch[root] { // not a superseded root epoch
				return finish(), nil
			}
		case <-targetDone:
			// A local root reports through rootDone, which names its epoch:
			// the copy seen here may be a superseded epoch's.
			if a := assigned[root]; a == nil || a.host != n.id {
				return finish(), nil
			}
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
