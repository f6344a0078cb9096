// Package task is a miniature task-based distributed framework in the
// mold of Ray (§2.1): dynamic tasks returning object futures, a scheduler
// with per-node worker pools, and lineage-based fault tolerance — when a
// node dies, lost tasks re-execute and lost objects are reconstructed on
// demand, while surviving tasks keep running. It exists so the paper's
// application workloads (asynchronous SGD, RL loops, model serving) and
// failure/rejoin experiments run against Hoplite the way they run against
// Ray.
package task

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hoplite/internal/core"
	"hoplite/internal/types"
)

// Func is a task body. It reads arguments and writes returns through the
// Invocation, which wraps the Hoplite node the task was scheduled on.
type Func func(inv *Invocation) error

// Spec records a task invocation for lineage-based reconstruction.
type Spec struct {
	Name    string
	Args    []types.ObjectID
	Outputs []types.ObjectID
	// Node pins execution to a node index; -1 lets the scheduler choose.
	Node int
}

type task struct {
	spec    *Spec
	retries int
}

// AnyNode schedules the task on any live node.
const AnyNode = -1

// Cluster couples a set of Hoplite nodes with task workers.
type Cluster struct {
	nodes   []*core.Node
	workers int

	mu      sync.Mutex
	funcs   map[string]Func
	queue   []*task   // tasks schedulable anywhere
	pinned  [][]*task // per-node queues
	lineage map[types.ObjectID]*Spec
	running map[*task]int
	alive   []bool
	closed  bool
	kill    []context.CancelFunc // per-node task context cancel

	// wake is a broadcast: closed and replaced (under mu) on every
	// enqueue, waking every idle worker to re-check its queues. A lossy
	// single-token channel is not enough here — a worker on node i can
	// consume the token for a task pinned to node j and leave j's workers
	// parked — and a poll fallback would add up to its period in
	// scheduling latency.
	wake chan struct{}
	wg   sync.WaitGroup

	// GetTimeout is how long a Get waits before suspecting the object was
	// lost and re-executing its producing task.
	GetTimeout time.Duration
}

// NewCluster starts workersPerNode workers on each node.
func NewCluster(nodes []*core.Node, workersPerNode int) *Cluster {
	if workersPerNode <= 0 {
		workersPerNode = 2
	}
	c := &Cluster{
		nodes:      nodes,
		workers:    workersPerNode,
		funcs:      make(map[string]Func),
		pinned:     make([][]*task, len(nodes)),
		lineage:    make(map[types.ObjectID]*Spec),
		running:    make(map[*task]int),
		alive:      make([]bool, len(nodes)),
		kill:       make([]context.CancelFunc, len(nodes)),
		wake:       make(chan struct{}),
		GetTimeout: 2 * time.Second,
	}
	for i := range nodes {
		c.alive[i] = true
		ctx, cancel := context.WithCancel(context.Background())
		c.kill[i] = cancel
		for w := 0; w < workersPerNode; w++ {
			c.wg.Add(1)
			go c.worker(ctx, i)
		}
	}
	return c
}

// Register binds a function name to a task body. Names are the unit of
// lineage: re-execution invokes the same name with the same arguments.
func (c *Cluster) Register(name string, fn Func) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.funcs[name] = fn
}

// Node returns the i-th underlying Hoplite node.
func (c *Cluster) Node(i int) *core.Node { return c.nodes[i] }

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

func (c *Cluster) signal() {
	c.mu.Lock()
	close(c.wake)
	c.wake = make(chan struct{})
	c.mu.Unlock()
}

// Submit schedules a task and returns futures for its outputs. node pins
// placement (AnyNode for any). The futures can be passed to other tasks or
// fetched with Get before the task has even started (§2.1).
func (c *Cluster) Submit(name string, args []types.ObjectID, numReturns int, node int) []types.ObjectID {
	outs := make([]types.ObjectID, numReturns)
	for i := range outs {
		outs[i] = types.RandomObjectID()
	}
	spec := &Spec{Name: name, Args: args, Outputs: outs, Node: node}
	c.enqueue(&task{spec: spec})
	return outs
}

func (c *Cluster) enqueue(t *task) {
	c.mu.Lock()
	for _, out := range t.spec.Outputs {
		c.lineage[out] = t.spec
	}
	if t.spec.Node >= 0 && t.spec.Node < len(c.nodes) {
		c.pinned[t.spec.Node] = append(c.pinned[t.spec.Node], t)
	} else {
		c.queue = append(c.queue, t)
	}
	c.mu.Unlock()
	c.signal()
}

// dequeue pops a runnable task for node i (nil if none) and reports
// whether more work remains, so the popping worker can pass the wakeup
// token along instead of letting it die. ctx is the worker's lifetime: a
// worker whose node was killed must not grab tasks submitted after a
// revive spawned replacement workers.
func (c *Cluster) dequeue(ctx context.Context, i int) (*task, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || !c.alive[i] || ctx.Err() != nil {
		return nil, false
	}
	var t *task
	switch {
	case len(c.pinned[i]) > 0:
		t = c.pinned[i][0]
		c.pinned[i] = c.pinned[i][1:]
	case len(c.queue) > 0:
		t = c.queue[0]
		c.queue = c.queue[1:]
	default:
		return nil, false
	}
	c.running[t] = i
	return t, len(c.queue) > 0 || len(c.pinned[i]) > 0
}

func (c *Cluster) worker(ctx context.Context, i int) {
	defer c.wg.Done()
	for {
		if ctx.Err() != nil {
			return
		}
		// Snapshot the broadcast channel before checking the queues: any
		// enqueue after this point closes exactly the channel held here,
		// so a wakeup cannot slip between an empty dequeue and the wait.
		c.mu.Lock()
		closed := c.closed || !c.alive[i]
		ch := c.wake
		c.mu.Unlock()
		if closed {
			return
		}
		t, more := c.dequeue(ctx, i)
		if t == nil {
			select {
			case <-ch:
			case <-ctx.Done():
				return
			}
			continue
		}
		if more {
			c.signal() // more work remains: wake the siblings
		}
		c.run(ctx, i, t)
	}
}

func (c *Cluster) run(ctx context.Context, i int, t *task) {
	defer func() {
		c.mu.Lock()
		delete(c.running, t)
		c.mu.Unlock()
	}()
	c.mu.Lock()
	fn := c.funcs[t.spec.Name]
	c.mu.Unlock()
	if fn == nil {
		return
	}
	inv := &Invocation{Ctx: ctx, cluster: c, spec: t.spec, node: c.nodes[i], NodeIndex: i}
	err := fn(inv)
	if err != nil && ctx.Err() == nil && t.retries < 3 {
		t.retries++
		c.enqueue(t)
	}
	if ctx.Err() != nil {
		// The node died mid-task: re-execute elsewhere (the task system's
		// reconstruction, §2.1). Pinned tasks move to any-node.
		t.spec.Node = AnyNode
		c.enqueue(t)
	}
}

// Get fetches an object via the driver (node 0 by default), re-executing
// the producing task if the object appears to be lost (lineage
// reconstruction, §2.1). It recurses through lost arguments.
func (c *Cluster) Get(ctx context.Context, oid types.ObjectID) ([]byte, error) {
	return c.GetVia(ctx, 0, oid)
}

// GetVia fetches an object through a specific node's store.
func (c *Cluster) GetVia(ctx context.Context, node int, oid types.ObjectID) ([]byte, error) {
	return getReconstruct(ctx, c, oid, func(gctx context.Context) ([]byte, error) {
		return c.nodes[node].Get(gctx, oid)
	})
}

// GetRefVia fetches an object through a specific node's store as a
// pinned, zero-copy ObjectRef, reconstructing the producing task if the
// object appears lost. The caller must Release the ref.
func (c *Cluster) GetRefVia(ctx context.Context, node int, oid types.ObjectID) (*core.ObjectRef, error) {
	return getReconstruct(ctx, c, oid, func(gctx context.Context) (*core.ObjectRef, error) {
		return c.nodes[node].GetRef(gctx, oid)
	})
}

// getReconstruct is the lineage-reconstruction fetch loop shared by the
// copying and zero-copy Get paths: a fetch that times out or observes a
// deletion re-submits the producing task and tries again.
func getReconstruct[T any](ctx context.Context, c *Cluster, oid types.ObjectID, fetch func(context.Context) (T, error)) (T, error) {
	var zero T
	for {
		gctx, cancel := context.WithTimeout(ctx, c.GetTimeout)
		v, err := fetch(gctx)
		cancel()
		if err == nil {
			return v, nil
		}
		if ctx.Err() != nil {
			return zero, ctx.Err()
		}
		if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, types.ErrDeleted) && !errors.Is(err, types.ErrAborted) {
			return zero, err
		}
		if !c.reconstruct(oid) {
			return zero, fmt.Errorf("task: object %v lost with no lineage: %w", oid, types.ErrNotFound)
		}
	}
}

// reconstruct re-submits the task whose output is oid, unless it is
// already queued or running. It reports whether lineage exists.
func (c *Cluster) reconstruct(oid types.ObjectID) bool {
	c.mu.Lock()
	spec, ok := c.lineage[oid]
	if !ok {
		c.mu.Unlock()
		return false
	}
	pending := false
	for t := range c.running {
		if t.spec == spec {
			pending = true
		}
	}
	check := func(q []*task) {
		for _, t := range q {
			if t.spec == spec {
				pending = true
			}
		}
	}
	check(c.queue)
	for _, q := range c.pinned {
		check(q)
	}
	c.mu.Unlock()
	if !pending {
		spec.Node = AnyNode // the original node may be gone
		c.enqueue(&task{spec: spec})
	}
	return true
}

// Wait blocks until num of the given futures are available (like
// ray.wait), returning the ready and not-ready sets.
func (c *Cluster) Wait(ctx context.Context, oids []types.ObjectID, num int) (ready, rest []types.ObjectID, err error) {
	if num > len(oids) {
		num = len(oids)
	}
	dir := c.nodes[0].Directory()
	pending := append([]types.ObjectID(nil), oids...)
	for len(ready) < num {
		progressed := false
		next := pending[:0]
		for _, oid := range pending {
			rec, lerr := dir.Lookup(ctx, oid, false)
			available := lerr == nil && (rec.Inline != nil || hasComplete(rec.Locs))
			if available {
				ready = append(ready, oid)
				progressed = true
			} else {
				next = append(next, oid)
			}
		}
		pending = next
		if len(ready) >= num {
			break
		}
		if !progressed {
			select {
			case <-time.After(2 * time.Millisecond):
			case <-ctx.Done():
				return ready, pending, ctx.Err()
			}
		}
	}
	return ready, pending, nil
}

func hasComplete(locs []types.Location) bool {
	for _, l := range locs {
		if l.Progress.HasAll() {
			return true
		}
	}
	return false
}

// KillNode simulates a node failure for the task layer: its workers stop,
// running tasks are re-executed elsewhere. Call alongside the fabric-level
// kill so in-flight transfers break too.
func (c *Cluster) KillNode(i int) {
	c.mu.Lock()
	if !c.alive[i] {
		c.mu.Unlock()
		return
	}
	c.alive[i] = false
	cancel := c.kill[i]
	// Re-home this node's pinned tasks.
	orphans := c.pinned[i]
	c.pinned[i] = nil
	c.mu.Unlock()
	cancel()
	for _, t := range orphans {
		t.spec.Node = AnyNode
		c.enqueue(t)
	}
	c.signal()
}

// ReviveNode restarts workers on a previously killed node (the "task
// rejoins after reconstruction" scenario, §5.5).
func (c *Cluster) ReviveNode(i int) {
	c.mu.Lock()
	if c.alive[i] || c.closed {
		c.mu.Unlock()
		return
	}
	c.alive[i] = true
	ctx, cancel := context.WithCancel(context.Background())
	c.kill[i] = cancel
	workers := c.workers
	c.mu.Unlock()
	for w := 0; w < workers; w++ {
		c.wg.Add(1)
		go c.worker(ctx, i)
	}
	c.signal()
}

// Close stops all workers. It does not close the underlying nodes.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	cancels := append([]context.CancelFunc(nil), c.kill...)
	c.mu.Unlock()
	for _, cancel := range cancels {
		if cancel != nil {
			cancel()
		}
	}
	c.signal()
	c.wg.Wait()
}

// Invocation is the execution context handed to a task body.
type Invocation struct {
	// Ctx is canceled when the hosting node is killed.
	Ctx context.Context
	// NodeIndex is the index of the node the task runs on.
	NodeIndex int

	cluster *Cluster
	spec    *Spec
	node    *core.Node
}

// Node returns the Hoplite node the task runs on, for direct Put/Get/
// Reduce calls.
func (inv *Invocation) Node() *core.Node { return inv.node }

// Arg fetches a private copy of the i-th argument, reconstructing it if
// it was lost. Tasks that only read an argument should prefer ArgRef.
func (inv *Invocation) Arg(i int) ([]byte, error) {
	return inv.cluster.GetVia(inv.Ctx, inv.NodeIndex, inv.spec.Args[i])
}

// ArgRef fetches the i-th argument as a pinned, zero-copy read-only view,
// reconstructing it if it was lost. The task body must Release the ref
// before returning; the bytes must not be modified.
func (inv *Invocation) ArgRef(i int) (*core.ObjectRef, error) {
	return inv.cluster.GetRefVia(inv.Ctx, inv.NodeIndex, inv.spec.Args[i])
}

// SetReturn stores the i-th return value.
func (inv *Invocation) SetReturn(i int, data []byte) error {
	err := inv.node.Put(inv.Ctx, inv.spec.Outputs[i], data)
	if errors.Is(err, types.ErrExists) {
		return nil // idempotent re-execution
	}
	return err
}
