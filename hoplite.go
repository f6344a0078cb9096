// Package hoplite is an efficient and fault-tolerant collective
// communication layer for task-based distributed systems, reproducing the
// system described in "Hoplite: Efficient and Fault-Tolerant Collective
// Communication for Task-Based Distributed Systems" (SIGCOMM 2021).
//
// Hoplite is a distributed object store with collective-communication
// smarts: tasks Put immutable objects and Get them by ObjectID; broadcast
// emerges from receivers relaying to each other through a dynamic,
// directory-coordinated tree; Reduce folds a dynamic set of objects
// through a pipelined d-ary tree whose shape adapts to object size,
// latency and participant count — and both collectives keep making
// progress when participants fail.
//
// Quick start:
//
//	cluster, _ := hoplite.StartLocalCluster(4, hoplite.Options{})
//	defer cluster.Close()
//
//	a := cluster.Node(0)
//	oid := hoplite.ObjectIDFromString("weights-0")
//	_ = a.Put(ctx, oid, payload)
//	data, _ := cluster.Node(3).Get(ctx, oid)
package hoplite

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"reflect"

	"hoplite/internal/core"
	"hoplite/internal/netem"
	"hoplite/internal/types"
)

// Re-exported identifiers so applications only import this package.
type (
	// ObjectID names an immutable object; it doubles as a future.
	ObjectID = types.ObjectID
	// NodeID identifies a node (its listen address).
	NodeID = types.NodeID
	// ReduceOp is an element-wise commutative, associative operation.
	ReduceOp = types.ReduceOp
	// DType is the element type of a reducible object.
	DType = types.DType
	// OpKind is the operation kind of a ReduceOp.
	OpKind = types.OpKind
	// Node is a Hoplite object-store node; see the methods on core.Node:
	// Put, Create, Get, GetRef, GetAsync, GetAll, Reduce, ReduceAsync,
	// Delete.
	Node = core.Node
	// Config configures a standalone Node.
	Config = core.Config
	// ObjectRef is a ref-counted, pinned, zero-copy read-only view of an
	// object, returned by Node.GetRef / Node.GetRefAsync. Release it.
	ObjectRef = core.ObjectRef
	// ObjectWriter is the streaming producer handle returned by
	// Node.Create: io.Writer + Seal/Abort; readers pipeline off the
	// partial object while it is being written.
	ObjectWriter = core.ObjectWriter
	// RefFuture resolves to a pinned *ObjectRef (Node.GetRefAsync).
	RefFuture = core.Future[*core.ObjectRef]
	// BytesFuture resolves to a private payload copy (Node.GetAsync).
	BytesFuture = core.Future[[]byte]
	// ReduceFuture resolves to the sources used (Node.ReduceAsync).
	ReduceFuture = core.Future[[]types.ObjectID]
	// ClusterMap is the epoch-versioned membership map every node boots
	// from; see FetchClusterMap.
	ClusterMap = types.ClusterMap
)

// Re-exported enums and constructors.
const (
	F32 = types.F32
	F64 = types.F64
	I32 = types.I32
	I64 = types.I64

	Sum = types.Sum
	Min = types.Min
	Max = types.Max
)

// Errors re-exported for errors.Is checks.
var (
	ErrNotFound = types.ErrNotFound
	ErrDeleted  = types.ErrDeleted
	ErrClosed   = types.ErrClosed
)

// ObjectIDFromString derives a deterministic ObjectID from a unique string.
func ObjectIDFromString(s string) ObjectID { return types.ObjectIDFromString(s) }

// RandomObjectID returns a random ObjectID.
func RandomObjectID() ObjectID { return types.RandomObjectID() }

// SumF32 is the reduce op used throughout the paper's evaluation: addition
// over arrays of 32-bit floats.
var SumF32 = ReduceOp{Kind: types.Sum, DType: types.F32}

// NewNode starts a standalone node (production mode). See core.Config.
func NewNode(cfg Config) (*Node, error) { return core.NewNode(cfg) }

// FetchClusterMap asks each seed address in turn for the cluster map of
// a running cluster. Ephemeral clients use it before NewNode to derive
// the shard topology from one seed instead of restating the founding
// list; pass the result as Config.InitialMap.
func FetchClusterMap(ctx context.Context, fab netem.Fabric, seeds []string) (ClusterMap, error) {
	return core.FetchClusterMap(ctx, fab, seeds)
}

// Options configures a local cluster: the fields a cluster owns, plus the
// per-node config every node starts from.
type Options struct {
	// Emulate, if non-nil, shapes every node's links (one-way latency and
	// full-duplex per-node bandwidth) to stand in for the paper's
	// testbed. Nil runs plain loopback TCP. The emulated link also
	// supplies each node's Latency/Bandwidth priors unless Node sets them.
	Emulate *netem.LinkConfig
	// ShardNodes limits directory shards to the first k nodes (0 = every
	// node hosts one). Keeping shards on "head" nodes bounds how much
	// directory state rides on any one worker — the paper leaves
	// directory fault tolerance to the framework (§6); this reproduction
	// provides it via replication, see ReplicationFactor.
	ShardNodes int
	// ReplicationFactor is how many nodes replicate each directory shard
	// (default 3, capped at the number of shard-hosting nodes). Shard i's
	// replica group is nodes i, i+1, ... (mod ShardNodes) in succession
	// order. The primary forwards every mutation to every live backup at
	// once and acknowledges it once all have answered; when it dies the
	// live replica with the most applied ops promotes itself (the earlier
	// in succession order breaking ties), so killing any single node never
	// wedges directory metadata.
	// 1 disables replication.
	ReplicationFactor int
	// ObjectReplication is the object replication target the background
	// repair scanner restores after a node is drained or declared
	// permanently lost (default 1: no proactive copies, only sole-copy
	// evacuation off draining nodes). It never triggers on mere
	// disconnection — failure detection stays with the framework (§5.5).
	ObjectReplication int
	// Localities optionally labels nodes with locality domains (rack or
	// datacenter): node i gets Localities[i], missing entries mean no
	// label. Peers without measurements inherit their domain's mean link
	// estimate instead of the global prior.
	Localities []string
	// MemoryLimit bounds each node's in-memory store; see
	// core.Config.MemoryLimit. 0 = unbounded.
	MemoryLimit int64
	// SpillDir enables the disk spill tier under a root directory: each
	// node spills to its own SpillDir/<node-name>, so in-process nodes never
	// share an on-disk namespace and a restarted node finds exactly the
	// objects it spilled. Empty disables spill.
	SpillDir string
	// Node is the core.Config every node starts from (every zero field
	// selects its default). The cluster sets the fields it owns per node —
	// see clusterOwned — and StartLocalCluster rejects a Node that sets
	// any of them.
	Node Config
}

// clusterOwned lists the core.Config fields the cluster sets for each node
// itself; Options.Node must leave them zero.
var clusterOwned = []string{"Fabric", "Name", "Listener", "InitialMap", "JoinAddrs", "JoinStorageOnly", "Locality", "MemoryLimit", "SpillDir"}

// checkNode rejects a Node config that sets a field the cluster owns.
func (o Options) checkNode() error {
	v := reflect.ValueOf(o.Node)
	for _, name := range clusterOwned {
		if !v.FieldByName(name).IsZero() {
			return fmt.Errorf("hoplite: Options.Node.%s is set per node by the cluster; leave it zero", name)
		}
	}
	return nil
}

// localityFor returns the configured locality label for node i ("" when
// unlabeled or out of range — late AddNode joiners are unlabeled).
func (o Options) localityFor(i int) string {
	if i < 0 || i >= len(o.Localities) {
		return ""
	}
	return o.Localities[i]
}

// coreConfig derives one node's core.Config from Options.Node. Every node
// construction — initial boot, join and restart — goes through this single
// helper.
func (o Options) coreConfig(fab netem.Fabric, name string, ln net.Listener, initialMap *types.ClusterMap, locality string) core.Config {
	cfg := o.Node
	cfg.Fabric = fab
	cfg.Name = name
	cfg.Listener = ln
	cfg.InitialMap = initialMap
	cfg.Locality = locality
	cfg.MemoryLimit = o.MemoryLimit
	if o.SpillDir != "" {
		cfg.SpillDir = filepath.Join(o.SpillDir, name)
	}
	if o.Emulate != nil {
		if cfg.Latency == 0 {
			cfg.Latency = o.Emulate.Latency
		}
		if cfg.Bandwidth == 0 {
			cfg.Bandwidth = o.Emulate.BytesPerSec
		}
	}
	return cfg
}

// Cluster is a set of in-process Hoplite nodes sharing a fabric and a
// sharded, replicated directory.
type Cluster struct {
	fab     netem.Fabric
	em      *netem.Emulated
	opts    Options
	addrs   []string         // every node's (stable) listen address
	bootMap types.ClusterMap // epoch-1 membership map the cluster booted with
	nodes   []*core.Node
}

// StartLocalCluster boots n nodes on the loopback fabric from one founding
// cluster map. Each node (or the first Options.ShardNodes of them) hosts
// one directory shard.
func StartLocalCluster(n int, opts Options) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("hoplite: cluster size %d", n)
	}
	if err := opts.checkNode(); err != nil {
		return nil, err
	}
	var fab netem.Fabric
	var em *netem.Emulated
	if opts.Emulate != nil {
		em = netem.NewEmulated(*opts.Emulate)
		fab = em
	} else {
		fab = &netem.TCP{}
	}
	c := &Cluster{fab: fab, em: em, opts: opts}

	// Two-phase start: every node boots from the same founding map, which
	// names every address, but addresses are assigned at listen time — so
	// reserve all listeners first, then start the nodes.
	lns := make([]net.Listener, 0, n)
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := fab.Listen(fmt.Sprintf("node-%d", i))
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			c.Close()
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	c.addrs = addrs
	// The founding map puts one shard on each of the first ShardNodes
	// nodes; its derived groups give shard i the R shard hosts starting at
	// i, wrapping: group[0] is the initial primary and the rest the
	// succession order.
	r := opts.ReplicationFactor
	if r == 0 {
		r = 3
	}
	c.bootMap = types.FoundingMap(addrs, opts.ShardNodes, r, max(opts.ObjectReplication, 1))
	for i := range c.bootMap.Members {
		c.bootMap.Members[i].Locality = opts.localityFor(i)
	}
	for i := 0; i < n; i++ {
		node, err := core.NewNode(opts.coreConfig(fab, fmt.Sprintf("node-%d", i), lns[i], &c.bootMap, opts.localityFor(i)))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

// currentMap returns the freshest cluster map any live node holds,
// falling back to the boot map.
func (c *Cluster) currentMap() types.ClusterMap {
	best := c.bootMap
	for _, n := range c.nodes {
		if n == nil {
			continue
		}
		if cm := n.ClusterMap(); cm.Epoch > best.Epoch {
			best = cm
		}
	}
	return best
}

// liveAddrs returns the control addresses of every node still occupying
// its slot (killed-but-not-removed nodes included; callers that dial the
// list tolerate dead entries).
func (c *Cluster) liveAddrs() []string {
	var out []string
	for _, n := range c.nodes {
		if n != nil {
			out = append(out, n.Addr())
		}
	}
	return out
}

// AddNode scales the cluster out by one node: it joins through the
// membership shard, receives the cluster map, and starts serving (and,
// unless storageOnly, becomes eligible to host directory shard
// replicas — the map rebalance assigns it some as soon as it lands).
// Returns the new node's index.
func (c *Cluster) AddNode(storageOnly bool) (int, error) {
	i := len(c.nodes)
	name := fmt.Sprintf("node-%d", i)
	ln, err := c.fab.Listen(name)
	if err != nil {
		return -1, fmt.Errorf("hoplite: add node %d: %w", i, err)
	}
	cfg := c.opts.coreConfig(c.fab, name, ln, nil, c.opts.localityFor(i))
	cfg.JoinAddrs = c.liveAddrs()
	cfg.JoinStorageOnly = storageOnly
	node, err := core.NewNode(cfg)
	if err != nil {
		ln.Close()
		return -1, fmt.Errorf("hoplite: add node %d: %w", i, err)
	}
	c.nodes = append(c.nodes, node)
	c.addrs = append(c.addrs, ln.Addr().String())
	return i, nil
}

// DrainNode scales the cluster in by one node gracefully: node i stops
// taking placements, hands off its directory shard replicas, waits for
// its sole object copies to be evacuated, leaves the cluster map, and is
// closed. Its slot is left empty (nil), like after a failed restart.
func (c *Cluster) DrainNode(ctx context.Context, i int) error {
	node := c.nodes[i]
	if node == nil {
		return fmt.Errorf("hoplite: node %d is not running", i)
	}
	if err := node.Drain(ctx); err != nil {
		return err
	}
	c.nodes[i] = nil
	return node.Close()
}

// DeclareDead removes a permanently lost node from the cluster map (the
// operator's judgment, not the system's — mere disconnection never
// triggers this, per the paper's framework-owned failure model §5.5).
// The directory purges its locations and the repair scanner re-creates
// the lost copies on surviving nodes, restoring ObjectReplication.
func (c *Cluster) DeclareDead(ctx context.Context, i int) error {
	dead := types.NodeID(c.addrs[i])
	err := fmt.Errorf("hoplite: no live node to declare node %d dead", i)
	for _, n := range c.nodes {
		if n == nil || n.ID() == dead {
			continue
		}
		// A slot can hold a node whose fabric link was killed without the
		// cluster knowing; try the next candidate instead of giving up.
		if _, err = n.Directory().DeclareDead(ctx, dead); err == nil {
			return nil
		}
	}
	return err
}

// Node returns the i-th node (nil if the slot is empty after a failed
// RestartNode).
func (c *Cluster) Node(i int) *core.Node { return c.nodes[i] }

// Nodes returns all nodes.
func (c *Cluster) Nodes() []*core.Node { return c.nodes }

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Emulated returns the emulated fabric (nil when running plain TCP); use
// it for fault injection: cluster.Emulated().Kill("node-3").
func (c *Cluster) Emulated() *netem.Emulated { return c.em }

// SetNodeLink re-shapes node i's bandwidth at runtime (emulated fabric
// only); see netem.Emulated.SetNodeLink.
func (c *Cluster) SetNodeLink(i int, cfg netem.LinkConfig) error {
	if c.em == nil {
		return fmt.Errorf("hoplite: SetNodeLink requires an emulated fabric")
	}
	c.em.SetNodeLink(fmt.Sprintf("node-%d", i), cfg)
	return nil
}

// SetPairLink shapes the directional link from node i to node j at
// runtime (emulated fabric only): a pair-wise rate cap and/or one-way
// latency override on top of both nodes' own links. Shape the reverse
// direction with the arguments swapped; see netem.Emulated.SetPairLink.
func (c *Cluster) SetPairLink(i, j int, cfg netem.LinkConfig) error {
	if c.em == nil {
		return fmt.Errorf("hoplite: SetPairLink requires an emulated fabric")
	}
	c.em.SetPairLink(fmt.Sprintf("node-%d", i), fmt.Sprintf("node-%d", j), cfg)
	return nil
}

// KillNode abruptly disconnects node i (emulated fabric only): all of its
// sockets break, which is how peers detect the failure.
func (c *Cluster) KillNode(i int) error {
	if c.em == nil {
		return fmt.Errorf("hoplite: KillNode requires an emulated fabric")
	}
	c.em.Kill(fmt.Sprintf("node-%d", i))
	return nil
}

// RestartNode replaces a previously killed node with a fresh one under
// the same fabric name and listen address (a restarted process rejoining,
// §5.5). Former directory shard hosts are restartable too: a restarted
// member is still in the cluster map, so the rejoining node comes back as
// an out-of-sync backup of its shards and is re-synced by each current
// primary's snapshot push. On failure the node's slot is left empty (nil)
// and the error returned; the restart can simply be retried — Close and
// the other cluster methods tolerate the empty slot.
func (c *Cluster) RestartNode(i int) error {
	if c.em == nil {
		return fmt.Errorf("hoplite: RestartNode requires an emulated fabric")
	}
	if old := c.nodes[i]; old != nil {
		old.Close()
		c.nodes[i] = nil
	}
	name := fmt.Sprintf("node-%d", i)
	c.em.Revive(name)
	ln, err := c.em.ListenOn(name, c.addrs[i])
	if err != nil {
		return fmt.Errorf("hoplite: restart node %d: %w", i, err)
	}
	// Re-join through a live seed whenever one exists: join is idempotent
	// for a node still in the map, hands back the current epoch's map, and
	// — crucially — the joining node purges the stale directory locations
	// its previous life registered, so the repair scanner sees the true
	// replication level. With no live seed (whole-cluster restart), fall
	// back to booting from the freshest map any slot holds.
	cm := c.currentMap()
	cfg := c.opts.coreConfig(c.fab, name, ln, &cm, c.opts.localityFor(i))
	if seeds := c.liveAddrs(); len(seeds) > 0 {
		shardHost := true
		if mi := cm.MemberIndex(types.NodeID(c.addrs[i])); mi >= 0 {
			shardHost = cm.Members[mi].ShardHost
		}
		cfg.InitialMap = nil
		cfg.JoinAddrs = seeds
		cfg.JoinStorageOnly = !shardHost
	}
	node, err := core.NewNode(cfg)
	if err != nil {
		ln.Close()
		return fmt.Errorf("hoplite: restart node %d: %w", i, err)
	}
	c.nodes[i] = node
	return nil
}

// AllReduce folds num of the source objects into target with op and
// distributes the result to every node: the paper's allreduce is a reduce
// concatenated with a broadcast (§3.4.3). It returns the sources used.
// The broadcast leg is future-driven: each node's fetch resolves off its
// buffer completion watcher instead of a goroutine parked per node.
func (c *Cluster) AllReduce(ctx context.Context, coordinator int, target ObjectID, sources []ObjectID, num int, op ReduceOp) ([]ObjectID, error) {
	used, err := c.nodes[coordinator].Reduce(ctx, target, sources, num, op)
	if err != nil {
		return nil, err
	}
	futs := make([]*RefFuture, len(c.nodes))
	for i, n := range c.nodes {
		futs[i] = n.GetRefAsync(ctx, target)
	}
	for _, f := range futs {
		ref, e := f.Await(ctx)
		if e != nil {
			if err == nil {
				err = e
			}
			continue
		}
		ref.Release()
	}
	return used, err
}

// Close shuts down every node and the fabric. Slots left empty by a
// failed RestartNode are skipped.
func (c *Cluster) Close() error {
	for _, n := range c.nodes {
		if n != nil {
			n.Close()
		}
	}
	return c.fab.Close()
}
