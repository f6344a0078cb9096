// Package core implements Hoplite itself: the per-node object store
// service that plugs the directory, store, and transport together and runs
// the paper's receiver-driven broadcast (§3.4.1), dynamic tree reduce
// (§3.4.2), fine-grained pipelining (§3.3), and fault-tolerant schedule
// adaptation (§3.5).
package core

import (
	"net"
	"time"

	"hoplite/internal/netem"
	"hoplite/internal/transport"
	"hoplite/internal/types"
)

// Default tuning constants, matching the paper where it states values.
const (
	// DefaultInlineThreshold is the small-object fast-path threshold:
	// objects below it live inline in the directory (§3.2, 64 KB), so a
	// cold Get of one is a single directory RPC with the payload riding
	// the Acquire reply.
	DefaultInlineThreshold = 64 << 10
	// DefaultLocationCacheSize bounds the per-node cache of directory
	// lookup results (see loccache.go).
	DefaultLocationCacheSize = 4096
	// DefaultStripeThreshold is the minimum object size for which a Get
	// stripes ranged pulls across multiple complete copies. Below it a
	// single pipelined pull saturates the path; above it the aggregate
	// egress bandwidth of several senders is worth the extra connections.
	DefaultStripeThreshold = 32 << 20
	// DefaultMaxSources caps how many senders one striped Get drains
	// concurrently.
	DefaultMaxSources = 4
)

// Config configures a Node.
type Config struct {
	// Fabric supplies listeners and dialers; use netem.TCP for production
	// and netem.Emulated for testbed emulation. Required.
	Fabric netem.Fabric
	// Name is the fabric node name used for shaping and fault injection.
	// Defaults to the listen address.
	Name string
	// Listener, if set, is used instead of opening a new one via the
	// fabric. Cluster bootstrap pre-creates listeners so the founding map
	// can name every node's address before any node starts.
	Listener net.Listener

	// Every node boots from an epoch-versioned cluster map: directory shard
	// replica groups are derived from it, requests are stamped with its
	// epoch, and later joins/drains re-shape the cluster live. InitialMap
	// and JoinAddrs are the two ways to supply one; with neither set the
	// node founds a one-member cluster on its own listen address, which
	// others then join.
	//
	// InitialMap boots from the given map: the founding map (see
	// types.FoundingMap; all founders must pass the identical one), or a
	// map fetched from a running cluster by an ephemeral non-member client
	// (see FetchClusterMap).
	InitialMap *types.ClusterMap
	// JoinAddrs lists control addresses of a running cluster. When
	// non-empty the node joins at startup: it announces itself to the
	// membership shard, receives the cluster map, and boots from it. Takes
	// precedence over InitialMap.
	JoinAddrs []string
	// JoinStorageOnly joins the node as a pure storage member: it hosts
	// object bytes but is never assigned a directory shard replica.
	JoinStorageOnly bool
	// RepairInterval is the period of the directory re-replication
	// scanner that restores the map's ObjectRF after permanent node loss
	// and evacuates sole copies off draining nodes. Zero selects the
	// directory default (250ms); negative disables the scanner.
	RepairInterval time.Duration

	// InlineThreshold is the inline fast-path threshold in bytes: objects
	// below it are stored inline in the directory and delivered in
	// Acquire/Lookup replies, so a cold Get of one is exactly one RPC.
	// Defaults to DefaultInlineThreshold. Negative disables the fast path.
	InlineThreshold int64

	// LocationCacheSize bounds the per-node cache of directory lookup
	// results that lets repeat Gets of remote objects skip the directory
	// and pull straight from a known complete-copy holder. Zero selects
	// DefaultLocationCacheSize; negative disables the cache.
	LocationCacheSize int
	// ChunkSize is the data-plane wire chunk size, and the run a reduce
	// slot folds and forwards at a time. Defaults to
	// transport.DefaultChunkSize (256 KiB).
	ChunkSize int

	// MemoryLimit bounds the in-memory store in bytes and enables
	// admission control: a Put/Create that cannot fit under the limit —
	// even after demoting or evicting every eligible cold object — blocks
	// (governed by its ctx) instead of overshooting or failing. Combine
	// with SpillDir for the tiered out-of-core mode. Zero leaves the store
	// unbounded.
	MemoryLimit int64
	// SpillDir, when set, enables the disk spill tier: under memory
	// pressure cold sealed objects are demoted to files in this directory
	// instead of dropped. A spilled object keeps its directory location
	// (downgraded to the Spilled flavor), serves remote pulls — full or
	// ranged — straight off disk, and is transparently restored into
	// memory on a local Get. The directory is rescanned at startup, so a
	// restarted node re-offers the objects it spilled in a previous life.
	SpillDir string

	// StripeThreshold is the minimum object size for a striped Get that
	// pulls disjoint ranges from several complete copies concurrently.
	// Defaults to DefaultStripeThreshold; negative disables striping.
	StripeThreshold int64
	// MaxSources caps the senders of one striped Get. Defaults to
	// DefaultMaxSources; 1 disables striping.
	MaxSources int

	// Latency and Bandwidth are cold-start priors for the per-link L and B
	// estimates that drive reduce-tree degree selection (§3.4.2) and
	// striped-Get planning. Before any traffic has been measured the
	// planner uses them directly; once the link-state tracker has samples
	// for a peer, the measured estimate takes over (decaying back toward
	// these priors when a link goes quiet). Zero selects the linkstate
	// defaults, 200µs and 1.25 GB/s (the paper's 10 Gbps testbed).
	Latency   time.Duration
	Bandwidth float64

	// Locality is this node's optional rack/DC label. It is announced on
	// join, carried on the cluster map, and used by the link-state tracker
	// to estimate unmeasured peers from the locality-domain mean.
	Locality string

	// SchedClasses configures the data-plane egress scheduler: 2 (default)
	// enables the weighted-fair latency/bulk scheduler so a saturating
	// striped Get cannot starve a small Get; 1 disables scheduling.
	SchedClasses int

	// ReduceDegree forces the reduce tree degree: 0 = choose
	// automatically among {1, 2, n}; otherwise the given d is used
	// (n-ary when d >= n). Used by the Figure 15 ablation.
	ReduceDegree int
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.InlineThreshold == 0 {
		cfg.InlineThreshold = DefaultInlineThreshold
	}
	if cfg.InlineThreshold < 0 {
		cfg.InlineThreshold = 0
	}
	if cfg.LocationCacheSize == 0 {
		cfg.LocationCacheSize = DefaultLocationCacheSize
	}
	if cfg.LocationCacheSize < 0 {
		cfg.LocationCacheSize = 0
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = transport.DefaultChunkSize
	}
	if cfg.StripeThreshold == 0 {
		cfg.StripeThreshold = DefaultStripeThreshold
	}
	if cfg.MaxSources == 0 {
		cfg.MaxSources = DefaultMaxSources
	}
	if cfg.MaxSources < 1 {
		cfg.MaxSources = 1
	}
	if cfg.SchedClasses == 0 {
		cfg.SchedClasses = 2
	}
	return cfg
}
