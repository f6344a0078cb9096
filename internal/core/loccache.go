// Client-side location cache: the second leg of the small-object fast
// path. A node that has pulled a remote object once remembers where the
// complete copies live, so a repeat Get after local eviction goes
// straight to a known sender over the data plane — zero directory RPCs on
// the warm path. Entries are kept fresh by the directory's push
// notifications (§3.2 asynchronous location query): each cached object
// carries a Watch subscription whose updates rewrite the sender set and
// whose Deleted push drops the entry (and any unregistered local copy it
// produced). A stale hit — every cached sender gone — falls back through
// the normal directory acquire.
package core

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"hoplite/internal/directory"
	"hoplite/internal/types"
)

// locEntry is one cached object: where its complete (or spilled) copies
// live, as of the last directory response or push.
type locEntry struct {
	oid     types.ObjectID
	size    int64
	gen     int64
	senders []types.NodeID // complete/spilled holders, self excluded
	watch   func()         // Watch cancel; nil until the subscription lands
	armed   bool           // a watch subscription is in flight or live
	local   bool           // an unregistered local store copy exists
	elem    *list.Element
}

// locSnapshot is the lock-free view handed to the pull path.
type locSnapshot struct {
	size    int64
	gen     int64
	senders []types.NodeID
}

// CacheStats counts location-cache activity on one node.
type CacheStats struct {
	Hits          int64 // Gets served from a cached sender set
	Misses        int64 // Gets that consulted the directory
	Stale         int64 // cached pulls whose every sender was gone
	Invalidations int64 // entries dropped by push, eviction, or staleness
	Size          int   // live entries
}

// locCache is a node's LRU cache of directory lookup results.
type locCache struct {
	mu  sync.Mutex
	cap int
	m   map[types.ObjectID]*locEntry
	lru *list.List // front = most recently used

	hits, misses, stale, invals atomic.Int64
}

func newLocCache(capacity int) *locCache {
	return &locCache{
		cap: capacity,
		m:   make(map[types.ObjectID]*locEntry),
		lru: list.New(),
	}
}

// get returns a snapshot of the entry for oid, bumping its recency. A
// miss (or an entry with no live senders) counts as a miss: the caller is
// about to pay a directory round trip.
func (c *locCache) get(oid types.ObjectID) (locSnapshot, bool) {
	c.mu.Lock()
	e, ok := c.m[oid]
	if !ok || len(e.senders) == 0 {
		c.mu.Unlock()
		c.misses.Add(1)
		return locSnapshot{}, false
	}
	c.lru.MoveToFront(e.elem)
	snap := locSnapshot{size: e.size, gen: e.gen, senders: append([]types.NodeID(nil), e.senders...)}
	c.mu.Unlock()
	c.hits.Add(1)
	return snap, true
}

// insert creates or refreshes the entry for oid and returns any entries
// evicted to stay under capacity; the caller releases those (watch
// cancel, unregistered local copies) outside the lock.
func (c *locCache) insert(oid types.ObjectID, size, gen int64, senders []types.NodeID) []*locEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[oid]; ok {
		e.size, e.gen = size, gen
		if senders != nil {
			e.senders = senders
		}
		c.lru.MoveToFront(e.elem)
		return nil
	}
	e := &locEntry{oid: oid, size: size, gen: gen, senders: senders}
	e.elem = c.lru.PushFront(e)
	c.m[oid] = e
	var evicted []*locEntry
	for len(c.m) > c.cap {
		back := c.lru.Back()
		v := back.Value.(*locEntry)
		c.lru.Remove(back)
		delete(c.m, v.oid)
		evicted = append(evicted, v)
		c.invals.Add(1)
	}
	return evicted
}

// update rewrites an existing entry's sender set from a directory push.
// Absent entries are ignored — a push racing an eviction must not
// resurrect the entry.
func (c *locCache) update(oid types.ObjectID, size int64, senders []types.NodeID) {
	c.mu.Lock()
	if e, ok := c.m[oid]; ok {
		if size >= 0 {
			e.size = size
		}
		e.senders = senders
	}
	c.mu.Unlock()
}

// setWatch attaches the Watch cancel to a live entry. ok=false means the
// entry was evicted while the subscription was in flight; the caller
// cancels it itself.
func (c *locCache) setWatch(oid types.ObjectID, cancel func()) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[oid]
	if !ok {
		return false
	}
	e.watch = cancel
	return true
}

// markLocal flags that a cached direct pull materialized an unregistered
// local store copy for oid: only the entry's push subscription keeps it
// honest.
func (c *locCache) markLocal(oid types.ObjectID) {
	c.mu.Lock()
	if e, ok := c.m[oid]; ok {
		e.local = true
	}
	c.mu.Unlock()
}

// invalidate removes and returns the entry for oid, if present.
func (c *locCache) invalidate(oid types.ObjectID) *locEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[oid]
	if !ok {
		return nil
	}
	c.lru.Remove(e.elem)
	delete(c.m, oid)
	c.invals.Add(1)
	return e
}

func (c *locCache) stats() CacheStats {
	c.mu.Lock()
	n := len(c.m)
	c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Stale:         c.stale.Load(),
		Invalidations: c.invals.Load(),
		Size:          n,
	}
}

// CacheStats reports the node's location-cache counters. A zero-size
// cache (LocationCacheSize < 0) reports zeros.
func (n *Node) CacheStats() CacheStats {
	if n.locs == nil {
		return CacheStats{}
	}
	return n.locs.stats()
}

// ---- Node glue -------------------------------------------------------

// completeSenders extracts the nodes holding a servable whole copy
// (complete or spilled) from a location list, excluding this node.
func (n *Node) completeSenders(locs []types.Location) []types.NodeID {
	var out []types.NodeID
	for _, l := range locs {
		if l.Node != n.id && l.Progress.HasAll() {
			out = append(out, l.Node)
		}
	}
	return out
}

// armLocCache records freshly learned locations for oid and, for a new
// entry, establishes the push subscription that keeps it honest. The
// subscription RPC runs off the Get's critical path. seeds lists nodes
// known to hold whole copies (may be nil: the watch record fills them in).
func (n *Node) armLocCache(oid types.ObjectID, size, gen int64, seeds []types.NodeID) {
	if n.locs == nil || n.ctx.Err() != nil {
		return
	}
	var filtered []types.NodeID
	for _, s := range seeds {
		if s != n.id {
			filtered = append(filtered, s)
		}
	}
	evicted := n.locs.insert(oid, size, gen, filtered)
	n.releaseLocEntries(evicted)
	if !n.locs.armWatch(oid) {
		return // refresh of an entry whose subscription is live or in flight
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		ctx, cancel := n.rpcCtx()
		defer cancel()
		rec, cancelWatch, err := n.dir.Watch(ctx, oid, func(u directory.Update) { n.onLocUpdate(oid, u) })
		if err != nil {
			cancelWatch()
			n.dropLocEntry(oid)
			return
		}
		if !n.locs.setWatch(oid, cancelWatch) {
			cancelWatch() // evicted while subscribing
			return
		}
		n.locs.update(oid, rec.Size, n.completeSenders(rec.Locs))
	}()
}

// armWatch claims the right to establish oid's subscription: it returns
// true exactly once per entry lifetime, so concurrent cold Gets of the
// same object produce a single Watch.
func (c *locCache) armWatch(oid types.ObjectID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[oid]
	if !ok || e.armed {
		return false
	}
	e.armed = true
	return true
}

// onLocUpdate applies one directory push to the cache. It runs on the
// directory client's notify path, so it must not block.
func (n *Node) onLocUpdate(oid types.ObjectID, u directory.Update) {
	if u.Deleted {
		n.noteTombstone(oid)
		n.dropLocEntry(oid)
		return
	}
	n.locs.update(oid, u.Size, n.completeSenders(u.Locs))
}

// dropLocEntry invalidates oid's cache entry and releases what it owned.
func (n *Node) dropLocEntry(oid types.ObjectID) {
	if n.locs == nil {
		return
	}
	if e := n.locs.invalidate(oid); e != nil {
		n.releaseLocEntries([]*locEntry{e})
	}
}

// releaseLocEntries tears down dead cache entries: cancel their watches
// (an RPC when it is the object's last local subscription — done off the
// caller's path) and drop any unregistered local copies, which only the
// entry's push subscription was keeping honest.
func (n *Node) releaseLocEntries(entries []*locEntry) {
	for _, e := range entries {
		if e.local {
			n.store.Delete(e.oid)
		}
		if e.watch != nil {
			w := e.watch
			n.wg.Add(1)
			go func() { defer n.wg.Done(); w() }()
		}
	}
}

// noteTombstone records that oid was deleted cluster-wide as observed by
// this node (EvictLocal fan-out, a Deleted push, or its own Delete call).
// The inline fast path consults it: an inline payload whose acquire
// overlapped the deletion is served to the caller but never materialized
// in the store, so the eviction fan-out cannot be outrun (resurrection).
func (n *Node) noteTombstone(oid types.ObjectID) {
	now := time.Now()
	n.tombMu.Lock()
	if n.tombs == nil {
		n.tombs = make(map[types.ObjectID]time.Time)
	}
	if len(n.tombs) > 1024 {
		for k, t := range n.tombs {
			if now.Sub(t) > deleteGrace {
				delete(n.tombs, k)
			}
		}
	}
	n.tombs[oid] = now
	n.tombMu.Unlock()
}

// tombstonedSince reports whether oid was tombstoned after the given
// instant (typically a pull's start time).
func (n *Node) tombstonedSince(oid types.ObjectID, since time.Time) bool {
	n.tombMu.Lock()
	t, ok := n.tombs[oid]
	n.tombMu.Unlock()
	return ok && t.After(since)
}
