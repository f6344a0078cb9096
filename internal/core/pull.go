package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"hoplite/internal/buffer"
	"hoplite/internal/directory"
	"hoplite/internal/types"
)

// pull tracks one in-flight inbound transfer so concurrent Gets of the
// same object share it ("if there is an on-going request for the object
// locally, the receiver just waits until it gets the completed object",
// §3.4.1).
type pull struct {
	ready   chan struct{} // closed once buf is set (or err)
	buf     *buffer.Buffer
	err     error
	started time.Time // registration instant, for the inline tombstone check
}

// A Get fills its buffer through one executor (runPlan) whatever the
// path. A plan holds the buffer, a first round of sources and a next rule;
// every source in a round claims missing ledger runs, fetches them, and on
// error releases its claim for the survivors (§3.3, §3.5.1). A single
// pull is a round of one leased peer, a striped pull a round of k, repair
// the round after a striped failure, and a spill restore a source that
// reads a file. Every peer source holds a directory lease, so every pulled
// copy is a registered location (§3.4.1).

// source fills claimed byte ranges of a pull's buffer from one place.
type source interface {
	// fetch writes [off, off+length) of buf, or from off (the watermark)
	// to the end when length is 0.
	fetch(ctx context.Context, buf *buffer.Buffer, off, length int64) error
	// done reports how the source left the pull; it runs exactly once.
	// For releasedComplete it returns the directory's answer (see keep).
	done(o outcome) error
}

// outcome is how a source left a pull; done turns it into the matching
// directory call.
type outcome int

const (
	releasedPartial  outcome = iota // nothing left to claim; the round registers the copy
	releasedComplete                // finished the object alone: the release registers the copy
	abortedDead                     // a fetch failed: the source is gone
	abortedAlive                    // stopped by deletion, shutdown or a local failure
)

// pullPlan is one Get's way of filling buf. next yields one more source
// whenever a round dies with bytes missing; nil means there is no other
// source (a spill restore).
type pullPlan struct {
	n     *Node
	oid   types.ObjectID
	p     *pull
	buf   *buffer.Buffer
	gen   int64 // the object generation buf's bytes belong to
	first []source
	spans []int64 // per-source claim spans of a striped first round
	next  func(*pullPlan) (source, error)
}

// ensureLocal returns a local buffer for oid, starting (or joining) a
// receiver-driven pull when the object is remote. The returned buffer may
// still be filling; callers stream via WaitAt/WaitComplete.
func (n *Node) ensureLocal(ctx context.Context, oid types.ObjectID) (*buffer.Buffer, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, types.ErrClosed
	}
	if buf, ok := n.store.Get(oid); ok {
		n.mu.Unlock()
		return buf, nil
	}
	if p, ok := n.pulls[oid]; ok {
		n.mu.Unlock()
		select {
		case <-p.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return p.buf, p.err
	}
	p := &pull{ready: make(chan struct{}), started: time.Now()}
	n.pulls[oid] = p
	n.mu.Unlock()
	return n.startPull(ctx, oid, p)
}

// startPull makes the first acquisition for a registered pull and launches
// its plan. Sources are tried in order: this node's spill tier, a
// multi-lease of complete copies (striped when the object is large
// enough), then a blocking single lease.
func (n *Node) startPull(ctx context.Context, oid types.ObjectID, p *pull) (*buffer.Buffer, error) {
	// finish resolves the pull without a transfer: an inline payload or an
	// error.
	finish := func(buf *buffer.Buffer, err error) (*buffer.Buffer, error) {
		p.buf, p.err = buf, err
		n.endPull(oid, p)
		close(p.ready)
		return buf, err
	}
	// inline serves the small-object fast path: the payload came with the
	// acquire reply.
	inline := func(payload []byte) (*buffer.Buffer, error) {
		if !n.tombstonedSince(oid, p.started) {
			buf, err := n.store.InsertSealed(oid, payload, false)
			if errors.Is(err, types.ErrExists) {
				// A racing local writer owns the entry; use its buffer. The
				// eviction fan-out owns that entry, so no tombstone recheck.
				if existing, ok := n.store.Get(oid); ok {
					n.signalStoreChange()
					return finish(existing, nil)
				}
			}
			if err != nil {
				return finish(nil, err)
			}
			if !n.tombstonedSince(oid, p.started) {
				n.signalStoreChange()
				return finish(buf, nil)
			}
			// The eviction fan-out landed between the check above and the
			// insert; take our copy back out.
			n.store.Delete(oid)
		}
		// Serve the Get from a buffer that is NOT in the store: the object
		// was deleted while the reply was in flight, so materializing a copy
		// the eviction fan-out already missed would resurrect it. The
		// overlapping caller still gets its bytes.
		buf := buffer.New(int64(len(payload)))
		if err := buf.Append(payload); err != nil {
			return finish(nil, err)
		}
		buf.Seal()
		return finish(buf, nil)
	}

	// Spill tier first: a demoted object restores locally instead of going
	// back to the network. Plain Create, not CreateAdmit: a restore must not
	// block on admission (it is often what a blocked admission is waiting
	// for); it instead triggers demotion of colder objects, which is the
	// restore-under-eviction-pressure cycle the watermarks bound.
	if n.spill != nil {
		if size, ok := n.spill.Contains(oid); ok {
			if buf, err := n.store.Create(oid, size, false); err == nil {
				return n.launch(&pullPlan{n: n, oid: oid, p: p, buf: buf, first: []source{spillSource{n, oid}}}), nil
			}
		}
	}
	var srcs []source
	var seeds []types.NodeID // leased whole-copy holders, best link first
	var size, gen int64
	if n.cfg.MaxSources > 1 && n.cfg.StripeThreshold > 0 {
		ml, err := n.dir.AcquireSenders(ctx, oid, n.cfg.MaxSources)
		if err == nil && ml.Inline != nil {
			return inline(ml.Inline)
		}
		// Best link first: a striped round drains the fastest senders
		// hardest, and the single-lease fallback keeps the first.
		if err == nil {
			seeds, size, gen = n.plan.rankSenders(ml.Senders), ml.Size, ml.Gen
		}
		for _, s := range seeds {
			srcs = append(srcs, &peerSource{n, oid, s})
		}
		// With no unleased complete copy right now (or the object not yet
		// produced) fall through to the blocking acquire, which also
		// accepts partial copies.
	}
	if srcs == nil {
		lease, err := n.dir.AcquireSender(ctx, oid, true)
		if err != nil {
			return finish(nil, err)
		}
		if lease.Inline != nil {
			return inline(lease.Inline)
		}
		srcs, size, gen = []source{&peerSource{n, oid, lease.Sender}}, lease.Size, lease.Gen
	}
	striped := len(srcs) >= 2 && size >= n.cfg.StripeThreshold
	if !striped {
		// Striping is not worthwhile (object below the threshold, or a
		// single eligible copy): keep the first lease, return the rest.
		release(srcs[1:])
		srcs = srcs[:1]
	}
	var buf *buffer.Buffer
	var err error
	if size < 0 {
		err = fmt.Errorf("core: object %v has unknown size", oid)
	} else {
		buf, err = n.store.CreateChunked(oid, size, stripeChunk(size, len(srcs)), false)
	}
	if err != nil {
		release(srcs)
		return finish(nil, err)
	}
	pl := &pullPlan{n: n, oid: oid, p: p, buf: buf, gen: gen, first: srcs, next: nextLease}
	if striped {
		// The planner scales each sender's span with its estimated
		// bandwidth, so faster links claim longer runs per trip.
		pl.spans = n.plan.stripeSpans(seeds, buf.ChunkSize())
	}
	return n.launch(pl), nil
}

// launch hands the plan's buffer to the Get (and any joiners) and runs the
// plan on its own goroutine: pulls outlive the requesting call.
func (n *Node) launch(pl *pullPlan) *buffer.Buffer {
	n.signalStoreChange()
	pl.p.buf = pl.buf
	close(pl.p.ready)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.runPlan(pl)
	}()
	return pl.buf
}

// runPlan is the pull executor: one round at a time until the buffer is
// complete, fails, or next has nothing more to offer.
func (n *Node) runPlan(pl *pullPlan) {
	defer n.endPull(pl.oid, pl.p)
	srcs, spans := pl.first, pl.spans
	for {
		err := n.runRound(pl, srcs, spans)
		switch {
		case pl.buf.Complete():
			if len(srcs) > 1 { // a striped round's releases did not register the copy
				ctx, cancel := n.rpcCtx()
				pl.keep(n.dir.PutComplete(ctx, pl.oid))
				cancel()
			}
			return
		case n.ctx.Err() != nil:
			pl.buf.Fail(types.ErrClosed)
			return
		case pl.buf.Failed() != nil:
			return // deleted under the pull: the deleter dropped the store entry
		}
		var src source
		if pl.next != nil {
			src, err = pl.next(pl)
		}
		if src == nil {
			// A failed rebind has already dropped (and failed) the buffer,
			// and a racing writer may own the store entry by now.
			if pl.buf.Failed() == nil {
				pl.buf.Fail(err)
				n.store.Abort(pl.oid, pl.buf)
			}
			return
		}
		srcs, spans = []source{src}, nil
	}
}

// runRound drains one round's sources: the first on this goroutine, any
// others on a worker each. Only a round of one reports its fetch error.
func (n *Node) runRound(pl *pullPlan, srcs []source, spans []int64) error {
	if len(srcs) == 1 {
		return n.drain(pl, srcs[0], 0)
	}
	var wg sync.WaitGroup
	for i := 1; i < len(srcs); i++ {
		wg.Add(1)
		go func(src source, span int64) {
			defer wg.Done()
			n.drain(pl, src, span)
		}(srcs[i], spans[i])
	}
	n.drain(pl, srcs[0], spans[0])
	wg.Wait()
	return nil
}

// drain is one source's claim → fetch → release loop. A failed fetch hands
// its unwritten chunks back to the ledger, so the round's survivors, or
// the next round, re-fetch exactly the missing ranges. A span of 0 marks a
// round of one, which claims everything missing; there a claim from the
// watermark to the end goes out as a full pull, sealed by the sender's EOF
// frame, so ranged pulls are left to striped rounds.
func (n *Node) drain(pl *pullPlan, src source, span int64) error {
	buf := pl.buf
	solo := span == 0
	if solo {
		span = buf.Size()
	}
	for {
		off, length, ok := buf.ClaimNext(span)
		if !ok {
			// A full pull seals at EOF; ranged and file fetches leave it here.
			if buf.Present() == buf.Size() && !buf.Complete() {
				buf.Seal()
			}
			if solo && buf.Complete() {
				pl.keep(src.done(releasedComplete))
			} else {
				src.done(releasedPartial)
			}
			return nil
		}
		want := length
		if solo && off == buf.Watermark() && off+length == buf.Size() {
			want = 0
		}
		err := src.fetch(n.ctx, buf, off, want)
		if err == nil {
			continue
		}
		buf.ReleaseClaim(off, length)
		o := abortedDead
		if errors.Is(err, types.ErrDeleted) {
			// Deleted cluster-wide: fail the buffer so every other source
			// stops too, and tombstone so a racing inline acquire cannot
			// resurrect the object here.
			n.noteTombstone(pl.oid)
			n.store.Delete(pl.oid)
			o = abortedAlive
		} else if buf.Failed() != nil || n.ctx.Err() != nil || errors.Is(err, types.ErrClosed) {
			// Stopped on this side (the buffer was replaced or failed, or
			// the node is closing): the sender is not at fault.
			o = abortedAlive
		}
		src.done(o)
		return err
	}
}

// rebindLease reconciles the buffer with a lease taken after a round died,
// at the start of the next round. A re-creation, under a new generation or
// at a new size, makes the bytes so far stale (§3.5.2): a fresh buffer
// replaces them in the store, and the old one fails, so its local readers
// and the pulls it serves start over from the replacement.
func (n *Node) rebindLease(pl *pullPlan, lease directory.Lease) error {
	if lease.Gen != pl.gen || lease.Size != pl.buf.Size() {
		// Only while the entry is still ours: a restarted reduce root on
		// this node may have replaced it with its target.
		nb, err := n.store.Replace(pl.oid, pl.buf, lease.Size, false)
		if err != nil {
			return err
		}
		n.signalStoreChange()
		n.mu.Lock()
		pl.p.buf = nb
		n.mu.Unlock()
		pl.buf = nb
	}
	pl.gen = lease.Gen
	return nil
}

// keep drops the finished copy when the directory refused to list it
// (ErrAborted): a Delete or a re-creation took the lease or location it
// was pulled under, so its bytes may be a superseded generation's.
func (pl *pullPlan) keep(err error) {
	if errors.Is(err, types.ErrAborted) {
		pl.n.store.Abort(pl.oid, pl.buf)
	}
}

// nextLease leases one more sender through the directory, blocking until a
// copy is available (partial copies included).
func nextLease(pl *pullPlan) (source, error) {
	lease, err := pl.n.dir.AcquireSender(pl.n.ctx, pl.oid, true)
	if err == nil && lease.Inline != nil {
		err = types.ErrAborted // the object reappeared as an inline small object
	}
	if err != nil {
		return nil, err
	}
	src := &peerSource{pl.n, pl.oid, lease.Sender}
	if err := pl.n.rebindLease(pl, lease); err != nil {
		src.done(abortedAlive)
		return nil, err
	}
	return src, nil
}

// release returns the leases of sources that never ran.
func release(srcs []source) {
	for _, s := range srcs {
		s.done(abortedAlive)
	}
}

// endPull unregisters a finished pull so the next Get of oid starts anew.
func (n *Node) endPull(oid types.ObjectID, p *pull) {
	n.mu.Lock()
	if n.pulls[oid] == p {
		delete(n.pulls, oid)
	}
	n.mu.Unlock()
}

// peerSource pulls from another node's copy over the data plane, holding
// the directory lease on sender until done returns it.
type peerSource struct {
	n      *Node
	oid    types.ObjectID
	sender types.NodeID
}

func (s *peerSource) fetch(ctx context.Context, buf *buffer.Buffer, off, length int64) error {
	n := s.n
	// The pull's measured rate is a bandwidth sample for the link (a
	// pipelined source yields the effective path rate planning needs).
	return n.data.Pull(ctx, string(s.sender), n.id, s.oid, off, length, buf, func(b int64, d time.Duration) {
		n.links.ObserveTransfer(s.sender, b, d)
	})
}

// done is the one place a lease is returned.
func (s *peerSource) done(o outcome) error {
	ctx, cancel := s.n.rpcCtx()
	defer cancel()
	if o == releasedPartial || o == releasedComplete {
		return s.n.dir.ReleaseSender(ctx, s.oid, s.sender, o == releasedComplete)
	}
	return s.n.dir.AbortTransfer(ctx, s.oid, s.sender, o == abortedDead)
}

// spillSource restores the object from this node's spill file. The file
// stays behind as the durable copy: the restored buffer is an unpinned
// cache over it, so eviction under continued pressure is cheap (no
// rewrite) and merely downgrades the location back to Spilled.
type spillSource struct {
	n   *Node
	oid types.ObjectID
}

// fetch reads the file straight into the ledger a chunk at a time, so
// readers pipeline off the restore. A restore is one round of one on a
// fresh buffer, so its only claim is the whole object.
func (s spillSource) fetch(_ context.Context, buf *buffer.Buffer, off, _ int64) error {
	f, _, err := s.n.spill.Open(s.oid)
	if err != nil {
		return err
	}
	defer f.Close()
	for ; off < buf.Size(); off += buf.ChunkSize() {
		err := buf.Fill(off, min(buf.ChunkSize(), buf.Size()-off), func(p []byte) error {
			if m, err := f.ReadAt(p, off); err != nil && !(err == io.EOF && m == len(p)) {
				return fmt.Errorf("core: read spilled %v at %d: %w", s.oid, off, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (s spillSource) done(o outcome) error {
	ctx, cancel := s.n.rpcCtx()
	defer cancel()
	switch o {
	case releasedComplete:
		// Promote Spilled → Complete; a refusal keeps this node's own file.
		_ = s.n.dir.PutComplete(ctx, s.oid)
	case abortedDead:
		// Only a genuinely unreadable file is dropped (shutdown and a
		// concurrent Delete abort alive), so the next attempt goes remote
		// instead of looping on it.
		s.n.spill.Remove(s.oid)
		_ = s.n.dir.RemoveLocation(ctx, s.oid)
	}
	return nil
}

// stripeChunk picks the claim-grid granularity for a pull from senders
// sources: the default ledger chunk, shrunk until every source has at
// least one chunk to claim (for one source that is the default grid).
// Without this, an object smaller than two default chunks but above a low
// StripeThreshold would lease several senders and then hand the whole
// ledger to the first worker's claim, degrading to a single active sender
// that still paid the multi-lease round trips.
func stripeChunk(size int64, senders int) int64 {
	chunk := int64(buffer.DefaultLedgerChunk)
	if per := (size + int64(senders) - 1) / int64(senders); per < chunk {
		chunk = per
	}
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}
