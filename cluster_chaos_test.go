package hoplite

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"hoplite/internal/types"
)

// TestMembershipChaos is the deterministic membership chaos harness: a
// seeded RNG interleaves join, kill(+declare-dead), drain, and restart
// against a live put/get/reduce workload, checking after every step that
// no acknowledged object is lost, and at quiesce points that the
// replication factor is restored and exactly one primary serves each
// directory shard. The seed is in the subtest name, so a failure is
// replayable with -run 'TestMembershipChaos/seed=N'.
func TestMembershipChaos(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runMembershipChaos(t, seed)
		})
	}
}

type chaosObject struct {
	oid  ObjectID
	data []byte
}

type chaosState struct {
	t    *testing.T
	seed int64
	step int
	rng  *rand.Rand
	c    *Cluster

	shards int
	live   map[int]bool // node index -> process running and in the map
	hosts  map[int]bool // node index -> shard-hosting member
	acked  []chaosObject
	puts   int // distinct object namespace counter
}

func (s *chaosState) fail(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("chaos seed %d step %d: %s", s.seed, s.step, fmt.Sprintf(format, args...))
}

// liveIdxs returns the running node indices in ascending order (map
// iteration order must not leak into seed-determined choices).
func (s *chaosState) liveIdxs() []int {
	var idxs []int
	for i, ok := range s.live {
		if ok {
			idxs = append(idxs, i)
		}
	}
	sort.Ints(idxs)
	return idxs
}

// liveNode picks a random running node index.
func (s *chaosState) liveNode() int {
	idxs := s.liveIdxs()
	if len(idxs) == 0 {
		s.fail("no live nodes left")
	}
	return idxs[s.rng.Intn(len(idxs))]
}

func (s *chaosState) liveCount() int {
	n := 0
	for _, ok := range s.live {
		if ok {
			n++
		}
	}
	return n
}

func (s *chaosState) liveHostCount() int {
	n := 0
	for i, ok := range s.live {
		if ok && s.hosts[i] {
			n++
		}
	}
	return n
}

func runMembershipChaos(t *testing.T, seed int64) {
	// Chaos runs wait out a repair pass before every destructive step, so
	// they need more headroom than the standard test context.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	t.Cleanup(cancel)
	const shards = 3
	c := startCluster(t, 3, Options{
		Emulate:           slowEmu(),
		ShardNodes:        shards,
		ReplicationFactor: 2,
		ObjectReplication: 2,
		Node:              Config{RepairInterval: 50 * time.Millisecond},
	})
	s := &chaosState{
		t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), c: c,
		shards: shards,
		live:   map[int]bool{0: true, 1: true, 2: true},
		hosts:  map[int]bool{0: true, 1: true, 2: true},
	}

	const steps = 40
	for s.step = 1; s.step <= steps; s.step++ {
		stepStart := time.Now()
		switch roll := s.rng.Intn(100); {
		case roll < 30:
			s.opPut(ctx)
		case roll < 55:
			s.opGet(ctx)
		case roll < 65:
			s.opReduce(ctx)
		case roll < 75:
			s.opJoin()
		case roll < 85:
			s.opBounce(ctx)
		case roll < 93:
			s.opLose(ctx)
		default:
			s.opDrain(ctx)
		}
		s.checkSample(ctx)
		if s.step%10 == 0 {
			s.quiesce(ctx, shards)
		}
		if d := time.Since(stepStart); d > 2*time.Second {
			s.t.Logf("chaos seed %d step %d: slow step (%v)", s.seed, s.step, d)
		}
	}
	s.quiesce(ctx, shards)
	// Final sweep: every acknowledged object must still be readable with
	// exact bytes through a surviving node.
	q := s.liveNode()
	for i, obj := range s.acked {
		gctx, gcancel := context.WithTimeout(ctx, 20*time.Second)
		got, err := c.Node(q).Get(gctx, obj.oid)
		gcancel()
		if err != nil {
			s.fail("final sweep Get %d (%v): %v", i, obj.oid, err)
		}
		if !bytes.Equal(got, obj.data) {
			s.fail("final sweep payload %d mismatch", i)
		}
	}
}

func (s *chaosState) opPut(ctx context.Context) {
	size := 1<<10 + s.rng.Intn(255<<10)
	data := payload(size, byte(s.rng.Intn(256)))
	s.puts++
	oid := ObjectIDFromString(fmt.Sprintf("chaos-%d-%d", s.seed, s.puts))
	n := s.liveNode()
	if err := s.c.Node(n).Put(ctx, oid, data); err != nil {
		s.fail("Put via node %d: %v", n, err)
	}
	s.acked = append(s.acked, chaosObject{oid, data})
}

func (s *chaosState) opGet(ctx context.Context) {
	if len(s.acked) == 0 {
		s.opPut(ctx)
		return
	}
	obj := s.acked[s.rng.Intn(len(s.acked))]
	n := s.liveNode()
	got, err := s.c.Node(n).Get(ctx, obj.oid)
	if err != nil {
		s.fail("Get %v via node %d: %v", obj.oid, n, err)
	}
	if !bytes.Equal(got, obj.data) {
		s.fail("Get %v via node %d: payload mismatch", obj.oid, n)
	}
}

func (s *chaosState) opReduce(ctx context.Context) {
	const elems = 4 << 10
	sources := make([]ObjectID, 3)
	var want float32
	for i := range sources {
		s.puts++
		sources[i] = ObjectIDFromString(fmt.Sprintf("chaos-red-%d-%d", s.seed, s.puts))
		val := float32(s.rng.Intn(100))
		want += val
		xs := make([]float32, elems)
		for k := range xs {
			xs[k] = val
		}
		n := s.liveNode()
		if err := s.c.Node(n).Put(ctx, sources[i], types.EncodeF32(xs)); err != nil {
			s.fail("reduce source Put via node %d: %v", n, err)
		}
	}
	s.puts++
	target := ObjectIDFromString(fmt.Sprintf("chaos-red-out-%d-%d", s.seed, s.puts))
	coord := s.liveNode()
	if _, err := s.c.Node(coord).Reduce(ctx, target, sources, len(sources), SumF32); err != nil {
		s.fail("Reduce via node %d: %v", coord, err)
	}
	raw, err := s.c.Node(s.liveNode()).Get(ctx, target)
	if err != nil {
		s.fail("reduce result Get: %v", err)
	}
	if got := types.DecodeF32(raw); got[0] != want || got[elems-1] != want {
		s.fail("reduce result: got %v want %v", got[0], want)
	}
	s.acked = append(s.acked, chaosObject{target, raw})
}

func (s *chaosState) opJoin() {
	if s.liveCount() >= 6 {
		return
	}
	storageOnly := s.rng.Intn(4) == 0
	idx, err := s.c.AddNode(storageOnly)
	if err != nil {
		s.fail("AddNode: %v", err)
	}
	s.live[idx] = true
	s.hosts[idx] = !storageOnly
	s.t.Logf("chaos seed %d step %d: joined node %d (storageOnly=%v)", s.seed, s.step, idx, storageOnly)
}

// opBounce kills a node and restarts it immediately: a transient failure
// that must leave the map unchanged and the node resyncing back in. A
// crash wipes the victim's in-memory copies, so like every destructive op
// it waits for full replication first — one fault at a time is the regime
// the repair scanner guarantees recovery under.
func (s *chaosState) opBounce(ctx context.Context) {
	if s.liveCount() < 3 {
		return
	}
	victim := s.liveNode()
	s.waitSettled(ctx, "pre-bounce quiesce", s.shards)
	if err := s.c.KillNode(victim); err != nil {
		s.fail("KillNode %d: %v", victim, err)
	}
	if err := s.c.RestartNode(victim); err != nil {
		s.fail("RestartNode %d: %v", victim, err)
	}
	s.t.Logf("chaos seed %d step %d: bounced node %d", s.seed, s.step, victim)
}

// opLose kills a node permanently and declares it dead. The kill only
// fires after under-replication has drained to zero, so the loss removes
// at most one of each object's copies — the guarantee the repair scanner
// is there to uphold.
func (s *chaosState) opLose(ctx context.Context) {
	victim := s.liveNode()
	if s.hosts[victim] && s.liveHostCount() <= 2 {
		return
	}
	if s.liveCount() <= 2 {
		return
	}
	s.waitSettled(ctx, "pre-kill quiesce", s.shards)
	s.auditSoleHolder(ctx, victim)
	if err := s.c.KillNode(victim); err != nil {
		s.fail("KillNode %d: %v", victim, err)
	}
	s.live[victim] = false
	delete(s.hosts, victim)
	if err := s.c.DeclareDead(ctx, victim); err != nil {
		s.fail("DeclareDead %d: %v", victim, err)
	}
	s.t.Logf("chaos seed %d step %d: lost node %d", s.seed, s.step, victim)
}

func (s *chaosState) opDrain(ctx context.Context) {
	victim := s.liveNode()
	if s.hosts[victim] && s.liveHostCount() <= 2 {
		return
	}
	if s.liveCount() <= 2 {
		return
	}
	s.waitSettled(ctx, "pre-drain quiesce", s.shards)
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.c.DrainNode(dctx, victim); err != nil {
		s.fail("DrainNode %d: %v", victim, err)
	}
	s.live[victim] = false
	delete(s.hosts, victim)
	s.t.Logf("chaos seed %d step %d: drained node %d", s.seed, s.step, victim)
}

// checkSample spot-checks a few acknowledged objects after every step.
func (s *chaosState) checkSample(ctx context.Context) {
	for i := 0; i < 3 && len(s.acked) > 0; i++ {
		obj := s.acked[s.rng.Intn(len(s.acked))]
		n := s.liveNode()
		// Bound each sample so a wedged Get fails fast with its own error
		// instead of silently consuming the whole run budget.
		gctx, gcancel := context.WithTimeout(ctx, 20*time.Second)
		got, err := s.c.Node(n).Get(gctx, obj.oid)
		gcancel()
		if err != nil {
			s.fail("sample Get %v via node %d: %v", obj.oid, n, err)
		}
		if !bytes.Equal(got, obj.data) {
			s.fail("sample Get %v via node %d: payload mismatch", obj.oid, n)
		}
	}
}

// waitRepaired blocks until the repair scanner reports every object back
// at its replication target. It polls through the lowest live node — no
// rng draws, so a poll's duration cannot perturb the seeded op sequence.
// auditSoleHolder is a debugging aid: after a repair quiesce claims full
// replication, cross-check every acked object's whole-copy holders and
// log any whose only live holder is the node about to be killed.
func (s *chaosState) auditSoleHolder(ctx context.Context, victim int) {
	s.t.Helper()
	q := -1
	for _, i := range s.liveIdxs() {
		if i != victim {
			q = i
			break
		}
	}
	if q < 0 {
		return
	}
	victimID := s.c.Node(victim).ID()
	for _, obj := range s.acked {
		rec, err := s.c.Node(q).Directory().Lookup(ctx, obj.oid, false)
		if err != nil {
			s.t.Logf("chaos seed %d step %d: audit Lookup %v: %v", s.seed, s.step, obj.oid, err)
			continue
		}
		if len(rec.Inline) > 0 {
			continue
		}
		others := 0
		onVictim := false
		for _, l := range rec.Locs {
			if !l.Progress.HasAll() {
				continue
			}
			if l.Node == victimID {
				onVictim = true
			} else {
				others++
			}
		}
		if onVictim && others == 0 {
			s.t.Logf("chaos seed %d step %d: AUDIT object %v sole whole copy on victim %d (locs=%v)", s.seed, s.step, obj.oid, victim, rec.Locs)
		}
	}
}

// waitSettled blocks until the cluster is safe to hurt again: objects
// back at full replication AND every directory shard replica in sync
// with exactly one primary. With shard replication factor 2 a group
// move leaves a short window where the backup is still streaming its
// snapshot; killing the primary inside that window orphans the shard,
// which is an operator error, not a recovery bug — so the harness (like
// an operator) waits it out before each destructive step.
func (s *chaosState) waitSettled(ctx context.Context, what string, shards int) {
	s.t.Helper()
	s.waitRepaired(ctx, what)
	deadline := time.Now().Add(20 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		if last = s.converged(shards); last == "" {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	s.fail("%s: cluster did not settle: %s", what, last)
}

func (s *chaosState) waitRepaired(ctx context.Context, what string) {
	s.t.Helper()
	q := s.liveIdxs()[0]
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		u, err := s.c.Node(q).Directory().UnderReplicated(ctx)
		if err == nil && u == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	s.fail("%s: under-replication did not drain", what)
}

// quiesce checks the convergence invariants: replication restored, every
// live node on the same map epoch, exactly one primary per shard, and no
// sender lease left outstanding.
func (s *chaosState) quiesce(ctx context.Context, shards int) {
	s.t.Helper()
	s.waitRepaired(ctx, "quiesce")
	deadline := time.Now().Add(20 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		if msg := s.converged(shards); msg == "" {
			return
		} else {
			last = msg
		}
		time.Sleep(20 * time.Millisecond)
	}
	s.fail("quiesce: cluster did not converge: %s", last)
}

// converged returns "" when epochs agree, each shard has exactly one
// primary among live nodes and no live replica records a sender lease
// (every lease granted was returned), else a description of the
// divergence.
func (s *chaosState) converged(shards int) string {
	epoch := int64(-1)
	primaries := make([]int, shards)
	for i, ok := range s.live {
		if !ok {
			continue
		}
		n := s.c.Node(i)
		cm := n.ClusterMap()
		if epoch == -1 {
			epoch = cm.Epoch
		} else if cm.Epoch != epoch {
			return fmt.Sprintf("node %d at epoch %d, others at %d", i, cm.Epoch, epoch)
		}
		if l := n.ShardServer().Stats().Leases; l != 0 {
			return fmt.Sprintf("node %d directory still records %d sender leases", i, l)
		}
		for _, r := range n.ShardServer().Roles() {
			if r.Primary && !r.Retiring {
				primaries[r.Shard]++
			}
			if r.Syncing {
				return fmt.Sprintf("node %d shard %d replica still syncing", i, r.Shard)
			}
		}
	}
	for sh, n := range primaries {
		if n != 1 {
			return fmt.Sprintf("shard %d has %d primaries", sh, n)
		}
	}
	return ""
}
