// Command hoplite-cli performs object operations against a running
// hoplited cluster: put a file, get an object, delete it, or inspect its
// directory record.
//
//	hoplite-cli -seeds 10.0.0.1:7077 put my-key ./weights.bin
//	hoplite-cli -seeds 10.0.0.1:7077 get my-key ./out.bin
//	hoplite-cli -seeds 10.0.0.1:7077 stat my-key
//	hoplite-cli -seeds 10.0.0.1:7077 delete my-key
//
// -seeds names any one or more running daemons; the CLI fetches the
// cluster map from the first that answers and derives the directory
// topology from it. It also drives membership: status prints the cluster
// map and per-node shard roles, drain retires a node gracefully (waits for
// its shard handoffs and sole-copy evacuation), and join re-registers a
// node:
//
//	hoplite-cli -seeds 10.0.0.1:7077 status
//	hoplite-cli -seeds 10.0.0.1:7077 -timeout 5m drain 10.0.0.4:7077
//	hoplite-cli -seeds 10.0.0.1:7077 join 10.0.0.4:7077
//
// The load subcommand drives a small-object put/get workload against the
// cluster and reports throughput and latency percentiles — the quickest
// way to see the small-object fast path (inline payloads, write batching,
// location caching) on real hardware:
//
//	hoplite-cli -seeds 10.0.0.1:7077 load -keys 256 -value-size 1024 -concurrency 32 -duration 10s
//
// load -mixed runs a saturating bulk pull stream alongside a cold
// small-Get loop against one sender and reports both tails — the
// egress-scheduling fairness demo (compare -sched-classes 1 vs the
// default 2):
//
//	hoplite-cli -seeds 10.0.0.1:7077 load -mixed -bulk-size 67108864 -duration 10s
//
// status also prints each member's link-state table: the per-peer RTT and
// bandwidth estimates (seeded from the configured priors) that the
// transfer planner ranks senders and shapes reduce trees with.
//
// The CLI starts an ephemeral client node — booted from the fetched map
// but not a member of it — for the duration of the command.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hoplite"
	"hoplite/internal/netem"
)

func main() {
	seeds := flag.String("seeds", "", "comma-separated addresses of running daemons to fetch the cluster map from (required)")
	timeout := flag.Duration("timeout", 30*time.Second, "operation timeout")
	flag.Parse()
	args := flag.Args()
	noKey := map[string]bool{"load": true, "status": true}
	if *seeds == "" || len(args) < 1 || (!noKey[args[0]] && len(args) < 2) {
		fmt.Fprintln(os.Stderr, "usage: hoplite-cli -seeds HOST:PORT[,...] {put KEY FILE | get KEY FILE | stat KEY | delete KEY | status | join ADDR [storage-only] | drain ADDR | load [-keys N] [-value-size B] [-concurrency C] [-duration D] [-mixed [-bulk-size B] [-sched-classes N]]}")
		os.Exit(2)
	}
	var seedList []string
	for _, s := range strings.Split(*seeds, ",") {
		seedList = append(seedList, strings.TrimSpace(s))
	}

	// The cluster map is the only topology source: fetch it from a seed so
	// the ephemeral node derives the real shard count and replica groups.
	fab := &netem.TCP{}
	mctx, mcancel := context.WithTimeout(context.Background(), 3*time.Second)
	cm, err := hoplite.FetchClusterMap(mctx, fab, seedList)
	mcancel()
	if err != nil {
		log.Fatalf("fetch cluster map: no seed in %q answered: %v", *seeds, err)
	}

	// Every ephemeral client node this command starts goes through one
	// factory so they share the fabric and fetched map; mod lets a caller
	// adjust the config (load -mixed disables inlining on its putter so
	// small objects traverse the data plane).
	newNode := func(mod func(*hoplite.Config)) (*hoplite.Node, error) {
		cfg := hoplite.Config{Fabric: fab, InitialMap: &cm}
		if mod != nil {
			mod(&cfg)
		}
		return hoplite.NewNode(cfg)
	}

	if args[0] == "load" {
		if err := runLoad(newNode, args[1:]); err != nil {
			log.Fatalf("load: %v", err)
		}
		return
	}

	node, err := newNode(nil)
	if err != nil {
		log.Fatalf("join cluster: %v", err)
	}
	defer node.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	switch args[0] {
	case "status":
		if err := runStatus(ctx, node); err != nil {
			log.Fatalf("status: %v", err)
		}
		return
	case "join":
		// Register args[1] in the cluster map on its behalf (the daemon's
		// own -join flag does this at startup; the subcommand covers
		// re-registering a node that was declared dead by mistake).
		shardHost := !(len(args) > 2 && args[2] == "storage-only")
		cm, err := node.Directory().JoinNode(ctx, hoplite.NodeID(args[1]), shardHost)
		if err != nil {
			log.Fatalf("join: %v", err)
		}
		fmt.Printf("joined %s (epoch %d, %d members)\n", args[1], cm.Epoch, len(cm.Members))
		return
	case "drain":
		if err := runDrain(ctx, node, hoplite.NodeID(args[1])); err != nil {
			log.Fatalf("drain: %v", err)
		}
		return
	}

	cmd, key := args[0], args[1]
	oid := hoplite.ObjectIDFromString(key)
	switch cmd {
	case "put":
		if len(args) < 3 {
			log.Fatal("put needs a file argument")
		}
		data, err := os.ReadFile(args[2])
		if err != nil {
			log.Fatal(err)
		}
		if err := node.Put(ctx, oid, data); err != nil {
			log.Fatalf("put: %v", err)
		}
		fmt.Printf("put %s (%d bytes) as %v\n", key, len(data), oid)
	case "get":
		if len(args) < 3 {
			log.Fatal("get needs a file argument")
		}
		data, err := node.Get(ctx, oid)
		if err != nil {
			log.Fatalf("get: %v", err)
		}
		if err := os.WriteFile(args[2], data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("got %s (%d bytes) -> %s\n", key, len(data), args[2])
	case "stat":
		rec, err := node.Directory().Lookup(ctx, oid, false)
		if err != nil {
			log.Fatalf("stat: %v", err)
		}
		fmt.Printf("object %v: size=%d inline=%v\n", oid, rec.Size, rec.Inline != nil)
		for _, l := range rec.Locs {
			fmt.Printf("  %s (%s)\n", l.Node, l.Progress)
		}
	case "delete":
		if err := node.Delete(ctx, oid); err != nil {
			log.Fatalf("delete: %v", err)
		}
		fmt.Printf("deleted %s\n", key)
	default:
		log.Fatalf("unknown command %q", cmd)
	}
}

// runStatus prints the cluster map (epoch, members, states), every node's
// directory shard roles, and the under-replicated object count.
func runStatus(ctx context.Context, node *hoplite.Node) error {
	dir := node.Directory()
	if _, err := dir.FetchMap(ctx); err != nil {
		return fmt.Errorf("fetch map: %w", err)
	}
	st, err := dir.Status(ctx, "")
	if err != nil {
		return err
	}
	cm := st.Map
	fmt.Printf("cluster map: epoch %d, %d shards, dir-rf %d, object-rf %d\n",
		cm.Epoch, cm.NumShards, cm.DirRF, cm.ObjectRF)
	// Per-node roles: which shards each member leads, per the primaries
	// that answered the status sweep.
	leads := make(map[hoplite.NodeID][]int)
	under, total := 0, 0
	for _, sh := range st.Shards {
		leads[sh.Primary] = append(leads[sh.Primary], sh.Shard)
		under += sh.Under
		total += sh.Objects
	}
	groups := cm.DeriveGroups()
	for _, m := range cm.Members {
		backs := 0
		for _, g := range groups {
			for _, a := range g {
				if a == string(m.Addr) {
					backs++
				}
			}
		}
		role := "storage"
		if m.ShardHost {
			role = fmt.Sprintf("shard host (leads %d, replicates %d)", len(leads[m.Addr]), backs)
		}
		fmt.Printf("  %s  %s  %s\n", m.Addr, m.State, role)
	}
	fmt.Printf("objects: %d tracked, %d under-replicated\n", total, under)
	// Each member's link-state table: its per-peer RTT/bandwidth estimates,
	// seeded from the configured priors and converging as data-plane pulls
	// and control round-trips feed the estimators.
	for _, m := range cm.Members {
		rows, err := node.PeerLinkState(ctx, m.Addr)
		if err != nil {
			fmt.Printf("link state @ %s: unavailable (%v)\n", m.Addr, err)
			continue
		}
		fmt.Printf("link state @ %s:\n", m.Addr)
		fmt.Printf("  %-28s %-10s %12s %12s %10s %8s\n", "peer", "locality", "rtt", "bandwidth", "age", "samples")
		for _, r := range rows {
			age := "prior"
			if r.Measured {
				age = r.Age.Truncate(time.Millisecond).String()
			}
			fmt.Printf("  %-28s %-10s %12s %12s %10s %8d\n",
				r.Peer, r.Locality, r.RTT.Truncate(time.Microsecond), fmtBW(r.Bandwidth), age, r.Samples)
		}
	}
	return nil
}

// fmtBW renders a bytes/second estimate at a human scale.
func fmtBW(bps float64) string {
	switch {
	case bps <= 0:
		return "-"
	case bps >= 1<<30:
		return fmt.Sprintf("%.1fGiB/s", bps/(1<<30))
	case bps >= 1<<20:
		return fmt.Sprintf("%.1fMiB/s", bps/(1<<20))
	case bps >= 1<<10:
		return fmt.Sprintf("%.1fKiB/s", bps/(1<<10))
	}
	return fmt.Sprintf("%.0fB/s", bps)
}

// runDrain starts a graceful drain of addr and waits until the node has
// left the cluster map, reporting evacuation progress.
func runDrain(ctx context.Context, node *hoplite.Node, addr hoplite.NodeID) error {
	dir := node.Directory()
	cm, err := dir.DrainNode(ctx, addr)
	if err != nil {
		return err
	}
	fmt.Printf("draining %s (epoch %d)\n", addr, cm.Epoch)
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	for {
		cm, err = dir.FetchMap(ctx)
		if err != nil {
			return err
		}
		if _, ok := cm.MemberState(addr); !ok {
			fmt.Printf("drained %s (epoch %d)\n", addr, cm.Epoch)
			return nil
		}
		sole, err := dir.SoleCopies(ctx, addr)
		if err == nil {
			fmt.Printf("  waiting: %d sole copies left\n", sole)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// runLoad drives a closed-loop small-object workload: -keys objects of
// -value-size bytes are put once, then -concurrency workers issue random
// Gets against them for -duration, and the loop reports aggregate ops/sec
// plus client-side latency percentiles. With -mixed it instead runs a
// saturating bulk pull stream alongside a cold small-Get loop and reports
// both tails — the egress-scheduling fairness demo.
func runLoad(newNode nodeFactory, argv []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	keys := fs.Int("keys", 64, "number of distinct objects in the working set (with -mixed: the cold-Get pool; the run ends early when exhausted)")
	valueSize := fs.Int("value-size", 1024, "object size in bytes")
	concurrency := fs.Int("concurrency", 16, "concurrent closed-loop workers")
	duration := fs.Duration("duration", 10*time.Second, "measurement duration")
	mixed := fs.Bool("mixed", false, "mixed workload: a bulk pull stream saturating one sender plus a closed loop of cold small Gets, both tails reported")
	bulkSize := fs.Int64("bulk-size", 64<<20, "bulk object size in bytes (with -mixed)")
	schedClasses := fs.Int("sched-classes", 0, "egress scheduler classes on the sender (with -mixed): 0/2 = default fair scheduling, 1 = scheduling off, for comparison")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *keys < 1 || *valueSize < 0 || *concurrency < 1 {
		return fmt.Errorf("invalid load parameters")
	}
	if *mixed {
		// A repeat Get would be a warm local hit on the getter, so the
		// mixed pool is got-once; default it large enough to cover the run.
		explicit := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if !explicit["keys"] {
			*keys = 4096
		}
		return runMixedLoad(newNode, *keys, *valueSize, *concurrency, *duration, *bulkSize, *schedClasses)
	}

	node, err := newNode(nil)
	if err != nil {
		return fmt.Errorf("join cluster: %w", err)
	}
	defer node.Close()

	ctx, cancel := context.WithTimeout(context.Background(), *duration+30*time.Second)
	defer cancel()

	payload := make([]byte, *valueSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	oids := make([]hoplite.ObjectID, *keys)
	for i := range oids {
		oids[i] = hoplite.ObjectIDFromString(fmt.Sprintf("load-%d-%d", time.Now().UnixNano(), i))
		if err := node.Put(ctx, oids[i], payload); err != nil {
			return fmt.Errorf("put %d: %w", i, err)
		}
	}
	fmt.Printf("loaded %d objects x %d bytes; running %d workers for %v\n", *keys, *valueSize, *concurrency, *duration)

	stop := make(chan struct{})
	var (
		mu        sync.Mutex
		latencies []time.Duration
		errCount  int64
	)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			local := make([]time.Duration, 0, 4096)
			for {
				select {
				case <-stop:
					mu.Lock()
					latencies = append(latencies, local...)
					mu.Unlock()
					return
				default:
				}
				oid := oids[rng.Intn(len(oids))]
				t0 := time.Now()
				_, err := node.Get(ctx, oid)
				if err != nil {
					atomic.AddInt64(&errCount, 1)
					continue
				}
				local = append(local, time.Since(t0))
			}
		}(int64(w) + 1)
	}
	time.Sleep(*duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	n := len(latencies)
	if n == 0 {
		return fmt.Errorf("no operations completed (%d errors)", errCount)
	}
	pct := func(p float64) time.Duration { return latencies[min(n-1, int(float64(n)*p))] }
	fmt.Printf("ops: %d  errors: %d  throughput: %.0f ops/sec\n", n, errCount, float64(n)/elapsed.Seconds())
	fmt.Printf("latency: p50=%v p95=%v p99=%v max=%v\n", pct(0.50), pct(0.95), pct(0.99), latencies[n-1])

	// Clean up the working set so repeated runs do not accumulate objects.
	for _, oid := range oids {
		_ = node.Delete(ctx, oid)
	}
	return nil
}

// nodeFactory starts one ephemeral client node, optionally adjusting its
// config first.
type nodeFactory func(mod func(*hoplite.Config)) (*hoplite.Node, error)

// runMixedLoad exercises egress scheduling fairness end to end. One
// "putter" node holds every object (inlining disabled, so even 1 KiB
// objects are served over the data plane); a bulk stream repeatedly pulls
// a large object from it through fresh getter nodes while -concurrency
// workers issue cold Gets of small objects from another getter. Both
// streams contend for the putter's uplink, which is exactly what the
// sender's weighted-fair egress scheduler arbitrates: with -sched-classes
// 1 the bulk stream starves the small Gets' tail; with the default 2
// classes the small p99 stays near its unloaded value.
func runMixedLoad(newNode nodeFactory, keys, valueSize, concurrency int, duration time.Duration, bulkSize int64, schedClasses int) error {
	putter, err := newNode(func(c *hoplite.Config) {
		c.InlineThreshold = -1
		c.SchedClasses = schedClasses
	})
	if err != nil {
		return fmt.Errorf("start putter: %w", err)
	}
	defer putter.Close()

	ctx, cancel := context.WithTimeout(context.Background(), duration+2*time.Minute)
	defer cancel()

	run := time.Now().UnixNano()
	bulkOID := hoplite.ObjectIDFromString(fmt.Sprintf("load-bulk-%d", run))
	bulk := make([]byte, bulkSize)
	if err := putter.Put(ctx, bulkOID, bulk); err != nil {
		return fmt.Errorf("put bulk object: %w", err)
	}
	payload := make([]byte, valueSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	oids := make([]hoplite.ObjectID, keys)
	for i := range oids {
		oids[i] = hoplite.ObjectIDFromString(fmt.Sprintf("load-%d-%d", run, i))
		if err := putter.Put(ctx, oids[i], payload); err != nil {
			return fmt.Errorf("put %d: %w", i, err)
		}
	}
	fmt.Printf("mixed load: 1 x %d MiB bulk object + %d x %d B small objects; %d small workers for %v (sender sched-classes=%d)\n",
		bulkSize>>20, keys, valueSize, concurrency, duration, schedClasses)

	smallGetter, err := newNode(nil)
	if err != nil {
		return fmt.Errorf("start getter: %w", err)
	}
	defer smallGetter.Close()

	var (
		stop      = make(chan struct{})
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies []time.Duration
		errCount  int64
		next      int64
		bulkBytes int64
		bulkIters int64
	)
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	// Bulk stream: one long-lived getter that drops its fetched copy (and
	// its directory location) after every pull, so each round is a real
	// network pull — a pull into a node already holding the object would
	// be a local no-op. A fresh node per pull would also work but races
	// its own teardown: closing a node right after GetRef returns can cut
	// down the in-flight sender-lease release, wedging the next acquire.
	bulkGetter, err := newNode(nil)
	if err != nil {
		return fmt.Errorf("start bulk getter: %w", err)
	}
	defer bulkGetter.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopped() {
			ref, err := bulkGetter.GetRef(ctx, bulkOID)
			if err != nil {
				if !stopped() {
					atomic.AddInt64(&errCount, 1)
				}
				return
			}
			ref.Release()
			atomic.AddInt64(&bulkBytes, bulkSize)
			atomic.AddInt64(&bulkIters, 1)
			bulkGetter.Store().Delete(bulkOID)
			if err := bulkGetter.Directory().RemoveLocation(ctx, bulkOID); err != nil && !stopped() {
				atomic.AddInt64(&errCount, 1)
				return
			}
		}
	}()
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]time.Duration, 0, 4096)
			defer func() {
				mu.Lock()
				latencies = append(latencies, local...)
				mu.Unlock()
			}()
			for !stopped() {
				i := atomic.AddInt64(&next, 1) - 1
				if i >= int64(len(oids)) {
					return // pool exhausted: stop rather than re-Get warm keys
				}
				t0 := time.Now()
				if _, err := smallGetter.Get(ctx, oids[i]); err != nil {
					atomic.AddInt64(&errCount, 1)
					continue
				}
				local = append(local, time.Since(t0))
			}
		}()
	}
	timer := time.NewTimer(duration)
	<-timer.C
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	n := len(latencies)
	fmt.Printf("bulk: %d pulls, %.1f MiB/s sustained\n",
		atomic.LoadInt64(&bulkIters), float64(atomic.LoadInt64(&bulkBytes))/(1<<20)/elapsed.Seconds())
	if n == 0 {
		return fmt.Errorf("no small Gets completed (%d errors)", errCount)
	}
	if int64(n) >= int64(len(oids)) {
		fmt.Printf("small-Get pool exhausted after %v; raise -keys for longer runs\n", elapsed.Truncate(time.Millisecond))
	}
	pct := func(p float64) time.Duration { return latencies[min(n-1, int(float64(n)*p))] }
	fmt.Printf("small gets: %d ops  errors: %d  %.0f ops/sec\n", n, errCount, float64(n)/elapsed.Seconds())
	fmt.Printf("small latency: p50=%v p95=%v p99=%v max=%v\n", pct(0.50), pct(0.95), pct(0.99), latencies[n-1])

	_ = putter.Delete(ctx, bulkOID)
	for _, oid := range oids {
		_ = putter.Delete(ctx, oid)
	}
	return nil
}
