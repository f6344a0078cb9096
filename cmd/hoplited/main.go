// Command hoplited runs one standalone Hoplite object-store node over
// plain TCP — the production deployment mode. Every node of a cluster
// runs hoplited and boots from the cluster map: founders build it from an
// identical -bootstrap list, everyone else fetches it by -join.
//
//	# single head node: founds a one-member cluster on its own address
//	hoplited -listen 10.0.0.1:7077
//
//	# worker nodes join it (and may later be drained out again)
//	hoplited -listen 10.0.0.2:7077 -join 10.0.0.1:7077 -storage-only
//	hoplited -listen 10.0.0.3:7077 -join 10.0.0.1:7077 -storage-only
//
//	# replicated directory: three founding shard hosts boot with identical
//	# -bootstrap/-replication, each shard on 2 of them in succession order;
//	# later nodes join (and leave) the running cluster
//	hoplited -listen 10.0.0.1:7077 -bootstrap 10.0.0.1:7077,10.0.0.2:7077,10.0.0.3:7077 -replication 2
//	hoplited -listen 10.0.0.2:7077 -bootstrap 10.0.0.1:7077,10.0.0.2:7077,10.0.0.3:7077 -replication 2
//	hoplited -listen 10.0.0.3:7077 -bootstrap 10.0.0.1:7077,10.0.0.2:7077,10.0.0.3:7077 -replication 2
//	hoplited -listen 10.0.0.4:7077 -join 10.0.0.1:7077          # scale-out
//	hoplite-cli -seeds 10.0.0.1:7077 drain 10.0.0.4:7077        # scale-in
//
//	# bounded memory with a disk spill tier (out-of-core working sets)
//	hoplited -listen 10.0.0.2:7077 -join 10.0.0.1:7077 \
//	    -memory-limit 8589934592 -spill-dir /data/hoplite-spill
//
// With -memory-limit, Put/Create apply admission backpressure instead of
// growing past the budget; with -spill-dir, cold objects are demoted to
// disk and served (or restored) from there. The spill directory is
// rescanned on restart, so a restarted daemon re-offers the objects it
// spilled. Use hoplite-cli against any node's address; see
// docs/OPERATIONS.md for the full tuning guide.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"hoplite"
	"hoplite/internal/netem"
	"hoplite/internal/types"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "address to listen on (control + data plane)")
	bootstrap := flag.String("bootstrap", "", "comma-separated founding member addresses, every one an active shard host; all founding daemons must be given the identical list, and each must find its own listen address in it verbatim (default: found a one-member cluster on -listen)")
	join := flag.String("join", "", "comma-separated seed addresses of a running cluster to join at startup (elastic scale-out)")
	storageOnly := flag.Bool("storage-only", false, "with -join: join as a pure storage member, never hosting directory shard replicas")
	replication := flag.Int("replication", 1, "with -bootstrap: directory shard replication factor R: shard i is replicated on the R founders starting at the i-th")
	objectRepl := flag.Int("object-replication", 1, "with -bootstrap: object replication target the repair scanner restores after drains and declared node losses")
	repairEvery := flag.Duration("repair-interval", 0, "re-replication scanner period (0 = default 250ms, negative disables)")
	memLimit := flag.Int64("memory-limit", 0, "in-memory store budget in bytes with admission backpressure (0 = unlimited)")
	spillDir := flag.String("spill-dir", "", "directory for the disk spill tier (empty = spill disabled; requires -memory-limit); rescanned on restart")
	inline := flag.Int64("inline-threshold", 0, "small-object inline threshold in bytes (default 64 KiB, negative disables)")
	locality := flag.String("locality", "", "locality domain label for this node (e.g. a rack or DC name); unmeasured links borrow their domain's mean estimate")
	flag.Parse()

	if *spillDir != "" && *memLimit <= 0 {
		log.Fatal("hoplited: -spill-dir requires -memory-limit: with an unbounded store nothing is ever demoted")
	}
	if *bootstrap != "" && *join != "" {
		log.Fatal("hoplited: -bootstrap and -join are mutually exclusive")
	}

	fab := &netem.TCP{ListenAddr: *listen}
	ln, err := fab.Listen("")
	if err != nil {
		log.Fatalf("listen %s: %v", *listen, err)
	}
	self := ln.Addr().String()

	// -bootstrap builds the founding epoch-1 cluster map (identical on every
	// founding daemon); -join asks a running cluster's membership shard to
	// admit this node; with neither the node founds a cluster of one.
	var initialMap *types.ClusterMap
	if *bootstrap != "" {
		cm := types.FoundingMap(splitAddrs(*bootstrap), 0, *replication, *objectRepl)
		i := cm.MemberIndex(types.NodeID(self))
		if i < 0 {
			// Shard groups are matched by address text: a founder absent
			// from its own list would come up hosting zero replicas.
			log.Fatalf("hoplited: listen address %s (-listen %s) is not in the -bootstrap list %s: a founding daemon must appear in it verbatim (workers use -join)", self, *listen, *bootstrap)
		}
		// The list carries no locality labels; stamp this daemon's own
		// entry. (-join members propagate their label through the
		// membership shard instead.)
		cm.Members[i].Locality = *locality
		initialMap = &cm
	}

	node, err := hoplite.NewNode(hoplite.Config{
		Fabric:          fab,
		Listener:        ln,
		InitialMap:      initialMap,
		JoinAddrs:       splitAddrs(*join),
		JoinStorageOnly: *storageOnly,
		RepairInterval:  *repairEvery,
		MemoryLimit:     *memLimit,
		SpillDir:        *spillDir,
		InlineThreshold: *inline,
		Locality:        *locality,
	})
	if err != nil {
		log.Fatalf("start node: %v", err)
	}
	cm := node.ClusterMap()
	fmt.Printf("hoplited: node %s up (membership epoch %d, %d members)\n", node.Addr(), cm.Epoch, len(cm.Members))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("hoplited: shutting down")
	node.Close()
}

// splitAddrs parses a comma-separated address list; empty input is nil.
func splitAddrs(list string) []string {
	if list == "" {
		return nil
	}
	addrs := strings.Split(list, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	return addrs
}
