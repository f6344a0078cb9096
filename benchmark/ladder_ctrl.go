package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"hoplite"
	"hoplite/internal/directory"
	"hoplite/internal/linkstate"
	"hoplite/internal/pool"
	"hoplite/internal/types"
	"hoplite/internal/wire"
)

// lookupReply has the shape of the hottest control-plane frame: a lookup
// response carrying a size and two locations.
func lookupReply() wire.Message {
	return wire.Message{
		Method: wire.MethodLookup,
		ID:     12345,
		Flags:  wire.FlagResponse,
		OID:    hoplite.ObjectIDFromString("ladder-object"),
		Node:   "10.0.0.1:7777",
		Sender: "10.0.0.2:7777",
		Size:   64 * mib,
		Gen:    3,
		Locs: []types.Location{
			{Node: "10.0.0.2:7777", Progress: types.ProgressComplete},
			{Node: "10.0.0.3:7777", Progress: types.ProgressPartial},
		},
	}
}

func tcpDial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// serveWire runs a wire server for h on a fresh loopback listener and
// returns its address and a stop function that waits for it to exit.
func serveWire(h wire.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := wire.NewServer(ln, h)
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve() }()
	return ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// wireRungs: the codec alone, then one RPC over loopback, then two
// callers sharing the connection so that frames coalesce.
func (l *ladder) wireRungs() {
	if l.err != nil {
		return
	}
	reply := lookupReply()
	var frame []byte
	var out wire.Message
	codec := func(int) {
		var err error
		if frame, err = wire.AppendMessage(frame[:0], &reply); err != nil {
			l.fail("wire.codec", err)
			return
		}
		if err := wire.UnmarshalMessage(frame[4:], &out); err != nil {
			l.fail("wire.codec", err)
		}
	}
	const rounds = 200000
	l.set("wire.codec_ns", l.batch("ladder.small_get", "wire.codec", rounds, codec))
	_, objects := allocs(func() {
		for i := 0; i < 1000; i++ {
			codec(i)
		}
	})
	l.set("wire.codec_allocs", objects/1000)
	if l.err == nil && (out.Size != reply.Size || len(out.Locs) != len(reply.Locs)) {
		l.fail("wire.codec", errCorrupt)
	}

	addr, stop, err := serveWire(func(context.Context, wire.Message, *wire.Peer) wire.Message { return reply })
	if err != nil {
		l.fail("wire.call", err)
		return
	}
	defer stop()
	conn, err := tcpDial(l.ctx, addr)
	if err != nil {
		l.fail("wire.call", err)
		return
	}
	c := wire.NewClient(conn, nil)
	defer c.Close()
	call := func(int) error {
		resp, err := c.Call(l.ctx, wire.Message{Method: wire.MethodLookup, OID: reply.OID})
		if err != nil {
			return err
		}
		if resp.Size != reply.Size {
			return errCorrupt
		}
		return resp.ErrorOf()
	}
	l.set("wire.call_us", us(l.each("ladder.small_get", "wire.call", 3000, call)))

	// Two callers, one connection: calls per second, and the span covers
	// both callers' loops.
	const each = 3000
	var wg sync.WaitGroup
	errs := make([]error, 2)
	id := l.tr.begin(l.group("ladder.small_get"), l.op, "wire.call2")
	start := time.Now()
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each && errs[w] == nil; i++ {
				errs[w] = call(i)
			}
		}(w)
	}
	wg.Wait()
	d := time.Since(start)
	l.tr.end(id)
	for _, err := range errs {
		if err != nil {
			l.fail("wire.call2", err)
		}
	}
	l.set("wire.call2_per_s", float64(len(errs)*each)/d.Seconds())
}

// directoryRungs: one standalone shard and one three-replica group, each
// behind wire servers, driven through directory clients.
func (l *ladder) directoryRungs(gen *rng, small []byte) {
	if l.err != nil {
		return
	}
	shard := directory.NewServer()
	defer shard.Close()
	addr, stop, err := serveWire(shard.Handler())
	if err != nil {
		l.fail("directory", err)
		return
	}
	defer stop()
	a := directory.NewClient("ladder-a", []string{addr}, tcpDial)
	defer a.Close()
	b := directory.NewClient("ladder-b", []string{addr}, tcpDial)
	defer b.Close()

	const n = 1500
	oids := make([]hoplite.ObjectID, n)
	for i := range oids {
		oids[i] = gen.oid()
	}
	l.set("directory.put_inline_us", us(l.each("ladder.put", "directory.put_inline", n, func(i int) error {
		return a.PutInline(l.ctx, oids[i], small)
	})))
	l.set("directory.lookup_us", us(l.each("ladder.small_get", "directory.lookup", n, func(i int) error {
		rec, err := b.Lookup(l.ctx, oids[i], false)
		if err == nil && !bytes.Equal(rec.Inline, small) {
			err = errCorrupt
		}
		return err
	})))
	l.set("directory.acquire_inline_us", us(l.each("ladder.small_get", "directory.acquire_inline", n, func(i int) error {
		lease, err := b.AcquireSender(l.ctx, oids[i], false)
		if err == nil && !bytes.Equal(lease.Inline, small) {
			err = errCorrupt
		}
		return err
	})))

	// A large object's Get brackets its pull with these two RPCs.
	big := gen.oid()
	if err := a.PutStarted(l.ctx, big, 64*mib); err != nil {
		l.fail("directory.put_started", err)
		return
	}
	if err := a.PutComplete(l.ctx, big); err != nil {
		l.fail("directory.put_complete", err)
		return
	}
	l.set("directory.acquire_release_us", us(l.each("ladder.large_get", "directory.acquire_release", n, func(int) error {
		lease, err := b.AcquireSender(l.ctx, big, false)
		if err != nil {
			return err
		}
		if lease.Sender != "ladder-a" {
			return fmt.Errorf("leased sender %q, want ladder-a", lease.Sender)
		}
		return b.ReleaseSender(l.ctx, big, lease.Sender, false)
	})))

	// The same PutInline against a group of three replicas: the primary
	// forwards every mutation to two backups before it answers.
	const replicas = 3
	lns := make([]net.Listener, replicas)
	addrs := make([]string, replicas)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			l.fail("directory.replicated", err)
			return
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for i := range lns {
		d := directory.NewReplicated(directory.Config{Self: addrs[i], Groups: [][]string{addrs}, Dial: tcpDial})
		srv := wire.NewServer(lns[i], d.Handler())
		done := make(chan struct{})
		go func() { defer close(done); _ = srv.Serve() }()
		d.Start()
		defer func() { srv.Close(); d.Close(); <-done }()
	}
	r := directory.NewReplicatedClient("ladder-r", [][]string{addrs}, tcpDial)
	defer r.Close()
	if err := r.PutInline(l.ctx, gen.oid(), small); err != nil { // dials, and rides out the group's first heartbeat
		l.fail("directory.put_inline_r3", err)
		return
	}
	l.set("directory.put_inline_r3_us", us(l.each("ladder.put", "directory.put_inline_r3", n, func(int) error {
		return r.PutInline(l.ctx, gen.oid(), small)
	})))
}

// smallRungs: the pure-CPU pieces the hot paths call per chunk or per RPC.
func (l *ladder) smallRungs(vec, mid []byte) {
	if l.err != nil {
		return
	}
	dst := append([]byte(nil), vec...)
	l.set("types.accumulate_f32_MBps", mbPerSec(int64(len(vec)), l.each("ladder.reduce", "types.accumulate", 40, func(int) error {
		return hoplite.SumF32.Accumulate(dst, vec)
	})))

	links := linkstate.New(linkstate.Config{PriorRTT: netemLatency, PriorBandwidth: 1.25e9})
	peers := make([]types.NodeID, 8)
	for i := range peers {
		peers[i] = types.NodeID(fmt.Sprintf("10.0.0.%d:7777", i+1))
	}
	l.set("linkstate.observe_ns", l.batch("ladder.small_get", "linkstate.observe", 200000, func(i int) {
		links.ObserveTransfer(peers[i%len(peers)], int64(len(mid)), time.Millisecond)
	}))
	var est linkstate.Estimate
	l.set("linkstate.estimate_ns", l.batch("ladder.small_get", "linkstate.estimate", 200000, func(i int) {
		est = links.Estimate(peers[i%len(peers)])
	}))
	if l.err == nil && !est.Measured {
		l.fail("linkstate.estimate", fmt.Errorf("peer not measured after %d samples", 200000/len(peers)))
	}

	l.set("pool.getput_ns", l.batch("ladder.large_get", "pool.getput", 200000, func(int) {
		buf := pool.Get(chunk)
		pool.Put(buf)
	}))
}

// coreRungs: the public API on loopback clusters, at the three size
// classes. get_overhead is what core adds on top of the directory RPCs
// and the pull it is made of, measured on the rungs below.
func (l *ladder) coreRungs(gen *rng, small, mid, bulk []byte) {
	if l.err != nil {
		return
	}
	var two, nine *hoplite.Cluster
	defer func() {
		if two != nil {
			two.Close()
		}
		if nine != nil {
			nine.Close()
		}
	}()
	for _, n := range []int{2, 3, 9} {
		var booted []*hoplite.Cluster
		d := l.each("ladder.put", fmt.Sprintf("hoplite.start_cluster_%d", n), 3, func(int) error {
			c, err := hoplite.StartLocalCluster(n, hoplite.Options{})
			booted = append(booted, c)
			return err
		})
		l.set(fmt.Sprintf("hoplite.start_cluster_ms_%d", n), ms(d))
		for i, c := range booted {
			switch {
			case c == nil:
			case i == 0 && n == 2:
				two = c
			case i == 0 && n == 9:
				nine = c
			default:
				c.Close()
			}
		}
	}
	if l.err != nil {
		return
	}
	n0, n1 := two.Node(0), two.Node(1)

	pullUs := map[string]float64{
		"1KiB":  l.vals["directory.acquire_inline_us"], // an inline Get is that one RPC
		"1MiB":  l.vals["directory.acquire_release_us"] + l.vals["transport.pull_us_1MiB"],
		"64MiB": l.vals["directory.acquire_release_us"] + 64*mib/l.vals["transport.pull_MBps"],
	}
	var local hoplite.ObjectID // a 64 MiB object node 1 keeps a copy of
	for _, sz := range []struct {
		name    string
		payload []byte
		n       int
	}{{"1KiB", small, 500}, {"1MiB", mid, 150}, {"64MiB", bulk, 6}} {
		var puts, gets []time.Duration
		for i := 0; i < sz.n && l.err == nil; i++ {
			oid := gen.oid()
			puts = append(puts, l.once("ladder.put", "core.put", func() error { return n0.Put(l.ctx, oid, sz.payload) }))
			var ref *hoplite.ObjectRef
			gets = append(gets, l.once("ladder.large_get", "core.getref", func() (err error) {
				//hoplite:ref-transfer the ref leaves the timed closure through the outer variable and is released below
				ref, err = n1.GetRef(l.ctx, oid)
				return err
			}))
			if l.err != nil {
				return
			}
			ok := bytes.Equal(ref.Bytes(), sz.payload)
			ref.Release()
			if !ok {
				l.fail("core.getref", errCorrupt)
				return
			}
			if sz.name == "64MiB" && i == sz.n-1 {
				local = oid
			} else if err := n0.Delete(l.ctx, oid); err != nil {
				l.fail("core.delete", err)
				return
			}
		}
		get := us(median(gets))
		l.set("core.put_us_"+sz.name, us(median(puts)))
		l.set("core.getref_remote_us_"+sz.name, get)
		l.set("core.get_overhead_us_"+sz.name, get-pullUs[sz.name])
	}
	if l.err != nil {
		return
	}

	// Node 1 holds `local` complete: the zero-copy handle, then the Get
	// that copies the payload out.
	getRefLocal := func(int) {
		ref, err := n1.GetRef(l.ctx, local)
		if err != nil {
			l.fail("core.getref_local", err)
			return
		}
		ref.Release()
	}
	l.set("core.getref_local_ns", l.batch("ladder.large_get", "core.getref_local", 200000, getRefLocal))
	_, objects := allocs(func() {
		for i := 0; i < 1000; i++ {
			getRefLocal(i)
		}
	})
	l.set("core.getref_local_allocs", objects/1000)
	var got []byte
	l.set("core.get_copy_MBps", mbPerSec(int64(len(bulk)), l.each("ladder.large_get", "core.get_copy", 6, func(int) (err error) {
		got, err = n1.Get(l.ctx, local)
		return err
	})))
	if l.err == nil && !bytes.Equal(got, bulk) {
		l.fail("core.get_copy", errCorrupt)
	}

	// The collective workload's reduce with no cap on the links: what is
	// left is the reduce's compute and its control messages.
	vec := bulk[:4*mib]
	srcs := make([]hoplite.ObjectID, 8)
	payloads := make([][]byte, len(srcs))
	for i := range srcs {
		srcs[i] = gen.oid()
		payloads[i] = vec
		if err := nine.Node(i).Put(l.ctx, srcs[i], vec); err != nil {
			l.fail("core.reduce_loopback", err)
			return
		}
	}
	var target hoplite.ObjectID
	l.set("core.reduce_loopback_ms", ms(l.each("ladder.reduce", "core.reduce", 6, func(int) error {
		target = gen.oid()
		if _, err := nine.Node(0).Reduce(l.ctx, target, srcs, len(srcs), hoplite.SumF32); err != nil {
			return err
		}
		return nine.Node(0).WaitLocal(l.ctx, target)
	})))
	if l.err != nil {
		return
	}
	ref, err := nine.Node(0).GetRef(l.ctx, target)
	if err != nil {
		l.fail("core.reduce_loopback", err)
		return
	}
	if !bytes.Equal(ref.Bytes(), sumF32(payloads)) {
		l.fail("core.reduce_loopback", errCorrupt)
	}
	ref.Release()
}
