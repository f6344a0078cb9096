package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hoplite"
	"hoplite/internal/buffer"
	"hoplite/internal/netem"
	"hoplite/internal/spill"
	"hoplite/internal/store"
	"hoplite/internal/transport"
	"hoplite/internal/types"
)

const chunk = transport.DefaultChunkSize

// streamServer answers each 8-byte request n on a connection with the
// first n bytes of src, until the peer closes. It is the bare socket under
// every data-plane rung: what loopback gives with no protocol on top.
func streamServer(ln net.Listener, src []byte) *sync.WaitGroup {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				var req [8]byte
				for {
					if _, err := io.ReadFull(conn, req[:]); err != nil {
						return
					}
					n := binary.BigEndian.Uint64(req[:])
					if _, err := io.Copy(conn, bytes.NewReader(src[:n])); err != nil {
						return
					}
				}
			}()
		}
	}()
	return &wg
}

// fetch asks a streamServer for len(dst) bytes and reads them.
func fetch(conn net.Conn, dst []byte) error {
	var req [8]byte
	binary.BigEndian.PutUint64(req[:], uint64(len(dst)))
	if _, err := conn.Write(req[:]); err != nil {
		return err
	}
	_, err := io.ReadFull(conn, dst)
	return err
}

// netemRungs: the fabric with nothing on top. tcp_copy is the ceiling
// every pull is compared with; shaped_rate_ratio guards the emulator that
// collective_netem's times depend on.
func (l *ladder) netemRungs(bulk []byte) {
	if l.err != nil {
		return
	}
	fab := &netem.TCP{}
	ln, err := fab.Listen("ladder-server")
	if err != nil {
		l.fail("netem.listen", err)
		return
	}
	served := streamServer(ln, bulk)
	defer served.Wait()
	defer ln.Close()

	l.set("netem.dial_us", us(l.each("ladder.large_get", "netem.dial", 200, func(int) error {
		conn, err := fab.Dial(l.ctx, "ladder-client", ln.Addr().String())
		if err != nil {
			return err
		}
		return conn.Close()
	})))

	conn, err := fab.Dial(l.ctx, "ladder-client", ln.Addr().String())
	if err != nil {
		l.fail("netem.dial", err)
		return
	}
	defer conn.Close()
	dst := make([]byte, len(bulk))
	for _, sz := range []struct {
		name string
		size int64
		n    int
	}{{"1MiB", mib, 200}, {"64MiB", 64 * mib, 6}} {
		d := l.each("ladder.large_get", "netem.tcp_copy", sz.n, func(int) error { return fetch(conn, dst[:sz.size]) })
		l.set("netem.tcp_copy_MBps_"+sz.name, mbPerSec(sz.size, d))
	}
	if l.err == nil && !bytes.Equal(dst, bulk) {
		l.fail("netem.tcp_copy", errCorrupt)
	}

	// One shaped stream at collective_netem's rate: 8 MiB should take an
	// eighth of a second.
	em := netem.NewEmulated(netem.LinkConfig{Latency: netemLatency, BytesPerSec: netemRate})
	defer em.Close()
	sln, err := em.Listen("ladder-shaped-server")
	if err != nil {
		l.fail("netem.listen", err)
		return
	}
	shaped := streamServer(sln, bulk)
	defer shaped.Wait()
	defer sln.Close()
	sconn, err := em.Dial(l.ctx, "ladder-shaped-client", sln.Addr().String())
	if err != nil {
		l.fail("netem.dial", err)
		return
	}
	defer sconn.Close()
	d := l.each("ladder.reduce", "netem.shaped_copy", 3, func(int) error { return fetch(sconn, dst[:8*mib]) })
	l.set("netem.shaped_rate_ratio", mbPerSec(8*mib, d)*1e6/netemRate)
}

// transportRungs: Pull against a bare server, no directory and no store.
func (l *ladder) transportRungs(gen *rng, bulk []byte) {
	if l.err != nil {
		return
	}
	dir, err := l.subdir("transport")
	if err != nil {
		l.fail("transport", err)
		return
	}
	file, err := os.Create(filepath.Join(dir, "payload"))
	if err != nil {
		l.fail("transport", err)
		return
	}
	defer file.Close()
	if _, err := file.Write(bulk); err != nil {
		l.fail("transport", err)
		return
	}

	oids := map[string]types.ObjectID{"4KiB": gen.oid(), "1MiB": gen.oid(), "64MiB": gen.oid(), "file": gen.oid()}
	sizes := map[types.ObjectID]int64{oids["4KiB"]: 4 * kib, oids["1MiB"]: mib, oids["64MiB"]: 64 * mib}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.fail("transport", err)
		return
	}
	srv := transport.NewServer(ln, func(_ context.Context, oid types.ObjectID) (transport.Payload, error) {
		if oid == oids["file"] {
			return transport.Payload{File: file, Size: int64(len(bulk))}, nil
		}
		if n, ok := sizes[oid]; ok {
			return transport.Payload{Buf: buffer.FromBytes(bulk[:n])}, nil
		}
		return transport.Payload{}, types.ErrNotFound
	}, chunk, nil)
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve() }()
	defer func() { srv.Close(); <-done }()
	dial := func(ctx context.Context) (net.Conn, error) { return tcpDial(ctx, srv.Addr()) }

	// Every pull's payload is checked after the clock stops.
	pull := func(name string, n int, oid types.ObjectID, size int64) time.Duration {
		ds := make([]time.Duration, 0, n)
		for i := 0; i < n && l.err == nil; i++ {
			dst := buffer.New(size)
			ds = append(ds, l.once("ladder.large_get", name, func() error {
				return transport.Pull(l.ctx, dial, "ladder", oid, 0, dst)
			}))
			if l.err == nil && !bytes.Equal(dst.Bytes(), bulk[:size]) {
				l.fail(name, errCorrupt)
			}
		}
		return median(ds)
	}
	l.set("transport.pull_fixed_us", us(pull("transport.pull_4KiB", 300, oids["4KiB"], 4*kib)))
	l.set("transport.pull_us_1MiB", us(pull("transport.pull_1MiB", 100, oids["1MiB"], mib)))
	const pulls = 6
	var d time.Duration
	heapBytes, heapObjects := allocs(func() {
		d = pull("transport.pull", pulls, oids["64MiB"], 64*mib)
	})
	l.set("transport.pull_MBps", mbPerSec(64*mib, d))
	l.set("transport.pull_ceiling_ratio", mbPerSec(64*mib, d)/l.vals["netem.tcp_copy_MBps_64MiB"])
	l.set("transport.alloc_B_per_payload_B", heapBytes/(pulls*64*mib))
	l.set("transport.allocs_per_pull", heapObjects/pulls)
	l.set("transport.pull_file_MBps", mbPerSec(64*mib, pull("transport.pull_file", 4, oids["file"], 64*mib)))

	// Four workers drain one buffer's ledger with ranged pulls, as a
	// striped Get does.
	var striped *buffer.Buffer
	l.set("transport.pull_range4_MBps", mbPerSec(64*mib, l.each("ladder.large_get", "transport.pull_range4", 4, func(int) error {
		dst := buffer.NewChunked(64*mib, buffer.DefaultLedgerChunk)
		striped = dst
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for w := range errs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					off, length, ok := dst.ClaimNext(buffer.DefaultLedgerChunk)
					if !ok {
						return
					}
					if err := transport.PullRange(l.ctx, dial, "ladder", oids["64MiB"], off, length, dst); err != nil {
						dst.ReleaseClaim(off, length)
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		return errors.Join(errs...)
	})))
	if l.err == nil && (striped.Present() != striped.Size() || !bytes.Equal(striped.Bytes(), bulk)) {
		l.fail("transport.pull_range4", errCorrupt)
	}
}

// bufferRungs: the ledger a pull writes into, with chunk-sized writes.
func (l *ladder) bufferRungs(bulk []byte) {
	size := int64(len(bulk))
	fill := func(write func(b *buffer.Buffer, p []byte, off int64) error) func(int) error {
		return func(int) error {
			b := buffer.New(size)
			for off := int64(0); off < size; off += chunk {
				if err := write(b, bulk[off:off+chunk], off); err != nil {
					return err
				}
			}
			return nil
		}
	}
	l.set("buffer.writeat_MBps", mbPerSec(size, l.each("ladder.large_get", "buffer.writeat", 6, fill(func(b *buffer.Buffer, p []byte, off int64) error {
		return b.WriteAt(p, off)
	}))))
	l.set("buffer.append_MBps", mbPerSec(size, l.each("ladder.put", "buffer.append", 6, fill(func(b *buffer.Buffer, p []byte, _ int64) error {
		return b.Append(p)
	}))))

	ledger := buffer.NewChunked(size, buffer.DefaultLedgerChunk)
	l.set("buffer.claim_ns", l.batch("ladder.large_get", "buffer.claim", 200000, func(int) {
		if off, length, ok := ledger.ClaimNext(buffer.DefaultLedgerChunk); ok {
			ledger.ReleaseClaim(off, length)
		}
	}))

	// A reader parked at the watermark, woken by one chunk arriving: the
	// granularity at which a relay forwards what it receives.
	const wakes = 100
	b := buffer.New(wakes * chunk)
	l.set("buffer.wake_us", us(l.each("ladder.reduce", "buffer.wake", wakes, func(i int) error {
		off := int64(i) * chunk
		parked := make(chan struct{})
		woke := make(chan error, 1)
		go func() {
			close(parked)
			_, _, err := b.WaitAt(l.ctx, off)
			woke <- err
		}()
		<-parked
		if err := b.Append(bulk[off : off+chunk]); err != nil {
			return err
		}
		return <-woke
	})))
}

// storeRungs: the object table under Put and Get, and the demotion path
// of a tiered store whose demote function is the spill tier.
func (l *ladder) storeRungs(gen *rng, small, mid, bulk []byte) {
	s := store.New(0, nil)
	defer s.Close()
	for _, sz := range []struct {
		name    string
		payload []byte
		n       int
	}{{"1KiB", small, 2000}, {"1MiB", mid, 200}, {"64MiB", bulk, 5}} {
		l.set("store.create_seal_us_"+sz.name, us(l.each("ladder.put", "store.create_seal", sz.n, func(int) error {
			oid := gen.oid()
			buf, err := s.CreateAdmit(l.ctx, oid, int64(len(sz.payload)), true)
			if err != nil {
				return err
			}
			if err := buf.Append(sz.payload); err != nil {
				return err
			}
			buf.Seal()
			s.Delete(oid)
			return nil
		})))
	}
	if l.err != nil {
		return
	}
	held := gen.oid()
	if _, err := s.InsertSealed(held, mid, true); err != nil {
		l.fail("store.acquire", err)
		return
	}
	l.set("store.acquire_ns", l.batch("ladder.large_get", "store.acquire", 200000, func(int) {
		if buf, ok := s.Acquire(held); ok {
			buf.Unref()
		}
	}))

	dir, err := l.subdir("demote")
	if err != nil {
		l.fail("store.demote", err)
		return
	}
	sp, err := spill.Open(dir)
	if err != nil {
		l.fail("store.demote", err)
		return
	}
	defer sp.Close()
	var demotes samples
	tiered := store.NewTiered(store.Tier{
		Capacity:      spillMemory,
		PrepareDemote: sp.Reserve,
		Demote: func(oid types.ObjectID, buf *buffer.Buffer) bool {
			start := time.Now()
			id := l.tr.begin(l.group("ladder.put"), l.op, "store.demote")
			err := sp.Write(oid, buf)
			l.tr.end(id)
			demotes.add(time.Since(start))
			return err == nil
		},
	})
	defer tiered.Close()
	for i := 0; i < 16; i++ {
		if _, err := tiered.InsertSealed(gen.oid(), bulk[:8*mib], true); err != nil {
			l.fail("store.demote", err)
			return
		}
	}
	if len(demotes) == 0 {
		l.fail("store.demote", fmt.Errorf("16 objects of 8 MiB in a %d MiB store demoted nothing", spillMemory/mib))
		return
	}
	l.set("store.demote_us", demotes.median()*1000)
}

// spillRungs: the spill directory on its own, at outofcore_spill's size.
func (l *ladder) spillRungs(gen *rng, payload []byte) {
	if l.err != nil {
		return
	}
	dir, err := l.subdir("spill")
	if err != nil {
		l.fail("spill", err)
		return
	}
	sp, err := spill.Open(dir)
	if err != nil {
		l.fail("spill", err)
		return
	}
	defer sp.Close()
	const n = 8
	oids := make([]hoplite.ObjectID, n)
	size := int64(len(payload))
	l.set("spill.write_MBps", mbPerSec(size, l.each("ladder.put", "spill.write", n, func(i int) error {
		oids[i] = gen.oid()
		return sp.Write(oids[i], buffer.FromBytes(payload))
	})))
	restored := make([]byte, 0, size)
	l.set("spill.readinto_MBps", mbPerSec(size, l.each("ladder.large_get", "spill.readinto", n, func(i int) error {
		restored = restored[:0]
		return sp.ReadInto(oids[i], 0, func(p []byte) error {
			restored = append(restored, p...)
			return nil
		})
	})))
	if l.err == nil && !bytes.Equal(restored, payload) {
		l.fail("spill.readinto", errCorrupt)
	}
	l.set("spill.open_us", us(l.each("ladder.large_get", "spill.open", 200, func(i int) error {
		f, _, err := sp.Open(oids[i%n])
		if err != nil {
			return err
		}
		return f.Close()
	})))
}
