// Package linkstate maintains per-peer link estimates — round-trip time
// and usable bandwidth — from passive measurements of the traffic a node
// already exchanges: every data-plane pull contributes a bandwidth sample
// and every control round-trip (heartbeats, pings, ordinary RPCs)
// contributes an RTT sample. Estimates are exponentially weighted moving
// averages seeded from configured priors (the cluster-wide Latency and
// Bandwidth knobs, now demoted to cold-start hints) and decay back toward
// those priors when a link goes quiet, so a stale burst measurement does
// not dominate planning forever.
//
// Peers may carry a locality label (rack or datacenter, from the cluster
// map). A peer that has never been measured directly borrows the
// aggregate estimate of the already-measured peers in its locality
// domain, which is usually a far better guess than the global prior.
package linkstate

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"hoplite/internal/types"
)

// Defaults for Config fields left zero.
const (
	DefaultHalfLife = 10 * time.Second
	// minBandwidthSample is the smallest transfer that yields a bandwidth
	// sample: below it the transfer time is dominated by per-request
	// latency, not link capacity.
	minBandwidthSample = 64 << 10
	// rttAlpha and bwAlpha are the EWMA gains. RTT samples are plentiful
	// (every control round-trip) so a small gain smooths scheduler noise;
	// bandwidth samples are rarer and each covers many bytes, so they move
	// the estimate faster.
	rttAlpha = 0.2
	bwAlpha  = 0.4
	// decayGrace is how long a link must be quiet before its estimate
	// starts decaying toward the priors. Without it, decay would bias even
	// an actively-sampled link toward the prior between samples.
	decayGrace = time.Second
)

// Config seeds a Tracker.
type Config struct {
	// PriorRTT and PriorBandwidth are the cold-start estimates every link
	// begins at and decays back toward when quiet. Bandwidth is in
	// bytes/second. Zero selects 200µs and 1.25 GB/s (the paper's 10 Gbps
	// testbed).
	PriorRTT       time.Duration
	PriorBandwidth float64
	// HalfLife is the quiet-link decay half-life: an estimate that has
	// been quiet for one half-life (past a one-second grace period) has
	// moved half way back to the prior. Zero selects DefaultHalfLife;
	// negative disables decay.
	HalfLife time.Duration
}

func (c Config) withDefaults() Config {
	if c.PriorRTT <= 0 {
		c.PriorRTT = 200 * time.Microsecond
	}
	if c.PriorBandwidth <= 0 {
		c.PriorBandwidth = 1.25e9
	}
	if c.HalfLife == 0 {
		c.HalfLife = DefaultHalfLife
	}
	return c
}

// Estimate is the current belief about one link.
type Estimate struct {
	// RTT is the estimated control round-trip time to the peer.
	RTT time.Duration
	// Bandwidth is the estimated usable bandwidth in bytes/second.
	Bandwidth float64
	// Measured reports whether at least one direct sample backs the
	// estimate; false means it is the prior or a locality aggregate.
	Measured bool
	// Samples counts direct RTT + bandwidth samples absorbed.
	Samples uint64
	// Age is the time since the last direct sample (zero when !Measured).
	Age time.Duration
}

// PeerEstimate is one row of a Tracker snapshot.
type PeerEstimate struct {
	Peer     types.NodeID
	Locality string
	Estimate
}

type peerState struct {
	rtt     float64 // EWMA, seconds
	bw      float64 // EWMA, bytes/second
	hasRTT  bool
	hasBW   bool
	samples uint64
	bytes   int64
	last    time.Time
}

// Tracker accumulates link samples and answers estimate queries. All
// methods are safe for concurrent use.
type Tracker struct {
	cfg Config
	now func() time.Time // test hook

	mu       sync.Mutex
	peers    map[types.NodeID]*peerState
	locality map[types.NodeID]string
}

// New returns an empty Tracker.
func New(cfg Config) *Tracker {
	return &Tracker{
		cfg:      cfg.withDefaults(),
		now:      time.Now,
		peers:    make(map[types.NodeID]*peerState),
		locality: make(map[types.NodeID]string),
	}
}

// Prior returns the cold-start RTT and bandwidth an unmeasured link is
// estimated at.
func (t *Tracker) Prior() (time.Duration, float64) {
	return t.cfg.PriorRTT, t.cfg.PriorBandwidth
}

// ObserveRTT records one control round-trip to peer.
func (t *Tracker) ObserveRTT(peer types.NodeID, rtt time.Duration) {
	if peer == "" || rtt <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.peer(peer)
	t.decayLocked(s)
	v := rtt.Seconds()
	if !s.hasRTT {
		s.rtt, s.hasRTT = v, true
	} else {
		s.rtt += rttAlpha * (v - s.rtt)
	}
	s.samples++
	s.last = t.now()
}

// ObserveTransfer records a bulk transfer of n bytes to or from peer that
// took d of wall time. Transfers too small to measure link capacity are
// ignored (they still refresh the link's last-activity time).
func (t *Tracker) ObserveTransfer(peer types.NodeID, n int64, d time.Duration) {
	if peer == "" || n <= 0 || d <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.peer(peer)
	t.decayLocked(s)
	s.bytes += n
	s.last = t.now()
	if n < minBandwidthSample {
		return
	}
	v := float64(n) / d.Seconds()
	if !s.hasBW {
		s.bw, s.hasBW = v, true
	} else {
		s.bw += bwAlpha * (v - s.bw)
	}
	s.samples++
}

// SetLocality replaces the peer→locality-domain labels (from the cluster
// map). Unlabeled peers may be omitted.
func (t *Tracker) SetLocality(labels map[types.NodeID]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.locality = make(map[types.NodeID]string, len(labels))
	for p, l := range labels {
		if l != "" {
			t.locality[p] = l
		}
	}
}

// Estimate returns the current belief about the link to peer. A peer with
// no direct samples borrows the mean estimate of measured peers sharing
// its locality domain, falling back to the priors.
func (t *Tracker) Estimate(peer types.NodeID) Estimate {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.estimateLocked(peer)
}

func (t *Tracker) estimateLocked(peer types.NodeID) Estimate {
	if s, ok := t.peers[peer]; ok && (s.hasRTT || s.hasBW) {
		rtt, bw := t.decayedLocked(s)
		return Estimate{
			RTT:       time.Duration(rtt * float64(time.Second)),
			Bandwidth: bw,
			Measured:  true,
			Samples:   s.samples,
			Age:       t.now().Sub(s.last),
		}
	}
	if dom := t.locality[peer]; dom != "" {
		if est, ok := t.domainLocked(dom, peer); ok {
			return est
		}
	}
	return Estimate{RTT: t.cfg.PriorRTT, Bandwidth: t.cfg.PriorBandwidth}
}

// domainLocked averages the decayed estimates of measured peers in dom,
// excluding self.
func (t *Tracker) domainLocked(dom string, self types.NodeID) (Estimate, bool) {
	var rttSum, bwSum float64
	var n int
	for p, s := range t.peers {
		if p == self || t.locality[p] != dom || !(s.hasRTT || s.hasBW) {
			continue
		}
		rtt, bw := t.decayedLocked(s)
		rttSum += rtt
		bwSum += bw
		n++
	}
	if n == 0 {
		return Estimate{}, false
	}
	return Estimate{
		RTT:       time.Duration(rttSum / float64(n) * float64(time.Second)),
		Bandwidth: bwSum / float64(n),
	}, true
}

// Snapshot returns one row per known peer (measured or merely labeled),
// sorted by peer ID.
func (t *Tracker) Snapshot() []PeerEstimate {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := make(map[types.NodeID]bool, len(t.peers)+len(t.locality))
	for p := range t.peers {
		seen[p] = true
	}
	for p := range t.locality {
		seen[p] = true
	}
	out := make([]PeerEstimate, 0, len(seen))
	for p := range seen {
		out = append(out, PeerEstimate{Peer: p, Locality: t.locality[p], Estimate: t.estimateLocked(p)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// peer returns (creating if needed) the state record for p.
func (t *Tracker) peer(p types.NodeID) *peerState {
	s, ok := t.peers[p]
	if !ok {
		s = &peerState{}
		t.peers[p] = s
	}
	return s
}

// decayedLocked returns s's estimates decayed toward the priors by the
// time elapsed since the last sample, without mutating s.
func (t *Tracker) decayedLocked(s *peerState) (rttSec, bw float64) {
	rttSec, bw = s.rtt, s.bw
	if !s.hasRTT {
		rttSec = t.cfg.PriorRTT.Seconds()
	}
	if !s.hasBW {
		bw = t.cfg.PriorBandwidth
	}
	if t.cfg.HalfLife < 0 || s.last.IsZero() {
		return rttSec, bw
	}
	elapsed := t.now().Sub(s.last) - decayGrace
	if elapsed <= 0 {
		return rttSec, bw
	}
	w := math.Exp2(-elapsed.Seconds() / t.cfg.HalfLife.Seconds())
	prior := t.cfg.PriorRTT.Seconds()
	rttSec = prior + (rttSec-prior)*w
	bw = t.cfg.PriorBandwidth + (bw-t.cfg.PriorBandwidth)*w
	return rttSec, bw
}

// decayLocked folds the pending quiet-time decay into s's stored EWMAs so
// a fresh sample blends against the decayed value, not the stale one.
func (t *Tracker) decayLocked(s *peerState) {
	if !(s.hasRTT || s.hasBW) {
		return
	}
	rtt, bw := t.decayedLocked(s)
	if s.hasRTT {
		s.rtt = rtt
	}
	if s.hasBW {
		s.bw = bw
	}
}

// Snapshot wire encoding, used by the MethodLinkState control RPC so
// hoplite-cli can render a remote node's table. Layout: u16 row count,
// then per row: u16+peer, u16+locality, i64 RTT ns, f64 bandwidth,
// i64 age ns (-1 when never measured), u64 samples, u8 measured.

// EncodeSnapshot serializes rows for the wire.
func EncodeSnapshot(rows []PeerEstimate) []byte {
	var b []byte
	b = binary.BigEndian.AppendUint16(b, uint16(len(rows)))
	for _, r := range rows {
		b = appendString(b, string(r.Peer))
		b = appendString(b, r.Locality)
		b = binary.BigEndian.AppendUint64(b, uint64(r.RTT.Nanoseconds()))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.Bandwidth))
		age := int64(-1)
		if r.Measured {
			age = r.Age.Nanoseconds()
		}
		b = binary.BigEndian.AppendUint64(b, uint64(age))
		b = binary.BigEndian.AppendUint64(b, r.Samples)
		if r.Measured {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// DecodeSnapshot parses an EncodeSnapshot payload.
func DecodeSnapshot(b []byte) ([]PeerEstimate, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("linkstate: snapshot truncated")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	rows := make([]PeerEstimate, 0, n)
	for i := 0; i < n; i++ {
		var r PeerEstimate
		var s string
		var err error
		if s, b, err = takeString(b); err != nil {
			return nil, err
		}
		r.Peer = types.NodeID(s)
		if r.Locality, b, err = takeString(b); err != nil {
			return nil, err
		}
		if len(b) < 8*4+1 {
			return nil, fmt.Errorf("linkstate: snapshot truncated")
		}
		r.RTT = time.Duration(binary.BigEndian.Uint64(b))
		r.Bandwidth = math.Float64frombits(binary.BigEndian.Uint64(b[8:]))
		age := int64(binary.BigEndian.Uint64(b[16:]))
		r.Samples = binary.BigEndian.Uint64(b[24:])
		r.Measured = b[32] == 1
		if r.Measured && age >= 0 {
			r.Age = time.Duration(age)
		}
		b = b[33:]
		rows = append(rows, r)
	}
	return rows, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func takeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("linkstate: snapshot truncated")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, fmt.Errorf("linkstate: snapshot truncated")
	}
	return string(b[:n]), b[n:], nil
}
