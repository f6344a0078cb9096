// Cluster membership. A ClusterMap is the authoritative, epoch-versioned
// description of which nodes are in the cluster and what roles they play.
// The map is owned by the membership shard's primary (directory shard 0),
// mutated only through the pure transition functions below, and propagated
// by push plus stale-epoch bounces: every stamped request carries the
// sender's epoch, and a receiver holding a newer map answers ErrStaleMap
// with its encoded map in the payload.
//
// Transitions never mutate the receiver: each returns a new map with
// Epoch+1 (or an error), so the same function runs identically on the
// primary that resolves a membership change and in table-driven tests.

package types

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MemberState is the lifecycle state of a cluster member.
type MemberState uint8

// Member states. There is no "dead" state: permanent loss is modeled as
// removal (WithRemove), after which the node's locations are purged.
const (
	// MemberActive nodes accept placements and host directory shards.
	MemberActive MemberState = iota
	// MemberDraining nodes are leaving: they keep serving reads and
	// in-flight transfers, but their copies no longer count toward the
	// replication factor and they are excluded from shard groups, so the
	// repair scanner and shard handoff empty them out.
	MemberDraining
)

// String implements fmt.Stringer.
func (s MemberState) String() string {
	switch s {
	case MemberActive:
		return "active"
	case MemberDraining:
		return "draining"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Member is one node's entry in the cluster map. Join order is preserved
// in ClusterMap.Members, which makes shard-group derivation deterministic.
type Member struct {
	Addr      NodeID
	State     MemberState
	ShardHost bool // eligible to host directory shard replicas
	// Locality is the node's optional locality-domain label (a rack or DC
	// name, e.g. "dc1/rackA"). Link-state trackers aggregate estimates per
	// domain so an unmeasured peer inherits its domain's mean instead of
	// the global prior. Empty means unlabeled.
	Locality string
}

// ClusterMap is the epoch-versioned cluster description. Every node boots
// from one at Epoch >= 1 (see FoundingMap); Epoch 0 is the zero value and
// means "no map installed yet".
type ClusterMap struct {
	Epoch     int64
	NumShards int // directory shard count, fixed for the cluster lifetime
	DirRF     int // directory shard replication factor
	ObjectRF  int // object replication target for the repair scanner (0 = off)
	Members   []Member
}

// Cluster-map transition errors.
var (
	// ErrUnknownMember reports a transition naming a node that is not in
	// the map.
	ErrUnknownMember = errors.New("clustermap: unknown member")
	// ErrLastShardHost reports an attempt to drain or remove the only
	// remaining active shard host, which would leave the directory with
	// no home.
	ErrLastShardHost = errors.New("clustermap: cannot remove last shard host")
)

// FoundingMap builds the epoch-1 map a cluster is founded with: every
// address an active member in the given order, the first shardHosts of them
// (all when shardHosts is out of range) hosting one directory shard each,
// replicated dirRF ways. All founders must build it from identical
// arguments. Callers stamp Locality labels on the members afterwards.
func FoundingMap(addrs []string, shardHosts, dirRF, objectRF int) ClusterMap {
	if shardHosts <= 0 || shardHosts > len(addrs) {
		shardHosts = len(addrs)
	}
	m := ClusterMap{
		Epoch:     1,
		NumShards: shardHosts,
		DirRF:     max(dirRF, 1),
		ObjectRF:  objectRF,
		Members:   make([]Member, len(addrs)),
	}
	for i, a := range addrs {
		m.Members[i] = Member{Addr: NodeID(a), State: MemberActive, ShardHost: i < shardHosts}
	}
	return m
}

// Clone returns a deep copy of the map.
func (m ClusterMap) Clone() ClusterMap {
	out := m
	out.Members = append([]Member(nil), m.Members...)
	return out
}

// MemberIndex returns the index of addr in Members, or -1.
func (m ClusterMap) MemberIndex(addr NodeID) int {
	for i := range m.Members {
		if m.Members[i].Addr == addr {
			return i
		}
	}
	return -1
}

// MemberState returns the state of addr and whether it is a member.
func (m ClusterMap) MemberState(addr NodeID) (MemberState, bool) {
	if i := m.MemberIndex(addr); i >= 0 {
		return m.Members[i].State, true
	}
	return 0, false
}

// ActiveHolder reports whether addr's copies count toward the object
// replication factor: it must be a member and not draining.
func (m ClusterMap) ActiveHolder(addr NodeID) bool {
	s, ok := m.MemberState(addr)
	return ok && s == MemberActive
}

func (m ClusterMap) activeShardHosts() []NodeID {
	var out []NodeID
	for _, mem := range m.Members {
		if mem.State == MemberActive && mem.ShardHost {
			out = append(out, mem.Addr)
		}
	}
	return out
}

// WithJoin returns the map after addr joins. Joining is idempotent: if
// addr is already an active member with the same role (and no new
// locality label) the map is returned unchanged (same epoch), so a
// retried join cannot burn epochs. A draining member rejoining is flipped
// back to active. An empty locality keeps the member's existing label, so
// a rejoin that omits it cannot erase one.
func (m ClusterMap) WithJoin(addr NodeID, shardHost bool, locality string) (ClusterMap, error) {
	if addr == "" {
		return m, fmt.Errorf("clustermap: empty member address")
	}
	if i := m.MemberIndex(addr); i >= 0 {
		sameLoc := locality == "" || locality == m.Members[i].Locality
		if m.Members[i].State == MemberActive && m.Members[i].ShardHost == shardHost && sameLoc {
			return m, nil
		}
		out := m.Clone()
		out.Members[i].State = MemberActive
		out.Members[i].ShardHost = shardHost
		if locality != "" {
			out.Members[i].Locality = locality
		}
		out.Epoch++
		return out, nil
	}
	out := m.Clone()
	out.Members = append(out.Members, Member{Addr: addr, State: MemberActive, ShardHost: shardHost, Locality: locality})
	out.Epoch++
	return out, nil
}

// WithDrain returns the map after addr starts draining. Idempotent on an
// already-draining member.
func (m ClusterMap) WithDrain(addr NodeID) (ClusterMap, error) {
	i := m.MemberIndex(addr)
	if i < 0 {
		return m, ErrUnknownMember
	}
	if m.Members[i].State == MemberDraining {
		return m, nil
	}
	if m.Members[i].ShardHost && len(m.activeShardHosts()) == 1 {
		return m, ErrLastShardHost
	}
	out := m.Clone()
	out.Members[i].State = MemberDraining
	out.Epoch++
	return out, nil
}

// WithRemove returns the map after addr leaves for good — drain completion
// or a declared permanent loss. Idempotent on a non-member.
func (m ClusterMap) WithRemove(addr NodeID) (ClusterMap, error) {
	i := m.MemberIndex(addr)
	if i < 0 {
		return m, nil
	}
	if m.Members[i].State == MemberActive && m.Members[i].ShardHost && len(m.activeShardHosts()) == 1 {
		return m, ErrLastShardHost
	}
	out := m.Clone()
	out.Members = append(out.Members[:i:i], out.Members[i+1:]...)
	out.Epoch++
	return out, nil
}

// DeriveGroups maps the membership onto NumShards directory replica
// groups: group i is the DirRF active shard hosts starting at position
// i%len (wrapping), in join order, with DirRF clamped to [1, hosts]. This
// is the only place the wrap-around rule lives; every member derives its
// topology from the map through it, and later epochs reshuffle only as
// members come and go. Draining and removed members appear in no group.
func (m ClusterMap) DeriveGroups() [][]string {
	hosts := m.activeShardHosts()
	groups := make([][]string, m.NumShards)
	if len(hosts) == 0 {
		return groups
	}
	r := m.DirRF
	if r < 1 {
		r = 1
	}
	if r > len(hosts) {
		r = len(hosts)
	}
	for i := range groups {
		g := make([]string, r)
		for j := 0; j < r; j++ {
			g[j] = string(hosts[(i+j)%len(hosts)])
		}
		groups[i] = g
	}
	return groups
}

// Encoding: a small fixed header plus one record per member, big-endian
// like the rest of the wire formats. The map rides inside Message.Payload
// (join responses, map pushes, stale-epoch bounces, shard snapshots), so
// it needs its own framing but no length prefix. Version 2 added the
// per-member locality label; version-1 encodings (from peers predating it)
// still decode, with every locality empty.
const (
	clusterMapVersionV1 = 1
	clusterMapVersion   = 2
)

// EncodeClusterMap appends the binary encoding of m to dst.
func EncodeClusterMap(dst []byte, m ClusterMap) []byte {
	dst = append(dst, clusterMapVersion)
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Epoch))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.NumShards))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.DirRF))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.ObjectRF))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Members)))
	for _, mem := range m.Members {
		var role byte
		if mem.ShardHost {
			role = 1
		}
		dst = append(dst, byte(mem.State), role)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(mem.Addr)))
		dst = append(dst, mem.Addr...)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(mem.Locality)))
		dst = append(dst, mem.Locality...)
	}
	return dst
}

// DecodeClusterMap parses an encoding produced by EncodeClusterMap (either
// version).
func DecodeClusterMap(b []byte) (ClusterMap, error) {
	var m ClusterMap
	bad := func() (ClusterMap, error) { return ClusterMap{}, errors.New("clustermap: corrupt encoding") }
	if len(b) < 1+8+4+4+4+4 {
		return bad()
	}
	version := b[0]
	if version != clusterMapVersionV1 && version != clusterMapVersion {
		return ClusterMap{}, fmt.Errorf("clustermap: unknown version %d", b[0])
	}
	b = b[1:]
	m.Epoch = int64(binary.BigEndian.Uint64(b))
	m.NumShards = int(binary.BigEndian.Uint32(b[8:]))
	m.DirRF = int(binary.BigEndian.Uint32(b[12:]))
	m.ObjectRF = int(binary.BigEndian.Uint32(b[16:]))
	n := int(binary.BigEndian.Uint32(b[20:]))
	b = b[24:]
	// Each member record is at least 4 bytes; reject impossible counts
	// before allocating.
	if n < 0 || n > len(b)/4 {
		return bad()
	}
	m.Members = make([]Member, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return bad()
		}
		state, role := MemberState(b[0]), b[1]
		alen := int(binary.BigEndian.Uint16(b[2:]))
		b = b[4:]
		if len(b) < alen {
			return bad()
		}
		mem := Member{
			Addr:      NodeID(b[:alen]),
			State:     state,
			ShardHost: role != 0,
		}
		b = b[alen:]
		if version >= clusterMapVersion {
			if len(b) < 2 {
				return bad()
			}
			llen := int(binary.BigEndian.Uint16(b))
			b = b[2:]
			if len(b) < llen {
				return bad()
			}
			mem.Locality = string(b[:llen])
			b = b[llen:]
		}
		m.Members = append(m.Members, mem)
	}
	if len(b) != 0 {
		return bad()
	}
	return m, nil
}

// Localities returns the per-member locality labels, omitting unlabeled
// members — the form the link-state tracker consumes.
func (m ClusterMap) Localities() map[NodeID]string {
	out := make(map[NodeID]string)
	for _, mem := range m.Members {
		if mem.Locality != "" {
			out[mem.Addr] = mem.Locality
		}
	}
	return out
}
