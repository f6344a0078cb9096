package types

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// boot builds the map a 4-node cluster would start with: 3 shard hosts
// plus one storage-only member, epoch 1.
func boot() ClusterMap {
	return ClusterMap{
		Epoch:     1,
		NumShards: 4,
		DirRF:     2,
		ObjectRF:  2,
		Members: []Member{
			{Addr: "a:1", State: MemberActive, ShardHost: true},
			{Addr: "b:1", State: MemberActive, ShardHost: true},
			{Addr: "c:1", State: MemberActive, ShardHost: true},
			{Addr: "d:1", State: MemberActive, ShardHost: false},
		},
	}
}

func TestClusterMapTransitions(t *testing.T) {
	drained := func(m ClusterMap, addr NodeID) ClusterMap {
		out, err := m.WithDrain(addr)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, tc := range []struct {
		name      string
		apply     func(ClusterMap) (ClusterMap, error)
		wantEpoch int64 // 0 means "unchanged from input"
		wantErr   error
		check     func(t *testing.T, m ClusterMap)
	}{
		{
			name:      "join new shard host",
			apply:     func(m ClusterMap) (ClusterMap, error) { return m.WithJoin("e:1", true, "rack2") },
			wantEpoch: 2,
			check: func(t *testing.T, m ClusterMap) {
				if i := m.MemberIndex("e:1"); i != 4 {
					t.Fatalf("joiner at index %d, want appended last", i)
				}
				if !m.Members[4].ShardHost || m.Members[4].State != MemberActive {
					t.Fatalf("joiner role wrong: %+v", m.Members[4])
				}
				if m.Members[4].Locality != "rack2" {
					t.Fatalf("joiner locality %q, want rack2", m.Members[4].Locality)
				}
			},
		},
		{
			name:      "join is idempotent",
			apply:     func(m ClusterMap) (ClusterMap, error) { return m.WithJoin("a:1", true, "") },
			wantEpoch: 0, // no epoch burned on a retried join
		},
		{
			name: "rejoin with empty locality keeps the recorded label",
			apply: func(m ClusterMap) (ClusterMap, error) {
				m2, err := m.WithJoin("a:1", true, "rack1")
				if err != nil {
					return m2, err
				}
				return m2.WithJoin("a:1", true, "")
			},
			wantEpoch: 2, // only the label-setting join burns an epoch
			check: func(t *testing.T, m ClusterMap) {
				if m.Members[0].Locality != "rack1" {
					t.Fatalf("locality %q, want rack1 preserved", m.Members[0].Locality)
				}
			},
		},
		{
			name: "rejoin of draining member reactivates",
			apply: func(m ClusterMap) (ClusterMap, error) {
				return drained(m, "b:1").WithJoin("b:1", true, "")
			},
			wantEpoch: 3,
			check: func(t *testing.T, m ClusterMap) {
				if s, _ := m.MemberState("b:1"); s != MemberActive {
					t.Fatalf("state %v, want active", s)
				}
			},
		},
		{
			name:      "drain",
			apply:     func(m ClusterMap) (ClusterMap, error) { return m.WithDrain("b:1") },
			wantEpoch: 2,
			check: func(t *testing.T, m ClusterMap) {
				if s, _ := m.MemberState("b:1"); s != MemberDraining {
					t.Fatalf("state %v, want draining", s)
				}
				if !m.ActiveHolder("a:1") || m.ActiveHolder("b:1") {
					t.Fatal("ActiveHolder must exclude draining members")
				}
			},
		},
		{
			name:      "drain is idempotent",
			apply:     func(m ClusterMap) (ClusterMap, error) { return drained(m, "b:1").WithDrain("b:1") },
			wantEpoch: 2,
		},
		{
			name:    "drain unknown member",
			apply:   func(m ClusterMap) (ClusterMap, error) { return m.WithDrain("zz:1") },
			wantErr: ErrUnknownMember,
		},
		{
			name: "drain last shard host refused",
			apply: func(m ClusterMap) (ClusterMap, error) {
				return drained(drained(m, "a:1"), "b:1").WithDrain("c:1")
			},
			wantErr: ErrLastShardHost,
		},
		{
			name:      "remove after drain",
			apply:     func(m ClusterMap) (ClusterMap, error) { return drained(m, "b:1").WithRemove("b:1") },
			wantEpoch: 3,
			check: func(t *testing.T, m ClusterMap) {
				if m.MemberIndex("b:1") >= 0 {
					t.Fatal("member still present after remove")
				}
				if len(m.Members) != 3 {
					t.Fatalf("member count %d, want 3", len(m.Members))
				}
			},
		},
		{
			name:      "remove active member directly (declared dead)",
			apply:     func(m ClusterMap) (ClusterMap, error) { return m.WithRemove("c:1") },
			wantEpoch: 2,
		},
		{
			name:      "remove non-member is idempotent",
			apply:     func(m ClusterMap) (ClusterMap, error) { return m.WithRemove("zz:1") },
			wantEpoch: 0,
		},
		{
			name: "remove last shard host refused",
			apply: func(m ClusterMap) (ClusterMap, error) {
				m2, err := m.WithRemove("a:1")
				if err != nil {
					return m2, err
				}
				m2, err = m2.WithRemove("b:1")
				if err != nil {
					return m2, err
				}
				return m2.WithRemove("c:1")
			},
			wantErr: ErrLastShardHost,
		},
		{
			name:      "remove storage-only member never refused",
			apply:     func(m ClusterMap) (ClusterMap, error) { return m.WithRemove("d:1") },
			wantEpoch: 2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := boot()
			got, err := tc.apply(in)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := tc.wantEpoch
			if want == 0 {
				want = got.Epoch // "unchanged" cases assert no bump below
			}
			if got.Epoch != want {
				t.Fatalf("epoch %d, want %d", got.Epoch, want)
			}
			if tc.wantEpoch == 0 && got.Epoch != in.Epoch {
				t.Fatalf("epoch bumped to %d on a no-op transition", got.Epoch)
			}
			// Transitions must never mutate their input.
			if !reflect.DeepEqual(in, boot()) {
				t.Fatal("transition mutated its input map")
			}
			if tc.check != nil {
				tc.check(t, got)
			}
		})
	}
}

// The derived shard groups at epoch 1 must reproduce the static layout
// (group i = hosts[(i+j)%n]) the cluster booted with, and reshuffle
// deterministically as members come and go.
func TestDeriveGroups(t *testing.T) {
	m := boot()
	got := m.DeriveGroups()
	want := [][]string{
		{"a:1", "b:1"},
		{"b:1", "c:1"},
		{"c:1", "a:1"},
		{"a:1", "b:1"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("boot groups %v, want %v", got, want)
	}

	// A joiner lands at the end of the host ring: existing primaries
	// (group[0]) keep their positions, only wrap-around groups change.
	j, err := m.WithJoin("e:1", true, "")
	if err != nil {
		t.Fatal(err)
	}
	got = j.DeriveGroups()
	want = [][]string{
		{"a:1", "b:1"},
		{"b:1", "c:1"},
		{"c:1", "e:1"},
		{"e:1", "a:1"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-join groups %v, want %v", got, want)
	}
	for i := range want[:3] {
		if got[i][0] != want[i][0] {
			t.Fatalf("join moved primary of shard %d", i)
		}
	}

	// Draining a host removes it from every group.
	d, err := m.WithDrain("b:1")
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range d.DeriveGroups() {
		for _, n := range g {
			if n == "b:1" {
				t.Fatalf("draining member still in group %d: %v", i, g)
			}
		}
	}

	// DirRF clamps to the live host count.
	two := ClusterMap{NumShards: 2, DirRF: 3, Members: []Member{
		{Addr: "a:1", State: MemberActive, ShardHost: true},
		{Addr: "b:1", State: MemberActive, ShardHost: true},
	}}
	for _, g := range two.DeriveGroups() {
		if len(g) != 2 {
			t.Fatalf("group %v, want width clamped to 2", g)
		}
	}

	// No hosts at all yields empty groups rather than panicking.
	none := ClusterMap{NumShards: 2, DirRF: 2}
	for _, g := range none.DeriveGroups() {
		if len(g) != 0 {
			t.Fatalf("unexpected group %v for empty membership", g)
		}
	}
}

// The founding map and DeriveGroups together are the only statement of the
// boot topology rule: shard i lives on the r shard hosts starting at the
// i-th, wrapping, in address order, with r clamped to [1, hosts]. Pin it
// for every small cluster shape, including head-node layouts where only a
// prefix of the members hosts shards.
func TestFoundingMapDerivesWrapAroundGroups(t *testing.T) {
	all := []string{"a:1", "b:1", "c:1", "d:1", "e:1"}
	for n := 1; n <= len(all); n++ {
		for shardNodes := 0; shardNodes <= n; shardNodes++ { // 0 = every node
			for r := 0; r <= 4; r++ {
				m := FoundingMap(all[:n], shardNodes, r, 2)
				hosts := shardNodes
				if hosts == 0 {
					hosts = n
				}
				if m.Epoch != 1 || m.NumShards != hosts || m.ObjectRF != 2 || len(m.Members) != n {
					t.Fatalf("FoundingMap(n=%d, shardNodes=%d, r=%d) = %+v", n, shardNodes, r, m)
				}
				for i, mem := range m.Members {
					if mem.Addr != NodeID(all[i]) || mem.State != MemberActive || mem.ShardHost != (i < hosts) {
						t.Fatalf("n=%d shardNodes=%d: member %d = %+v", n, shardNodes, i, mem)
					}
				}
				width := min(max(r, 1), hosts)
				want := make([][]string, hosts)
				for i := range want {
					for j := 0; j < width; j++ {
						want[i] = append(want[i], all[(i+j)%hosts])
					}
				}
				if got := m.DeriveGroups(); !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d shardNodes=%d r=%d: groups %v, want %v", n, shardNodes, r, got, want)
				}
			}
		}
	}
	// A spot check in literal form: 5 nodes, 3 head nodes, R=2.
	got := FoundingMap(all, 3, 2, 1).DeriveGroups()
	want := [][]string{{"a:1", "b:1"}, {"b:1", "c:1"}, {"c:1", "a:1"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("head-node groups %v, want %v", got, want)
	}
}

func TestClusterMapEncodeDecode(t *testing.T) {
	for _, m := range []ClusterMap{
		{},
		boot(),
		{Epoch: 99, NumShards: 1, DirRF: 1, ObjectRF: 0, Members: []Member{
			{Addr: "only:1", State: MemberDraining, ShardHost: true},
		}},
		{Epoch: 7, NumShards: 2, DirRF: 1, Members: []Member{
			{Addr: "a:1", State: MemberActive, ShardHost: true, Locality: "dc1/rackA"},
			{Addr: "b:1", State: MemberActive, Locality: "dc2/rackB"},
			{Addr: "c:1", State: MemberActive},
		}},
	} {
		b := EncodeClusterMap(nil, m)
		got, err := DecodeClusterMap(b)
		if err != nil {
			t.Fatal(err)
		}
		norm := func(m ClusterMap) ClusterMap {
			if len(m.Members) == 0 {
				m.Members = nil
			}
			return m
		}
		if !reflect.DeepEqual(norm(got), norm(m)) {
			t.Fatalf("round trip mismatch\nsent %+v\ngot  %+v", m, got)
		}
	}
	// Corrupt encodings must error, not panic or over-allocate.
	good := EncodeClusterMap(nil, boot())
	for _, b := range [][]byte{
		nil,
		good[:5],
		good[:len(good)-1],
		append(append([]byte{}, good...), 0xFF),
		{0xEE}, // unknown version
	} {
		if _, err := DecodeClusterMap(b); err == nil {
			t.Fatalf("corrupt encoding %x accepted", b)
		}
	}
	// A huge member count with a tiny body must be rejected before the
	// decoder allocates.
	huge := append([]byte{}, good[:21]...)
	huge = append(huge, 0x7F, 0xFF, 0xFF, 0xFF)
	if _, err := DecodeClusterMap(huge); err == nil {
		t.Fatal("huge member count accepted")
	}
}

// A version-1 encoding (pre-locality) must still decode, with every
// locality label empty.
func TestClusterMapDecodeV1(t *testing.T) {
	m := boot()
	var b []byte
	b = append(b, clusterMapVersionV1)
	b = binary.BigEndian.AppendUint64(b, uint64(m.Epoch))
	b = binary.BigEndian.AppendUint32(b, uint32(m.NumShards))
	b = binary.BigEndian.AppendUint32(b, uint32(m.DirRF))
	b = binary.BigEndian.AppendUint32(b, uint32(m.ObjectRF))
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Members)))
	for _, mem := range m.Members {
		var role byte
		if mem.ShardHost {
			role = 1
		}
		b = append(b, byte(mem.State), role)
		b = binary.BigEndian.AppendUint16(b, uint16(len(mem.Addr)))
		b = append(b, mem.Addr...)
	}
	got, err := DecodeClusterMap(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("v1 decode mismatch\nwant %+v\ngot  %+v", m, got)
	}
}

func TestLocalities(t *testing.T) {
	m := boot()
	m.Members[0].Locality = "rack1"
	m.Members[2].Locality = "rack2"
	got := m.Localities()
	want := map[NodeID]string{"a:1": "rack1", "c:1": "rack2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Localities() = %v, want %v", got, want)
	}
}
