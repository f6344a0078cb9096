// Package types holds the identifiers, enums and errors shared by every
// Hoplite module: object IDs, node IDs, object location/progress records,
// and element-wise reduce operations.
package types

import (
	crand "crypto/rand"
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
)

// ObjectIDSize is the length of an ObjectID in bytes.
const ObjectIDSize = 20

// ObjectID identifies an immutable object in the distributed object store.
// Applications generate ObjectIDs from unique strings (ObjectIDFromString)
// or randomly (RandomObjectID); an ObjectID doubles as a future: it can name
// an object whose value has not been produced yet.
type ObjectID [ObjectIDSize]byte

// ObjectIDFromString derives a deterministic ObjectID from a unique string,
// mirroring the paper's "the application generates an ObjectID with a unique
// string" (Table 1).
func ObjectIDFromString(s string) ObjectID {
	return ObjectID(sha1.Sum([]byte(s)))
}

// RandomObjectID returns a cryptographically random ObjectID.
func RandomObjectID() ObjectID {
	var id ObjectID
	if _, err := crand.Read(id[:]); err != nil {
		panic("types: cannot read random bytes: " + err.Error())
	}
	return id
}

// ObjectIDFromHex parses the hex form produced by Hex.
func ObjectIDFromHex(s string) (ObjectID, error) {
	var id ObjectID
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("types: bad object id %q: %w", s, err)
	}
	if len(b) != ObjectIDSize {
		return id, fmt.Errorf("types: bad object id length %d, want %d", len(b), ObjectIDSize)
	}
	copy(id[:], b)
	return id, nil
}

// Hex returns the full lowercase hex encoding of the ID.
func (id ObjectID) Hex() string { return hex.EncodeToString(id[:]) }

// String returns a short human-readable prefix of the ID.
func (id ObjectID) String() string { return hex.EncodeToString(id[:6]) }

// IsZero reports whether the ID is the all-zero (invalid) ID.
func (id ObjectID) IsZero() bool { return id == ObjectID{} }

// Shard maps the ID onto one of n directory shards. n must be positive.
func (id ObjectID) Shard(n int) int {
	h := binary.BigEndian.Uint64(id[:8])
	return int(h % uint64(n))
}

// Derive returns a new ObjectID obtained by hashing this ID together with a
// tag and two integers. It names reduce intermediate outputs, one per
// (reduce run, slot, epoch).
func (id ObjectID) Derive(tag string, a, b int64) ObjectID {
	h := sha1.New()
	h.Write(id[:])
	h.Write([]byte(tag))
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(a))
	binary.BigEndian.PutUint64(buf[8:], uint64(b))
	h.Write(buf[:])
	return ObjectID(h.Sum(nil))
}

// NodeID identifies a node in the cluster. It is the address of the node's
// data-plane listener, which makes location records directly dialable.
type NodeID string

// Progress describes how much of an object a node currently holds.
type Progress uint8

// Progress values. The paper's directory stores a single bit per location
// — partial or complete (§3.2); the spill tier adds a third flavor,
// Spilled: the node holds every byte, but on disk. A spilled location can
// serve any pull (including ranged striped sub-pulls, streamed straight
// off the chunk-aligned file), so for "does this node have the data"
// decisions it counts as complete; the leasing planner merely prefers
// in-memory senders over disk-backed ones.
const (
	ProgressNone Progress = iota
	ProgressPartial
	ProgressComplete
	ProgressSpilled
)

// HasAll reports whether the location holds every byte of the object,
// in memory (complete) or on disk (spilled). Sender-selection paths that
// need a full copy — striping planners, reduce source pickers — test
// HasAll; only ranking (memory before disk) distinguishes the two.
func (p Progress) HasAll() bool {
	return p == ProgressComplete || p == ProgressSpilled
}

// String implements fmt.Stringer.
func (p Progress) String() string {
	switch p {
	case ProgressNone:
		return "none"
	case ProgressPartial:
		return "partial"
	case ProgressComplete:
		return "complete"
	case ProgressSpilled:
		return "spilled"
	default:
		return fmt.Sprintf("progress(%d)", uint8(p))
	}
}

// Location is one entry of an object's directory record.
type Location struct {
	Node     NodeID
	Progress Progress
}

// SizeUnknown marks directory entries whose object size has not been
// reported yet.
const SizeUnknown int64 = -1

// Shared sentinel errors.
var (
	// ErrNotFound reports that an object has no known location.
	ErrNotFound = errors.New("object not found")
	// ErrDeleted reports that an object was deleted via Delete.
	ErrDeleted = errors.New("object deleted")
	// ErrNoSender reports that no eligible sender location is currently
	// available (all are leased, cyclic, or absent).
	ErrNoSender = errors.New("no eligible sender available")
	// ErrAborted reports that a transfer or buffer was aborted.
	ErrAborted = errors.New("transfer aborted")
	// ErrNodeDown reports that a peer node is unreachable.
	ErrNodeDown = errors.New("node down")
	// ErrTooFewObjects reports that a Reduce cannot complete because fewer
	// than num_objects sources can ever become available.
	ErrTooFewObjects = errors.New("too few reducible objects")
	// ErrExists reports that an object with this ID already exists locally.
	ErrExists = errors.New("object already exists")
	// ErrClosed reports use of a closed node, store or connection.
	ErrClosed = errors.New("closed")
	// ErrNotPrimary reports that a directory mutation reached a shard
	// replica that is not the shard's current primary; the caller should
	// retry against the next replica in succession order.
	ErrNotPrimary = errors.New("not the shard primary")
	// ErrStaleMap reports that a request was stamped with a cluster-map
	// epoch older than the receiver's. The response carries the receiver's
	// current encoded ClusterMap in its payload; the caller should install
	// it and retry against the re-derived topology.
	ErrStaleMap = errors.New("stale cluster map")
)
