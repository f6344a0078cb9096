package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"hoplite/internal/netem"
	"hoplite/internal/types"
	"hoplite/internal/wire"
)

// TestReduceEpochReplacementRace regression-tests the epoch-bump race in
// handleReduceStart: a superseded root-slot executor shares its OutputOID
// with the replacement, and its teardown (ErrExists → Delete → re-Create
// under a canceled ctx) used to race the replacement's fresh buffer —
// clobbering it and wedging the slot. The fix waits out the old epoch's
// executor before the new one touches the store. Bumping epochs rapidly
// under load makes the old interleaving essentially certain across runs.
// Each epoch also restarts the root's child slot on the same node, so a
// superseded child's private output is retired while the old root may
// still be folding it in.
func TestReduceEpochReplacementRace(t *testing.T) {
	node, err := NewNode(Config{Fabric: &netem.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const elems = 64 << 10 // 256 KiB, above the inline threshold: lives in the store
	f32s := func(val float32) []byte {
		xs := make([]float32, elems)
		for i := range xs {
			xs[i] = val
		}
		return types.EncodeF32(xs)
	}
	put := func(name string, val float32) types.ObjectID {
		oid := types.ObjectIDFromString(name)
		if err := node.Put(ctx, oid, f32s(val)); err != nil {
			t.Fatal(err)
		}
		return oid
	}
	leaf, own := put("race-leaf", 1), put("race-own", 2)
	want := f32s(3)

	run := types.ObjectIDFromString("race-run")
	target := types.ObjectIDFromString("race-target")
	send := func(spec *reduceSpec) {
		payload, err := encodeSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp := node.handleReduceStart(wire.Message{Method: wire.MethodReduceStart, Payload: payload})
		if e := resp.ErrorOf(); e != nil {
			t.Fatalf("reduce start slot %d epoch %d: %v", spec.Slot, spec.Epoch, e)
		}
	}
	op := types.ReduceOp{Kind: types.Sum, DType: types.F32}
	start := func(epoch int64) {
		child := intermediateOID(run, 0, epoch)
		send(&reduceSpec{ReduceID: run, Slot: 0, Epoch: epoch, OwnOID: leaf, OutputOID: child, Size: 4 * elems, Op: op})
		send(&reduceSpec{
			ReduceID:  run,
			Slot:      1,
			Epoch:     epoch,
			OwnOID:    own,
			OutputOID: target, // root slot: every epoch shares the target OID
			Children:  []childRef{{OID: child, Host: node.ID()}},
			IsRoot:    true,
			Size:      4 * elems,
			Op:        op,
		})
	}

	// waitProduced polls until the surviving epoch's executor has sealed
	// the slot output locally. (A Get issued before local production
	// starts would park on a remote acquire — there is no remote copy on
	// a single node — so the read must follow production, as the reduce
	// coordinator's completion watch does in the real flow.)
	waitProduced := func(round int) {
		deadline := time.Now().Add(20 * time.Second)
		for {
			if buf, ok := node.store.Get(target); ok && buf.Complete() {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: surviving epoch never sealed the slot output (wedged)", round)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Fire a rapid burst of epoch replacements: each new epoch cancels its
	// predecessor while that predecessor may still be anywhere in its
	// Create/Append/teardown sequence.
	var epoch int64
	for round := 0; round < 25; round++ {
		for burst := 0; burst < 4; burst++ {
			epoch++
			start(epoch)
		}
		// The surviving epoch must finish with the intact fold of its own
		// child — not a clobbered or wedged buffer.
		waitProduced(round)
		got, err := node.Get(ctx, target)
		if err != nil {
			t.Fatalf("round %d: Get target: %v", round, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: target payload corrupted", round)
		}
		// Reset for the next round so Create starts from a clean slot.
		if err := node.Delete(ctx, target); err != nil {
			t.Fatalf("round %d: delete: %v", round, err)
		}
	}
}
