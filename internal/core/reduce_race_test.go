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
func TestReduceEpochReplacementRace(t *testing.T) {
	node, err := NewNode(Config{Fabric: &netem.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const size = 256 << 10 // above the inline threshold: lives in the store
	src := types.ObjectIDFromString("race-src")
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	if err := node.Put(ctx, src, data); err != nil {
		t.Fatal(err)
	}

	target := types.ObjectIDFromString("race-target")
	start := func(epoch int64) {
		spec := &reduceSpec{
			ReduceID:  target,
			Slot:      0,
			Epoch:     epoch,
			OwnOID:    src,
			OutputOID: target, // root slot: every epoch shares the target OID
			IsRoot:    true,
			Size:      size,
			Op:        types.ReduceOp{Kind: types.Sum, DType: types.F32},
		}
		payload, err := encodeSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp := node.handleReduceStart(wire.Message{Method: wire.MethodReduceStart, Payload: payload})
		if e := resp.ErrorOf(); e != nil {
			t.Fatalf("reduce start epoch %d: %v", epoch, e)
		}
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
		// The surviving epoch must finish with the intact single-source
		// fold (identity) — not a clobbered or wedged buffer.
		waitProduced(round)
		got, err := node.Get(ctx, target)
		if err != nil {
			t.Fatalf("round %d: Get target: %v", round, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round %d: target payload corrupted", round)
		}
		// Reset for the next round so Create starts from a clean slot.
		if err := node.Delete(ctx, target); err != nil {
			t.Fatalf("round %d: delete: %v", round, err)
		}
	}
}
