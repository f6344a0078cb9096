package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"hoplite/internal/transport"
	"hoplite/internal/types"
)

// validateTree checks structural invariants of an (n, d) reduce tree.
func validateTree(t *testing.T, n, d int) {
	t.Helper()
	parent, children := treeShape(n, d)
	if len(parent) != n || len(children) != n {
		t.Fatalf("(%d,%d): lengths %d/%d", n, d, len(parent), len(children))
	}
	roots := 0
	for i, p := range parent {
		if p == -1 {
			roots++
			continue
		}
		if p < 0 || p >= n {
			t.Fatalf("(%d,%d): slot %d parent %d out of range", n, d, i, p)
		}
		found := false
		for _, c := range children[p] {
			if c == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("(%d,%d): slot %d not in parent %d's children", n, d, i, p)
		}
	}
	if roots != 1 {
		t.Fatalf("(%d,%d): %d roots", n, d, roots)
	}
	for i, cs := range children {
		if len(cs) > d {
			t.Fatalf("(%d,%d): slot %d has %d children (> d)", n, d, i, len(cs))
		}
	}
	// Acyclic and connected: every slot reaches the root.
	root := treeRoot(parent)
	for i := range parent {
		cur := i
		for steps := 0; cur != root; steps++ {
			if steps > n {
				t.Fatalf("(%d,%d): slot %d does not reach root", n, d, i)
			}
			cur = parent[cur]
		}
	}
}

func TestTreeShapeInvariants(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 13, 16, 31, 64} {
		for _, d := range []int{1, 2, 3, 4, n} {
			if d < 1 {
				continue
			}
			validateTree(t, n, d)
		}
	}
}

func TestTreeShapeProperty(t *testing.T) {
	fn := func(nRaw, dRaw uint8) bool {
		n := int(nRaw%100) + 1
		d := int(dRaw%8) + 1
		parent, children := treeShape(n, d)
		seen := make([]bool, n)
		var walk func(i int) bool
		walk = func(i int) bool {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
			for _, c := range children[i] {
				if !walk(c) {
					return false
				}
			}
			return true
		}
		if !walk(treeRoot(parent)) {
			return false
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTreeChainShape verifies d=1 produces the paper's chain: slot i's
// parent is slot i+1, so the earliest arrival is the deepest leaf and
// each new arrival extends the pipeline (§3.4.2).
func TestTreeChainShape(t *testing.T) {
	parent, children := treeShape(6, 1)
	for i := 0; i < 5; i++ {
		if parent[i] != i+1 {
			t.Fatalf("slot %d parent %d, want %d", i, parent[i], i+1)
		}
	}
	if parent[5] != -1 {
		t.Fatal("slot 5 is not the root")
	}
	for i := 1; i < 6; i++ {
		if len(children[i]) != 1 || children[i][0] != i-1 {
			t.Fatalf("slot %d children %v", i, children[i])
		}
	}
}

// TestTreeStarShape verifies d=n produces the 1-level star rooted at the
// second arrival? No — in-order with one subtree of size 0 first: the
// star root must be the earliest possible position such that all other
// slots are its children.
func TestTreeStarShape(t *testing.T) {
	n := 7
	parent, children := treeShape(n, n)
	root := treeRoot(parent)
	if len(children[root]) != n-1 {
		t.Fatalf("root has %d children, want %d", len(children[root]), n-1)
	}
	if treeHeight(parent) != 1 {
		t.Fatalf("height %d, want 1", treeHeight(parent))
	}
}

// TestTreeFigure5Shape reproduces the paper's Figure 5 example: 6 objects,
// binary tree, arrival order R1..R6 — R1 is a leaf and the root sits at
// in-order position 3 (R4), whose failure handling the paper walks
// through.
func TestTreeFigure5Shape(t *testing.T) {
	parent, _ := treeShape(6, 2)
	if root := treeRoot(parent); root != 3 {
		t.Fatalf("root slot %d, want 3 (R4)", root)
	}
	if parent[0] == -1 || len(parentChildren(parent, 0)) != 0 {
		t.Fatal("R1 must be a leaf")
	}
}

func parentChildren(parent []int, slot int) []int {
	var out []int
	for i, p := range parent {
		if p == slot {
			out = append(out, i)
		}
	}
	return out
}

func TestTreeHeightLogarithmic(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64, 100} {
		parent, _ := treeShape(n, 2)
		h := treeHeight(parent)
		bound := int(2*math.Log2(float64(n))) + 2
		if h > bound {
			t.Fatalf("n=%d: height %d exceeds %d", n, h, bound)
		}
	}
}

// The cost model charges every level of the tree its latency plus the fill
// of one frame per child: T(1) = n·(L + c/B) + S/B and
// T(d) = ⌈log_d n⌉·(L + d·c/B) + d·S/B, with c = min(chunk, S).
func TestEstimateReduceTimeModel(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name        string
		d, n        int
		lat         time.Duration
		bw          float64
		size, chunk int64
		want        time.Duration
	}{
		// 10·(1 ms + 1 ms) + 1 s
		{"chain", 1, 10, ms, 1e9, 1e9, 1e6, 1020 * ms},
		// 1·(1 ms + 10·1 ms) + 10·100 ms
		{"star", 10, 10, ms, 1e9, 1e8, 1e6, 1011 * ms},
		// 3·(1 ms + 2·1 ms) + 2·100 ms
		{"binary", 2, 8, ms, 1e9, 1e8, 1e6, 209 * ms},
		// ⌈log2 9⌉ = 4 levels
		{"binary, partial level", 2, 9, ms, 1e9, 1e8, 1e6, 212 * ms},
		// an object smaller than a frame fills its hops with itself:
		// 4·(1 ms + 0.1 ms) + 0.1 ms
		{"chain, object below a frame", 1, 4, ms, 1e9, 1e5, 1e6, 4500 * time.Microsecond},
		{"one source", 1, 1, ms, 1e9, 1e8, 1e6, 101 * ms},
		// collective_netem: 8 hops of 200 µs + 3.9 ms, plus 62.5 ms
		{"collective_netem chain", 1, 8, 200 * time.Microsecond, 64 << 20, 4 << 20, 256 << 10, 95350 * time.Microsecond},
	} {
		got := estimateReduceTime(tc.d, tc.n, tc.lat, tc.bw, tc.size, tc.chunk)
		if diff := got - tc.want; diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("%s: estimate %v, want %v", tc.name, got, tc.want)
		}
	}
	// collective_netem's 8-way reduce of 4 MiB stays a chain.
	if d := chooseDegree(8, 200*time.Microsecond, 64<<20, 4<<20, 256<<10); d != 1 {
		t.Errorf("collective_netem degree %d, want the chain", d)
	}
}

func TestChooseDegreeRegimes(t *testing.T) {
	L := 200 * time.Microsecond
	B := 1.25e9
	const c = transport.DefaultChunkSize
	// Tiny objects: latency dominates → star (d = n), Appendix B.
	if d := chooseDegree(16, L, B, 4<<10, c); d != 16 {
		t.Fatalf("4KB: d=%d, want n", d)
	}
	// Huge objects: bandwidth dominates → chain (d = 1).
	if d := chooseDegree(16, L, B, 1<<30, c); d != 1 {
		t.Fatalf("1GB: d=%d, want 1", d)
	}
	// n <= 2 degenerates.
	if chooseDegree(1, L, B, 1, c) != 1 || chooseDegree(2, L, B, 1, c) != 2 {
		t.Fatal("degenerate degree wrong")
	}
}

// Property: chooseDegree picks the argmin of the cost model over {1,2,n}.
func TestChooseDegreeIsArgmin(t *testing.T) {
	fn := func(nRaw uint8, sizeRaw uint32) bool {
		n := int(nRaw%62) + 3
		size := int64(sizeRaw)%(64<<20) + 1
		L := 200 * time.Microsecond
		B := 1.25e9
		const c = transport.DefaultChunkSize
		best := chooseDegree(n, L, B, size, c)
		bestT := estimateReduceTime(best, n, L, B, size, c)
		for _, d := range []int{1, 2, n} {
			if estimateReduceTime(d, n, L, B, size, c) < bestT {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestIntermediateOIDsAreDistinct checks that a slot output's name is
// unique to its run, slot and epoch: a late cleanup of one run, or a
// superseded epoch's output, can never be mistaken for another's.
func TestIntermediateOIDsAreDistinct(t *testing.T) {
	runs := []types.ObjectID{treeTestOID(), types.ObjectIDFromString("run-a"), types.ObjectIDFromString("run-b")}
	seen := make(map[types.ObjectID]string)
	for _, run := range runs {
		for slot := 0; slot < 9; slot++ {
			for epoch := int64(1); epoch <= 4; epoch++ {
				oid := intermediateOID(run, slot, epoch)
				name := fmt.Sprintf("run %v slot %d epoch %d", run, slot, epoch)
				if oid == run {
					t.Fatalf("%s: output named like its run", name)
				}
				if prev, dup := seen[oid]; dup {
					t.Fatalf("%s and %s share an output ID", prev, name)
				}
				seen[oid] = name
				if intermediateOID(run, slot, epoch) != oid {
					t.Fatalf("%s: output ID not deterministic", name)
				}
			}
		}
	}
}

func treeTestOID() types.ObjectID {
	var o types.ObjectID
	for i := range o {
		o[i] = byte(i)
	}
	return o
}
