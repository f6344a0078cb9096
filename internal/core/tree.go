package core

import "time"

// treeShape builds the fixed d-ary reduce tree over n slots, where slot i
// is the i-th node visited by a generalized in-order traversal (first
// child subtree, the node itself, then the remaining child subtrees,
// §3.4.2). Because objects are assigned to slots in arrival order, every
// slot's first-child subtree is fully assigned before the slot itself —
// which is what lets early arrivals start reducing immediately (Figure 5).
//
// It returns, for each slot, its parent slot (-1 for the root) and its
// children slots (in traversal order).
func treeShape(n, d int) (parent []int, children [][]int) {
	if n <= 0 {
		return nil, nil
	}
	if d < 1 {
		d = 1
	}
	parent = make([]int, n)
	children = make([][]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var build func(lo, hi int) int
	build = func(lo, hi int) int {
		k := hi - lo
		if k <= 0 {
			return -1
		}
		if k == 1 {
			return lo
		}
		// Split the k-1 non-root slots into d balanced subtrees. The
		// first subtree occupies [lo, lo+s0); the root sits right after
		// it (in-order position), then the remaining subtrees follow.
		rest := k - 1
		base := rest / d
		rem := rest % d
		sizes := make([]int, d)
		for i := range sizes {
			sizes[i] = base
			if i < rem {
				sizes[i]++
			}
		}
		root := lo + sizes[0]
		if c := build(lo, lo+sizes[0]); c >= 0 {
			parent[c] = root
			children[root] = append(children[root], c)
		}
		off := root + 1
		for i := 1; i < d; i++ {
			if sizes[i] == 0 {
				continue
			}
			if c := build(off, off+sizes[i]); c >= 0 {
				parent[c] = root
				children[root] = append(children[root], c)
			}
			off += sizes[i]
		}
		return root
	}
	build(0, n)
	return parent, children
}

// treeRoot returns the root slot of the (n, d) tree.
func treeRoot(parent []int) int {
	for i, p := range parent {
		if p == -1 {
			return i
		}
	}
	return -1
}

// treeHeight returns the number of edges on the longest root-to-leaf path.
func treeHeight(parent []int) int {
	depth := make([]int, len(parent))
	maxDepth := 0
	var depthOf func(i int) int
	depthOf = func(i int) int {
		if parent[i] == -1 {
			return 0
		}
		if depth[i] > 0 {
			return depth[i]
		}
		depth[i] = depthOf(parent[i]) + 1
		return depth[i]
	}
	for i := range parent {
		if d := depthOf(i); d > maxDepth {
			maxDepth = d
		}
	}
	return maxDepth
}

// estimateReduceTime evaluates the paper's reduce cost model (Equation 1)
// for a fold pipelined in frames of chunk bytes: a hop forwards a frame
// only once it has received (from each of its d children) and folded it,
// so every level adds its latency plus the fill of one frame per child:
//
//	T(1) = n·(L + c/B) + S/B                 (chain)
//	T(d) = ⌈log_d n⌉·(L + d·c/B) + d·S/B     (d-ary tree, d = n a star)
//
// with c = min(chunk, S).
func estimateReduceTime(d, n int, latency time.Duration, bandwidth float64, size, chunk int64) time.Duration {
	l := latency.Seconds()
	sb := float64(size) / bandwidth
	cb := float64(min(chunk, size)) / bandwidth
	var t float64
	switch {
	case n <= 1:
		t = l + sb
	case d <= 1:
		t = float64(n)*(l+cb) + sb
	default:
		d = min(d, n)
		levels := 0 // ⌈log_d n⌉
		for span := 1; span < n; span *= d {
			levels++
		}
		t = float64(levels)*(l+float64(d)*cb) + float64(d)*sb
	}
	return time.Duration(t * float64(time.Second))
}

// chooseDegree picks the reduce tree degree among {1, 2, n} minimizing the
// estimated completion time, as the implementation does at runtime (§4:
// "setting d to 1, 2, or n ... is enough for our applications"). chunk is
// the fold's frame size, the data plane's ChunkSize.
func chooseDegree(n int, latency time.Duration, bandwidth float64, size, chunk int64) int {
	if n <= 2 {
		return n
	}
	best, bestT := 1, estimateReduceTime(1, n, latency, bandwidth, size, chunk)
	for _, d := range []int{2, n} {
		if t := estimateReduceTime(d, n, latency, bandwidth, size, chunk); t < bestT {
			best, bestT = d, t
		}
	}
	return best
}
