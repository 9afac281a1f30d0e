package cache

// fenwick is a binary indexed tree over 1-based positions, used by the
// stack-distance profiler to count, in O(log n), how many distinct lines
// have been referenced between two points in the trace.
//
// Nodes are int32: a node counts at most its own span of positions, and
// the profiler's position space stays far below 2^31, so the narrower node
// halves the tree (a 64K-position tree is 256 KB instead of 512 KB) and
// with it the cache footprint of every walk. The tree also keeps a running
// total of all positions, so the profiler's "positions above pos" query is
// total − prefix(pos): one O(log n) walk instead of two.
type fenwick struct {
	tree  []int32
	total int // sum over every position
}

func newFenwick(n int) *fenwick {
	return &fenwick{tree: make([]int32, n+1)}
}

// fill re-dimensions the tree to n positions with positions [1, k] set to
// one and the rest zero — the stack right after a compaction — in one O(n)
// pass (node i covers positions (i-lowbit(i), i]). It reuses the existing
// storage when it is large enough: the profiler compacts every ~size
// references at steady state, and without reuse each compaction
// reallocates the tree.
func (f *fenwick) fill(n, k int) {
	if cap(f.tree) >= n+1 {
		f.tree = f.tree[:n+1]
	} else {
		f.tree = make([]int32, n+1)
	}
	for i := 1; i < len(f.tree); i++ {
		f.tree[i] = int32(max(0, min(i, k)-(i-i&(-i))))
	}
	f.total = min(k, n)
}

// size reports the number of positions.
func (f *fenwick) size() int { return len(f.tree) - 1 }

// add adds delta at position i (1-based).
func (f *fenwick) add(i, delta int) {
	f.total += delta
	d := int32(delta)
	for ; i < len(f.tree); i += i & (-i) {
		f.tree[i] += d
	}
}

// prefix returns the sum over positions [1, i].
func (f *fenwick) prefix(i int) int {
	s := 0
	for ; i > 0; i -= i & (-i) {
		s += int(f.tree[i])
	}
	return s
}
