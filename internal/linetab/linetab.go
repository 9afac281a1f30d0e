// Package linetab provides Table, a paged direct-index table keyed by cache
// line index: the per-line state store of the simulator's reference hot
// path (the coherence directory and the stack-distance profiler).
//
// Kernels allocate their data structures from trace.Arena, which hands out
// dense address ranges from 0x1000 upward, so the line indices one run
// touches form a few dense runs near zero. A table holds them in pages of
// 1024 slots reached through a slice of page pointers indexed by
// line>>pageBits: a lookup is a shift, a bounds check and two loads, with no
// hashing and no per-line heap object. Lines far beyond the dense range —
// addresses in replayed or fuzzed traces — land in a map of pages instead,
// so any uint64 line is valid and a stray high address cannot make the
// dense slice huge.
//
// The zero value of V means absent: a table stores no presence bits, and a
// slot reads as the zero value until something is written to it. Callers
// choose encodings whose zero is the empty state.
package linetab

// pageBits is log2 of the line slots per page.
const pageBits = 10

const (
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// denseLimit bounds the dense page-pointer slice: pages at or above it live
// in the far map. 1<<16 pages cover 64M lines (512 MB of address space at
// 8-byte lines), far above what any kernel's arena reaches, while the
// pointer slice itself stays under 512 KB even when fully grown.
const denseLimit = 1 << 16

// Table maps line indices to values of type V. The zero Table is empty and
// ready to use. A Table is not safe for concurrent use.
type Table[V any] struct {
	dense []*[pageSize]V
	far   map[uint64]*[pageSize]V
}

// Get returns the value stored for line, or the zero value when none is.
// It never allocates.
func (t *Table[V]) Get(line uint64) V {
	if p := t.page(line >> pageBits); p != nil {
		return p[line&pageMask]
	}
	var zero V
	return zero
}

// Ptr returns a pointer to line's slot, allocating its page on first use.
// The pointer stays valid for the table's lifetime: pages never move.
func (t *Table[V]) Ptr(line uint64) *V {
	if pi := line >> pageBits; pi < uint64(len(t.dense)) {
		if p := t.dense[pi]; p != nil {
			return &p[line&pageMask]
		}
	}
	return &t.alloc(line >> pageBits)[line&pageMask]
}

// page returns page pi, or nil when it has never been allocated.
func (t *Table[V]) page(pi uint64) *[pageSize]V {
	if pi < uint64(len(t.dense)) {
		return t.dense[pi]
	}
	if pi < denseLimit {
		return nil
	}
	return t.far[pi]
}

// alloc returns page pi, allocating it (and growing the dense slice to
// reach it) when absent.
func (t *Table[V]) alloc(pi uint64) *[pageSize]V {
	if pi >= denseLimit {
		p := t.far[pi]
		if p == nil {
			if t.far == nil {
				t.far = make(map[uint64]*[pageSize]V)
			}
			p = new([pageSize]V)
			t.far[pi] = p
		}
		return p
	}
	if pi >= uint64(len(t.dense)) {
		n := max(2*len(t.dense), int(pi)+1)
		n = min(n, denseLimit)
		grown := make([]*[pageSize]V, n)
		copy(grown, t.dense)
		t.dense = grown
	}
	p := t.dense[pi]
	if p == nil {
		p = new([pageSize]V)
		t.dense[pi] = p
	}
	return p
}
