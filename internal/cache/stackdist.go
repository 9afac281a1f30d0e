package cache

import (
	"sort"

	"wsstudy/internal/linetab"
	"wsstudy/internal/obs"
)

// StackProfiler computes, in a single pass over a reference stream, the
// exact miss counts a fully associative LRU cache of *every* capacity would
// incur (Mattson's stack algorithm). The paper sweeps cache sizes to find
// working-set knees; with the profiler, one kernel run yields the entire
// miss-rate-versus-cache-size curve.
//
// For each access, the profiler computes the reuse (stack) distance: the
// number of stack positions above and including the line's previous access.
// An LRU cache of capacity C lines hits exactly when the distance is at most
// C. Distances are answered in O(log n) with a Fenwick tree over trace
// positions.
//
// Coherence: Invalidate turns the line's stack position into a *hole*. The
// hole still occupies a position, and the next miss-insertion consumes the
// shallowest hole, mirroring the freed slot being filled without an
// eviction. The invalidated line's next access is a miss at every capacity
// (the paper's inherent communication misses) and is recorded separately
// from the distance histogram.
//
// Exactness: between compactions, and without invalidations, the profiler
// matches per-size LRU simulation bit-exactly (Mattson's theorem; the tests
// assert it). Across compactions it is not exact, and the error is known:
// when a hit is the access that triggers compaction, the line's old slot —
// already removed from the tree — is still renumbered as a live position,
// so until the next compaction the stack carries one phantom position and
// every reuse distance that spans it reads one too long. The effect
// is a handful of extra misses per run at capacities near a working-set
// boundary (TestStackProfilerCompactionPhantom measures it against exact
// LRU); it is kept because the pinned report digests depend on it. With
// invalidations, caches of different sizes fill freed slots at different
// times, so no single-pass stack algorithm can be exact; the hole model
// above can overstate the stack depth of lines that sit below a hole a
// small cache has already refilled. That error is bounded by the number of
// invalidations and is negligible at the communication rates of the paper's
// applications (0.1%-2%). Experiments needing exactness under heavy
// coherence traffic use Bank, the per-size simulation.
//
// Per-line state lives in one paged line table (package linetab): a
// line's entry is its Fenwick position while it is on the stack, -1 once
// an invalidation removed it (so its next access is a coherence miss), and
// 0 when neither. A reverse array from position to line lets compaction
// renumber the stack in one in-order walk.
//
// Cold-start exclusion: references made before StartMeasuring update the
// LRU state but are not counted, mirroring the paper's practice of omitting
// the first iterations of iterative applications.
type StackProfiler struct {
	lineSize uint32
	shift    uint // log2(lineSize)

	state    linetab.Table[int32] // line -> position (>0), invalidated (-1) or neither (0)
	slot     []uint64             // slot[pos] = line last given position pos; len is clock+1
	resident int                  // lines with a position: the distinct lines on the stack
	holes    []int                // positions of invalidation holes, sorted ascending
	fen      *fenwick
	clock    int // last used fenwick position

	measuring bool

	histRead            []uint64 // histRead[d] = read accesses at stack distance d
	histWrite           []uint64
	coldRead, coldWrite uint64
	cohRead, cohWrite   uint64
	reads, writes       uint64

	// Run-scope counters, live only after Instrument (see instrument.go).
	// Accesses are staged per reference and published by FlushMetrics.
	mAccesses obs.Tally
	mQueries  *obs.Counter
}

const initialFenwickSize = 1 << 16

// NewStackProfiler builds a profiler for the given line size (which must be
// a power of two; violations return an error wrapping ErrInvalidConfig).
// Measurement starts enabled; call SetMeasuring(false) first to warm up.
func NewStackProfiler(lineSize uint32) (*StackProfiler, error) {
	if err := validateLineSize(lineSize); err != nil {
		return nil, err
	}
	return &StackProfiler{
		lineSize:  lineSize,
		shift:     lineShift(lineSize),
		slot:      make([]uint64, 1),
		fen:       newFenwick(initialFenwickSize),
		measuring: true,
		histRead:  make([]uint64, 1),
		histWrite: make([]uint64, 1),
	}, nil
}

// MustStackProfiler is NewStackProfiler for statically-valid line sizes; it
// panics on error.
func MustStackProfiler(lineSize uint32) *StackProfiler {
	p, err := NewStackProfiler(lineSize)
	if err != nil {
		panic(err)
	}
	return p
}

// LineSize reports the configured line size in bytes.
func (p *StackProfiler) LineSize() uint32 { return p.lineSize }

// SetMeasuring toggles statistics collection. State updates always happen.
func (p *StackProfiler) SetMeasuring(on bool) { p.measuring = on }

// Measuring reports whether statistics are being collected.
func (p *StackProfiler) Measuring() bool { return p.measuring }

// Access processes a reference to the byte range [addr, addr+size) and
// updates the distance histograms. Multi-line references touch each line.
func (p *StackProfiler) Access(addr uint64, size uint32, read bool) {
	if size == 0 {
		return
	}
	p.mAccesses.Inc()
	first := addr >> p.shift
	last := (addr + uint64(size) - 1) >> p.shift
	for line := first; ; line++ {
		p.touch(line, read)
		if line == last {
			break
		}
	}
}

// Touch processes a one-line reference to the line holding addr and
// reports whether it was a measured miss at every capacity (cold or
// coherence): exactly when it grows ColdMisses+CoherenceMisses. Callers
// that split references into lines themselves (memsys) use it instead of
// Access, so they learn the outcome without re-reading the counts.
func (p *StackProfiler) Touch(addr uint64, read bool) bool {
	p.mAccesses.Inc()
	return p.touch(addr>>p.shift, read)
}

// touch moves line to the top of the stack and reports whether the access
// was a measured miss at every capacity.
func (p *StackProfiler) touch(line uint64, read bool) (miss bool) {
	if p.measuring {
		if read {
			p.reads++
		} else {
			p.writes++
		}
	}
	st := p.state.Ptr(line)
	if pos := int(*st); pos > 0 {
		// Distance counts every occupied position (lines and holes) from
		// the line's slot to the top of the stack, inclusive. Positions
		// above the clock are always empty, so the positions above pos
		// are the tree's total less its prefix up to pos.
		d := p.fen.total - p.fen.prefix(pos) + 1
		if p.measuring {
			p.recordDistance(d, read)
		}
		p.fen.add(pos, -1)
	} else {
		// Miss at every capacity: classify, then fill the shallowest hole
		// (the free slot every affected cache has).
		if p.measuring {
			miss = true
			if pos < 0 {
				if read {
					p.cohRead++
				} else {
					p.cohWrite++
				}
			} else if read {
				p.coldRead++
			} else {
				p.coldWrite++
			}
		}
		p.resident++
		p.consumeHole()
	}
	p.advance(line, st)
	return miss
}

// consumeHole removes the most recent (highest-position, shallowest) hole.
func (p *StackProfiler) consumeHole() {
	n := len(p.holes)
	if n == 0 {
		return
	}
	pos := p.holes[n-1]
	p.holes = p.holes[:n-1]
	p.fen.add(pos, -1)
}

// advance assigns the next fenwick position to line, whose state slot is
// st, compacting when full.
func (p *StackProfiler) advance(line uint64, st *int32) {
	if p.clock >= p.fen.size() {
		p.compact()
	}
	p.clock++
	*st = int32(p.clock)
	p.slot = append(p.slot, line)
	p.fen.add(p.clock, 1)
}

// compact renumbers the surviving positions 1..k (lines and holes),
// preserving order, and resizes the tree so position space never exhausts.
// It walks positions in order through the reverse array: a position
// survives if it is a hole or if its line's state still points at it.
// Renumbering only moves entries down, so the walk rewrites slot and holes
// in place. The reverse array and the Fenwick tree are reused across
// compactions — at steady state a compaction runs every ~tree-size
// references, and reallocating them each time made the allocator a
// measurable fraction of profiling (an AllocsPerRun test pins the reuse
// down).
//
// A hit that triggers compaction has already removed its line's slot from
// the tree, but the line's state still points there, so the walk keeps
// that slot as a phantom position until the next compaction (see
// Exactness above).
func (p *StackProfiler) compact() {
	k, h := 0, 0
	for pos := 1; pos <= p.clock; pos++ {
		if h < len(p.holes) && p.holes[h] == pos {
			k++
			p.holes[h] = k
			h++
			p.slot[k] = p.slot[pos]
			continue
		}
		line := p.slot[pos]
		if st := p.state.Ptr(line); int(*st) == pos {
			k++
			*st = int32(k)
			p.slot[k] = line
		}
	}
	size := initialFenwickSize
	for size < 2*k+2 {
		size *= 2
	}
	p.fen.fill(size, k)
	p.slot = p.slot[:k+1]
	p.clock = k
}

func (p *StackProfiler) recordDistance(d int, read bool) {
	h := &p.histRead
	if !read {
		h = &p.histWrite
	}
	for d >= len(*h) {
		*h = append(*h, make([]uint64, len(*h)+1)...)
	}
	(*h)[d]++
}

// Invalidate turns the line's stack position into a hole; its next access
// is a coherence miss at every capacity.
func (p *StackProfiler) Invalidate(addr uint64) {
	line := addr >> p.shift
	pos := int(p.state.Get(line))
	if pos <= 0 {
		return
	}
	*p.state.Ptr(line) = -1
	p.resident--
	// Record the hole, keeping the slice sorted (holes are usually few).
	i := sort.SearchInts(p.holes, pos)
	p.holes = append(p.holes, 0)
	copy(p.holes[i+1:], p.holes[i:])
	p.holes[i] = pos
}

// DistinctLines reports how many distinct lines are currently on the stack.
func (p *StackProfiler) DistinctLines() int { return p.resident }

// Reads reports measured read accesses.
func (p *StackProfiler) Reads() uint64 { return p.reads }

// Writes reports measured write accesses.
func (p *StackProfiler) Writes() uint64 { return p.writes }

// Accesses reports measured reads plus writes.
func (p *StackProfiler) Accesses() uint64 { return p.reads + p.writes }

// ColdMisses reports measured cold misses (read, write).
func (p *StackProfiler) ColdMisses() (read, write uint64) {
	return p.coldRead, p.coldWrite
}

// CoherenceMisses reports measured coherence misses (read, write).
func (p *StackProfiler) CoherenceMisses() (read, write uint64) {
	return p.cohRead, p.cohWrite
}

// MissCount holds the misses a given capacity would incur.
type MissCount struct {
	CapacityLines int
	ReadMisses    uint64
	WriteMisses   uint64
}

// Misses reports total misses.
func (m MissCount) Misses() uint64 { return m.ReadMisses + m.WriteMisses }

// MissesAt returns the exact miss counts for a fully associative LRU cache
// of the given capacity in lines. Capacity 0 means every access misses.
func (p *StackProfiler) MissesAt(capacityLines int) MissCount {
	p.mQueries.Inc()
	mc := MissCount{CapacityLines: capacityLines}
	mc.ReadMisses = p.coldRead + p.cohRead + tailSum(p.histRead, capacityLines+1)
	mc.WriteMisses = p.coldWrite + p.cohWrite + tailSum(p.histWrite, capacityLines+1)
	return mc
}

func tailSum(h []uint64, from int) uint64 {
	var s uint64
	if from < 1 {
		from = 1
	}
	for d := from; d < len(h); d++ {
		s += h[d]
	}
	return s
}

// Curve returns miss counts for each capacity, computed in one sweep over
// the histograms. Unsorted capacities are sorted into a copy first, so the
// result is always ascending by capacity.
func (p *StackProfiler) Curve(capacitiesLines []int) []MissCount {
	p.mQueries.Add(uint64(len(capacitiesLines)))
	if !sort.IntsAreSorted(capacitiesLines) {
		sorted := make([]int, len(capacitiesLines))
		copy(sorted, capacitiesLines)
		sort.Ints(sorted)
		capacitiesLines = sorted
	}
	out := make([]MissCount, len(capacitiesLines))
	maxD := len(p.histRead)
	if len(p.histWrite) > maxD {
		maxD = len(p.histWrite)
	}
	// Suffix sums make each capacity O(1).
	sufR := suffixSums(p.histRead, maxD)
	sufW := suffixSums(p.histWrite, maxD)
	for i, c := range capacitiesLines {
		mc := MissCount{CapacityLines: c}
		mc.ReadMisses = p.coldRead + p.cohRead + at(sufR, c+1)
		mc.WriteMisses = p.coldWrite + p.cohWrite + at(sufW, c+1)
		out[i] = mc
	}
	return out
}

// suffixSums returns s where s[d] = sum of h[d:], sized maxD+1.
func suffixSums(h []uint64, maxD int) []uint64 {
	s := make([]uint64, maxD+1)
	for d := maxD - 1; d >= 1; d-- {
		v := uint64(0)
		if d < len(h) {
			v = h[d]
		}
		s[d] = s[d+1] + v
	}
	return s
}

func at(suf []uint64, d int) uint64 {
	if d >= len(suf) {
		return 0
	}
	if d < 1 {
		d = 1
	}
	return suf[d]
}
