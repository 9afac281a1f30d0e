package cache

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// mapStackProfiler is the hash-map StackProfiler the line-table profiler
// replaced, kept verbatim (minus instrumentation) as the differential
// oracle: per-line state in two maps, and compaction by gathering every
// surviving position and sorting it. It brings its own copy of the old
// Fenwick tree so nothing it computes goes through the production code.
type mapStackProfiler struct {
	lineSize uint32

	lastPos     map[uint64]int // line -> fenwick position of latest access
	invalidated map[uint64]struct{}
	holes       []int // positions of invalidation holes, sorted ascending
	fen         *mapFenwick
	clock       int           // last used fenwick position
	scratch     []mapStackEnt // compaction workspace, reused across compactions

	measuring bool

	histRead            []uint64
	histWrite           []uint64
	coldRead, coldWrite uint64
	cohRead, cohWrite   uint64
	reads, writes       uint64

	compactions int // compactions run
	phantoms    int // compactions triggered by a hit (see StackProfiler)
}

type mapStackEnt struct {
	line uint64
	pos  int
	hole bool
}

type mapFenwick struct{ tree []int }

func (f *mapFenwick) reset(n int) {
	if cap(f.tree) >= n+1 {
		f.tree = f.tree[:n+1]
		clear(f.tree)
		return
	}
	f.tree = make([]int, n+1)
}

func (f *mapFenwick) size() int { return len(f.tree) - 1 }

func (f *mapFenwick) add(i, delta int) {
	for ; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

func (f *mapFenwick) prefix(i int) int {
	s := 0
	for ; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

func (f *mapFenwick) rangeSum(lo, hi int) int {
	if lo > hi {
		return 0
	}
	return f.prefix(hi) - f.prefix(lo-1)
}

func newMapStackProfiler(lineSize uint32) *mapStackProfiler {
	return &mapStackProfiler{
		lineSize:    lineSize,
		lastPos:     make(map[uint64]int),
		invalidated: make(map[uint64]struct{}),
		fen:         &mapFenwick{tree: make([]int, initialFenwickSize+1)},
		measuring:   true,
		histRead:    make([]uint64, 1),
		histWrite:   make([]uint64, 1),
	}
}

func (p *mapStackProfiler) Access(addr uint64, size uint32, read bool) {
	if size == 0 {
		return
	}
	first := Line(addr, p.lineSize)
	last := Line(addr+uint64(size)-1, p.lineSize)
	for line := first; ; line++ {
		p.touch(line, read)
		if line == last {
			break
		}
	}
}

func (p *mapStackProfiler) touch(line uint64, read bool) {
	if p.measuring {
		if read {
			p.reads++
		} else {
			p.writes++
		}
	}
	pos, resident := p.lastPos[line]
	if resident {
		d := p.fen.rangeSum(pos+1, p.clock) + 1
		if p.measuring {
			p.recordDistance(d, read)
		}
		p.fen.add(pos, -1)
	} else {
		if p.measuring {
			if _, inv := p.invalidated[line]; inv {
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
		delete(p.invalidated, line)
		p.consumeHole()
	}
	p.advance(line)
}

func (p *mapStackProfiler) consumeHole() {
	n := len(p.holes)
	if n == 0 {
		return
	}
	pos := p.holes[n-1]
	p.holes = p.holes[:n-1]
	p.fen.add(pos, -1)
}

func (p *mapStackProfiler) advance(line uint64) {
	if p.clock >= p.fen.size() {
		if _, hit := p.lastPos[line]; hit {
			p.phantoms++
		}
		p.compact()
	}
	p.clock++
	p.lastPos[line] = p.clock
	p.fen.add(p.clock, 1)
}

func (p *mapStackProfiler) compact() {
	p.compactions++
	alive := p.scratch[:0]
	for line, pos := range p.lastPos {
		alive = append(alive, mapStackEnt{line: line, pos: pos})
	}
	for _, pos := range p.holes {
		alive = append(alive, mapStackEnt{pos: pos, hole: true})
	}
	slices.SortFunc(alive, func(a, b mapStackEnt) int { return a.pos - b.pos })
	size := initialFenwickSize
	for size < 2*len(alive)+2 {
		size *= 2
	}
	p.fen.reset(size)
	p.holes = p.holes[:0]
	for i, e := range alive {
		if e.hole {
			p.holes = append(p.holes, i+1)
		} else {
			p.lastPos[e.line] = i + 1
		}
		p.fen.add(i+1, 1)
	}
	sort.Ints(p.holes)
	p.clock = len(alive)
	p.scratch = alive[:0]
}

func (p *mapStackProfiler) recordDistance(d int, read bool) {
	h := &p.histRead
	if !read {
		h = &p.histWrite
	}
	for d >= len(*h) {
		*h = append(*h, make([]uint64, len(*h)+1)...)
	}
	(*h)[d]++
}

func (p *mapStackProfiler) Invalidate(addr uint64) {
	line := Line(addr, p.lineSize)
	pos, ok := p.lastPos[line]
	if !ok {
		return
	}
	delete(p.lastPos, line)
	p.invalidated[line] = struct{}{}
	i := sort.SearchInts(p.holes, pos)
	p.holes = append(p.holes, 0)
	copy(p.holes[i+1:], p.holes[i:])
	p.holes[i] = pos
}

// sameProfile reports the first observable difference between the
// production profiler and the oracle, or "" when there is none.
func sameProfile(p *StackProfiler, o *mapStackProfiler) string {
	switch {
	case !slices.Equal(p.histRead, o.histRead):
		return "read histogram"
	case !slices.Equal(p.histWrite, o.histWrite):
		return "write histogram"
	case p.coldRead != o.coldRead || p.coldWrite != o.coldWrite:
		return "cold misses"
	case p.cohRead != o.cohRead || p.cohWrite != o.cohWrite:
		return "coherence misses"
	case p.reads != o.reads || p.writes != o.writes:
		return "access totals"
	case p.DistinctLines() != len(o.lastPos):
		return "DistinctLines"
	case p.clock != o.clock || p.fen.size() != o.fen.size():
		return "stack extent"
	case !slices.Equal(p.holes, o.holes):
		return "holes"
	}
	return ""
}

// TestStackProfilerMatchesMapOracle is the differential gate on the line
// table: the production profiler and the hash-map oracle consume the same
// seeded streams — single- and multi-line reads and writes, invalidations
// of resident and absent lines, measurement toggles, a working set that
// grows the tree past its initial size and far-off addresses beyond the
// table's dense range — and must agree on every histogram and counter,
// checked all along the stream, across at least five compactions.
func TestStackProfilerMatchesMapOracle(t *testing.T) {
	phantoms := 0
	for _, seed := range []int64{1, 2} {
		for _, lineSize := range []uint32{1, 8, 64} {
			p := MustStackProfiler(lineSize)
			o := newMapStackProfiler(lineSize)
			rng := rand.New(rand.NewSource(seed))
			const steps = 600_000
			for i := 0; i < steps; i++ {
				var addr uint64
				switch r := rng.Intn(100); {
				case r < 45: // hot set: short reuse distances
					addr = 0x1000 + uint64(rng.Intn(300))*uint64(lineSize)
				case r < 90: // large set: grows the tree past its initial size
					addr = 0x1000 + uint64(rng.Intn(40_000))*uint64(lineSize)
				case r < 95: // far pages, including the top of the space
					addr = ^uint64(0) - uint64(rng.Intn(5000))*uint64(lineSize)
				default:
					addr = 1<<62 + uint64(rng.Intn(2000))*uint64(lineSize)
				}
				if rng.Intn(12) == 0 {
					p.Invalidate(addr)
					o.Invalidate(addr)
					continue
				}
				size := uint32(1 + rng.Intn(int(lineSize)))
				if rng.Intn(8) == 0 {
					size = uint32(1 + rng.Intn(3*int(lineSize)))
				}
				if addr+uint64(size)-1 < addr {
					size = uint32(^uint64(0) - addr + 1)
				}
				if i%50_000 == 25_000 {
					p.SetMeasuring(!p.Measuring())
					o.measuring = p.Measuring()
				}
				read := rng.Intn(3) != 0
				p.Access(addr, size, read)
				o.Access(addr, size, read)
				if i%997 == 0 {
					if diff := sameProfile(p, o); diff != "" {
						t.Fatalf("seed %d line %d step %d: %s differs from the map oracle", seed, lineSize, i, diff)
					}
				}
			}
			if diff := sameProfile(p, o); diff != "" {
				t.Fatalf("seed %d line %d end: %s differs from the map oracle", seed, lineSize, diff)
			}
			t.Logf("seed %d line %d: %d compactions (%d hit-triggered), tree size %d",
				seed, lineSize, o.compactions, o.phantoms, o.fen.size())
			phantoms += o.phantoms
			if o.compactions < 5 {
				t.Fatalf("seed %d line %d: only %d compactions, the stream must drive at least 5", seed, lineSize, o.compactions)
			}
			if o.fen.size() <= initialFenwickSize {
				t.Fatalf("seed %d line %d: tree never grew past its initial size", seed, lineSize)
			}
		}
	}
	if phantoms == 0 {
		t.Fatal("no compaction was triggered by a hit: the phantom-slot path went unexercised")
	}
}
