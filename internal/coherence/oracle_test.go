package coherence

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"wsstudy/internal/obs"
)

// mapDirectory is the hash-map Directory the line table replaced, kept
// (minus instrumentation) as the differential oracle: one heap-allocated
// entry per line behind a map[uint64]*mapLineState, each carrying its own
// id bound in a copy of the old PESet.
type mapDirectory struct {
	numPEs int
	shift  uint
	lines  map[uint64]*mapLineState
	caches []Invalidator
	stats  Stats
}

type mapLineState struct {
	sharers mapPESet
	dirty   bool
	owner   int
}

type mapPESet struct {
	s0, s1 uint32
	n      int32
	words  []uint64
}

func (s *mapPESet) spill() {
	s.words = make([]uint64, (int(s.n)+63)/64)
	for _, v := range [2]uint32{s.s0, s.s1} {
		if v != 0 {
			pe := int(v - 1)
			s.words[pe>>6] |= 1 << (uint(pe) & 63)
		}
	}
	s.s0, s.s1 = 0, 0
}

func (s *mapPESet) Add(pe int) {
	if s.words != nil {
		s.words[pe>>6] |= 1 << (uint(pe) & 63)
		return
	}
	v := uint32(pe) + 1
	if s.s0 == v || s.s1 == v {
		return
	}
	if s.s0 == 0 {
		s.s0 = v
		return
	}
	if s.s1 == 0 {
		s.s1 = v
		return
	}
	s.spill()
	s.words[pe>>6] |= 1 << (uint(pe) & 63)
}

func (s *mapPESet) Clear() {
	s.s0, s.s1 = 0, 0
	s.words = nil
}

func (s *mapPESet) Len() int {
	if s.words != nil {
		n := 0
		for _, w := range s.words {
			n += bits.OnesCount64(w)
		}
		return n
	}
	n := 0
	if s.s0 != 0 {
		n++
	}
	if s.s1 != 0 {
		n++
	}
	return n
}

func (s *mapPESet) ForEach(f func(pe int)) {
	if s.words == nil {
		a, b := s.s0, s.s1
		if a != 0 && b != 0 && b < a {
			a, b = b, a
		}
		if a != 0 {
			f(int(a - 1))
		}
		if b != 0 {
			f(int(b - 1))
		}
		return
	}
	for i, w := range s.words {
		for ; w != 0; w &= w - 1 {
			f(i*64 + bits.TrailingZeros64(w))
		}
	}
}

func newMapDirectory(numPEs int, lineSize uint32, caches []Invalidator) *mapDirectory {
	return &mapDirectory{
		numPEs: numPEs,
		shift:  uint(bits.TrailingZeros32(lineSize)),
		lines:  make(map[uint64]*mapLineState),
		caches: caches,
	}
}

func (d *mapDirectory) entry(line uint64) *mapLineState {
	e, ok := d.lines[line]
	if !ok {
		e = &mapLineState{sharers: mapPESet{n: int32(d.numPEs)}}
		d.lines[line] = e
	}
	return e
}

func (d *mapDirectory) ReadLine(pe int, line uint64) {
	d.stats.ReadRequests++
	e := d.entry(line)
	if e.dirty && e.owner != pe {
		e.dirty = false
		d.stats.Downgrades++
	}
	e.sharers.Add(pe)
}

func (d *mapDirectory) WriteLine(pe int, line uint64) {
	d.stats.WriteRequests++
	e := d.entry(line)
	addr := line << d.shift
	invalidated := false
	e.sharers.ForEach(func(other int) {
		if other == pe {
			return
		}
		d.stats.Invalidations++
		invalidated = true
		if c := d.caches[other]; c != nil {
			c.Invalidate(addr)
		}
	})
	if invalidated {
		d.stats.InvalidatingWrites++
	}
	e.sharers.Clear()
	e.sharers.Add(pe)
	e.dirty = true
	e.owner = pe
}

func (d *mapDirectory) Sharers(addr uint64) int {
	e, ok := d.lines[addr>>d.shift]
	if !ok {
		return 0
	}
	return e.sharers.Len()
}

func (d *mapDirectory) IsDirty(addr uint64) bool {
	e, ok := d.lines[addr>>d.shift]
	return ok && e.dirty
}

// invalMsg is one delivered invalidation message.
type invalMsg struct {
	pe   int
	addr uint64
}

// invalLog records every invalidation message, in delivery order, across
// all the processors it is attached to.
type invalLog struct {
	pe  int
	log *[]invalMsg
}

func (l invalLog) Invalidate(addr uint64) {
	*l.log = append(*l.log, invalMsg{l.pe, addr})
}

// TestDirectoryMatchesMapOracle is the differential gate on the directory's
// line table: the production Directory and the hash-map oracle apply the
// same seeded transaction streams — reads and writes from every processor,
// at line sizes 1 to 64, with sharer sets that stay inline and ones that
// spill at P=130, over arena lines, far pages and the top of the line space
// — and must deliver the same invalidation messages in the same order,
// count the same Stats, and agree on Sharers and IsDirty for every line
// touched and its neighbours.
func TestDirectoryMatchesMapOracle(t *testing.T) {
	for _, c := range []struct {
		pes      int
		lineSize uint32
		seed     int64
	}{{4, 8, 1}, {130, 1, 2}, {130, 64, 3}, {1024, 8, 4}} {
		var gotLog, wantLog []invalMsg
		got := make([]Invalidator, c.pes)
		want := make([]Invalidator, c.pes)
		for pe := range got {
			if pe%5 != 4 { // some processors have no cache attached
				got[pe] = invalLog{pe: pe, log: &gotLog}
				want[pe] = invalLog{pe: pe, log: &wantLog}
			}
		}
		d := MustDirectory(c.pes, c.lineSize, got)
		o := newMapDirectory(c.pes, c.lineSize, want)
		rng := rand.New(rand.NewSource(c.seed))
		touched := map[uint64]bool{}
		for i := 0; i < 200_000; i++ {
			var line uint64
			switch r := rng.Intn(10); {
			case r < 6:
				line = 0x1000>>3 + uint64(rng.Intn(500))
			case r < 8:
				line = 0x1000>>3 + uint64(rng.Intn(20_000))
			case r < 9:
				line = 1<<40 + uint64(rng.Intn(300))
			default:
				line = ^uint64(0)>>d.shift - uint64(rng.Intn(300))
			}
			touched[line] = true
			pe := rng.Intn(c.pes)
			if rng.Intn(4) == 0 {
				d.WriteLine(pe, line)
				o.WriteLine(pe, line)
			} else {
				d.ReadLine(pe, line)
				o.ReadLine(pe, line)
			}
		}
		if d.Stats() != o.stats {
			t.Fatalf("P=%d line %d: Stats %+v, oracle %+v", c.pes, c.lineSize, d.Stats(), o.stats)
		}
		if !slices.Equal(gotLog, wantLog) {
			t.Fatalf("P=%d line %d: invalidation messages differ (%d vs %d delivered)",
				c.pes, c.lineSize, len(gotLog), len(wantLog))
		}
		if o.stats.Invalidations == 0 || o.stats.Downgrades == 0 {
			t.Fatalf("P=%d line %d: stream exercised no invalidations or downgrades: %+v", c.pes, c.lineSize, o.stats)
		}
		for line := range touched {
			for _, l := range []uint64{line - 1, line, line + 1} {
				addr := l << d.shift
				if d.Sharers(addr) != o.Sharers(addr) || d.IsDirty(addr) != o.IsDirty(addr) {
					t.Fatalf("P=%d line %d: line %#x Sharers/IsDirty %d/%v, oracle %d/%v", c.pes, c.lineSize, l,
						d.Sharers(addr), d.IsDirty(addr), o.Sharers(addr), o.IsDirty(addr))
				}
			}
		}
	}
}

// TestDirectoryResidentLinesAllocateNothing pins the point of the line
// table for the directory: once a line's page exists, reads and writes of
// it allocate nothing, and queries of absent lines allocate no page (the
// old map allocated an entry per new line; a sharer set spilling past its
// two inline slots is the only per-line allocation left).
func TestDirectoryResidentLinesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	d := MustDirectory(4, 8, make([]Invalidator, 4))
	for line := uint64(0); line < 2048; line++ {
		d.ReadLine(0, line)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for line := uint64(0); line < 2048; line++ {
			d.ReadLine(int(line%2), line)
			d.ReadLine(1, line)
			d.WriteLine(int(line%2), line)
			_ = d.Sharers((line + 1<<40) << 3) // absent line: a lookup, never a page
		}
	})
	if allocs != 0 {
		t.Fatalf("resident-line transactions allocated %.1f times per pass, want 0", allocs)
	}
}

// TestInstrumentedDirectoryAllocatesNothing extends the allocation pin to
// an instrumented directory: staging every transaction and publishing the
// block's counts with FlushMetrics allocates nothing, and after each flush
// the recorder's counters equal the directory's own statistics.
func TestInstrumentedDirectoryAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	rec := obs.New()
	d := MustDirectory(4, 8, make([]Invalidator, 4))
	d.Instrument(rec)
	for line := uint64(0); line < 2048; line++ {
		d.ReadLine(0, line)
	}
	d.FlushMetrics()
	allocs := testing.AllocsPerRun(50, func() {
		for line := uint64(0); line < 2048; line++ {
			d.ReadLine(int(line%2), line)
			d.ReadLine(1, line)
			d.WriteLine(int(line%2), line)
		}
		d.FlushMetrics()
	})
	if allocs != 0 {
		t.Fatalf("instrumented transactions plus flush allocated %.1f times per pass, want 0", allocs)
	}
	st, m := d.Stats(), rec.Snapshot()
	for name, want := range map[string]uint64{
		MetricReads:              st.ReadRequests,
		MetricWrites:             st.WriteRequests,
		MetricInvalidations:      st.Invalidations,
		MetricInvalidatingWrites: st.InvalidatingWrites,
		MetricDowngrades:         st.Downgrades,
	} {
		if got := m.Counter(name); got != want {
			t.Errorf("%s = %d after FlushMetrics, directory counted %d", name, got, want)
		}
	}
	if st.Invalidations == 0 || st.Downgrades == 0 {
		t.Fatalf("stream exercised no invalidation or downgrade: %+v", st)
	}
}
