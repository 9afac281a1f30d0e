// Package coherence implements the write-invalidate directory protocol that
// makes the simulated machine a cache-coherent shared-address-space
// multiprocessor (the architecture of the paper's Section 2.2).
//
// The directory tracks, per cache line, which processors hold a copy and
// whether one holds it dirty. A write by one processor invalidates every
// other copy; the invalidations are what turn true sharing in the
// applications into the coherence (communication) misses the working-set
// curves flatten out at.
package coherence

import (
	"errors"
	"fmt"
	"math/bits"

	"wsstudy/internal/linetab"
	"wsstudy/internal/obs"
)

// ErrInvalidConfig is wrapped by every input-validation error this package
// returns, so callers can classify bad-configuration failures with
// errors.Is.
var ErrInvalidConfig = errors.New("coherence: invalid configuration")

// PESet is a set of processor ids. Most directory lines have one or two
// sharers at any instant (a producer and a consumer), so the set starts in
// an inline two-slot representation that allocates nothing; the third
// distinct member spills to a bit vector sized for the full processor
// count. At P=1024 the old eager bit vector cost 128 B per line before a
// single sharer existed — the inline form is what keeps a paper-scale
// directory resident.
//
// The zero PESet is empty. The set does not store its id bound: Add takes
// it, so the zero value is the directory's absent-line state and a line
// table needs no per-line constructor.
type PESet struct {
	// s0 and s1 are the inline slots, storing pe+1 so zero means empty.
	s0, s1 uint32
	// words is the spilled bit vector; nil while the set is inline.
	words []uint64
}

// spill converts the inline representation to a bit vector covering ids
// [0, n), preserving the current members.
func (s *PESet) spill(n int) {
	s.words = make([]uint64, (n+63)/64)
	for _, v := range [2]uint32{s.s0, s.s1} {
		if v != 0 {
			pe := int(v - 1)
			s.words[pe>>6] |= 1 << (uint(pe) & 63)
		}
	}
	s.s0, s.s1 = 0, 0
}

// Add inserts pe into the set; n is the id bound [0, n) a spilled bit
// vector must cover, so every member must be below it.
func (s *PESet) Add(pe, n int) {
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
	s.spill(n)
	s.words[pe>>6] |= 1 << (uint(pe) & 63)
}

// Remove deletes pe from the set.
func (s *PESet) Remove(pe int) {
	if s.words != nil {
		s.words[pe>>6] &^= 1 << (uint(pe) & 63)
		return
	}
	v := uint32(pe) + 1
	if s.s0 == v {
		s.s0 = 0
	}
	if s.s1 == v {
		s.s1 = 0
	}
}

// Contains reports whether pe is in the set.
func (s *PESet) Contains(pe int) bool {
	if s.words != nil {
		return s.words[pe>>6]&(1<<(uint(pe)&63)) != 0
	}
	v := uint32(pe) + 1
	return s.s0 == v || s.s1 == v
}

// Clear empties the set and returns it to the allocation-free inline form
// (a write retakes every line's sharer set, so clearing is the common path
// back to the one-sharer state).
func (s *PESet) Clear() {
	s.s0, s.s1 = 0, 0
	s.words = nil
}

// Len counts the members.
func (s *PESet) Len() int {
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

// ForEach calls f for every member in ascending order.
func (s *PESet) ForEach(f func(pe int)) {
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

// lineState is the per-line directory entry. A line is Modified when dirty
// holds; otherwise it is Shared by everyone in sharers (possibly nobody).
// The zero lineState is a line no processor has touched, which is how the
// line table represents absence.
type lineState struct {
	sharers PESet
	owner   int32
	dirty   bool
}

// Invalidator receives invalidation messages for a processor's cache.
// Both cache.LRU and cache.StackProfiler satisfy it.
type Invalidator interface {
	Invalidate(addr uint64)
}

// Stats counts protocol events.
type Stats struct {
	ReadRequests       uint64
	WriteRequests      uint64
	Invalidations      uint64 // individual cache copies invalidated
	InvalidatingWrites uint64 // writes that invalidated at least one copy
	Downgrades         uint64 // dirty copies demoted to shared by remote reads
}

// Directory is a full-map, write-invalidate directory over cache lines.
// It is deliberately protocol-level only: it tracks sharer sets and sends
// invalidations, leaving miss classification to the per-processor caches.
type Directory struct {
	numPEs   int
	lineSize uint32
	shift    uint // log2(lineSize), precomputed once
	lines    linetab.Table[lineState]
	caches   []Invalidator
	stats    Stats

	// Run-scope transaction counters keyed by MSI state change, live only
	// after Instrument. They are staged per transaction and published by
	// FlushMetrics, which the memsys engines call once per block.
	mReads       obs.Tally
	mWrites      obs.Tally
	mInvals      obs.Tally
	mInvalWrites obs.Tally
	mDowngrades  obs.Tally
}

// Metric names recorded by an instrumented Directory, one per MSI state
// change the protocol performs.
const (
	// MetricReads counts read transactions (requester joins the sharer
	// set: I->S, or S->S for additional sharers).
	MetricReads = "coherence.reads"
	// MetricWrites counts write transactions (requester takes the line
	// modified: I/S->M).
	MetricWrites = "coherence.writes"
	// MetricInvalidations counts individual remote copies invalidated
	// (S->I per copy).
	MetricInvalidations = "coherence.invalidations"
	// MetricInvalidatingWrites counts writes that invalidated at least
	// one remote copy.
	MetricInvalidatingWrites = "coherence.invalidating_writes"
	// MetricDowngrades counts dirty copies demoted by remote reads
	// (M->S).
	MetricDowngrades = "coherence.downgrades"
)

// Instrument attaches run-scope transaction counters from rec. A nil rec
// leaves the directory uninstrumented (the default, zero-cost mode).
// Transactions are counted into staged tallies: they reach rec only when
// the directory's owner calls FlushMetrics.
func (d *Directory) Instrument(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	d.mReads = rec.Tally(MetricReads)
	d.mWrites = rec.Tally(MetricWrites)
	d.mInvals = rec.Tally(MetricInvalidations)
	d.mInvalWrites = rec.Tally(MetricInvalidatingWrites)
	d.mDowngrades = rec.Tally(MetricDowngrades)
}

// FlushMetrics publishes the transactions counted since the last flush.
// It must run on the goroutine applying the transactions.
func (d *Directory) FlushMetrics() {
	d.mReads.Flush()
	d.mWrites.Flush()
	d.mInvals.Flush()
	d.mInvalWrites.Flush()
	d.mDowngrades.Flush()
}

// NewDirectory builds a directory for numPEs processors whose caches use
// the given line size (a power of two). caches[i] receives invalidations
// for processor i; entries may be nil (no cache attached, e.g. processors
// outside the measured set). Invalid configurations return an error
// wrapping ErrInvalidConfig.
func NewDirectory(numPEs int, lineSize uint32, caches []Invalidator) (*Directory, error) {
	if numPEs <= 0 {
		return nil, fmt.Errorf("%w: need at least one processor (got %d)", ErrInvalidConfig, numPEs)
	}
	if len(caches) != numPEs {
		return nil, fmt.Errorf("%w: caches slice has %d entries for %d processors",
			ErrInvalidConfig, len(caches), numPEs)
	}
	if lineSize == 0 || lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("%w: line size %d is not a power of two", ErrInvalidConfig, lineSize)
	}
	shift := uint(0)
	for l := lineSize; l > 1; l >>= 1 {
		shift++
	}
	return &Directory{
		numPEs:   numPEs,
		lineSize: lineSize,
		shift:    shift,
		caches:   caches,
	}, nil
}

// MustDirectory is NewDirectory for statically-valid configurations; it
// panics on error.
func MustDirectory(numPEs int, lineSize uint32, caches []Invalidator) *Directory {
	d, err := NewDirectory(numPEs, lineSize, caches)
	if err != nil {
		panic(err)
	}
	return d
}

// Read registers a read of the line containing addr by pe. A dirty copy
// held elsewhere is downgraded to shared (the data flows through the
// directory; the reader's own cache classifies the miss).
func (d *Directory) Read(pe int, addr uint64) {
	d.ReadLine(pe, addr>>d.shift)
}

// ReadLine is Read addressed by line index instead of byte address, for
// callers (memsys block delivery) that have already split references into
// lines and want to skip the shift.
func (d *Directory) ReadLine(pe int, line uint64) {
	d.stats.ReadRequests++
	d.mReads.Inc()
	e := d.lines.Ptr(line)
	if e.dirty && int(e.owner) != pe {
		e.dirty = false
		d.stats.Downgrades++
		d.mDowngrades.Inc()
	}
	e.sharers.Add(pe, d.numPEs)
}

// Write registers a write of the line containing addr by pe, invalidating
// every other copy.
func (d *Directory) Write(pe int, addr uint64) {
	d.WriteLine(pe, addr>>d.shift)
}

// WriteLine is Write addressed by line index. Invalidations are delivered
// with the line's base address, which lands in the same line of every
// attached cache (caches and directory share one line size by
// construction).
func (d *Directory) WriteLine(pe int, line uint64) {
	d.stats.WriteRequests++
	d.mWrites.Inc()
	e := d.lines.Ptr(line)
	addr := line << d.shift
	invalidated := false
	e.sharers.ForEach(func(other int) {
		if other == pe {
			return
		}
		d.stats.Invalidations++
		d.mInvals.Inc()
		invalidated = true
		if c := d.caches[other]; c != nil {
			c.Invalidate(addr)
		}
	})
	if invalidated {
		d.stats.InvalidatingWrites++
		d.mInvalWrites.Inc()
	}
	e.sharers.Clear()
	e.sharers.Add(pe, d.numPEs)
	e.dirty = true
	e.owner = int32(pe)
}

// Sharers reports how many processors hold the line containing addr.
func (d *Directory) Sharers(addr uint64) int {
	e := d.lines.Get(addr >> d.shift)
	return e.sharers.Len()
}

// IsDirty reports whether the line containing addr is held modified.
func (d *Directory) IsDirty(addr uint64) bool {
	return d.lines.Get(addr >> d.shift).dirty
}

// Stats returns the accumulated protocol statistics.
func (d *Directory) Stats() Stats { return d.stats }

// ResetStats clears protocol counters, keeping directory state.
func (d *Directory) ResetStats() { d.stats = Stats{} }
