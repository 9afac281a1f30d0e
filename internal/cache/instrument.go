package cache

import "wsstudy/internal/obs"

// Metric names recorded by instrumented caches and profilers.
const (
	// MetricProfilerAccesses counts references processed by stack-distance
	// profilers (one per Access or Touch call).
	MetricProfilerAccesses = "cache.profiler.accesses"
	// MetricProfilerQueries counts curve/point queries answered from the
	// profiler's histograms (Curve and MissesAt).
	MetricProfilerQueries = "cache.profiler.queries"
	// MetricEvictions counts capacity-driven line replacements in the
	// concrete simulators (LRU and SetAssoc); coherence removals are
	// counted by the directory, not here.
	MetricEvictions = "cache.evictions"
)

// Per-reference counts (profiler accesses, evictions) are staged in an
// obs.Tally and reach the Recorder only on FlushMetrics. Ref and Refs
// flush before returning; a caller driving Access or Touch directly — the
// memsys engines — flushes once per block of references it consumes, so
// the counters are exact at every block boundary.

// Instrument attaches run-scope counters from rec: accesses processed and
// histogram queries answered. A nil rec leaves the profiler uninstrumented
// (the default, zero-cost mode; the handles are nil-safe).
func (p *StackProfiler) Instrument(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	p.mAccesses = rec.Tally(MetricProfilerAccesses)
	p.mQueries = rec.Counter(MetricProfilerQueries)
}

// FlushMetrics publishes the accesses staged since the last flush.
func (p *StackProfiler) FlushMetrics() { p.mAccesses.Flush() }

// Instrument attaches a run-scope eviction counter from rec.
func (c *LRU) Instrument(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	c.mEvictions = rec.Tally(MetricEvictions)
}

// FlushMetrics publishes the evictions staged since the last flush.
func (c *LRU) FlushMetrics() { c.mEvictions.Flush() }

// Instrument attaches a run-scope eviction counter from rec.
func (c *SetAssoc) Instrument(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	c.mEvictions = rec.Tally(MetricEvictions)
}

// FlushMetrics publishes the evictions staged since the last flush.
func (c *SetAssoc) FlushMetrics() { c.mEvictions.Flush() }

// instrumentable is satisfied by every simulator with run-scope counters;
// memsys uses it to wire whatever Cache implementation it holds.
type instrumentable interface {
	Instrument(rec *obs.Recorder)
	FlushMetrics()
}

// InstrumentCache attaches run-scope counters from rec to c when its
// concrete type supports them and returns the function that publishes
// their staged counts. It returns nil, and leaves c untouched, when rec is
// nil or c has no counters.
func InstrumentCache(c Cache, rec *obs.Recorder) (flush func()) {
	i, ok := c.(instrumentable)
	if !ok || rec == nil {
		return nil
	}
	i.Instrument(rec)
	return i.FlushMetrics
}
