// Package obs is the run-scoped observability layer: named counters,
// gauges, and duration histograms collected by a Recorder that rides the
// run's context.Context. The package is zero-dependency (stdlib only) and
// every handle is nil-safe: instrumented code asks the Recorder for a
// handle once at setup and updates it unconditionally — when no Recorder
// is attached the handle is nil and the update is a single predictable
// branch.
//
// With a Recorder attached, which is how the CLI, the server and the
// benchmark always run, a Counter update is a locked atomic add, and a
// locked add per simulated reference is not free: it drains the store
// buffer, so the simulator's own cache misses stop overlapping, and
// concurrent shard workers bounce the counter's cache line between cores.
// Per-reference events therefore count into a Tally, a plain staged count
// its owner flushes once per block of references. The engines flush at
// every block boundary, so counters are exact whenever a block has been
// consumed (and at Close), and a progress reporter's Snapshot lags the
// simulation by at most one block.
//
// Recorders form a two-level tree. A suite run owns one root Recorder;
// Execute gives each experiment a child (NewChild) so concurrent workers
// never interleave their counts, then folds the child back into the root
// (Fold) when the experiment finishes. Snapshot aggregates the root's own
// state with every live child, which is what lets a progress reporter see
// references ticking while experiments are still in flight.
package obs

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is ready to
// use; a nil *Counter is valid and drops every update, so instrumentation
// sites never test whether recording is enabled.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe for concurrent use; no-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count; 0 on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Tally stages increments of one Counter in a plain, unsynchronized count
// and publishes them with a single atomic add on Flush; hot paths count
// per event and flush once per block of events (see the package comment).
// A Tally belongs to one goroutine; the Counter it feeds stays safe for
// concurrent readers, which see every count published by the last Flush.
// The zero Tally, and one over a nil Counter, counts and drops on Flush.
type Tally struct {
	n uint64
	c *Counter
}

// Inc stages one event.
func (t *Tally) Inc() { t.n++ }

// Flush publishes the staged count to the Counter and restarts staging.
func (t *Tally) Flush() {
	if t.n != 0 {
		t.c.Add(t.n)
		t.n = 0
	}
}

// Gauge is an instantaneous int64 level (e.g. busy workers) that also
// tracks the high-water mark it has reached. A nil *Gauge drops updates.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set stores v and raises the high-water mark if needed.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.bump(v)
}

// Add moves the level by d (negative to decrease) and raises the
// high-water mark if needed.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.bump(g.v.Add(d))
}

func (g *Gauge) bump(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value reads the current level; 0 on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max reads the high-water mark; 0 on a nil receiver.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// histBuckets is the bucket count of a duration histogram: bucket 0 holds
// sub-microsecond observations, bucket i (i >= 1) holds durations in
// [2^(i-1), 2^i) microseconds, and the last bucket absorbs everything
// longer (2^38 us is about three days).
const histBuckets = 40

// Histogram records a distribution of durations: count, sum, min, max and
// power-of-two microsecond buckets. Observation takes a mutex — histograms
// instrument per-experiment and per-stage timings, not per-reference
// events. A nil *Histogram drops observations.
type Histogram struct {
	mu      sync.Mutex
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	buckets [histBuckets]uint64
}

// Observe records one duration. Safe for concurrent use; no-op on a nil
// receiver.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	i := bits.Len64(uint64(d / time.Microsecond))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.mu.Lock()
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	h.buckets[i]++
	h.mu.Unlock()
}

// stats snapshots the histogram.
func (h *Histogram) stats() DurationStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := DurationStats{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	last := -1
	for i, n := range h.buckets {
		if n > 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = append([]uint64(nil), h.buckets[:last+1]...)
	}
	return s
}

// absorb merges a snapshot into the histogram (used when folding a child
// recorder into its parent).
func (h *Histogram) absorb(s DurationStats) {
	if h == nil || s.Count == 0 {
		return
	}
	h.mu.Lock()
	if h.count == 0 || s.Min < h.min {
		h.min = s.Min
	}
	if s.Max > h.max {
		h.max = s.Max
	}
	h.count += s.Count
	h.sum += s.Sum
	for i, n := range s.Buckets {
		if i >= histBuckets {
			break
		}
		h.buckets[i] += n
	}
	h.mu.Unlock()
}

// Recorder is a named registry of counters, gauges, duration histograms
// and string labels for one run. All methods are safe for concurrent use,
// and every method is a no-op (returning nil handles) on a nil receiver,
// so code can instrument unconditionally from a possibly-absent Recorder.
type Recorder struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	labels   map[string]string
	children map[*Recorder]struct{}
}

// New returns an empty Recorder.
func New() *Recorder {
	return &Recorder{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		labels:   make(map[string]string),
		children: make(map[*Recorder]struct{}),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a valid, dropping Counter) on a nil receiver.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counterLocked(name)
}

// Tally returns a staging handle over the named counter (see Tally); a nil
// receiver yields a Tally that drops what it stages.
func (r *Recorder) Tally(name string) Tally {
	return Tally{c: r.Counter(name)}
}

func (r *Recorder) counterLocked(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use; nil on a nil
// receiver.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gaugeLocked(name)
}

func (r *Recorder) gaugeLocked(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named duration histogram, creating it on first
// use; nil on a nil receiver.
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.histLocked(name)
}

func (r *Recorder) histLocked(name string) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Observe records d into the named histogram; no-op on a nil receiver.
func (r *Recorder) Observe(name string, d time.Duration) {
	r.Histogram(name).Observe(d)
}

// SetLabel attaches a string fact to the run (current experiment id, sweep
// point); no-op on a nil receiver.
func (r *Recorder) SetLabel(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.labels[key] = value
	r.mu.Unlock()
}

// Label reads a label; "" on a nil receiver or an unset key.
func (r *Recorder) Label(key string) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.labels[key]
}

// NewChild creates a Recorder whose state is isolated from r but included
// in r.Snapshot while attached. Execute gives each experiment a child so
// concurrent suite workers cannot interleave counts, then calls Fold when
// the experiment finishes. Returns nil on a nil receiver.
func (r *Recorder) NewChild() *Recorder {
	if r == nil {
		return nil
	}
	c := New()
	r.mu.Lock()
	r.children[c] = struct{}{}
	r.mu.Unlock()
	return c
}

// Fold detaches child, absorbs its state into r, and returns the child's
// final snapshot (the per-experiment metrics). A nil receiver, nil child,
// or a child not attached to r folds nothing and returns the child's
// snapshot anyway.
func (r *Recorder) Fold(child *Recorder) Metrics {
	m := child.Snapshot()
	if r == nil || child == nil {
		return m
	}
	r.mu.Lock()
	delete(r.children, child)
	r.absorbLocked(m)
	r.mu.Unlock()
	return m
}

// absorbLocked merges a snapshot into r's own stores; r.mu must be held.
func (r *Recorder) absorbLocked(m Metrics) {
	for name, v := range m.Counters {
		r.counterLocked(name).Add(v)
	}
	for name, gv := range m.Gauges {
		g := r.gaugeLocked(name)
		g.Add(gv.Value)
		g.bump(gv.Max)
	}
	for name, ds := range m.Durations {
		r.histLocked(name).absorb(ds)
	}
	for k, v := range m.Labels {
		r.labels[k] = v
	}
}

// Snapshot captures the Recorder's current state — its own counters,
// gauges, histograms and labels plus those of every attached child — as an
// immutable Metrics value. Returns the zero Metrics on a nil receiver.
func (r *Recorder) Snapshot() Metrics {
	if r == nil {
		return Metrics{}
	}
	r.mu.Lock()
	m := Metrics{
		Counters:  make(map[string]uint64, len(r.counters)),
		Gauges:    make(map[string]GaugeValue, len(r.gauges)),
		Durations: make(map[string]DurationStats, len(r.hists)),
		Labels:    make(map[string]string, len(r.labels)),
	}
	for name, c := range r.counters {
		m.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		m.Gauges[name] = GaugeValue{Value: g.Value(), Max: g.Max()}
	}
	for name, h := range r.hists {
		m.Durations[name] = h.stats()
	}
	for k, v := range r.labels {
		m.Labels[k] = v
	}
	children := make([]*Recorder, 0, len(r.children))
	for c := range r.children {
		children = append(children, c)
	}
	r.mu.Unlock()
	for _, c := range children {
		m.merge(c.Snapshot())
	}
	return m
}

// recorderKey carries the Recorder through a context.Context.
type recorderKey struct{}

// With returns a context carrying rec; With(ctx, nil) detaches any
// Recorder already present.
func With(ctx context.Context, rec *Recorder) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, recorderKey{}, rec)
}

// From extracts the Recorder carried by ctx, or nil when none is attached.
// The nil result is directly usable: every Recorder method accepts a nil
// receiver.
func From(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	rec, _ := ctx.Value(recorderKey{}).(*Recorder)
	return rec
}
