package cache

import (
	"testing"

	"wsstudy/internal/obs"
	"wsstudy/internal/trace"
)

// cycleProfiler drives n references over a fixed working set of lines,
// enough to trigger Fenwick-position compactions when n exceeds the tree
// size.
func cycleProfiler(p *StackProfiler, n, lines int) {
	for i := 0; i < n; i++ {
		p.Access(uint64(i%lines)*8, 8, true)
	}
}

// TestCompactReusesAllocations pins down the steady-state allocation
// behavior of the profiler: after warm-up (histograms grown, workspace and
// tree sized), a window of references that includes a full compaction must
// allocate nothing. Before the reuse of the compaction workspace and the
// Fenwick tree, every compaction reallocated both — a half-megabyte of
// garbage per ~64K references.
func TestCompactReusesAllocations(t *testing.T) {
	p := MustStackProfiler(8)
	const lines = 1024
	// Warm up past several compactions so every buffer reaches its
	// steady-state size.
	cycleProfiler(p, 3*initialFenwickSize, lines)
	avg := testing.AllocsPerRun(5, func() {
		cycleProfiler(p, initialFenwickSize, lines)
	})
	if avg > 2 {
		t.Fatalf("steady-state window (with compaction) allocated %.1f times, want <= 2", avg)
	}
}

// BenchmarkStackProfilerSteadyState reports the per-reference cost and
// allocation count of the profiler at steady state, compactions included.
func BenchmarkStackProfilerSteadyState(b *testing.B) {
	p := MustStackProfiler(8)
	const lines = 1024
	cycleProfiler(p, 3*initialFenwickSize, lines)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(uint64(i%lines)*8, 8, true)
	}
}

// TestInstrumentedRefsAllocateNothing holds the staged counters to the
// allocation budget of the uninstrumented profiler: with a Recorder
// attached, a block through Refs — per-reference staging plus the flush
// at the end of the block — allocates nothing at steady state, and the
// flushed counter equals the references delivered.
func TestInstrumentedRefsAllocateNothing(t *testing.T) {
	p := MustStackProfiler(8)
	rec := obs.New()
	p.Instrument(rec)
	block := make([]trace.Ref, trace.DefaultBlockSize)
	for i := range block {
		block[i] = trace.Ref{Addr: uint64(i%300) * 8, Size: 8, Kind: trace.Read}
	}
	const warm = 3 * initialFenwickSize / trace.DefaultBlockSize
	for i := 0; i < warm; i++ {
		p.Refs(block)
	}
	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() { p.Refs(block) })
	if allocs != 0 {
		t.Fatalf("instrumented Refs allocated %.1f times per block, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call besides the measured runs.
	want := uint64((warm + runs + 1) * len(block))
	if got := rec.Counter(MetricProfilerAccesses).Value(); got != want {
		t.Fatalf("%s = %d after Refs returned, want %d", MetricProfilerAccesses, got, want)
	}
}
