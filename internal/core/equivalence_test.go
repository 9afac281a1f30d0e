package core

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"wsstudy/internal/apps/barneshut"
	"wsstudy/internal/apps/cg"
	"wsstudy/internal/apps/fft"
	"wsstudy/internal/apps/lu"
	"wsstudy/internal/apps/volrend"
	"wsstudy/internal/cache"
	"wsstudy/internal/coherence"
	"wsstudy/internal/memsys"
	"wsstudy/internal/obs"
	"wsstudy/internal/trace"
)

// The block-delivery refactor promises bit-identical simulation results:
// batching changes only the granularity of delivery, never the order, so
// every kernel must produce the same miss curves, knees and directory
// statistics whether its references arrive one at a time (the legacy
// per-Ref path), in blocks (the native path), or through a concurrent
// Fanout. This suite runs all five kernels at small sizes through all
// three paths and compares every statistic the experiments read.

// refOnly hides a memory system's block and stopper methods so the Batcher
// falls back to ref-by-ref delivery — reproducing the pre-block legacy
// path exactly, including where epoch boundaries land in the stream.
type refOnly struct{ sys *memsys.System }

func (r refOnly) Ref(t trace.Ref)  { r.sys.Ref(t) }
func (r refOnly) BeginEpoch(n int) { r.sys.BeginEpoch(n) }

// kernelCase runs one application kernel deterministically into sink.
// Every case uses 4 processors so one memsys.Config fits all.
type kernelCase struct {
	name string
	warm int // warmup epochs, to exercise mid-stream BeginEpoch placement
	run  func(t *testing.T, sink trace.Consumer)
}

func equivalenceKernels() []kernelCase {
	return []kernelCase{
		{name: "lu", warm: 0, run: func(t *testing.T, sink trace.Consumer) {
			m := lu.NewBlockMatrix(32, 8, nil)
			m.FillRandomDominant(1)
			if _, err := lu.FactorTraced(m, lu.Grid{PR: 2, PC: 2}, sink); err != nil {
				t.Fatalf("lu: %v", err)
			}
		}},
		{name: "cg", warm: 1, run: func(t *testing.T, sink trace.Consumer) {
			part, err := cg.NewPartition2D(16, 2, 2, nil)
			if err != nil {
				t.Fatalf("cg: %v", err)
			}
			solver := cg.NewSolver2D(part, sink)
			b := make([]float64, 16*16)
			for i := range b {
				b[i] = 1
			}
			solver.SetB(b)
			if _, err := solver.Solve(cg.Config{MaxIters: 4}); err != nil {
				t.Fatalf("cg: %v", err)
			}
		}},
		{name: "fft", warm: 0, run: func(t *testing.T, sink trace.Consumer) {
			f, err := fft.New(fft.Config{LogN: 8, P: 4, InternalRadix: 4}, sink)
			if err != nil {
				t.Fatalf("fft: %v", err)
			}
			x := make([]complex128, 1<<8)
			for i := range x {
				x[i] = complex(float64(i%17)-8, float64(i%13)-6)
			}
			f.SetInput(x)
			if err := f.Run(); err != nil {
				t.Fatalf("fft: %v", err)
			}
		}},
		{name: "barneshut", warm: 1, run: func(t *testing.T, sink trace.Consumer) {
			bodies := barneshut.Plummer(64, 42)
			sim, err := barneshut.NewSimulation(bodies, barneshut.Config{
				Theta: 1.0, Quadrupole: true, Eps: 0.05, DT: 0.003, P: 4,
			}, sink)
			if err != nil {
				t.Fatalf("barneshut: %v", err)
			}
			for s := 0; s < 3; s++ {
				if _, err := sim.Step(); err != nil {
					t.Fatalf("barneshut: %v", err)
				}
			}
		}},
		{name: "volrend", warm: 1, run: func(t *testing.T, sink trace.Consumer) {
			vol := volrend.SyntheticHead(16, 16, 14)
			ren, err := volrend.NewRenderer(vol, volrend.Config{
				ImageW: 24, ImageH: 24, P: 4,
			}, sink)
			if err != nil {
				t.Fatalf("volrend: %v", err)
			}
			for f := 0; f < 2; f++ {
				if _, err := ren.RenderFrame(0.04 * float64(f)); err != nil {
					t.Fatalf("volrend: %v", err)
				}
			}
		}},
	}
}

// profSnapshot captures everything the experiments read from a profiling
// memory system. All fields are comparable with reflect.DeepEqual.
type profSnapshot struct {
	Curve        []cache.MissCount
	ColdR, ColdW uint64
	CohR, CohW   uint64
	Reads        uint64
	Writes       uint64
	Dir          coherence.Stats
	Sys          memsys.Stats
}

func profSnap(sys memsys.Machine, pe int, caps []int) profSnapshot {
	p := sys.Profiler(pe)
	return profSnapshot{
		Curve: p.Curve(caps),
		ColdR: func() uint64 { r, _ := p.ColdMisses(); return r }(),
		ColdW: func() uint64 { _, w := p.ColdMisses(); return w }(),
		CohR:  func() uint64 { r, _ := p.CoherenceMisses(); return r }(),
		CohW:  func() uint64 { _, w := p.CoherenceMisses(); return w }(),
		Reads: p.Reads(), Writes: p.Writes(),
		Dir: sys.DirectoryStats(),
		Sys: sys.Stats(),
	}
}

// cacheSnapshot captures the per-PE stats of a concrete-cache system.
type cacheSnapshot struct {
	Caches []cache.Stats
	Dir    coherence.Stats
	Sys    memsys.Stats
}

func cacheSnap(sys memsys.Machine) cacheSnapshot {
	s := cacheSnapshot{Dir: sys.DirectoryStats(), Sys: sys.Stats()}
	for pe := 0; pe < sys.PEs(); pe++ {
		s.Caches = append(s.Caches, sys.Cache(pe).Stats())
	}
	return s
}

// runPath runs a kernel into a fresh system wrapped by mk, closing any
// Fanout before snapshots are taken.
func runPath(t *testing.T, k kernelCase, cfg memsys.Config, mk func(*memsys.System) trace.Consumer) *memsys.System {
	t.Helper()
	sys := memsys.MustNew(cfg)
	sink := mk(sys)
	k.run(t, sink)
	if fan, ok := sink.(*trace.Fanout); ok {
		if err := fan.Close(); err != nil {
			t.Fatalf("fanout close: %v", err)
		}
	}
	return sys
}

func mkNative(s *memsys.System) trace.Consumer { return s }
func mkLegacy(s *memsys.System) trace.Consumer { return refOnly{s} }
func mkFanout(t *testing.T) func(*memsys.System) trace.Consumer {
	return func(s *memsys.System) trace.Consumer {
		fan, err := trace.NewFanout(s)
		if err != nil {
			t.Fatalf("fanout: %v", err)
		}
		return fan
	}
}

// TestBlockEquivalence proves the tentpole invariant: for every kernel,
// the native block path and the concurrent Fanout path produce statistics
// bit-identical to the legacy per-Ref path, under both a fully associative
// stack profiler and a concrete direct-mapped cache.
func TestBlockEquivalence(t *testing.T) {
	caps := []int{8, 64, 512, 4096} // lines; spans the kernels' knees
	for _, k := range equivalenceKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			profCfg := memsys.Config{
				PEs: 4, LineSize: 8, Profile: true, ProfilePE: 1, WarmupEpochs: k.warm,
			}
			legacy := profSnap(runPath(t, k, profCfg, mkLegacy), 1, caps)
			native := profSnap(runPath(t, k, profCfg, mkNative), 1, caps)
			fanned := profSnap(runPath(t, k, profCfg, mkFanout(t)), 1, caps)
			if !reflect.DeepEqual(native, legacy) {
				t.Errorf("profiler: block path diverged from per-Ref path\nblock:  %+v\nlegacy: %+v", native, legacy)
			}
			if !reflect.DeepEqual(fanned, legacy) {
				t.Errorf("profiler: fanout path diverged from per-Ref path\nfanout: %+v\nlegacy: %+v", fanned, legacy)
			}

			dmCfg := memsys.Config{
				PEs: 4, LineSize: 8, CacheCapacity: 256, Assoc: 1, WarmupEpochs: k.warm,
			}
			legacyDM := cacheSnap(runPath(t, k, dmCfg, mkLegacy))
			nativeDM := cacheSnap(runPath(t, k, dmCfg, mkNative))
			fannedDM := cacheSnap(runPath(t, k, dmCfg, mkFanout(t)))
			if !reflect.DeepEqual(nativeDM, legacyDM) {
				t.Errorf("direct-mapped: block path diverged from per-Ref path\nblock:  %+v\nlegacy: %+v", nativeDM, legacyDM)
			}
			if !reflect.DeepEqual(fannedDM, legacyDM) {
				t.Errorf("direct-mapped: fanout path diverged from per-Ref path\nfanout: %+v\nlegacy: %+v", fannedDM, legacyDM)
			}
		})
	}
}

// fanoutVsTee runs one kernel into a profiler system and a direct-mapped
// system attached first via the serial Tee and then via a sharded Fanout
// built by mk, and demands identical results from both — the guarantee
// that lets fig6dm replace its per-size reruns with one fanned run.
func fanoutVsTee(t *testing.T, k kernelCase, mk func(...trace.Consumer) (*trace.Fanout, error)) {
	t.Helper()
	build := func() (*memsys.System, *memsys.System) {
		prof := memsys.MustNew(memsys.Config{
			PEs: 4, LineSize: 8, Profile: true, ProfilePE: 1, WarmupEpochs: k.warm,
		})
		dm := memsys.MustNew(memsys.Config{
			PEs: 4, LineSize: 8, CacheCapacity: 128, Assoc: 1, WarmupEpochs: k.warm,
		})
		return prof, dm
	}
	caps := []int{16, 128, 1024}

	profT, dmT := build()
	k.run(t, trace.Tee{profT, dmT})

	profF, dmF := build()
	fan, err := mk(profF, dmF)
	if err != nil {
		t.Fatal(err)
	}
	k.run(t, fan)
	if err := fan.Close(); err != nil {
		t.Fatal(err)
	}

	if got, want := profSnap(profF, 1, caps), profSnap(profT, 1, caps); !reflect.DeepEqual(got, want) {
		t.Errorf("fanout profiler diverged from tee\nfanout: %+v\ntee:    %+v", got, want)
	}
	if got, want := cacheSnap(dmF), cacheSnap(dmT); !reflect.DeepEqual(got, want) {
		t.Errorf("fanout direct-mapped stats diverged from tee\nfanout: %+v\ntee:    %+v", got, want)
	}
}

// TestFanoutMatchesTee proves the sharded engine equivalent to the serial
// Tee for every kernel, under the default configuration, under a forced
// multi-shard configuration with awkward ring/batch sizes (so shard
// boundaries are exercised even when GOMAXPROCS would pick one worker),
// and — because the rings must block rather than spin — under
// GOMAXPROCS=1 explicitly.
func TestFanoutMatchesTee(t *testing.T) {
	sharded := func(consumers ...trace.Consumer) (*trace.Fanout, error) {
		return trace.NewFanoutConfig(trace.FanoutConfig{Workers: 2, Ring: 8, Batch: 3}, consumers...)
	}
	// Sequential subtest first: it pins GOMAXPROCS, and parallel subtests
	// only start after the sequential ones (and the restore) finish.
	t.Run("gomaxprocs=1", func(t *testing.T) {
		old := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(old)
		k := equivalenceKernels()[3] // barneshut: multi-epoch, order-sensitive
		fanoutVsTee(t, k, trace.NewFanout)
		fanoutVsTee(t, k, sharded)
	})
	for _, k := range equivalenceKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			fanoutVsTee(t, k, trace.NewFanout)
			fanoutVsTee(t, k, sharded)
		})
	}
}

// runSharded runs a kernel into a machine opened with the given shard
// count and closes it — draining the shard pipeline — before snapshots.
func runSharded(t *testing.T, k kernelCase, cfg memsys.Config, shards int) memsys.Machine {
	t.Helper()
	cfg.Shards = shards
	m, err := memsys.Open(cfg)
	if err != nil {
		t.Fatalf("open (shards=%d): %v", shards, err)
	}
	k.run(t, m)
	if err := m.Close(); err != nil {
		t.Fatalf("close (shards=%d): %v", shards, err)
	}
	return m
}

// shardedVsSerial runs one kernel through the serial engine and through the
// region-sharded engine at the given shard count, under both the stack
// profiler and concrete direct-mapped caches, and demands bit-identical
// statistics — the machine-level face of the sharding invariant.
func shardedVsSerial(t *testing.T, k kernelCase, shards int) {
	t.Helper()
	caps := []int{8, 64, 512, 4096}
	profCfg := memsys.Config{
		PEs: 4, LineSize: 8, Profile: true, ProfilePE: 1, WarmupEpochs: k.warm,
	}
	serial := profSnap(runPath(t, k, profCfg, mkNative), 1, caps)
	shard := profSnap(runSharded(t, k, profCfg, shards), 1, caps)
	if !reflect.DeepEqual(shard, serial) {
		t.Errorf("profiler: sharded machine (W=%d) diverged from serial\nsharded: %+v\nserial:  %+v", shards, shard, serial)
	}

	dmCfg := memsys.Config{
		PEs: 4, LineSize: 8, CacheCapacity: 256, Assoc: 1, WarmupEpochs: k.warm,
	}
	serialDM := cacheSnap(runPath(t, k, dmCfg, mkNative))
	shardDM := cacheSnap(runSharded(t, k, dmCfg, shards))
	if !reflect.DeepEqual(shardDM, serialDM) {
		t.Errorf("direct-mapped: sharded machine (W=%d) diverged from serial\nsharded: %+v\nserial:  %+v", shards, shardDM, serialDM)
	}
}

// TestShardedMachineMatchesSerial proves the region-sharded memsys engine
// bit-identical to the serial System for every kernel, at one shard (the
// degenerate pipeline) and at three (so cross-shard invalidation mailboxes
// and the merge order are exercised), and — because the shard rings must
// block rather than spin — under GOMAXPROCS=1 explicitly.
func TestShardedMachineMatchesSerial(t *testing.T) {
	// Sequential subtest first: it pins GOMAXPROCS, and parallel subtests
	// only start after the sequential ones (and the restore) finish.
	t.Run("gomaxprocs=1", func(t *testing.T) {
		old := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(old)
		k := equivalenceKernels()[3] // barneshut: multi-epoch, order-sensitive
		shardedVsSerial(t, k, 3)
	})
	for _, k := range equivalenceKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			shardedVsSerial(t, k, 1)
			shardedVsSerial(t, k, 3)
		})
	}
}

// TestShardedDeterminism runs the same kernel through the sharded engine
// twice and demands identical snapshots — scheduling of the shard workers
// must never leak into results — and then runs the sharing1024 experiment
// (which defaults to the sharded engine at P=1024) twice end to end and
// demands byte-identical JSON reports.
func TestShardedDeterminism(t *testing.T) {
	t.Run("kernel", func(t *testing.T) {
		t.Parallel()
		k := equivalenceKernels()[3] // barneshut
		cfg := memsys.Config{
			PEs: 4, LineSize: 8, CacheCapacity: 256, Assoc: 1, WarmupEpochs: k.warm,
		}
		a := cacheSnap(runSharded(t, k, cfg, 3))
		b := cacheSnap(runSharded(t, k, cfg, 3))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("sharded machine is nondeterministic\nfirst:  %+v\nsecond: %+v", a, b)
		}
	})
	t.Run("sharing1024", func(t *testing.T) {
		t.Parallel()
		e, ok := Find("sharing1024")
		if !ok {
			t.Fatal("sharing1024 not registered")
		}
		opt := Options{Scale: ScaleQuick, MachineShards: 3}
		render := func() []byte {
			rep, err := Execute(context.Background(), e, opt)
			if err != nil {
				t.Fatalf("sharing1024: %v", err)
			}
			var buf bytes.Buffer
			if err := rep.Render(&buf, FormatJSON); err != nil {
				t.Fatalf("render: %v", err)
			}
			return buf.Bytes()
		}
		first := render()
		second := render()
		if !bytes.Equal(first, second) {
			t.Errorf("sharing1024 reports differ between runs\nfirst:\n%s\nsecond:\n%s", first, second)
		}
	})
}

// TestOpenMachineShardRule pins the one rule that turns
// Options.MachineShards into an engine: zero picks the serial engine
// below 1024 PEs and memsys.DefaultShards() shards from there up; a
// positive value is an explicit width at any size. The rows cover the
// machines the benchmark workloads run on: fig6 and the gridbh cells at
// P=4 stay serial, sharing1024 at P=1024 shards by default and honors
// an explicit -machine-shards.
func TestOpenMachineShardRule(t *testing.T) {
	cases := []struct {
		name          string
		pes           int
		machineShards int
		want          int // 0 = serial engine, else the sharded width
	}{
		{"P=4 default is serial", 4, 0, 0},
		{"P=1023 default is serial", 1023, 0, 0},
		{"P=1024 default is DefaultShards", 1024, 0, memsys.DefaultShards()},
		{"P=4 explicit width", 4, 3, 3},
		{"P=1024 explicit width", 1024, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := openMachine(context.Background(), Options{MachineShards: tc.machineShards},
				memsys.Config{PEs: tc.pes, LineSize: 8, CacheCapacity: 64, ProfilePE: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			switch e := m.(type) {
			case *memsys.System:
				if tc.want != 0 {
					t.Errorf("serial engine, want %d shards", tc.want)
				}
			case *memsys.Sharded:
				if e.Shards() != tc.want {
					t.Errorf("sharded engine at %d shards, want %d (0 = serial)", e.Shards(), tc.want)
				}
			default:
				t.Fatalf("unexpected engine %T", m)
			}
		})
	}
}

// runPathMetrics is runPath with a fresh obs.Recorder attached: the system
// is instrumented and the kernel's sink is a metrics-counting context
// guard, so the snapshot holds the full per-stage counter set (trace
// delivery, batcher, directory, profiler/caches, miss classification).
func runPathMetrics(t *testing.T, k kernelCase, cfg memsys.Config, mk func(*memsys.System) trace.Consumer) obs.Metrics {
	t.Helper()
	rec := obs.New()
	sys := memsys.MustNew(cfg)
	sys.Instrument(rec)
	inner := mk(sys)
	k.run(t, trace.WithContext(obs.With(context.Background(), rec), inner))
	if fan, ok := inner.(*trace.Fanout); ok {
		if err := fan.Close(); err != nil {
			t.Fatalf("fanout close: %v", err)
		}
	}
	return rec.Snapshot()
}

// TestMetricsEquivalence is the observability face of the block-delivery
// invariant: with a Recorder attached, every per-stage counter — references
// and blocks through the guard, batcher deliveries, directory transactions
// by MSI state change, profiler accesses and queries, local/remote miss
// classification — must be bit-identical whether the stream reaches the
// system per-Ref (legacy), in blocks (native), or through a Fanout. The
// counting point for delivery metrics is the guard, upstream of where the
// three paths diverge; everything else is deterministic simulation state.
func TestMetricsEquivalence(t *testing.T) {
	for _, k := range equivalenceKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			cfg := memsys.Config{
				PEs: 4, LineSize: 8, Profile: true, ProfilePE: 1, WarmupEpochs: k.warm,
			}
			legacy := runPathMetrics(t, k, cfg, mkLegacy)
			native := runPathMetrics(t, k, cfg, mkNative)
			fanned := runPathMetrics(t, k, cfg, mkFanout(t))
			if len(legacy.Counters) == 0 {
				t.Fatal("legacy path recorded no counters; instrumentation is dead")
			}
			for _, name := range []string{
				obs.RefsDelivered, obs.BlocksDelivered,
				coherence.MetricReads, coherence.MetricWrites,
				cache.MetricProfilerAccesses,
			} {
				if legacy.Counters[name] == 0 {
					t.Errorf("counter %q is zero on the legacy path", name)
				}
			}
			if !reflect.DeepEqual(native.Counters, legacy.Counters) {
				t.Errorf("block path counters diverged from per-Ref path\nblock:  %v\nlegacy: %v",
					native.Counters, legacy.Counters)
			}
			if !reflect.DeepEqual(fanned.Counters, legacy.Counters) {
				t.Errorf("fanout path counters diverged from per-Ref path\nfanout: %v\nlegacy: %v",
					fanned.Counters, legacy.Counters)
			}
		})
	}
}

// shardedMetricNames are the run-scope counters the sharded engine's
// workers stage and publish once per op block: directory transactions,
// profiler accesses, cache evictions and the miss classification. They
// feed the benchmark's sim_lines_per_s and the ledger's miss counts.
var shardedMetricNames = []string{
	coherence.MetricReads, coherence.MetricWrites, coherence.MetricInvalidations,
	coherence.MetricInvalidatingWrites, coherence.MetricDowngrades,
	cache.MetricProfilerAccesses, cache.MetricEvictions,
	memsys.MetricLocalMisses, memsys.MetricRemoteMisses,
}

// machineMetrics runs a kernel into an instrumented machine opened with the
// given shard count (0 = serial engine), closes it, and returns the
// counters in shardedMetricNames.
func machineMetrics(t *testing.T, k kernelCase, cfg memsys.Config, shards int) map[string]uint64 {
	t.Helper()
	cfg.Shards = shards
	m, err := memsys.Open(cfg)
	if err != nil {
		t.Fatalf("open (shards=%d): %v", shards, err)
	}
	rec := obs.New()
	m.Instrument(rec)
	k.run(t, m)
	if err := m.Close(); err != nil {
		t.Fatalf("close (shards=%d): %v", shards, err)
	}
	snap := rec.Snapshot()
	out := make(map[string]uint64, len(shardedMetricNames))
	for _, name := range shardedMetricNames {
		out[name] = snap.Counter(name)
	}
	return out
}

// shardedMetricsVsSerial compares the counters of the serial engine and
// of the 2-shard engine after Close, under the stack profiler and under
// small direct-mapped caches (which evict), and requires the counters
// each configuration must move to be nonzero on the serial engine, so a
// dead counter cannot pass as a match.
func shardedMetricsVsSerial(t *testing.T, k kernelCase) {
	t.Helper()
	for _, c := range []struct {
		name    string
		cfg     memsys.Config
		nonzero []string
	}{
		{"profiler", memsys.Config{PEs: 4, LineSize: 8, Profile: true, ProfilePE: 1, WarmupEpochs: k.warm},
			[]string{coherence.MetricReads, coherence.MetricWrites, cache.MetricProfilerAccesses}},
		{"direct-mapped", memsys.Config{PEs: 4, LineSize: 8, CacheCapacity: 64, Assoc: 1, WarmupEpochs: k.warm},
			[]string{coherence.MetricReads, coherence.MetricWrites, cache.MetricEvictions}},
	} {
		serial := machineMetrics(t, k, c.cfg, 0)
		sharded := machineMetrics(t, k, c.cfg, 2)
		for _, name := range c.nonzero {
			if serial[name] == 0 {
				t.Errorf("%s: counter %q is zero on the serial engine", c.name, name)
			}
		}
		if !reflect.DeepEqual(sharded, serial) {
			t.Errorf("%s: sharded (W=2) counters diverged from serial after Close\nsharded: %v\nserial:  %v", c.name, sharded, serial)
		}
	}
}

// TestShardedMetricsMatchSerial is the counter face of the sharding
// invariant: the sharded engine's workers stage their per-reference
// counters and publish them per op block, and after Close every total
// must equal the serial engine's, for every kernel and — because a
// missing flush only shows once a worker's counts are lost — under
// GOMAXPROCS=1 too.
func TestShardedMetricsMatchSerial(t *testing.T) {
	// Sequential subtest first: it pins GOMAXPROCS, and parallel subtests
	// only start after the sequential ones (and the restore) finish.
	t.Run("gomaxprocs=1", func(t *testing.T) {
		old := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(old)
		for _, k := range equivalenceKernels() {
			shardedMetricsVsSerial(t, k)
		}
	})
	for _, k := range equivalenceKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			shardedMetricsVsSerial(t, k)
		})
	}
}
