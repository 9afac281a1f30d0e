package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	wss "wsstudy"
	"wsstudy/internal/apps/barneshut"
	"wsstudy/internal/apps/cg"
	"wsstudy/internal/cache"
	"wsstudy/internal/capture"
	"wsstudy/internal/coherence"
	"wsstudy/internal/core"
	"wsstudy/internal/machine"
	"wsstudy/internal/memsys"
	"wsstudy/internal/obs"
	"wsstudy/internal/scaling"
	"wsstudy/internal/trace"
	"wsstudy/internal/workingset"
)

// The traced simulation runs rebuild each experiment's pipeline from the
// packages' public functions:
//
//	kernel ─apps─▶ Batcher ─trace─▶ context Guard ─memsys─▶ Machine
//
// One Machine.Refs call drives the directory and the per-PE caches or
// profiler together. To split them, the blocks the machine has just
// performed are replayed into a coherence.Directory alone (logging the
// invalidations it sends) and then into the per-PE caches or profiler
// alone (applying those invalidations at the same points). The replays
// run in lockstep with the composed call, a chunk of splitChunk
// references at a time, so that all three see the same host speed while
// each still runs long enough to keep its own data in the CPU caches.
// What remains of the composed call is memsys.self_s.

// front is the consumer a kernel's Batcher delivers into: the trace
// layer's span around the context guard. It exposes the run's recorder
// so the kernel's Batcher instruments itself as it does on the
// untraced path.
type front struct {
	t    *tracer
	next trace.Consumer
	rec  *obs.Recorder
}

func (f *front) Ref(r trace.Ref) { f.Refs([]trace.Ref{r}) }

func (f *front) Refs(block []trace.Ref) {
	id := f.t.begin("trace")
	trace.Deliver(f.next, block)
	f.t.end(id)
}

func (f *front) BeginEpoch(n int) {
	id := f.t.begin("trace")
	f.next.(trace.EpochConsumer).BeginEpoch(n)
	f.t.end(id)
}

func (f *front) Recorder() *obs.Recorder { return f.rec }

// back sits under the guard: it times the composed machine call and,
// when it has a splitter, replays the block through it.
type back struct {
	t     *tracer
	sys   memsys.Machine
	split *splitter // nil: time the machine call only
}

func (b *back) Ref(r trace.Ref) { b.Refs([]trace.Ref{r}) }

func (b *back) Refs(block []trace.Ref) {
	id := b.t.begin("memsys")
	b.sys.Refs(block)
	b.t.end(id)
	if b.split != nil {
		b.split.refs(block)
	}
}

func (b *back) BeginEpoch(n int) {
	id := b.t.begin("memsys")
	b.sys.BeginEpoch(n)
	b.t.end(id)
	if b.split != nil {
		b.split.flush()
		b.split.epoch(n)
	}
}

// inval is one invalidation the directory sent while performing line
// operation op.
type inval struct {
	op   int
	pe   int
	addr uint64
}

type invLog struct {
	op  *int
	pe  int
	out *[]inval
}

func (l *invLog) Invalidate(addr uint64) { *l.out = append(*l.out, inval{*l.op, l.pe, addr}) }

// splitChunk is how many references the splitter collects before it
// replays them.
const splitChunk = 1 << 18

// splitter replays chunks of the stream into a standalone directory
// ("coherence" spans) and then into standalone per-PE caches or a
// profiler ("cache.replay" spans), one span per 512-reference block,
// splitting each reference into line operations as the machine splits
// it.
type splitter struct {
	t     *tracer
	shift uint
	warm  int
	dir   *coherence.Directory
	buf   []trace.Ref // references not replayed yet
	op    int         // line operations performed so far
	invs  []inval     // invalidations sent during the current chunk

	access     func(pe int, addr uint64, read bool)
	invalidate func(pe int, addr uint64)
	measure    func() // called when the warm-up epochs end
}

// newSplitter builds the standalone directory; its invalidations go to
// the PEs for which cached is true (the PEs that own a cache or profiler
// in the machine). The caller sets access, invalidate and measure.
func newSplitter(t *tracer, pes int, ls uint32, warm int, cached func(pe int) bool) (*splitter, error) {
	s := &splitter{t: t, warm: warm}
	for l := ls; l > 1; l >>= 1 {
		s.shift++
	}
	inv := make([]coherence.Invalidator, pes)
	for pe := range inv {
		if cached(pe) {
			inv[pe] = &invLog{op: &s.op, pe: pe, out: &s.invs}
		}
	}
	var err error
	s.dir, err = coherence.NewDirectory(pes, ls, inv)
	return s, err
}

// lines calls f for every line operation of block.
func (s *splitter) lines(block []trace.Ref, f func(pe int, line uint64, read bool)) {
	for _, r := range block {
		if r.Size == 0 {
			continue
		}
		read := r.Kind == trace.Read
		first, last := r.Addr>>s.shift, (r.Addr+uint64(r.Size)-1)>>s.shift
		for l := first; ; l++ {
			f(r.PE, l, read)
			if l == last {
				break
			}
		}
	}
}

func (s *splitter) refs(block []trace.Ref) {
	s.buf = append(s.buf, block...)
	if len(s.buf) >= splitChunk {
		s.flush()
	}
}

// blocks calls f on each 512-reference block of the buffered chunk
// inside a span of the given name.
func (s *splitter) blocks(name string, f func(block []trace.Ref)) {
	for base := 0; base < len(s.buf); base += trace.DefaultBlockSize {
		id := s.t.begin(name)
		f(s.buf[base:min(base+trace.DefaultBlockSize, len(s.buf))])
		s.t.end(id)
	}
}

// flush replays the buffered chunk: into the directory, logging its
// invalidations, then into the caches, applying each invalidation right
// after the line access whose directory operation sent it, as the
// composed machine interleaves them.
func (s *splitter) flush() {
	base := s.op
	s.invs = s.invs[:0]
	s.blocks("coherence", func(block []trace.Ref) {
		s.lines(block, func(pe int, line uint64, read bool) {
			if read {
				s.dir.ReadLine(pe, line)
			} else {
				s.dir.WriteLine(pe, line)
			}
			s.op++
		})
	})
	op, k := base, 0
	s.blocks("cache.replay", func(block []trace.Ref) {
		s.lines(block, func(pe int, line uint64, read bool) {
			s.access(pe, line<<s.shift, read)
			for k < len(s.invs) && s.invs[k].op == op {
				s.invalidate(s.invs[k].pe, s.invs[k].addr)
				k++
			}
			op++
		})
	})
	s.buf = s.buf[:0]
}

func (s *splitter) epoch(n int) {
	if s.warm > 0 && n == s.warm {
		s.dir.ResetStats()
		s.measure()
	}
}

// replayed is the time the splitter's set-up and replays took, which a
// traced wall excludes.
func replayed(t *tracer) time.Duration {
	return t.total("bench.split") + t.total("coherence") + t.total("cache.replay")
}

// ---------------------------------------------------------------- fig6-full

func tracedFig6(r *run) error {
	rs := startRuntimeSampler()
	// The untraced reference run, for the tracing overhead.
	var rep0 *core.Report
	var err error
	wall0, _ := timed(func() { rep0, err = wss.Run(obs.With(context.Background(), obs.New()), "fig6", core.Options{}) })
	r.attempted++
	if err != nil {
		r.fail("fig6 untraced reference: %v", err)
	} else {
		r.checkDigest(r.workload, sha(reportText(rep0)))
	}
	runtime.GC()

	const n, p, profPE, warm, steps = 1024, 4, 1, 2, 5
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)
	t := newTracer()
	split, err := newSplitter(t, p, 8, warm, func(pe int) bool { return pe == profPE })
	if err != nil {
		return err
	}
	rp, err := cache.NewProfiler(8, 1)
	if err != nil {
		return err
	}
	rp.SetMeasuring(false)
	split.access = func(pe int, addr uint64, read bool) {
		if pe == profPE {
			rp.Access(addr, 1, read)
		}
	}
	split.invalidate = func(_ int, addr uint64) { rp.Invalidate(addr) }
	split.measure = func() { rp.SetMeasuring(true) }

	root := t.begin("run")
	var sys memsys.Machine
	t.do("memsys", func() {
		sys, err = memsys.Open(memsys.Config{PEs: p, LineSize: 8, Profile: true, ProfilePE: profPE, WarmupEpochs: warm})
		if err == nil {
			sys.Instrument(rec)
		}
	})
	if err != nil {
		return err
	}
	f := &front{t: t, next: trace.WithContext(ctx, &back{t: t, sys: sys, split: split}), rec: rec}
	var sim *barneshut.Simulation
	t.do("apps", func() {
		sim, err = barneshut.NewSimulation(barneshut.Plummer(n, 42), barneshut.Config{
			Theta: 1.0, Quadrupole: true, Eps: 0.05, DT: 0.003, P: p,
		}, f)
	})
	if err != nil {
		return err
	}
	for i := 0; i < steps && err == nil; i++ {
		t.do("apps", func() { _, err = sim.Step() })
	}
	if err != nil {
		return err
	}
	t.do("memsys", func() { err = sys.Close() })
	if err != nil {
		return err
	}
	split.flush()
	prof := sys.Profiler(profPE)
	var rep *core.Report
	t.do("core", func() { rep = fig6Report(t, n, prof) })
	var text []byte
	t.do("core", func() { text = reportText(rep) })
	t.end(root)
	wall := t.spans[root].end - t.spans[root].start - replayed(t)
	r.attempted++
	r.checkDigest(r.workload, sha(text))
	noteKnees(r, rep)

	// The sharded engine must produce the same report.
	r.attempted++
	if rep1, err := wss.Run(context.Background(), "fig6", core.Options{MachineShards: runtime.NumCPU()}); err != nil {
		r.fail("fig6 on the sharded engine: %v", err)
	} else {
		r.checkDigest(r.workload, sha(reportText(rep1)))
	}

	// The replays must reproduce the composed run.
	r.attempted++
	caps := workingset.BytesToLines(workingset.LogSizes(64, 4<<20, 2), 8)
	if got, want := split.dir.Stats(), sys.DirectoryStats(); got != want {
		r.fail("directory replay %+v differs from the composed run %+v", got, want)
	}
	if rp.Accesses() != prof.Accesses() || !reflect.DeepEqual(rp.Curve(caps), prof.Curve(caps)) {
		r.fail("profiler replay (%d accesses) differs from the composed run (%d accesses)", rp.Accesses(), prof.Accesses())
	}

	self := t.self()
	dirS, profS := t.total("coherence"), t.total("cache.replay")
	layers := map[string]time.Duration{
		"apps": self["apps"], "trace": self["trace"],
		"memsys.self": r.memsysSelf(t.total("memsys"), dirS, profS), "coherence": dirS,
		"cache": profS + self["cache"], "workingset": self["workingset"], "core": self["core"],
	}
	r.ledger(wall, wall0, layers, rec.Snapshot())
	r.set("cache.profile_s", layers["cache"].Seconds(), "s")
	r.set("cache.accesses", float64(prof.Accesses()), "count")
	r.set("core.report_bytes", float64(len(text)), "count")
	r.coverage(wall, layers, true)
	rs.finish(r)
	r.finishLedger()
	return nil
}

// memsysSelf is what remains of the composed machine calls on a serial
// engine once the standalone directory and cache replays are taken out.
// The replays do a subset of the composed call's work, so a negative
// remainder means the split is wrong and counts as a failed check.
func (r *run) memsysSelf(composed, dir, cache time.Duration) time.Duration {
	self := composed - dir - cache
	r.attempted++
	if self < 0 {
		r.fail("memsys.self_s is %.3fs on the serial engine: the replays (directory %.3fs, cache %.3fs) took longer than the composed call (%.3fs)",
			self.Seconds(), dir.Seconds(), cache.Seconds(), composed.Seconds())
	}
	return self
}

// ledger records the layer self times and the run's counters shared by
// the traced simulation workloads.
func (r *run) ledger(wall, untraced time.Duration, layers map[string]time.Duration, m obs.Metrics) {
	r.counters(m)
	r.set("apps.emit_s", layers["apps"].Seconds(), "s")
	r.set("trace.deliver_s", layers["trace"].Seconds(), "s")
	r.set("memsys.self_s", layers["memsys.self"].Seconds(), "s")
	r.set("coherence.dir_s", layers["coherence"].Seconds(), "s")
	r.set("workingset.knee_s", layers["workingset"].Seconds(), "s")
	r.set("core.render_s", layers["core"].Seconds(), "s")
	r.set("traced_wall_s", wall.Seconds(), "s")
	r.set("trace_overhead_s", (wall - untraced).Seconds(), "s")
	r.note("untraced wall %.3fs, traced wall %.3fs, tracing overhead %.3fs", untraced.Seconds(), wall.Seconds(), (wall - untraced).Seconds())
}

// coverage reports the share of traced wall the attributed layer self
// times cover; the remainder is unattributed_s. Where required, a share
// under 90% is a failure: unattributed time is a gap in the ledger.
func (r *run) coverage(wall time.Duration, layers map[string]time.Duration, required bool) {
	var attributed time.Duration
	for _, d := range layers {
		attributed += d
	}
	un := wall - attributed
	r.set("unattributed_s", un.Seconds(), "s")
	layers["unattributed"] = un
	r.noteLedger(wall, layers)
	share := attributed.Seconds() / wall.Seconds()
	r.note("attributed %.1f%% of traced wall", 100*share)
	if !required {
		return
	}
	r.attempted++
	if share < 0.9 {
		r.fail("attributed self time covers %.1f%% of traced wall, below 90%%", 100*share)
	}
}

// fig6Report assembles Figure 6's report from the profiler exactly as
// the fig6 experiment does, timing the curve query (cache) and the knee
// extraction (workingset) inside it.
func fig6Report(t *tracer, n int, prof cache.Profiler) *core.Report {
	caps := workingset.BytesToLines(workingset.LogSizes(64, 4<<20, 2), prof.LineSize())
	var counts []cache.MissCount
	t.do("cache", func() { counts = prof.Curve(caps) })
	pts := make([]workingset.Point, len(counts))
	for i, mc := range counts {
		pts[i] = workingset.Point{
			CacheBytes: uint64(mc.CapacityLines) * uint64(prof.LineSize()),
			MissRate:   float64(mc.ReadMisses) / float64(prof.Reads()),
		}
	}
	r := &core.Report{Title: "Figure 6 (Barnes-Hut working sets)"}
	r.Figures = append(r.Figures, core.Figure{
		Title:  fmt.Sprintf("Barnes-Hut simulated, n=%d theta=1.0 p=4", n),
		XLabel: "cache size", YLabel: "read miss rate",
		Series: []core.Series{{Label: "measured", Points: pts}},
	})
	var h workingset.Hierarchy
	t.do("workingset", func() {
		c := workingset.Curve{Label: "measured", Points: pts}
		h = workingset.FromKnees("Barnes-Hut", workingset.FindKnees(&c, 1.6, 0.005))
	})
	tbl := core.Table{Title: "measured hierarchy", Header: []string{"level", "size", "miss rate after", "what it is"}}
	for _, l := range h.Levels {
		tbl.Rows = append(tbl.Rows, []string{l.Name, workingset.FormatBytes(l.SizeBytes), fmt.Sprintf("%.4g", l.MissRate), l.Note})
	}
	r.Tables = append(r.Tables, tbl)
	r.AddNote("paper landmarks: lev1WS ~0.7 KB (to ~20%%), lev2WS ~20 KB for n=1024 (to near the ~0.2%% communication rate)")
	r.AddNote("scaling model lev2WS for n=%d: %s", n, workingset.FormatBytes(scaling.BHWorkingSet(float64(n), 1.0)))
	return r
}

// ---------------------------------------------------------------- sharing1024

func tracedSharing(r *run) error {
	r.shards = runtime.NumCPU()
	rs := startRuntimeSampler()
	var rep0 *core.Report
	var err error
	wall0, _ := timed(func() {
		rep0, err = wss.Run(obs.With(context.Background(), obs.New()), "sharing1024",
			core.Options{MachineShards: r.shards})
	})
	r.attempted++
	if err != nil {
		r.fail("sharing1024 untraced reference: %v", err)
	} else {
		r.checkDigest(r.workload, sha(reportText(rep0)))
	}
	runtime.GC()

	// The workload as it runs: the sharded engine, with the composed
	// machine call timed on the producer side (enqueue, back-pressure
	// and the Close drain) while the shard workers run alongside.
	rec := obs.New()
	t := newTracer()
	sr, err := r.sharingRebuild(t, rec, r.shards, false)
	if err != nil {
		return err
	}
	r.attempted++
	r.checkDigest(r.workload, sha(sr.text))

	// The split runs on the serial engine, where one goroutine does the
	// directory and cache work inside the composed call; it must produce
	// the same report.
	ts := newTracer()
	serial, err := r.sharingRebuild(ts, nil, 0, true)
	if err != nil {
		return err
	}
	r.attempted++
	r.checkDigest(r.workload, sha(serial.text))

	self := t.self()
	producer := t.total("memsys")
	dirS, lruS := ts.total("coherence"), ts.total("cache.replay")
	layers := map[string]time.Duration{
		"apps": self["apps"], "trace": self["trace"],
		"memsys.self": r.memsysSelf(ts.total("memsys"), dirS, lruS), "coherence": dirS,
		"cache": lruS, "core": self["core"],
	}
	r.ledger(sr.wall, wall0, layers, rec.Snapshot())
	r.set("cache.lru_s", lruS.Seconds(), "s")
	r.set("cache.accesses", float64(sr.accesses), "count")
	r.set("core.report_bytes", float64(len(sr.text)), "count")
	r.extra["memsys.sharded_producer_s"] = producer.Seconds()
	r.note("sharded engine: producer-side memsys %.3fs; memsys.self_s, coherence.dir_s and cache.lru_s come from the serial split (serial wall %.3fs)",
		producer.Seconds(), serial.wall.Seconds())
	r.coverage(sr.wall, map[string]time.Duration{
		"apps": self["apps"], "trace": self["trace"], "memsys": producer, "core": self["core"],
	}, false)
	rs.finish(r)
	r.finishLedger()
	return nil
}

// sharingResult is one rebuilt sharing1024 run.
type sharingResult struct {
	text     []byte        // report text without metrics
	wall     time.Duration // traced wall, replays excluded
	accesses uint64        // cache accesses in measured epochs
}

// sharingRebuild runs sharing1024 at full scale on the machine engine
// shards selects (0 = serial), assembling the report as the experiment
// does. With split set, each block is replayed into the directory and
// the LRU caches alone, and the replays must reproduce the composed
// run's statistics.
func (r *run) sharingRebuild(t *tracer, rec *obs.Recorder, shards int, split bool) (*sharingResult, error) {
	const p, n, iters, warm = 1024, 128, 4, 1
	const cacheBytes = 4 << 10
	px := int(math.Sqrt(p))
	lineSizes := []uint32{8, 16, 32, 64}
	ctx := obs.With(context.Background(), rec)
	res := &sharingResult{}
	root := t.begin("run")
	rep := &core.Report{Title: fmt.Sprintf("Sharing at P=%d (CG %dx%d)", p, n, n)}
	remote := core.Series{Label: "remote misses / FLOP"}
	tbl := core.Table{
		Title: "communication vs line size",
		Header: []string{
			"line", "local miss", "remote miss", "invalidations",
			"downgrades", "FLOPs/word", "sustainability",
		},
	}
	measuredFLOPs := float64(iters-warm) * 20 * float64(n) * float64(n)
	for _, ls := range lineSizes {
		capLines := int(cacheBytes / ls)
		var sys memsys.Machine
		var err error
		t.do("memsys", func() {
			sys, err = memsys.Open(memsys.Config{
				PEs: p, LineSize: ls, Dist: memsys.Interleaved, CacheCapacity: capLines,
				ProfilePE: -1, WarmupEpochs: warm, Shards: shards,
			})
			if err == nil {
				sys.Instrument(rec)
			}
		})
		if err != nil {
			return nil, err
		}
		var sp *splitter
		var caches []*cache.LRU
		if split {
			t.do("bench.split", func() { sp, caches, err = newLRUSplitter(t, p, ls, capLines, warm) })
			if err != nil {
				sys.Close()
				return nil, err
			}
		}
		f := &front{t: t, next: trace.WithContext(ctx, &back{t: t, sys: sys, split: sp}), rec: rec}
		t.do("apps", func() {
			var part *cg.Partition2D
			if part, err = cg.NewPartition2D(n, px, p/px, nil); err != nil {
				return
			}
			solver := cg.NewSolver2D(part, f)
			b := make([]float64, n*n)
			for i := range b {
				b[i] = 1
			}
			solver.SetB(b)
			_, err = solver.Solve(cg.Config{MaxIters: iters})
		})
		if err == nil {
			t.do("memsys", func() { err = sys.Close() })
		}
		if err != nil {
			sys.Close()
			return nil, err
		}
		if sp != nil {
			sp.flush()
		}
		var st memsys.Stats
		var ds coherence.Stats
		var cs cache.Stats
		t.do("memsys", func() { st, ds, cs = sys.Stats(), sys.DirectoryStats(), sys.CacheStats() })
		t.do("core", func() {
			words := float64(st.RemoteMisses) * float64(ls) / 8
			ratio := math.Inf(1)
			if words > 0 {
				ratio = measuredFLOPs / words
			}
			remote.Points = append(remote.Points, workingset.Point{CacheBytes: uint64(ls), MissRate: float64(st.RemoteMisses) / measuredFLOPs})
			tbl.Rows = append(tbl.Rows, []string{
				workingset.FormatBytes(uint64(ls)), fmt.Sprint(st.LocalMisses), fmt.Sprint(st.RemoteMisses),
				fmt.Sprint(ds.Invalidations), fmt.Sprint(ds.Downgrades), fmt.Sprintf("%.1f", ratio),
				machine.Classify(ratio).String(),
			})
		})
		res.accesses += cs.Reads + cs.Writes
		if !split {
			continue
		}

		var rcs cache.Stats
		for _, c := range caches {
			rcs.Add(c.Stats())
		}
		r.attempted++
		if got := sp.dir.Stats(); got != ds {
			r.fail("line %d: directory replay %+v differs from the composed run %+v", ls, got, ds)
		}
		if rcs != cs {
			r.fail("line %d: cache replay %+v differs from the composed run %+v", ls, rcs, cs)
		}
	}
	t.do("core", func() {
		rep.Figures = append(rep.Figures, core.Figure{
			Title:  fmt.Sprintf("CG %dx%d, P=%d, %s caches", n, n, p, workingset.FormatBytes(cacheBytes)),
			XLabel: "line size", YLabel: "remote misses / FLOP",
			Series: []core.Series{remote},
		})
		rep.Tables = append(rep.Tables, tbl)
		rep.AddNote("machine context: %s; %s", machine.Paragon(p), machine.CM5(p))
		rep.AddNote("remote data moved counts measured epochs only (%d of %d iterations); words are double words, matching the Section 2.3 ratios", iters-warm, iters)
	})
	t.do("core", func() { res.text = reportText(rep) })
	t.end(root)
	res.wall = t.spans[root].end - t.spans[root].start - replayed(t)
	return res, nil
}

// newLRUSplitter builds a splitter over a standalone directory and one
// standalone LRU cache per PE, as sharing1024's machine has.
func newLRUSplitter(t *tracer, pes int, ls uint32, capLines, warm int) (*splitter, []*cache.LRU, error) {
	sp, err := newSplitter(t, pes, ls, warm, func(int) bool { return true })
	if err != nil {
		return nil, nil, err
	}
	caches := make([]*cache.LRU, pes)
	for pe := range caches {
		if caches[pe], err = cache.NewLRU(capLines, ls); err != nil {
			return nil, nil, err
		}
	}
	sp.access = func(pe int, addr uint64, read bool) { caches[pe].Access(addr, read) }
	sp.invalidate = func(pe int, addr uint64) { caches[pe].Invalidate(addr) }
	sp.measure = func() {
		for _, c := range caches {
			c.ResetStats()
		}
	}
	return sp, caches, nil
}

// ---------------------------------------------------------------- suite-quick

// capturedKernels are the kernel configurations the quick suite records
// into its capture store (fig6 and gridbh at quick scale), with the
// epochs each recording covers.
var capturedKernels = []struct {
	n, steps int
}{{256, 4}, {192, 3}}

func tracedSuite(r *run) error {
	r.suiteWorkers = 1
	rs := startRuntimeSampler()
	sopt := core.SuiteOptions{Options: core.Options{Scale: core.ScaleQuick}, Workers: r.suiteWorkers}
	var sr *core.SuiteReport
	wall0, _ := timed(func() { sr = wss.RunSuite(obs.With(context.Background(), obs.New()), core.Registry(), sopt) })
	r.checkSuite(sr)
	runtime.GC()

	rec := obs.New()
	capt := capture.New(0)
	ctx := capture.With(obs.With(context.Background(), rec), capt)
	t := newTracer()
	exps := core.Registry()
	for i := range exps {
		name, run := "core.exp."+exps[i].ID, exps[i].Run
		// One suite worker runs the experiments one at a time, so the
		// spans nest under the root without overlapping.
		exps[i].Run = func(ctx context.Context, o core.Options) (rep *core.Report, err error) {
			t.do(name, func() { rep, err = run(ctx, o) })
			return rep, err
		}
	}
	root := t.begin("run")
	sr = wss.RunSuite(ctx, exps, sopt)
	var bytes int
	t.do("core", func() {
		for _, res := range sr.Results {
			if res.Report != nil {
				bytes += len(reportText(res.Report))
			}
		}
	})
	t.end(root)
	wall := t.spans[root].end - t.spans[root].start
	r.checkSuite(sr)

	// The capture layer's replay cost: each recording the suite made,
	// replayed once into a counting sink.
	var replayed trace.BlockCounter
	hits := 0
	for _, k := range capturedKernels {
		key := capture.Keyf("barneshut", "n=%d p=%d theta=%g eps=0.05 dt=0.003 quad seed=42", k.n, 4, 1.0)
		var err error
		t.do("capture", func() {
			err = capt.Run(context.Background(), key, k.steps, &replayed, func(trace.Consumer) error {
				return fmt.Errorf("capture %s was not recorded by the suite", key)
			})
		})
		r.attempted++
		if err != nil {
			r.fail("%v", err)
		} else {
			hits++
		}
	}
	r.note("capture replay: %d recordings, %d refs replayed", hits, replayed.Counter.Refs)
	if err := r.fanoutDelivery(t, capt); err != nil {
		return err
	}

	self := t.self()
	layers := map[string]time.Duration{"core": self["core"]}
	var expSum time.Duration
	for _, e := range core.Registry() {
		d := t.total("core.exp." + e.ID)
		r.set("core.exp_s."+e.ID, d.Seconds(), "s")
		expSum += d
	}
	layers["experiments"] = expSum
	m := rec.Snapshot()
	r.ledger(wall, wall0, layers, m)
	// The two probes run after the suite, outside its traced wall.
	r.set("capture.replay_s", t.total("capture").Seconds(), "s")
	r.set("trace.deliver_s", t.total("trace").Seconds(), "s")
	r.set("core.report_bytes", float64(bytes), "count")
	r.set("cache.accesses", float64(m.Counter(cache.MetricProfilerAccesses)), "count")
	un := wall - expSum - self["core"]
	r.set("unattributed_s", un.Seconds(), "s")
	layers["unattributed"] = un
	r.noteLedger(wall, layers)
	rs.finish(r)
	r.finishLedger()
	return nil
}

// recordSink keeps a replayed stream in memory with its epoch
// boundaries: epoch n began before refs[at].
type recordSink struct {
	refs   []trace.Ref
	epochs []epochMark
}

type epochMark struct{ at, n int }

func (k *recordSink) Ref(r trace.Ref)        { k.refs = append(k.refs, r) }
func (k *recordSink) Refs(block []trace.Ref) { k.refs = append(k.refs, block...) }
func (k *recordSink) BeginEpoch(n int) {
	k.epochs = append(k.epochs, epochMark{at: len(k.refs), n: n})
}

// fanoutDelivery times the trace layer's fan-out on the suite's own
// stream: fig6dm's quick replay (the n=256 recording cut at 3 epochs) is
// read into memory, then delivered in 512-reference blocks through a
// trace.Fanout to as many consumers as fig6dm attaches, each only
// counting, so the "trace" span holds the fan-out's publish, copy and
// hand-off work and no simulation.
func (r *run) fanoutDelivery(t *tracer, capt *capture.Store) error {
	var in recordSink
	key := capture.Keyf("barneshut", "n=%d p=%d theta=%g eps=0.05 dt=0.003 quad seed=42", 256, 4, 1.0)
	if err := capt.Run(context.Background(), key, 3, &in, func(trace.Consumer) error {
		return fmt.Errorf("capture %s was not recorded by the suite", key)
	}); err != nil {
		return err
	}
	members := 1 + len(workingset.LogSizes(1024, 1<<20, 1))
	counters := make([]trace.BlockCounter, members)
	consumers := make([]trace.Consumer, members)
	for i := range counters {
		consumers[i] = &counters[i]
	}
	fan, err := trace.NewFanout(consumers...)
	if err != nil {
		return err
	}
	t.do("trace", func() {
		pos := 0
		deliver := func(end int) {
			for pos < end {
				next := min(pos+trace.DefaultBlockSize, end)
				fan.Refs(in.refs[pos:next])
				pos = next
			}
		}
		for _, e := range in.epochs {
			deliver(e.at)
			fan.BeginEpoch(e.n)
		}
		deliver(len(in.refs))
		err = fan.Close()
	})
	r.attempted++
	if err != nil {
		r.fail("fan-out delivery: %v", err)
		return nil
	}
	for i := range counters {
		if got := counters[i].Counter.Refs; got != uint64(len(in.refs)) {
			r.fail("fan-out member %d received %d of %d refs", i, got, len(in.refs))
		}
	}
	r.note("fan-out delivery: %d refs to %d members", len(in.refs), members)
	return nil
}
