package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"wsstudy/internal/obs"
	"wsstudy/internal/trace"
)

// The traced run's span ledger. Spans are recorded by the benchmark
// around its calls into a layer, on the goroutine that makes the calls,
// once per 512-reference block and never per reference. A layer's self
// time is its span time minus the time of the spans nested inside it.

type span struct {
	name       string
	start, end time.Duration
	parent     int32
}

type tracer struct {
	t0    time.Time
	spans []span
	stack []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	t.spans[id].end = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
}

// do wraps f in a span.
func (t *tracer) do(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// self sums each span name's self time.
func (t *tracer) self() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.name] += s.end - s.start - child[i]
	}
	return out
}

// total sums the full durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// finishLedger fills every per-layer metric the workload did not set
// with 0: the workload does not exercise that layer.
func (r *run) finishLedger() {
	for _, m := range spec.PerLayer {
		if _, ok := r.metrics[m.Name]; !ok {
			r.set(m.Name, 0, m.Unit)
		}
	}
}

// counters copies the obs counters every simulation workload shares into
// the ledger.
func (r *run) counters(m obs.Metrics) {
	r.set("apps.refs", float64(m.Counter(obs.RefsDelivered)), "count")
	r.set("trace.blocks", float64(m.Counter(obs.BlocksDelivered)), "count")
	r.set("trace.fanout_stalls", float64(m.Counter(trace.MetricFanoutStalls)), "count")
	r.set("capture.hits", float64(m.Counter(obs.CaptureHits)), "count")
	r.set("capture.misses", float64(m.Counter(obs.CaptureMisses)), "count")
	r.set("coherence.lines", float64(lines(m)), "count")
	r.set("coherence.invalidations", float64(m.Counter("coherence.invalidations")), "count")
	r.set("memsys.shard_stalls", float64(m.Counter("memsys.shard.stalls")), "count")
	r.set("memsys.barriers", float64(m.Counter("memsys.barriers")), "count")
	r.set("cache.misses", float64(m.Counter("memsys.local_misses")+m.Counter("memsys.remote_misses")), "count")
}

// runtimeSampler tracks the Go runtime's GC CPU time and peak heap over
// a traced run.
type runtimeSampler struct {
	gc0  float64
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

var rtNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/memory/classes/heap/objects:bytes"}

func readRuntime() (gcCPU float64, heap uint64) {
	s := []metrics.Sample{{Name: rtNames[0]}, {Name: rtNames[1]}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Uint64()
}

func startRuntimeSampler() *runtimeSampler {
	rs := &runtimeSampler{stop: make(chan struct{})}
	rs.gc0, rs.peak = readRuntime()
	rs.done.Add(1)
	go func() {
		defer rs.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-rs.stop:
				return
			case <-tick.C:
				if _, h := readRuntime(); h > rs.peak {
					rs.peak = h
				}
			}
		}
	}()
	return rs
}

// finish stops sampling and records the runtime layer's metrics.
func (rs *runtimeSampler) finish(r *run) {
	close(rs.stop)
	rs.done.Wait()
	gc, h := readRuntime()
	if h > rs.peak {
		rs.peak = h
	}
	r.set("runtime.gc_cpu_s", gc-rs.gc0, "s")
	r.set("runtime.heap_peak_mb", float64(rs.peak)/(1<<20), "MB")
}

// noteLedger prints the per-layer self times as shares of traced wall.
func (r *run) noteLedger(wall time.Duration, layers map[string]time.Duration) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	r.note("layer ledger (self time, share of traced wall %.3fs):", wall.Seconds())
	for _, n := range names {
		r.note("  %-12s %9.3fs %6.1f%%", n, layers[n].Seconds(), 100*layers[n].Seconds()/wall.Seconds())
	}
}
