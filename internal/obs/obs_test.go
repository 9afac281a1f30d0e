package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety exercises every handle and the Recorder itself through nil
// receivers: the disabled mode must be callable from any instrumentation
// site without checks.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 || g.Max() != 0 {
		t.Fatalf("nil gauge = %d/%d", g.Value(), g.Max())
	}
	var h *Histogram
	h.Observe(time.Second)

	var r *Recorder
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil recorder must hand out nil handles")
	}
	r.Observe("x", time.Second)
	r.SetLabel("k", "v")
	if r.Label("k") != "" {
		t.Fatal("nil recorder label must be empty")
	}
	if r.NewChild() != nil {
		t.Fatal("nil recorder must not create children")
	}
	if !r.Snapshot().Empty() {
		t.Fatal("nil recorder snapshot must be empty")
	}
	r.Fold(nil)
}

// TestRecorderConcurrency hammers one Recorder from many goroutines; run
// under -race this is the data-race gate for the whole layer.
func TestRecorderConcurrency(t *testing.T) {
	r := New()
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("refs")
			g := r.Gauge("busy")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				r.Counter("blocks").Add(2)
				g.Add(1)
				g.Add(-1)
				if i%1000 == 0 {
					r.Observe("wall", time.Duration(i)*time.Microsecond)
					r.SetLabel("current", "exp")
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	m := r.Snapshot()
	if got := m.Counter("refs"); got != workers*perWorker {
		t.Errorf("refs = %d, want %d", got, workers*perWorker)
	}
	if got := m.Counter("blocks"); got != 2*workers*perWorker {
		t.Errorf("blocks = %d, want %d", got, 2*workers*perWorker)
	}
	if m.Gauges["busy"].Value != 0 {
		t.Errorf("busy gauge = %d, want 0", m.Gauges["busy"].Value)
	}
	if m.Gauges["busy"].Max < 1 {
		t.Errorf("busy max = %d, want >= 1", m.Gauges["busy"].Max)
	}
	if m.Durations["wall"].Count != workers*perWorker/1000 {
		t.Errorf("wall count = %d", m.Durations["wall"].Count)
	}
}

// TestChildFold verifies isolation and aggregation: children are visible
// in the parent's live snapshot, folding moves their state into the parent
// and detaches them.
func TestChildFold(t *testing.T) {
	parent := New()
	parent.Counter("refs").Add(10)

	a := parent.NewChild()
	b := parent.NewChild()
	a.Counter("refs").Add(100)
	a.Observe("wall", 2*time.Millisecond)
	b.Counter("refs").Add(1000)
	b.SetLabel("current", "fig6")

	live := parent.Snapshot()
	if got := live.Counter("refs"); got != 1110 {
		t.Fatalf("live refs = %d, want 1110 (parent + both children)", got)
	}
	if live.Labels["current"] != "fig6" {
		t.Fatalf("live label missing: %q", live.Labels["current"])
	}

	ma := parent.Fold(a)
	if got := ma.Counter("refs"); got != 100 {
		t.Fatalf("folded child refs = %d, want 100", got)
	}
	if ma.Durations["wall"].Count != 1 {
		t.Fatalf("folded child wall count = %d", ma.Durations["wall"].Count)
	}
	// a's state moved into the parent; b still attached and counted once.
	after := parent.Snapshot()
	if got := after.Counter("refs"); got != 1110 {
		t.Fatalf("post-fold refs = %d, want 1110", got)
	}
	parent.Fold(b)
	final := parent.Snapshot()
	if got := final.Counter("refs"); got != 1110 {
		t.Fatalf("final refs = %d, want 1110", got)
	}
	if final.Durations["wall"].Count != 1 {
		t.Fatalf("final wall count = %d", final.Durations["wall"].Count)
	}
}

// TestContextPlumbing verifies With/From and that the absent case yields a
// usable nil Recorder.
func TestContextPlumbing(t *testing.T) {
	if From(context.Background()) != nil {
		t.Fatal("background context must carry no recorder")
	}
	if From(nil) != nil {
		t.Fatal("nil context must carry no recorder")
	}
	r := New()
	ctx := With(context.Background(), r)
	if From(ctx) != r {
		t.Fatal("recorder lost in context round trip")
	}
	// Detach.
	if From(With(ctx, nil)) != nil {
		t.Fatal("With(ctx, nil) must detach the recorder")
	}
	// With(nil, rec) must not panic and must carry the recorder.
	if From(With(nil, r)) != r {
		t.Fatal("With(nil, rec) must still attach")
	}
}

// TestHistogramStats checks summary fields and bucket placement.
func TestHistogramStats(t *testing.T) {
	h := &Histogram{}
	h.Observe(500 * time.Nanosecond) // bucket 0
	h.Observe(3 * time.Microsecond)  // bucket 2: [2us, 4us)
	h.Observe(time.Millisecond)
	s := h.stats()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 500*time.Nanosecond || s.Max != time.Millisecond {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Sum != 500*time.Nanosecond+3*time.Microsecond+time.Millisecond {
		t.Fatalf("sum = %v", s.Sum)
	}
	if len(s.Buckets) == 0 || s.Buckets[0] != 1 || s.Buckets[2] != 1 {
		t.Fatalf("buckets = %v", s.Buckets)
	}
	if s.Mean() != s.Sum/3 {
		t.Fatalf("mean = %v", s.Mean())
	}
}

// TestMetricsJSONRoundTrip ensures the machine-readable dump decodes back
// to the same snapshot.
func TestMetricsJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("trace.refs").Add(42)
	r.Gauge("suite.workers.busy").Add(3)
	r.Observe("experiment.wall", 5*time.Millisecond)
	r.SetLabel("experiment.current", "table2")
	m := r.Snapshot()

	var sb strings.Builder
	if err := m.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var back Metrics
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("trace.refs") != 42 {
		t.Errorf("refs = %d", back.Counter("trace.refs"))
	}
	if back.Gauges["suite.workers.busy"].Max != 3 {
		t.Errorf("gauge max = %d", back.Gauges["suite.workers.busy"].Max)
	}
	if back.Durations["experiment.wall"].Sum != 5*time.Millisecond {
		t.Errorf("wall sum = %v", back.Durations["experiment.wall"].Sum)
	}
	if back.Labels["experiment.current"] != "table2" {
		t.Errorf("label = %q", back.Labels["experiment.current"])
	}
}

// TestMetricsRender sanity-checks the text rendering used by the report
// formatter.
func TestMetricsRender(t *testing.T) {
	r := New()
	r.Counter("b.counter").Inc()
	r.Counter("a.counter").Add(7)
	r.Observe("wall", time.Millisecond)
	var sb strings.Builder
	r.Snapshot().Render(&sb)
	out := sb.String()
	ia, ib := strings.Index(out, "a.counter"), strings.Index(out, "b.counter")
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("counters missing or unsorted:\n%s", out)
	}
	if !strings.Contains(out, "n=1 mean=1ms") {
		t.Fatalf("histogram line missing:\n%s", out)
	}
}

// TestProgress drives the reporter with a tiny interval and checks the
// status line carries refs, experiment label, completion and an ETA.
func TestProgress(t *testing.T) {
	r := New()
	r.Counter(RefsDelivered).Add(12345)
	r.Counter(SuiteTotal).Add(4)
	r.Counter(SuiteDone).Add(2)
	r.Gauge(WorkersBusy).Add(1)
	r.Observe(ExperimentWall, 10*time.Millisecond)
	r.SetLabel(LabelExperiment, "fig6dm")

	var mu sync.Mutex
	var sb strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(p)
	})

	p := StartProgress(r, w, time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	p.Stop()

	mu.Lock()
	out := sb.String()
	mu.Unlock()
	for _, want := range []string{"refs=12345", "fig6dm", "experiments=2/4", "eta="} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
	// Nil-safe start/stop.
	StartProgress(nil, w, time.Millisecond).Stop()
	StartProgress(r, nil, time.Millisecond).Stop()
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestTallyStagesUntilFlush pins the staging contract: increments are
// invisible to the Counter until Flush, Flush publishes them exactly once,
// and staging restarts from zero after each flush.
func TestTallyStagesUntilFlush(t *testing.T) {
	rec := New()
	tl := rec.Tally("x")
	for i := 0; i < 5; i++ {
		tl.Inc()
	}
	if got := rec.Counter("x").Value(); got != 0 {
		t.Fatalf("counter before Flush = %d, want 0 (increments are staged)", got)
	}
	tl.Flush()
	if got := rec.Counter("x").Value(); got != 5 {
		t.Fatalf("counter after Flush = %d, want 5", got)
	}
	tl.Flush()
	if got := rec.Counter("x").Value(); got != 5 {
		t.Fatalf("second Flush with nothing staged moved the counter to %d", got)
	}
	tl.Inc()
	tl.Inc()
	tl.Flush()
	if got := rec.Snapshot().Counter("x"); got != 7 {
		t.Fatalf("snapshot after second batch = %d, want 7", got)
	}
}

// TestTallyNilCounter holds the disabled mode: the zero Tally and one from
// a nil Recorder stage and drop on Flush, and a flush restarts staging so
// nothing accumulates across blocks.
func TestTallyNilCounter(t *testing.T) {
	var r *Recorder
	for _, tl := range []Tally{{}, r.Tally("x")} {
		tl.Inc()
		tl.Inc()
		tl.Flush()
		if tl.n != 0 {
			t.Fatalf("Flush over a nil Counter left %d staged", tl.n)
		}
	}
}

// TestTallySharedCounter holds the per-owner sharing pattern the sharded
// engine uses: several goroutines each own a Tally over the same Counter,
// and the Counter's total after every flush is the sum of all increments.
func TestTallySharedCounter(t *testing.T) {
	rec := New()
	const owners, blocks, perBlock = 4, 50, 100
	var wg sync.WaitGroup
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tl := rec.Tally("shared")
			for b := 0; b < blocks; b++ {
				for i := 0; i < perBlock; i++ {
					tl.Inc()
				}
				tl.Flush()
			}
		}()
	}
	wg.Wait()
	if got, want := rec.Counter("shared").Value(), uint64(owners*blocks*perBlock); got != want {
		t.Fatalf("shared counter = %d, want %d", got, want)
	}
}
