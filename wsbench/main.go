// Command wsbench is the repository benchmark: four workloads that drive
// wsstudy from outside, an untraced mode that measures the end-to-end
// metrics, and a traced mode that rebuilds each workload's pipeline from
// the packages' public functions and reports a per-layer ledger.
//
// It is normally started through run.sh, which builds it and the wsstudy
// binary first:
//
//	bash wsbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the
// workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the machine-readable verdict printed as the last line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one benchmark invocation accumulates: the verdict and
// its metrics, plus the extra lines and facts that only the human-readable
// report and the result file carry.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	root     string // checkout root
	wsstudy  string // built wsstudy binary (serve-zipf nodes)

	shards       int // machine shards used (sharing1024)
	suiteWorkers int // suite workers used (suite-quick)

	attempted, failed int
	failures          []string
	metrics           map[string]metric
	extra             map[string]any // result-file facts beyond metrics
	notes             []string       // human-readable lines
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed operation and keeps the first few reasons.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 16 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	untraced func(*run) error
	traced   func(*run) error
}{
	"fig6-full":   {untracedFig6, tracedFig6},
	"sharing1024": {untracedSharing, tracedSharing},
	"suite-quick": {untracedSuite, tracedSuite},
	"serve-zipf":  {untracedServe, tracedServe},
}

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wsbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("wsbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: fig6-full, sharing1024, suite-quick or serve-zipf")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "measurement budget of one run in seconds")
	traceMode := fs.Int("trace", 0, "0 measures the end-to-end metrics, 1 the per-layer ledger")
	root := fs.String("root", ".", "checkout root")
	bin := fs.String("wsstudy", "", "wsstudy binary for the serve-zipf nodes")
	probe := fs.String("probe", "", "internal: time-to-ready probe for the named workload")
	calib := fs.Bool("calib", false, "internal: time one calibration sample and print its seconds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *calib {
		printCalib()
		return nil
	}
	if *probe != "" {
		return setupProbe(*probe)
	}
	w, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(names, ", "))
	}
	if *traceMode != 0 && *traceMode != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traceMode)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *traceMode == 1,
		root: *root, wsstudy: *bin,
		metrics: map[string]metric{}, extra: map[string]any{},
	}
	if err := loadSpec(*root); err != nil {
		return err
	}
	digests, err := loadDigests(*root)
	if err != nil {
		return err
	}
	pinned = digests

	drive := w.untraced
	if r.traced {
		drive = w.traced
	}
	if err := drive(r); err != nil {
		return err
	}
	if r.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	if err := r.selectMetrics(); err != nil {
		return err
	}
	out := outcome{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	host := hostBlock(r)
	report(os.Stdout, r, host)
	if err := writeResultFile(r, host, out); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// spec is the metric part of BENCHMARK.json: the one list of the
// end-to-end and per-layer metrics and their units.
var spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(root string) error {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fmt.Errorf("reading the metric list: %w", err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("decoding BENCHMARK.json: %w", err)
	}
	return nil
}

// selectMetrics keeps exactly the metrics of the run's mode in the
// verdict — the end-to-end set untraced, the per-layer set traced — and
// moves anything else to the result file.
func (r *run) selectMetrics() error {
	want := spec.EndToEnd
	if r.traced {
		want = spec.PerLayer
	}
	keep := map[string]metric{}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s did not measure %s", r.workload, m.Name)
		}
		if v.Unit != m.Unit {
			return fmt.Errorf("%s measured %s in %s, BENCHMARK.json says %s", r.workload, m.Name, v.Unit, m.Unit)
		}
		keep[m.Name] = v
		delete(r.metrics, m.Name)
	}
	for n, v := range r.metrics {
		r.extra[n] = v
	}
	r.metrics = keep
	return nil
}

// report prints the human-readable summary: the host block, every metric
// by name and unit, the workload's notes and any failures.
func report(w io.Writer, r *run, host map[string]any) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== wsbench %s (%s, seed %d, %gs) ==\n", r.workload, mode, r.seed, r.seconds)
	keys := make([]string, 0, len(host))
	for k := range host {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "host %-14s %v\n", k, host[k])
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
}

// writeResultFile archives the run, host block included, under
// .bench_build/results in the checkout.
func writeResultFile(r *run, host map[string]any, out outcome) error {
	dir := filepath.Join(r.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := 0
	if r.traced {
		mode = 1
	}
	doc := map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": r.seconds, "trace": mode,
		"host": host, "result": out, "facts": r.extra, "notes": r.notes, "failures": r.failures,
		"finished": time.Now().UTC().Format(time.RFC3339),
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, r.seed, mode)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// hostBlock describes the machine and build a run was measured on.
func hostBlock(r *run) map[string]any {
	h := map[string]any{
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"commit":     commit(r.root),
		"seed":       r.seed,
		// 0 means the serial engine, or no suite.
		"machine_shards": r.shards,
		"suite_workers":  r.suiteWorkers,
	}
	return h
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git when the checkout has
// one; a plain source tree reports "unknown".
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}
