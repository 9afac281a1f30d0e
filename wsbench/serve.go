package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"wsstudy/internal/cluster"
	"wsstudy/internal/core"
	"wsstudy/internal/obs"
	"wsstudy/internal/store"
)

// The serve-zipf workload: a 2-node cluster answering gridbh quick cells.
// The hot phase reads warmed keys at fixed open-loop rates; the cold
// phase asks one closed-loop client for fresh cells, which the cluster
// computes (or peer-fills) and inserts into its stores.

const serveExperiment = "gridbh"

// hotCaches are the warmed keys' opt.cache values; their report digests
// are pinned.
var hotCaches = []int{1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072}

const (
	serveNodes = 2
	// The cold phase asks for coldCells fresh cells in coldRounds equal
	// rounds; wall_s and sim_lines_per_s are medians over the rounds.
	coldCells  = 30
	coldRounds = 3
	// serveSetups is how many times a run boots and warms a cluster;
	// setup_s is the median and the last cluster is measured.
	serveSetups = 3
)

func cellQuery(cache int) string { return fmt.Sprintf("opt.scale=quick&opt.cache=%d", cache) }

func cellURL(base string, cache int) string {
	return base + "/v1/experiments/" + serveExperiment + "/report?" + cellQuery(cache)
}

// coldCaches draws the seeded fresh cells: distinct multiples of 64
// bytes between 1 KB and 512 KB that are not hot keys.
func coldCaches(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	hot := map[int]bool{}
	for _, c := range hotCaches {
		hot[c] = true
	}
	var out []int
	for len(out) < coldCells {
		c := 64 * (16 + rng.Intn(8192-16))
		if !hot[c] {
			hot[c] = true
			out = append(out, c)
		}
	}
	return out
}

// coldOwners finds each cold cell's ring owner, as the cluster's own
// ring places the cell's result key.
func coldOwners(cold []int) ([]int, error) {
	ids := make([]string, serveNodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i)
	}
	ring, err := cluster.NewRing(ids, 0)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(cold))
	for i, c := range cold {
		key := store.KeyFor(serveExperiment, core.Options{Scale: core.ScaleQuick, CacheBytes: uint64(c)})
		for n, id := range ids {
			if ring.Owner(key) == id {
				out[i] = n
			}
		}
	}
	return out, nil
}

// nodes is a running cluster: its base URLs and a way to read every
// node's obs metrics.
type nodes interface {
	bases() []string
	metrics() ([]obs.Metrics, error)
	cpu() time.Duration // CPU time of the processes under test so far
	stop() error
}

// serveResult is what one measured serve-zipf run observed.
type serveResult struct {
	setups  []float64
	hot     []rateResult
	hotReqs [][]*request // per rate and round
	coldLat []float64    // seconds, requests to the owner (computing)
	fillLat []float64    // seconds, requests to the other node (peer-fill)
	// wall seconds and simulated lines per second of each cold round
	coldWalls, coldRates []float64
	// CPU seconds of the processes under test over each hot round, and
	// their median
	cpuRounds []float64
	cpu       float64
	// node metrics at the phase boundaries of the measured cluster
	beforeHot, afterHot, afterCold []obs.Metrics
}

// sumDur adds one histogram's count and sum over every node.
func sumDur(ms []obs.Metrics, name string) (uint64, time.Duration) {
	var n uint64
	var d time.Duration
	for _, m := range ms {
		ds := m.Durations[name]
		n += ds.Count
		d += ds.Sum
	}
	return n, d
}

func computes(ms []obs.Metrics) uint64 {
	n, _ := sumDur(ms, "store.compute.wall")
	return n
}

// bodyDigest checks a 200 body is a schema-valid report and returns its
// digest: the text rendering with the metrics block dropped.
func bodyDigest(body []byte) (string, error) {
	var v core.ReportV1
	if err := json.Unmarshal(body, &v); err != nil {
		return "", fmt.Errorf("unreadable report body: %w", err)
	}
	if v.SchemaVersion < core.MinReportSchemaVersion || v.SchemaVersion > core.ReportSchemaVersion {
		return "", fmt.Errorf("report schema %d outside [%d, %d]", v.SchemaVersion, core.MinReportSchemaVersion, core.ReportSchemaVersion)
	}
	return sha(reportText(v.Report())), nil
}

// get performs one unscheduled GET and returns its body on a 200.
func get(client *http.Client, url string) ([]byte, error) {
	var q request
	do(client, url, &q)
	if q.err != nil {
		return nil, q.err
	}
	if q.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.120s", q.status, q.body)
	}
	return q.body, nil
}

// warm requests every hot key from every node, checks the bodies are
// byte-identical across nodes and match the pinned digests, and returns
// each key's body bytes.
func (r *run) warm(client *http.Client, ns nodes) [][]byte {
	ref := make([][]byte, len(hotCaches))
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, connsPerNode(serveNodes)*serveNodes)
	for k, c := range hotCaches {
		wg.Add(1)
		sem <- struct{}{}
		go func(k, c int) {
			defer wg.Done()
			defer func() { <-sem }()
			var bodies [][]byte
			var errs []string
			for _, b := range ns.bases() {
				body, err := get(client, cellURL(b, c))
				if err != nil {
					errs = append(errs, err.Error())
					continue
				}
				bodies = append(bodies, body)
			}
			mu.Lock()
			defer mu.Unlock()
			r.attempted += len(ns.bases())
			for _, e := range errs {
				r.fail("warm %s: %s", cellQuery(c), e)
			}
			if len(bodies) == 0 {
				return
			}
			for _, b := range bodies[1:] {
				if !bytes.Equal(b, bodies[0]) {
					r.fail("warm %s: nodes served different bytes", cellQuery(c))
				}
			}
			d, err := bodyDigest(bodies[0])
			if err != nil {
				r.fail("warm %s: %v", cellQuery(c), err)
				return
			}
			r.checkDigest("serve-zipf/"+cellQuery(c), d)
			ref[k] = bodies[0]
		}(k, c)
	}
	wg.Wait()
	return ref
}

// measureServe boots the cluster serveSetups times (boot plus warm-up is
// the setup time), keeps the last one, and runs the hot and cold phases
// against it. The caller stops the returned cluster.
func (r *run) measureServe(start func() (nodes, error)) (nodes, *serveResult, error) {
	res := &serveResult{}
	client := newClient(connsPerNode(serveNodes))
	defer client.CloseIdleConnections()
	var ns nodes
	var ref [][]byte
	for i := 0; i < serveSetups; i++ {
		t0 := time.Now()
		var err error
		if ns, err = start(); err != nil {
			return nil, nil, err
		}
		ref = r.warm(client, ns)
		res.setups = append(res.setups, time.Since(t0).Seconds())
		if i < serveSetups-1 {
			client.CloseIdleConnections()
			if err := ns.stop(); err != nil {
				return nil, nil, err
			}
		}
	}
	warmed, err := ns.metrics()
	if err != nil {
		return ns, nil, err
	}
	if got := computes(warmed); got != uint64(len(hotCaches)) {
		r.fail("warm-up computed %d times for %d keys (want each once cluster-wide)", got, len(hotCaches))
	}
	res.beforeHot = warmed

	urls := make([][]string, serveNodes)
	for n, b := range ns.bases() {
		for _, c := range hotCaches {
			urls[n] = append(urls[n], cellURL(b, c))
		}
	}
	rng := rand.New(rand.NewSource(r.seed))
	rounds := make([][][]*request, len(hotRates))
	var cpus []float64
	for round := 0; round < hotRounds; round++ {
		cpu0 := ns.cpu()
		for i, rate := range hotRates {
			reqs := hotSchedule(rng, len(hotCaches), serveNodes, hotCount(rate))
			openLoop(client, urls, reqs, rate)
			for _, q := range reqs {
				r.attempted++
				q.ok = q.err == nil && q.status == http.StatusOK && ref[q.key] != nil && bytes.Equal(q.body, ref[q.key])
				if !q.ok {
					r.fail("hot %s: status %d err %v", cellQuery(hotCaches[q.key]), q.status, q.err)
				}
				q.body = nil
			}
			rounds[i] = append(rounds[i], reqs)
			res.hotReqs = append(res.hotReqs, reqs)
		}
		cpus = append(cpus, (ns.cpu() - cpu0).Seconds())
	}
	for i, rate := range hotRates {
		res.hot = append(res.hot, summarize(rate, rounds[i]))
	}
	res.cpu = median(cpus)
	res.cpuRounds = cpus
	if res.afterHot, err = ns.metrics(); err != nil {
		return ns, nil, err
	}

	// Each fresh cell is requested from its ring owner, which computes
	// and inserts it, then from the other node, which peer-fills the
	// finished bytes: half the cold requests go through peer-fill, and
	// both copies must be byte-identical.
	cold := coldCaches(r.seed)
	owners, err := coldOwners(cold)
	if err != nil {
		return ns, nil, err
	}
	before := res.afterHot
	t0 := time.Now()
	for i, c := range cold {
		if i > 0 && i%(coldCells/coldRounds) == 0 {
			if err := res.coldRound(ns, &before, &t0); err != nil {
				return ns, nil, err
			}
		}
		var bodies [2][]byte
		for j, node := range []int{owners[i], 1 - owners[i]} {
			s := time.Now()
			body, err := get(client, cellURL(ns.bases()[node], c))
			if j == 0 {
				res.coldLat = append(res.coldLat, time.Since(s).Seconds())
			} else {
				res.fillLat = append(res.fillLat, time.Since(s).Seconds())
			}
			r.attempted++
			if err != nil {
				r.fail("cold %s: %v", cellQuery(c), err)
				continue
			}
			if _, err := bodyDigest(body); err != nil {
				r.fail("cold %s: %v", cellQuery(c), err)
				continue
			}
			bodies[j] = body
		}
		if bodies[0] != nil && bodies[1] != nil && !bytes.Equal(bodies[0], bodies[1]) {
			r.fail("cold %s: nodes served different bytes", cellQuery(c))
		}
	}
	if err := res.coldRound(ns, &before, &t0); err != nil {
		return ns, nil, err
	}
	res.afterCold = before
	if got := computes(res.afterCold) - computes(res.afterHot); got != uint64(len(cold)) {
		r.fail("cold phase computed %d times for %d fresh keys (want each once cluster-wide)", got, len(cold))
	}
	return ns, res, nil
}

// coldRound closes a cold round that began at *t0 with the node metrics
// *before, and starts the next.
func (res *serveResult) coldRound(ns nodes, before *[]obs.Metrics, t0 *time.Time) error {
	wall := time.Since(*t0)
	after, err := ns.metrics()
	if err != nil {
		return err
	}
	res.coldWalls = append(res.coldWalls, wall.Seconds())
	res.coldRates = append(res.coldRates, float64(lines(delta(after, *before)))/wall.Seconds())
	*before, *t0 = after, time.Now()
	return nil
}

// recordServe sets the serving metrics every mode reports and the
// human-readable serving lines.
func (r *run) recordServe(res *serveResult) {
	r.set("setup_s", median(res.setups), "s")
	sort.Float64s(res.coldLat)
	sort.Float64s(res.fillLat)
	var ref rateResult
	goodput := 0.0
	for _, h := range res.hot {
		r.note("%s", h)
		if h.Rate == hotRefRate {
			ref = h
		}
		if h.Passed {
			goodput = h.ServedRPS
		}
	}
	coldLines := lines(delta(res.afterCold, res.afterHot))
	serving := map[string]metric{
		"hot_p50_ms":      {ref.P50ms, "ms"},
		"hot_p99_ms":      {ref.P99ms, "ms"},
		"hot_goodput_rps": {goodput, "1/s"},
		"cold_p50_s":      {quantile(res.coldLat, 0.5), "s"},
		"cold_fill_p50_s": {quantile(res.fillLat, 0.5), "s"},
		"error_ratio":     {float64(r.failed) / float64(max(r.attempted, 1)), "ratio"},
	}
	for _, n := range []string{"hot_p50_ms", "hot_p99_ms", "hot_goodput_rps", "cold_p50_s", "cold_fill_p50_s", "error_ratio"} {
		r.note("%-34s %14.6g %s", n, serving[n].Value, serving[n].Unit)
	}
	r.note("hot reference rate %v req/s (%d samples over %d rounds), latency limit %v, hot CPU per round %v s", hotRefRate, ref.Samples, hotRounds, hotLimit, res.cpuRounds)
	r.extra["serving"] = serving
	r.extra["hot_rates"] = res.hot
	r.extra["cold_lines"] = coldLines
	r.extra["cold_wall_s_rounds"] = res.coldWalls
	r.extra["setup_s_samples"] = res.setups
	r.extra["hot_cpu_s_rounds"] = res.cpuRounds
}

func untracedServe(r *run) error {
	if r.wsstudy == "" {
		return errors.New("serve-zipf needs -wsstudy, the built wsstudy binary")
	}
	var pn *procNodes
	ns, res, err := r.measureServe(func() (nodes, error) {
		var err error
		pn, err = startProcNodes(r.wsstudy)
		return pn, err
	})
	if ns == nil {
		return err
	}
	if serr := ns.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	r.recordServe(res)
	// Unlike the simulations' times these are not scaled to reference
	// speed (see calib.go): scaling widened their run-to-run spread.
	r.set("wall_s", median(res.coldWalls), "s")
	r.set("cpu_s", res.cpu, "s")
	r.set("sim_lines_per_s", median(res.coldRates), "1/s")
	r.set("peak_rss_mb", pn.peakRSSMB, "MB")
	return nil
}

// procNodes is a cluster of `wsstudy serve` processes.
type procNodes struct {
	cmds      []*exec.Cmd
	base      []string
	debug     []string
	client    *http.Client
	peakRSSMB float64
}

func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var ports []int
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

func startProcNodes(bin string) (*procNodes, error) {
	ports, err := freePorts(2 * serveNodes)
	if err != nil {
		return nil, err
	}
	p := &procNodes{client: &http.Client{Timeout: 10 * time.Second}}
	var peers []string
	for i := 0; i < serveNodes; i++ {
		p.base = append(p.base, fmt.Sprintf("http://127.0.0.1:%d", ports[i]))
		p.debug = append(p.debug, fmt.Sprintf("http://127.0.0.1:%d", ports[serveNodes+i]))
		peers = append(peers, fmt.Sprintf("n%d=%s", i, p.base[i]))
	}
	for i := 0; i < serveNodes; i++ {
		cmd := exec.Command(bin, "serve",
			"-addr", strings.TrimPrefix(p.base[i], "http://"),
			"-node-id", fmt.Sprintf("n%d", i), "-peers", strings.Join(peers, ","),
			"-listen", strings.TrimPrefix(p.debug[i], "http://"))
		// A node must not outlive the benchmark, even a killed one.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			_ = p.stop()
			return nil, err
		}
		p.cmds = append(p.cmds, cmd)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, b := range p.base {
		for {
			resp, err := p.client.Get(b + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				_ = p.stop()
				return nil, fmt.Errorf("node %s not healthy after 30s", b)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return p, nil
}

func (p *procNodes) bases() []string { return p.base }

func (p *procNodes) metrics() ([]obs.Metrics, error) {
	var out []obs.Metrics
	for _, d := range p.debug {
		body, err := get(p.client, d+"/debug/vars")
		if err != nil {
			return nil, fmt.Errorf("reading node metrics: %w", err)
		}
		var v struct {
			W obs.Metrics `json:"wsstudy"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return nil, fmt.Errorf("decoding node metrics: %w", err)
		}
		out = append(out, v.W)
	}
	return out, nil
}

// cpu is the nodes' user+system CPU time so far, from /proc.
func (p *procNodes) cpu() time.Duration {
	var total time.Duration
	for _, c := range p.cmds {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.Process.Pid))
		if err != nil {
			continue
		}
		s := string(b)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
		// utime and stime are fields 14 and 15 of stat, in clock ticks.
		ut, _ := strconv.ParseInt(f[11], 10, 64)
		st, _ := strconv.ParseInt(f[12], 10, 64)
		total += time.Duration(ut+st) * (time.Second / 100)
	}
	return total
}

// stop drains every node with SIGTERM, waits for each to exit and
// records their summed peak RSS.
func (p *procNodes) stop() error {
	p.client.CloseIdleConnections()
	var errs []error
	p.peakRSSMB = 0
	for _, c := range p.cmds {
		_ = c.Process.Signal(syscall.SIGTERM)
	}
	for _, c := range p.cmds {
		done := make(chan error, 1)
		go func() { done <- c.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				errs = append(errs, fmt.Errorf("node exit: %w", err))
			}
		case <-time.After(20 * time.Second):
			_ = c.Process.Kill()
			<-done
			errs = append(errs, errors.New("node did not drain within 20s"))
		}
		if ru, ok := c.ProcessState.SysUsage().(*syscall.Rusage); ok {
			p.peakRSSMB += float64(ru.Maxrss) / 1024
		}
	}
	p.cmds = nil
	return errors.Join(errs...)
}
