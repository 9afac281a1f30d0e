package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The benchmark's own open-loop generator. Requests are scheduled at
// fixed due times before the phase starts; each is timed from its due
// time, so a stall that delays later requests shows in their latency.
// How late the generator itself dispatched is reported separately.

// hotRates are the fixed offered rates of the hot phase, in requests per
// second. The first, hotRefRate, gives hot_p50_ms and hot_p99_ms; the
// others are the goodput ladder. In ten recorded runs on a 2-vCPU host
// (per-rate outcomes in README.md) 400 req/s passed every time and
// 12000 never did, with a backlog every time, so the ladder brackets the
// cluster's capacity.
var hotRates = []float64{hotRefRate, 3000, 6000, 9000, 12000}

const (
	hotRefRate = 400
	// hotSamples is the number of requests sent at the reference rate,
	// so that p99 has ten samples beyond it, and ladderSamples the number
	// sent at each ladder rate: enough that a rate above capacity builds
	// a backlog well past hotLimit, few enough that overload stays short.
	hotSamples    = 1000
	ladderSamples = 3000
	// hotLimit is the p99 latency limit a rate must meet to count toward
	// hot_goodput_rps. In the recorded runs the pooled p99 was 1.5-3.4 ms
	// at 400 req/s and 26-101 ms at 12000 req/s, which backlogged every
	// time; the limit lies between the two regimes.
	hotLimit = 10 * time.Millisecond
	// hotSkew is the Zipf s parameter of hot key popularity.
	hotSkew = 1.2
)

// hotRounds is how many times the hot phase runs its whole schedule;
// cpu_s is the median of the rounds' CPU times.
const hotRounds = 3

// hotCount is how many requests the hot phase sends at rate.
func hotCount(rate float64) int {
	if rate == hotRefRate {
		return hotSamples
	}
	return ladderSamples
}

// request is one scheduled request and, once done, its outcome.
type request struct {
	key  int // index into the phase's key list
	node int // target node
	due  time.Time

	dispatched time.Time // when the generator handed it to a connection
	sent       time.Time // when the connection started the request
	done       time.Time
	status     int
	body       []byte
	err        error
	ok         bool // the expected bytes came back
}

// hotSchedule draws the seeded Zipf key sequence of one rate's phase,
// alternating target nodes.
func hotSchedule(rng *rand.Rand, keys, nodes, n int) []*request {
	z := rand.NewZipf(rng, hotSkew, 1, uint64(keys-1))
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = &request{key: int(z.Uint64()), node: i % nodes}
	}
	return reqs
}

// connsPerNode spreads at most nproc connections over the nodes.
func connsPerNode(nodes int) int {
	c := runtime.NumCPU() / nodes
	if c < 1 {
		c = 1
	}
	return c
}

// newClient returns an HTTP client holding at most conns connections to
// each node.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		},
	}
}

// do performs one GET, recording send and completion times.
func do(client *http.Client, url string, q *request) {
	q.sent = time.Now()
	resp, err := client.Get(url)
	if err != nil {
		q.err = err
		q.done = time.Now()
		return
	}
	q.body, q.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	q.status = resp.StatusCode
	q.done = time.Now()
}

// openLoop sends reqs at rate per second from now on. Each node has its
// own connections, each served by one worker goroutine; the dispatcher
// sleeps until a request is due and queues it for its node. It returns
// once every request has completed.
func openLoop(client *http.Client, urls [][]string, reqs []*request, rate float64) {
	nodes := len(urls)
	conns := connsPerNode(nodes)
	queues := make([]chan *request, nodes)
	var wg sync.WaitGroup
	for n := range queues {
		// Sized to the schedule, so the dispatcher never blocks and its
		// lateness measures only its own scheduling.
		queues[n] = make(chan *request, len(reqs))
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(q chan *request) {
				defer wg.Done()
				for req := range q {
					do(client, urls[req.node][req.key], req)
				}
			}(queues[n])
		}
	}
	start := time.Now().Add(5 * time.Millisecond)
	interval := time.Duration(float64(time.Second) / rate)
	for i, req := range reqs {
		req.due = start.Add(time.Duration(i) * interval)
		if d := time.Until(req.due); d > 0 {
			time.Sleep(d)
		}
		req.dispatched = time.Now()
		queues[req.node] <- req
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
}

// rateResult summarizes one fixed-rate phase.
type rateResult struct {
	Rate       float64 `json:"rate"`
	Samples    int     `json:"samples"`
	P50ms      float64 `json:"p50_ms"`
	P99ms      float64 `json:"p99_ms"`
	LateP99ms  float64 `json:"late_p99_ms"`
	ServedRPS  float64 `json:"served_rps"`
	Backlogged bool    `json:"backlogged"`
	Passed     bool    `json:"passed"`
}

// summarize computes exact quantiles from the raw samples of every round
// at one rate. A failed request counts as missing the latency limit. A
// round is backlogged when its last request finished more than the limit
// after it was due: the queue had not drained by the end of the
// schedule. The rate passes when no round is backlogged and the pooled
// p99 meets the limit.
func summarize(rate float64, rounds [][]*request) rateResult {
	var lat, late []float64
	served := 0
	var busy time.Duration
	res := rateResult{Rate: rate}
	for _, reqs := range rounds {
		var last time.Time
		for _, q := range reqs {
			l := q.done.Sub(q.due).Seconds() * 1e3
			if !q.ok {
				l = float64(24 * time.Hour / time.Millisecond)
			} else {
				served++
			}
			lat = append(lat, l)
			late = append(late, q.dispatched.Sub(q.due).Seconds()*1e3)
			if q.done.After(last) {
				last = q.done
			}
		}
		busy += last.Sub(reqs[0].due)
		tail := reqs[len(reqs)-1]
		res.Backlogged = res.Backlogged || tail.done.Sub(tail.due) > hotLimit
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	res.Samples = len(lat)
	res.P50ms, res.P99ms, res.LateP99ms = quantile(lat, 0.50), quantile(lat, 0.99), quantile(late, 0.99)
	res.ServedRPS = float64(served) / busy.Seconds()
	res.Passed = !res.Backlogged && res.P99ms <= float64(hotLimit)/float64(time.Millisecond)
	return res
}

func (rr rateResult) String() string {
	return fmt.Sprintf("hot %4.0f req/s: n=%d p50 %.3f ms p99 %.3f ms served %.1f/s late_p99 %.3f ms backlogged=%v passed=%v",
		rr.Rate, rr.Samples, rr.P50ms, rr.P99ms, rr.ServedRPS, rr.LateP99ms, rr.Backlogged, rr.Passed)
}
