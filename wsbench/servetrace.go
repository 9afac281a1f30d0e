package main

import (
	"context"
	"fmt"
	"net"
	"sort"
	"time"

	"wsstudy/internal/core"
	"wsstudy/internal/obs"
	"wsstudy/internal/serve"
	"wsstudy/internal/store"
)

// The traced serve-zipf run boots the same 2-node cluster in-process,
// wired as `wsstudy serve` wires it, drives the same phases with the same
// generator, and reads the nodes' own obs counters and histograms.

type inProcNodes struct {
	nodes []*serve.Node
	recs  []*obs.Recorder
	base  []string
}

func startInProcNodes() (*inProcNodes, error) {
	p := &inProcNodes{}
	lns := make([]net.Listener, serveNodes)
	peers := map[string]string{}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		p.base = append(p.base, "http://"+ln.Addr().String())
		peers[fmt.Sprintf("n%d", i)] = p.base[i]
	}
	for i, ln := range lns {
		rec := obs.New()
		n, err := serve.StartNode(serve.NodeConfig{
			Listener:     ln,
			NodeID:       fmt.Sprintf("n%d", i),
			PeerAddrs:    peers,
			DefaultScale: core.ScaleQuick,
			Recorder:     rec,
		})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			_ = p.stop()
			return nil, err
		}
		p.nodes = append(p.nodes, n)
		p.recs = append(p.recs, rec)
	}
	return p, nil
}

func (p *inProcNodes) bases() []string { return p.base }

func (p *inProcNodes) metrics() ([]obs.Metrics, error) {
	out := make([]obs.Metrics, len(p.recs))
	for i, rec := range p.recs {
		out[i] = rec.Snapshot()
	}
	return out, nil
}

func (p *inProcNodes) cpu() time.Duration { return cpuSelf() }

func (p *inProcNodes) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var first error
	for _, n := range p.nodes {
		if err := n.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	p.nodes = nil
	return first
}

// delta sums the nodes' counters and histograms and subtracts the
// earlier snapshot.
func delta(after, before []obs.Metrics) obs.Metrics {
	out := obs.Metrics{Counters: map[string]uint64{}, Durations: map[string]obs.DurationStats{}}
	add := func(ms []obs.Metrics, sign int) {
		for _, m := range ms {
			for k, v := range m.Counters {
				out.Counters[k] += uint64(sign) * v
			}
			for k, v := range m.Durations {
				d := out.Durations[k]
				d.Count += uint64(sign) * v.Count
				d.Sum += time.Duration(sign) * v.Sum
				out.Durations[k] = d
			}
		}
	}
	add(after, 1)
	add(before, -1)
	return out
}

func tracedServe(r *run) error {
	rs := startRuntimeSampler()
	var ipn *inProcNodes
	ns, res, err := r.measureServe(func() (nodes, error) {
		var err error
		ipn, err = startInProcNodes()
		return ipn, err
	})
	if ns == nil {
		return err
	}
	var hitTime time.Duration
	if err == nil {
		hitTime = r.storeHits(ipn, res)
	}
	if serr := ns.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	r.recordServe(res)

	m := delta(res.afterCold, res.beforeHot)
	r.counters(m)
	r.set("store.hits", float64(m.Counter(obs.StoreHits)), "count")
	r.set("store.computes", float64(m.Durations[obs.StoreComputeWall].Count), "count")
	r.set("store.compute_s", m.Durations[obs.StoreComputeWall].Sum.Seconds(), "s")
	r.set("cluster.peer_fill_s", m.Durations[obs.ClusterPeerFetchWall].Sum.Seconds(), "s")
	r.set("cluster.peer_fills", float64(m.Counter(obs.ClusterPeerHits)), "count")
	r.set("serve.shed", float64(m.Counter(obs.ServeBusy)), "count")
	r.set("cache.accesses", float64(m.Counter("cache.profiler.accesses")), "count")

	var client time.Duration
	var late []float64
	for _, reqs := range res.hotReqs {
		for _, q := range reqs {
			client += q.done.Sub(q.sent)
			late = append(late, q.dispatched.Sub(q.due).Seconds()*1e3)
		}
	}
	sort.Float64s(late)
	r.set("store.hit_s", hitTime.Seconds(), "s")
	r.set("serve.http_s", (client - hitTime).Seconds(), "s")
	r.set("load.sent", float64(len(late)), "count")
	r.set("load.late_p99_ms", quantile(late, 0.99), "ms")
	serving := r.extra["serving"].(map[string]metric)
	r.set("load.hot_p50_ms", serving["hot_p50_ms"].Value, "ms")
	r.set("load.hot_p99_ms", serving["hot_p99_ms"].Value, "ms")
	r.set("load.hot_goodput_rps", serving["hot_goodput_rps"].Value, "1/s")
	r.set("load.cold_p50_s", serving["cold_p50_s"].Value, "s")
	r.note("hot phase: client time %.3fs, of which store lookups %.3fs", client.Seconds(), hitTime.Seconds())
	rs.finish(r)
	r.finishLedger()
	return nil
}

// storeHits replays the hot phase's request sequence directly against
// each serving node's store, timing the store layer's share of the hot
// requests without HTTP. Every key must already be cached, so no replay
// computes.
func (r *run) storeHits(ipn *inProcNodes, res *serveResult) time.Duration {
	e, ok := core.Find(serveExperiment)
	if !ok {
		r.fail("experiment %s not registered", serveExperiment)
		return 0
	}
	opts := make([]core.Options, len(hotCaches))
	for k, c := range hotCaches {
		opts[k] = core.Options{Scale: core.ScaleQuick, CacheBytes: uint64(c)}
		for _, n := range ipn.nodes {
			if !n.Store.Cached(store.KeyFor(serveExperiment, opts[k])) {
				r.fail("hot key %s is not cached on every node", cellQuery(c))
				return 0
			}
		}
	}
	ctx := context.Background()
	var total time.Duration
	for _, reqs := range res.hotReqs {
		for _, q := range reqs {
			t0 := time.Now()
			_, err := ipn.nodes[q.node].Store.Get(ctx, e, opts[q.key])
			total += time.Since(t0)
			if err != nil {
				r.fail("store replay %s: %v", cellQuery(hotCaches[q.key]), err)
			}
		}
	}
	return total
}
