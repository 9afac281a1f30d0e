package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	wss "wsstudy"
	"wsstudy/internal/core"
	"wsstudy/internal/obs"
)

// setupProbes is how many launch-to-ready probes a simulation run times;
// setup_s is their median.
const setupProbes = 15

// simSample is one measured iteration of a simulation workload.
type simSample struct {
	wall, cpu time.Duration
	lines     uint64 // coherence.reads + coherence.writes
}

// lines reads the simulated line accesses a run's metrics counted.
func lines(m obs.Metrics) uint64 {
	return m.Counter("coherence.reads") + m.Counter("coherence.writes")
}

// minIterations is the fewest measured iterations a simulation run
// makes, even when they overrun the budget: the host's speed drifts by
// tens of percent over seconds, and a median of one iteration (the
// quick suite's, which takes most of a budget) follows that drift.
const minIterations = 2

// iterate runs one measured iteration at a time, with a collection
// before each, until the next iteration would overrun the run's budget
// (at least minIterations always run), and records the medians at
// reference speed. A calibration sample precedes and follows each
// iteration, so calibration takes a steady share of the run.
func (r *run) iterate(once func() (simSample, bool)) error {
	budget := time.Duration(r.seconds * float64(time.Second))
	start := time.Now()
	var cal calibrator
	cal.sample()
	var walls, cpus, rates []float64
	for n := 1; ; n++ {
		runtime.GC()
		s, ok := once()
		if ok {
			walls = append(walls, s.wall.Seconds())
			cpus = append(cpus, s.cpu.Seconds())
			rates = append(rates, float64(s.lines)/s.wall.Seconds())
		}
		cal.sample()
		if n >= minIterations && time.Since(start)+s.wall > budget {
			break
		}
	}
	r.extra["iterations"] = len(walls)
	r.extra["wall_s_samples"] = walls
	if len(walls) == 0 {
		return nil
	}
	r.set("peak_rss_mb", peakRSSSelfMB(), "MB")
	return r.setTimes(&cal, median(walls), median(cpus), median(rates))
}

// timed runs f and returns its wall and process CPU time.
func timed(f func()) (wall, cpu time.Duration) {
	c0, t0 := cpuSelf(), time.Now()
	f()
	return time.Since(t0), cpuSelf() - c0
}

func untracedFig6(r *run) error {
	return untracedExperiment(r, "fig6", core.Options{Scale: core.ScaleFull})
}

func untracedSharing(r *run) error {
	r.shards = runtime.NumCPU()
	return untracedExperiment(r, "sharing1024", core.Options{Scale: core.ScaleFull, MachineShards: r.shards})
}

// untracedExperiment measures one experiment through the facade entry
// point users call, with a recorder attached as the CLI attaches one.
func untracedExperiment(r *run, id string, opt core.Options) error {
	if err := r.measureSetup(setupProbes); err != nil {
		return err
	}
	var last *core.Report
	err := r.iterate(func() (simSample, bool) {
		ctx := obs.With(context.Background(), obs.New())
		var rep *core.Report
		var err error
		wall, cpu := timed(func() { rep, err = wss.Run(ctx, id, opt) })
		r.attempted++
		if err != nil {
			r.fail("%s: %v", id, err)
			return simSample{wall: wall}, false
		}
		r.checkDigest(r.workload, sha(reportText(rep)))
		last = rep
		return simSample{wall: wall, cpu: cpu, lines: lines(*rep.Metrics)}, true
	})
	if last != nil && id == "fig6" {
		noteKnees(r, last)
	}
	return err
}

// noteKnees prints fig6's measured working-set knees next to the paper's
// landmarks (EXPERIMENTS.md): lev1WS ~0.7 KB, lev2WS ~20 KB at n=1024.
func noteKnees(r *run, rep *core.Report) {
	paper := map[string]string{"lev1WS": "~0.7 KB", "lev2WS": "~20 KB"}
	for _, t := range rep.Tables {
		if t.Title != "measured hierarchy" {
			continue
		}
		for _, row := range t.Rows {
			r.note("knee %-7s measured %-8s (miss rate after %s)  paper %s", row[0], row[1], row[2], paper[row[0]])
			r.extra["knee "+row[0]] = row[1]
		}
	}
}

func untracedSuite(r *run) error {
	r.suiteWorkers = 1
	if err := r.measureSetup(setupProbes); err != nil {
		return err
	}
	return r.iterate(func() (simSample, bool) {
		rec := obs.New()
		ctx := obs.With(context.Background(), rec)
		var sr *core.SuiteReport
		wall, cpu := timed(func() {
			sr = wss.RunSuite(ctx, core.Registry(), core.SuiteOptions{
				Options: core.Options{Scale: core.ScaleQuick}, Workers: r.suiteWorkers,
			})
		})
		ok := r.checkSuite(sr)
		return simSample{wall: wall, cpu: cpu, lines: lines(rec.Snapshot())}, ok
	})
}

// checkSuite counts every experiment of a suite run as one operation and
// checks the digest over all their reports, in registry order.
func (r *run) checkSuite(sr *core.SuiteReport) bool {
	h := sha256.New()
	ok := true
	for _, res := range sr.Results {
		r.attempted++
		if res.Err != nil {
			r.fail("%s: %v", res.ID, res.Err)
			ok = false
			continue
		}
		fmt.Fprintf(h, "== %s ==\n", res.ID)
		h.Write(reportText(res.Report))
	}
	r.checkDigest(r.workload, hex.EncodeToString(h.Sum(nil)))
	return ok
}
