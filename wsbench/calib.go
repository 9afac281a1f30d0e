package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts by
// tens of percent over tens of seconds: a fixed loop and a full-scale
// fig6 run slow down and speed up together. The time metrics of an
// untraced simulation run (setup_s, wall_s, cpu_s, sim_lines_per_s) are
// reported at reference-host speed: the raw measurement scaled by
// calibRefSeconds over the mean time this run's calibration loop took.
// The loop is the benchmark's own code, not the program's, so a change
// to the program moves the scaled metrics exactly as it moves the raw
// ones; the raw values are kept in the result file. serve-zipf's times
// are not scaled: its cold rounds run three processes on two cores, the
// loop did not follow their speed, and scaling widened their spread.

// calibRefs is the number of references one calibration sample replays.
const calibRefs = 5_000_000

// calibRefSeconds is about the time of one calibration sample on the
// reference host (2 vCPUs of an Intel Xeon at 2.1 GHz, Go 1.24) when it
// runs fast. It only sets the scale: scaled figures read as seconds on
// that host at that speed.
const calibRefSeconds = 0.85

// calibSink keeps the loop's result live.
var calibSink uint64

// calibLoop is a fixed stand-in for the simulator's hot path: a
// map-indexed last-use table and a Fenwick tree of stack positions,
// driven by a seeded stream of line numbers with reuse.
func calibLoop() time.Duration {
	t0 := time.Now()
	const slots = 1 << 20
	fen := make([]int32, slots+1)
	last := make(map[uint64]int, 1<<16)
	x := uint64(88172645463325252)
	clock := 1
	var sum uint64
	for i := 0; i < calibRefs; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		line := (x % 40000) * (1 + (x>>40)%3)
		if pos, ok := last[line]; ok {
			for j := pos; j > 0; j -= j & -j {
				sum += uint64(fen[j])
			}
			for j := pos; j <= slots; j += j & -j {
				fen[j]--
			}
		}
		if clock >= slots {
			clear(fen)
			clear(last)
			clock = 1
		}
		last[line] = clock
		for j := clock; j <= slots; j += j & -j {
			fen[j]++
		}
		clock++
	}
	calibSink += sum
	return time.Since(t0)
}

// calibrator collects a run's calibration samples.
type calibrator struct {
	samples []float64
	// busy is this process's own CPU time while the samples ran: a
	// sample must time the host, not the program under test.
	busy time.Duration
	err  error
}

// calibBusyShare is the most CPU this process may use while the
// calibration runs, as a share of the calibration's time.
const calibBusyShare = 0.25

// sample times the calibration loop now, in a child process, so that
// the loop's memory never counts in this process's peak RSS. It is
// taken between repetitions, while the program is idle. The first
// sample that cannot be taken is kept as the calibrator's error.
func (c *calibrator) sample() {
	if c.err != nil {
		return
	}
	self, err := os.Executable()
	if err != nil {
		c.err = err
		return
	}
	runtime.GC()
	cpu0 := cpuSelf()
	out, err := exec.Command(self, "-calib").Output()
	c.busy += cpuSelf() - cpu0
	if err != nil {
		c.err = fmt.Errorf("calibration sample: %w", err)
		return
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		c.err = fmt.Errorf("calibration sample: %w", err)
		return
	}
	c.samples = append(c.samples, v)
}

// printCalib is the child side of sample.
func printCalib() {
	fmt.Println(calibLoop().Seconds())
}

// mean is the samples' mean. It, not their median, is the run's host
// speed: with a handful of samples the mean follows the drift more
// closely.
func (c *calibrator) mean() float64 {
	sum := 0.0
	for _, v := range c.samples {
		sum += v
	}
	return sum / float64(len(c.samples))
}

// setTimes records the time metrics at reference speed, and the raw
// values and calibration samples in the result file. It also rescales
// the setup_s the run measured before.
func (r *run) setTimes(c *calibrator, wall, cpu, rate float64) error {
	if c.err != nil {
		return c.err
	}
	mean := c.mean()
	if c.busy.Seconds() > calibBusyShare*mean*float64(len(c.samples)) {
		r.fail("this process used %v of CPU during %d calibration samples of %.3fs on average: they timed the program, not the host", c.busy, len(c.samples), mean)
	}
	f := calibRefSeconds / mean
	setup := r.metrics["setup_s"].Value
	r.set("setup_s", setup*f, "s")
	r.extra["raw setup_s"] = setup
	r.set("wall_s", wall*f, "s")
	r.set("cpu_s", cpu*f, "s")
	r.set("sim_lines_per_s", rate/f, "1/s")
	r.extra["raw wall_s"] = wall
	r.extra["raw cpu_s"] = cpu
	r.extra["raw sim_lines_per_s"] = rate
	r.extra["calib_s_samples"] = c.samples
	r.extra["calib_busy_cpu_s"] = c.busy.Seconds()
	r.note("host speed: calibration %.4fs (mean of %d samples, reference %.2fs; own CPU meanwhile %v), raw wall %.4gs, cpu %.4gs, %.4g lines/s",
		mean, len(c.samples), calibRefSeconds, c.busy, wall, cpu, rate)
	return nil
}
