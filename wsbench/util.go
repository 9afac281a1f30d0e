package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"wsstudy/internal/core"
)

// pinned holds the expected output digests, keyed by workload name (and
// by "serve-zipf/<query>" for each pinned served key).
var pinned map[string]string

func loadDigests(root string) (map[string]string, error) {
	b, err := os.ReadFile(filepath.Join(root, "wsbench", "digests.json"))
	if err != nil {
		return nil, fmt.Errorf("reading pinned digests: %w", err)
	}
	var d map[string]string
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("decoding pinned digests: %w", err)
	}
	return d, nil
}

// reportText renders a report as text with its Metrics block dropped:
// the metrics carry timings, everything else is deterministic.
func reportText(rep *core.Report) []byte {
	cp := *rep
	cp.Metrics = nil
	var b bytes.Buffer
	_ = cp.Render(&b, core.FormatText)
	return b.Bytes()
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// checkDigest compares a measured digest with the pinned one, counting a
// mismatch (or a missing pin) as a failed operation.
func (r *run) checkDigest(name, got string) {
	want, ok := pinned[name]
	switch {
	case !ok:
		r.fail("no pinned digest for %s (measured %s)", name, got)
	case want != got:
		r.fail("output digest mismatch for %s: got %s, pinned %s", name, got, want)
	}
	r.extra["digest "+name] = got
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the exact nearest-rank quantile of raw samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// cpuSelf is the process's user+system CPU time so far.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSSelfMB is the process's peak resident set size.
func peakRSSSelfMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measureSetup times launch-to-ready of this binary in probe mode for the
// workload, several times, and records the median as setup_s.
func (r *run) measureSetup(probes int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var ts []float64
	for i := 0; i < probes; i++ {
		cmd := exec.Command(self, "-probe", r.workload)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("setup probe: %w", err)
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	r.set("setup_s", median(ts), "s")
	return nil
}

// setupProbe does what an untraced simulation run does before its first
// measured operation, then exits: resolving the experiments and options.
func setupProbe(workload string) error {
	switch workload {
	case "fig6-full", "sharing1024":
		id := map[string]string{"fig6-full": "fig6", "sharing1024": "sharing1024"}[workload]
		if _, ok := core.Find(id); !ok {
			return fmt.Errorf("experiment %s not registered", id)
		}
	case "suite-quick":
		if len(core.Registry()) == 0 {
			return errors.New("empty registry")
		}
	default:
		return fmt.Errorf("no setup probe for %s", workload)
	}
	return nil
}
