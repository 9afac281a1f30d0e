package memsys

import (
	"math/rand"
	"testing"

	"wsstudy/internal/cache"
	"wsstudy/internal/coherence"
	"wsstudy/internal/obs"
	"wsstudy/internal/trace"
)

// TestSnapshotExactAtBlockBoundary holds the contract a progress reporter
// relies on: the system stages its per-reference counters and publishes
// them before Refs (and Ref) returns, so a Snapshot taken right after a
// block equals the simulation's own statistics, with nothing left pending.
// Blocks alternate between Refs and per-reference Ref delivery and include
// references spanning two lines.
func TestSnapshotExactAtBlockBoundary(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		shared bool // PEs share lines (invalidations) or keep them private
	}{
		{"profilers", Config{PEs: 4, LineSize: 8, Dist: Interleaved, Profile: true, ProfilePE: -1}, true},
		{"sampled", Config{PEs: 4, LineSize: 8, Dist: Blocked, Extent: 1 << 16, Profile: true, ProfilePE: 2, SampleRate: 4}, true},
		// Private lines keep invalidations out, so each LRU's evictions are
		// its misses less its resident lines.
		{"lru", Config{PEs: 4, LineSize: 8, Dist: Interleaved, CacheCapacity: 16, ProfilePE: -1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.New()
			s := MustNew(tc.cfg)
			s.Instrument(rec)
			rng := rand.New(rand.NewSource(5))
			block := make([]trace.Ref, 300)
			var accesses uint64 // line accesses by PEs with a profiler
			for b := 0; b < 40; b++ {
				for i := range block {
					pe := rng.Intn(tc.cfg.PEs)
					line := uint64(rng.Intn(64))
					if !tc.shared {
						line = line*uint64(tc.cfg.PEs) + uint64(pe)
					}
					size := uint32(8)
					if tc.shared && rng.Intn(8) == 0 {
						size = 16 // spans two lines
					}
					kind := trace.Read
					if rng.Intn(3) == 0 {
						kind = trace.Write
					}
					block[i] = trace.Ref{PE: pe, Addr: line * 8, Size: size, Kind: kind}
					if s.Profiler(pe) != nil {
						accesses += uint64(cache.LinesSpanned(line*8, size, 8))
					}
				}
				if b%2 == 0 {
					s.Refs(block)
				} else {
					for _, r := range block {
						s.Ref(r)
					}
				}
				checkSnapshot(t, b, s, rec.Snapshot(), accesses)
			}
			if ds := s.DirectoryStats(); tc.shared && ds.Invalidations == 0 {
				t.Fatalf("shared stream caused no invalidations: %+v", ds)
			}
			if !tc.shared && rec.Snapshot().Counter(cache.MetricEvictions) == 0 {
				t.Fatal("private stream caused no evictions")
			}
		})
	}
}

func checkSnapshot(t *testing.T, b int, s *System, m obs.Metrics, accesses uint64) {
	t.Helper()
	ds, st := s.DirectoryStats(), s.Stats()
	want := map[string]uint64{
		coherence.MetricReads:              ds.ReadRequests,
		coherence.MetricWrites:             ds.WriteRequests,
		coherence.MetricInvalidations:      ds.Invalidations,
		coherence.MetricInvalidatingWrites: ds.InvalidatingWrites,
		coherence.MetricDowngrades:         ds.Downgrades,
		MetricLocalMisses:                  st.LocalMisses,
		MetricRemoteMisses:                 st.RemoteMisses,
	}
	if s.caches != nil {
		var evictions uint64
		for _, c := range s.caches {
			lru := c.(*cache.LRU)
			cs := lru.Stats()
			evictions += cs.Misses() - uint64(lru.Len())
		}
		want[cache.MetricEvictions] = evictions
	} else {
		want[cache.MetricProfilerAccesses] = accesses
	}
	for name, w := range want {
		if got := m.Counter(name); got != w {
			t.Fatalf("block %d: %s = %d in the snapshot, simulation counted %d", b, name, got, w)
		}
	}
}
