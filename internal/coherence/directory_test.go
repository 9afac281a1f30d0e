package coherence

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"wsstudy/internal/cache"
)

func TestPESetBasics(t *testing.T) {
	var s PESet
	for _, pe := range []int{0, 63, 64, 129} {
		s.Add(pe, 130)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if !s.Contains(64) || s.Contains(65) {
		t.Fatal("Contains wrong")
	}
	s.Remove(64)
	if s.Contains(64) || s.Len() != 3 {
		t.Fatal("Remove failed")
	}
	var got []int
	s.ForEach(func(pe int) { got = append(got, pe) })
	want := []int{0, 63, 129}
	if len(got) != len(want) {
		t.Fatalf("ForEach = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach = %v, want %v", got, want)
		}
	}
	s.Clear()
	if s.Len() != 0 {
		t.Fatal("Clear failed")
	}
}

func TestPESetMatchesMap(t *testing.T) {
	// Property: PESet behaves like a map[int]bool under random ops.
	check := func(ops []uint8) bool {
		var s PESet
		ref := map[int]bool{}
		for _, op := range ops {
			pe := int(op % 64)
			if op&0x80 != 0 {
				s.Add(pe, 64)
				ref[pe] = true
			} else {
				s.Remove(pe)
				delete(ref, pe)
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		for pe := range ref {
			if !s.Contains(pe) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPESetInlineAllocation pins the memory fix for large P: the old
// representation allocated (P+63)/64 words the moment a set was created, so
// at P=1024 every directory line cost 128 B before a single sharer existed.
// The inline form must stay allocation-free through the common one- and
// two-sharer states, spill exactly once at the third distinct member, and
// return to the allocation-free form on Clear.
func TestPESetInlineAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	const p = 1024

	oneOrTwo := testing.AllocsPerRun(100, func() {
		var s PESet
		s.Add(7, p)
		s.Add(901, p)
		if s.Len() != 2 {
			t.Fatal("wrong Len")
		}
	})
	if oneOrTwo != 0 {
		t.Fatalf("one/two-sharer path allocates %.0f objects per set, want 0", oneOrTwo)
	}

	spilled := testing.AllocsPerRun(100, func() {
		var s PESet
		s.Add(7, p)
		s.Add(901, p)
		s.Add(333, p) // third distinct member: spill to the bit vector
		s.Add(12, p)
		if s.Len() != 4 {
			t.Fatal("wrong Len after spill")
		}
	})
	if spilled != 1 {
		t.Fatalf("spilled path allocates %.0f objects per set, want exactly 1 (the bit vector)", spilled)
	}

	// Clear returns to inline: a retaken line allocates nothing again.
	retaken := testing.AllocsPerRun(100, func() {
		var s PESet
		s.Add(1, p)
		s.Add(2, p)
		s.Add(3, p)
		s.Clear()
		s.Add(4, p)
		if s.Len() != 1 {
			t.Fatal("wrong Len after clear")
		}
	})
	if retaken != 1 {
		t.Fatalf("clear+retake allocates %.0f objects per set, want 1 (only the pre-clear spill)", retaken)
	}
}

// TestPESetSpilledMatchesMap drives the set past the inline capacity so the
// map-equivalence property also covers the spilled representation and the
// inline->spill->Clear->inline round trip.
func TestPESetSpilledMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const p = 257 // odd, >4 words, exercises the last partial word
	var s PESet
	ref := map[int]bool{}
	for i := 0; i < 20000; i++ {
		pe := rng.Intn(p)
		switch rng.Intn(8) {
		case 0:
			s.Remove(pe)
			delete(ref, pe)
		case 1:
			if rng.Intn(50) == 0 {
				s.Clear()
				ref = map[int]bool{}
			}
		default:
			s.Add(pe, p)
			ref[pe] = true
		}
		if s.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", i, s.Len(), len(ref))
		}
	}
	prev := -1
	s.ForEach(func(pe int) {
		if !ref[pe] {
			t.Fatalf("ForEach yielded %d, not in reference", pe)
		}
		if pe <= prev {
			t.Fatalf("ForEach not ascending: %d after %d", pe, prev)
		}
		prev = pe
	})
	for pe := 0; pe < p; pe++ {
		if s.Contains(pe) != ref[pe] {
			t.Fatalf("Contains(%d) = %v, want %v", pe, s.Contains(pe), ref[pe])
		}
	}
}

func TestDirectoryInvalidatesOtherCopies(t *testing.T) {
	c0 := cache.MustLRU(16, 8)
	c1 := cache.MustLRU(16, 8)
	d := MustDirectory(2, 8, []Invalidator{c0, c1})

	// Both processors read line 0.
	c0.Access(0, true)
	d.Read(0, 0)
	c1.Access(0, true)
	d.Read(1, 0)
	if d.Sharers(0) != 2 {
		t.Fatalf("sharers = %d, want 2", d.Sharers(0))
	}

	// PE1 writes: PE0's copy must be invalidated.
	c1.Access(0, false)
	d.Write(1, 0)
	if !d.IsDirty(0) {
		t.Fatal("line should be dirty after write")
	}
	if d.Sharers(0) != 1 {
		t.Fatalf("sharers after write = %d, want 1", d.Sharers(0))
	}
	if res := c0.Access(0, true); res != cache.CoherenceMiss {
		t.Fatalf("PE0 re-read: got %v, want coherence miss", res)
	}

	s := d.Stats()
	if s.Invalidations != 1 || s.InvalidatingWrites != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDirectoryDowngrade(t *testing.T) {
	d := MustDirectory(2, 8, []Invalidator{nil, nil})
	d.Write(0, 0)
	if !d.IsDirty(0) {
		t.Fatal("expected dirty")
	}
	d.Read(1, 0)
	if d.IsDirty(0) {
		t.Fatal("remote read should downgrade dirty line")
	}
	if d.Stats().Downgrades != 1 {
		t.Fatalf("downgrades = %d, want 1", d.Stats().Downgrades)
	}
}

func TestDirectoryWriterKeepsOwnCopy(t *testing.T) {
	c0 := cache.MustLRU(16, 8)
	d := MustDirectory(2, 8, []Invalidator{c0, nil})
	c0.Access(0, true)
	d.Read(0, 0)
	c0.Access(0, false)
	d.Write(0, 0) // own write must not invalidate own copy
	if res := c0.Access(0, true); res != cache.Hit {
		t.Fatalf("own copy after own write: got %v, want hit", res)
	}
	if d.Stats().Invalidations != 0 {
		t.Fatal("no invalidations expected for private data")
	}
}

func TestDirectoryLineGranularity(t *testing.T) {
	// With 64-byte lines, addresses 0 and 32 share a line: false sharing
	// must invalidate.
	c0 := cache.MustLRU(16, 64)
	d := MustDirectory(2, 64, []Invalidator{c0, nil})
	c0.Access(0, true)
	d.Read(0, 0)
	d.Write(1, 32)
	if res := c0.Access(0, true); res != cache.CoherenceMiss {
		t.Fatalf("false sharing: got %v, want coherence miss", res)
	}
}

func TestDirectoryValidation(t *testing.T) {
	cases := []struct {
		name   string
		pes    int
		line   uint32
		caches []Invalidator
	}{
		{"zero PEs", 0, 8, nil},
		{"negative PEs", -1, 8, nil},
		{"cache count mismatch", 2, 8, []Invalidator{nil}},
		{"zero line", 2, 0, []Invalidator{nil, nil}},
		{"non-pow2 line", 2, 24, []Invalidator{nil, nil}},
	}
	for _, c := range cases {
		if _, err := NewDirectory(c.pes, c.line, c.caches); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: err = %v, want ErrInvalidConfig", c.name, err)
		}
	}
	// Must variant panics on the same inputs.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustDirectory should panic on invalid input")
			}
		}()
		MustDirectory(0, 8, nil)
	}()
}

func TestDirectoryResetStats(t *testing.T) {
	d := MustDirectory(2, 8, []Invalidator{nil, nil})
	d.Read(0, 0)
	d.Write(1, 0)
	d.ResetStats()
	if s := d.Stats(); s.ReadRequests != 0 || s.WriteRequests != 0 {
		t.Fatalf("stats after reset = %+v", s)
	}
	// Directory state must survive the reset.
	if d.Sharers(0) != 1 {
		t.Fatal("directory state lost on ResetStats")
	}
}

// TestProducerConsumerCommunication models the paper's inherent
// communication: a producer writes a boundary region each iteration, a
// consumer reads it. Every consumer read of a freshly written line must be
// a coherence miss, at any cache size.
func TestProducerConsumerCommunication(t *testing.T) {
	const boundary = 32 // double words
	prof := cache.MustStackProfiler(8)
	d := MustDirectory(2, 8, []Invalidator{nil, prof})

	for iter := 0; iter < 10; iter++ {
		if iter == 2 {
			prof.SetMeasuring(true)
		} else if iter < 2 {
			prof.SetMeasuring(false)
		}
		for i := 0; i < boundary; i++ {
			addr := uint64(i) * 8
			d.Write(0, addr) // producer
		}
		for i := 0; i < boundary; i++ {
			addr := uint64(i) * 8
			prof.Access(addr, 8, true) // consumer
			d.Read(1, addr)
		}
	}
	// 8 measured iterations, all boundary reads are coherence misses.
	cohR, _ := prof.CoherenceMisses()
	if cohR != 8*boundary {
		t.Fatalf("coherence read misses = %d, want %d", cohR, 8*boundary)
	}
	// Even an enormous cache cannot remove them.
	if got := prof.MissesAt(1 << 20).ReadMisses; got != 8*boundary {
		t.Fatalf("misses at 1M lines = %d, want %d", got, 8*boundary)
	}
}

func TestDirectoryManyPEsRandomized(t *testing.T) {
	const pes = 64
	caches := make([]Invalidator, pes)
	lrus := make([]*cache.LRU, pes)
	for i := range caches {
		lrus[i] = cache.MustLRU(64, 8)
		caches[i] = lrus[i]
	}
	d := MustDirectory(pes, 8, caches)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50000; i++ {
		pe := rng.Intn(pes)
		addr := uint64(rng.Intn(256)) * 8
		if rng.Intn(4) == 0 {
			lrus[pe].Access(addr, false)
			d.Write(pe, addr)
		} else {
			lrus[pe].Access(addr, true)
			d.Read(pe, addr)
		}
	}
	// Invariant: a dirty line has exactly one sharer.
	for line := uint64(0); line < 256; line++ {
		if d.IsDirty(line*8) && d.Sharers(line*8) != 1 {
			t.Fatalf("dirty line %d has %d sharers", line, d.Sharers(line*8))
		}
	}
}
