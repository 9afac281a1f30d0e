package linetab

import (
	"encoding/binary"
	"math"
	"testing"
)

// edgeLines are the line indices the table must handle like any other:
// line 0 (address 0 at any line size), the first far page, the middle of
// the far range and the last representable line (addresses near the top of
// the space at line size 1).
var edgeLines = []uint64{
	0, 1, pageSize - 1, pageSize,
	denseLimit*pageSize - 1, denseLimit * pageSize,
	1 << 63, math.MaxUint64 - pageSize, math.MaxUint64,
}

func TestTableZeroValueIsEmpty(t *testing.T) {
	var tab Table[int32]
	for _, line := range edgeLines {
		if v := tab.Get(line); v != 0 {
			t.Fatalf("Get(%#x) on empty table = %d, want 0", line, v)
		}
	}
	if len(tab.dense) != 0 || tab.far != nil {
		t.Fatal("Get allocated pages")
	}
}

func TestTableSetGet(t *testing.T) {
	var tab Table[uint64]
	for i, line := range edgeLines {
		*tab.Ptr(line) = uint64(i) + 100
	}
	for i, line := range edgeLines {
		if got, want := tab.Get(line), uint64(i)+100; got != want {
			t.Fatalf("Get(%#x) = %d, want %d", line, got, want)
		}
	}
	// Neighbours of the stored lines stay absent.
	for _, line := range []uint64{2, pageSize + 1, 1<<63 + 1, 1<<63 - 1, math.MaxUint64 - 1} {
		if got := tab.Get(line); got != 0 {
			t.Fatalf("Get(%#x) = %d, want 0 (never set)", line, got)
		}
	}
	// Zero is absent: storing it reads back as never stored.
	*tab.Ptr(0) = 0
	if tab.Get(0) != 0 {
		t.Fatal("storing 0 did not clear line 0")
	}
}

// TestTableDenseRange pins the layout: arena-style lines fill the dense
// page slice, only lines past it reach the far map, and dense growth keeps
// earlier pages (and pointers into them) in place.
func TestTableDenseRange(t *testing.T) {
	var tab Table[int32]
	p := tab.Ptr(0x1000 >> 3)
	*p = 7
	for line := uint64(0); line < 40*pageSize; line += 37 { // 37 never hits line 512
		*tab.Ptr(line) += 1
	}
	if tab.far != nil {
		t.Fatalf("dense lines reached the far map (%d pages)", len(tab.far))
	}
	if *p != 7 {
		t.Fatalf("pointer into a page moved across dense growth: *p = %d", *p)
	}
	if got, want := tab.Get(0x1000>>3), *p; got != want {
		t.Fatalf("Get = %d, pointer reads %d", got, want)
	}
	*tab.Ptr(denseLimit * pageSize) = 1
	if len(tab.far) != 1 {
		t.Fatalf("far map has %d pages, want 1", len(tab.far))
	}
	if len(tab.dense) > denseLimit {
		t.Fatalf("dense slice grew to %d pages, limit %d", len(tab.dense), denseLimit)
	}
}

// TestTablePtrAllocatesOncePerPage pins the allocation contract: the
// first touch of a page allocates it, every later access to any of its
// slots allocates nothing.
func TestTablePtrAllocatesOncePerPage(t *testing.T) {
	var tab Table[int64]
	tab.Ptr(3)
	tab.Ptr(1 << 63)
	allocs := testing.AllocsPerRun(100, func() {
		for line := uint64(0); line < pageSize; line++ {
			*tab.Ptr(line) += 1
		}
		*tab.Ptr(1<<63 + 5) += 1
		_ = tab.Get(1 << 62)
	})
	if allocs != 0 {
		t.Fatalf("resident-page accesses allocated %.1f times, want 0", allocs)
	}
}

// FuzzLineTable drives a table and a map[uint64]int64 model with the same
// operations and requires every read to agree. Each operation is 9 bytes:
// an opcode byte and a line; the line is used as is, as a small offset
// into the dense range, or as an offset down from the top of the space, so
// dense pages, far pages and the edge lines all get exercised.
func FuzzLineTable(f *testing.F) {
	f.Add([]byte{})
	seed := []byte{}
	for _, line := range edgeLines {
		seed = append(seed, 0)
		seed = binary.LittleEndian.AppendUint64(seed, line)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab Table[int64]
		model := map[uint64]int64{}
		var lines []uint64
		for len(data) >= 9 {
			op := data[0]
			raw := binary.LittleEndian.Uint64(data[1:9])
			data = data[9:]
			var line uint64
			switch op >> 6 {
			case 0:
				line = raw
			case 1:
				line = raw % (4 * pageSize)
			case 2:
				line = math.MaxUint64 - raw%(4*pageSize)
			default:
				line = denseLimit*pageSize - 2*pageSize + raw%(4*pageSize)
			}
			lines = append(lines, line)
			switch op & 3 {
			case 0:
				v := int64(raw>>32) - 1<<30
				*tab.Ptr(line) = v
				if v == 0 {
					delete(model, line)
				} else {
					model[line] = v
				}
			case 1:
				*tab.Ptr(line) += 1
				if model[line]++; model[line] == 0 {
					delete(model, line)
				}
			case 2:
				*tab.Ptr(line) = 0
				delete(model, line)
			}
			if got, want := tab.Get(line), model[line]; got != want {
				t.Fatalf("Get(%#x) = %d, model %d", line, got, want)
			}
		}
		for _, line := range lines {
			for _, l := range []uint64{line, line + 1, line - 1} {
				if got, want := tab.Get(l), model[l]; got != want {
					t.Fatalf("final Get(%#x) = %d, model %d", l, got, want)
				}
			}
		}
	})
}

func BenchmarkTablePtrDense(b *testing.B) {
	var tab Table[int32]
	const span = 1 << 16
	for line := uint64(0); line < span; line++ {
		tab.Ptr(line)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*tab.Ptr(uint64(i) & (span - 1)) += 1
	}
}
