package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"wsstudy/internal/obs"
	"wsstudy/internal/workingset"
)

// TestCanonicalOptions pins the canonical encoding: defaults explicit,
// stable across runs, and insensitive to non-semantic fields.
func TestCanonicalOptions(t *testing.T) {
	const zeroWant = "optv2;assoc=0;cache=0;line=0;pes=0;problem=0;sample=1;scale=full"
	if got := (Options{}).Canonical(); got != zeroWant {
		t.Errorf("zero Options canonical = %q, want %s", got, zeroWant)
	}
	if got := (Options{Scale: ScaleQuick}).Canonical(); !strings.HasSuffix(got, ";scale=quick") {
		t.Errorf("quick canonical = %q", got)
	}
	// Timeout bounds a run and MachineShards picks an engine; neither can
	// change a completed report, so neither may change the encoding.
	a := Options{Scale: ScaleQuick}
	for _, b := range []Options{
		{Scale: ScaleQuick, Timeout: 5 * time.Minute},
		{Scale: ScaleQuick, MachineShards: 4},
	} {
		if a.Canonical() != b.Canonical() {
			t.Errorf("non-semantic field changed the canonical form: %q vs %q", a.Canonical(), b.Canonical())
		}
	}
	if (Options{}).Canonical() == a.Canonical() {
		t.Errorf("full and quick scale share a canonical form")
	}
}

// TestAxisRoundTrip proves SetAxis is the inverse of AxisValue for
// every registered axis, that the canonical encoding covers exactly
// the axis registry, and that malformed values are rejected — the
// contract the sweep lattice and the HTTP decoder both build on.
func TestAxisRoundTrip(t *testing.T) {
	src := Options{
		Scale: ScaleQuick, CacheBytes: 1 << 16, LineBytes: 32,
		Assoc: 4, PEs: 64, Problem: 500,
	}
	var dst Options
	for _, f := range AxisFields() {
		v := src.AxisValue(f)
		if v == "" {
			t.Fatalf("AxisValue(%q) empty", f)
		}
		if err := dst.SetAxis(f, v); err != nil {
			t.Fatalf("SetAxis(%q, %q): %v", f, v, err)
		}
	}
	if dst.Canonical() != src.Canonical() {
		t.Errorf("round-trip canonical %q != %q", dst.Canonical(), src.Canonical())
	}
	// The canonical string mentions every axis exactly once.
	canon := src.Canonical()
	for _, f := range AxisFields() {
		if !strings.Contains(canon, ";"+f+"=") {
			t.Errorf("canonical %q missing axis %q", canon, f)
		}
	}

	var o Options
	for _, bad := range [][2]string{
		{"scale", "huge"}, {"cache", "-1"}, {"cache", "x"},
		{"pes", "-2"}, {"line", "1.5"}, {"nosuch", "1"},
	} {
		if err := o.SetAxis(bad[0], bad[1]); err == nil {
			t.Errorf("SetAxis(%q, %q) accepted", bad[0], bad[1])
		}
	}
}

func TestParseScale(t *testing.T) {
	for in, want := range map[string]Scale{
		"": ScaleFull, "full": ScaleFull, "FULL": ScaleFull,
		"quick": ScaleQuick, "Quick": ScaleQuick,
	} {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Errorf("ParseScale accepted an unknown scale")
	}
}

func TestParseFormat(t *testing.T) {
	for in, want := range map[string]Format{
		"": FormatText, "text": FormatText, "csv": FormatCSV, "JSON": FormatJSON,
	} {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Errorf("ParseFormat accepted an unknown format")
	}
}

// TestReportV1RoundTrip checks that Report -> V1 -> JSON -> V1 -> Report
// preserves everything the wire schema carries, and that the JSON is
// self-describing via schema_version.
func TestReportV1RoundTrip(t *testing.T) {
	r := &Report{
		Title: "demo",
		Figures: []Figure{{
			Title: "fig", XLabel: "cache size", YLabel: "miss rate",
			Series: []Series{{Label: "s", Points: []workingset.Point{
				{CacheBytes: 64, MissRate: 0.5},
				{CacheBytes: 128, MissRate: 0.25},
			}}},
		}},
		Tables: []Table{{Title: "t", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}},
		Notes:  []string{"a note"},
		Metrics: &obs.Metrics{
			Counters: map[string]uint64{"trace.refs": 9},
		},
	}

	var sb strings.Builder
	if err := r.Render(&sb, FormatJSON); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), fmt.Sprintf(`"schema_version": %d`, ReportSchemaVersion)) {
		t.Errorf("JSON render missing schema_version:\n%.300s", sb.String())
	}
	var v ReportV1
	if err := json.Unmarshal([]byte(sb.String()), &v); err != nil {
		t.Fatalf("JSON render not a valid ReportV1: %v", err)
	}
	if v.SchemaVersion != ReportSchemaVersion {
		t.Errorf("schema_version = %d, want %d", v.SchemaVersion, ReportSchemaVersion)
	}

	back := v.Report()
	if back.Title != r.Title || len(back.Figures) != 1 || len(back.Tables) != 1 {
		t.Fatalf("round-trip lost structure: %+v", back)
	}
	if got := back.Figures[0].Series[0].Points[1]; got.CacheBytes != 128 || got.MissRate != 0.25 {
		t.Errorf("round-trip point = %+v", got)
	}
	if back.Tables[0].Rows[0][1] != "2" || back.Notes[0] != "a note" {
		t.Errorf("round-trip table/notes lost: %+v", back)
	}
	if back.Metrics == nil || back.Metrics.Counter("trace.refs") != 9 {
		t.Errorf("round-trip metrics lost: %+v", back.Metrics)
	}

	// The three formats all flow through the one Render method.
	var text, csv strings.Builder
	if err := back.Render(&text, FormatText); err != nil {
		t.Fatal(err)
	}
	if err := back.Render(&csv, FormatCSV); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "== demo ==") {
		t.Errorf("text render wrong:\n%s", text.String())
	}
	if !strings.Contains(csv.String(), "fig,s,128,0.25") {
		t.Errorf("csv render wrong:\n%s", csv.String())
	}
}
