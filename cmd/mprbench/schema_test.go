package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchSweepSchema validates the committed BENCH_sweep.json against
// the current -benchout schema: strict decoding (field drift fails the
// test, forcing a schema bump plus a regeneration), the v5 schema tag,
// and sane per-experiment values. Point MPR_BENCH_JSON at a freshly
// written report to validate that instead — the CI bench smoke does
// exactly that after a quick run.
func TestBenchSweepSchema(t *testing.T) {
	path := os.Getenv("MPR_BENCH_JSON")
	if path == "" {
		path = filepath.Join("..", "..", "BENCH_sweep.json")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading bench report: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r benchReport
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
	if r.Schema != benchSchema {
		t.Fatalf("schema = %q, want %q (regenerate with `go run ./cmd/mprbench -exp all -quick -benchout BENCH_sweep.json`)", r.Schema, benchSchema)
	}
	if r.GoVersion == "" {
		t.Error("go_version is empty")
	}
	if r.GOMAXPROCS < 1 || r.Workers < 1 {
		t.Errorf("gomaxprocs %d / workers %d: want ≥ 1", r.GOMAXPROCS, r.Workers)
	}
	if r.TotalSeconds <= 0 {
		t.Errorf("total_seconds = %v, want > 0", r.TotalSeconds)
	}

	if len(r.Experiments) == 0 {
		t.Fatal("experiments section is empty")
	}
	seen := map[string]bool{}
	for _, e := range r.Experiments {
		if e.ID == "" || e.Title == "" {
			t.Errorf("experiment entry %+v: empty id or title", e)
		}
		if e.Seconds < 0 {
			t.Errorf("experiment %s: negative seconds %v", e.ID, e.Seconds)
		}
		if seen[e.ID] {
			t.Errorf("experiment %s appears twice", e.ID)
		}
		seen[e.ID] = true
	}
}
