package flight

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mpr/internal/telemetry/alerts"
)

// TestFlightBundleSchema validates mprflight/v3 bundles the same way the
// mprload/mprbench schema tests do: the committed testdata bundle (pins
// the wire format against accidental drift — a new field without a
// schema bump fails the strict decode) plus a freshly generated one. CI
// points MPR_FLIGHT_JSON at a bundle a booted mprd dumped to validate
// the real daemon artifact too. The testdata bundle with a second JSON
// value appended must fail the read.
func TestFlightBundleSchema(t *testing.T) {
	paths := []string{filepath.Join("testdata", "flight_v3.json")}
	if external := os.Getenv("MPR_FLIGHT_JSON"); external != "" {
		paths = append(paths, external)
	} else {
		paths = append(paths, generateBundle(t))
	}
	for _, path := range paths {
		b, err := ReadBundleFile(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		checkBundle(t, path, b)
	}

	// A valid bundle followed by a second JSON value is a damaged file.
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	trailing := filepath.Join(t.TempDir(), "trailing.json")
	if err := os.WriteFile(trailing, append(raw, "{}"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundleFile(trailing); err == nil {
		t.Error("bundle with trailing bytes accepted")
	}
}

// generateBundle dumps a fresh alert-triggered bundle from a tiny
// in-process recorder.
func generateBundle(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	rec, tracer, store := testRecorder(t, dir)
	market := tracer.StartSpan("market", nil)
	market.SetAttr("price", "4.2")
	market.SetAttr("target_w", "1000")
	market.End()
	store.Series("mpr_mgr_evictions").Append(4990, 3)
	rec.SampleRuntime(time.Unix(4995, 0))
	f := firing("EvictionBurst", 4990)
	path, err := rec.OnFirings(time.Unix(5000, 0), []alerts.Firing{f})
	if err != nil || path == "" {
		t.Fatalf("generating bundle: path=%q err=%v", path, err)
	}
	return path
}

// checkBundle applies the semantic floor the readers rely on, past what
// Validate already guarantees.
func checkBundle(t *testing.T, path string, b *Bundle) {
	t.Helper()
	if b.Build.GoVersion == "" {
		t.Errorf("%s: build.go_version is empty", path)
	}
	if b.Reason == ReasonAlert {
		if b.Trigger.Rule == "" || b.Trigger.Series == "" {
			t.Errorf("%s: alert trigger incomplete: %+v", path, b.Trigger)
		}
		// The trigger must also appear in the retained firing history.
		found := false
		for _, f := range b.Firings {
			if f.Rule == b.Trigger.Rule && f.From == b.Trigger.From {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: trigger %s@%d missing from firing history", path, b.Trigger.Rule, b.Trigger.From)
		}
	}
	// The runtime window is the point of the recorder: every mpr_rt_*
	// series must be present with at least one point.
	for _, name := range []string{SeriesGoroutines, SeriesHeapInuse, SeriesGCPauseP99, SeriesSchedLatP99} {
		found := false
		for _, sd := range b.Series {
			if sd.Name == name && len(sd.Points) > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: series window missing %s", path, name)
		}
	}
	if b.Runtime.HeapInuseBytes <= 0 {
		t.Errorf("%s: runtime.heap_inuse_bytes = %d, want > 0", path, b.Runtime.HeapInuseBytes)
	}
}

// FuzzBundleDecode feeds arbitrary bytes to ReadBundleFile (strict
// decode, end of input, Validate). It never panics, and a bundle it
// accepts writes back through WriteBundleFile and reads back equal. Each
// fuzz worker runs one input at a time, so one file path serves them all.
func FuzzBundleDecode(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("testdata", "flight_v3.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(append(raw, "{}"...))
	path := filepath.Join(f.TempDir(), "bundle.json")
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := ReadBundleFile(path)
		if err != nil {
			return
		}
		if err := WriteBundleFile(path, b); err != nil {
			t.Fatalf("write accepted bundle: %v", err)
		}
		back, err := ReadBundleFile(path)
		if err != nil {
			t.Fatalf("read back accepted bundle: %v", err)
		}
		if !reflect.DeepEqual(back, b) {
			t.Fatalf("bundle round trip diverged:\n got  %+v\n want %+v", back, b)
		}
	})
}
