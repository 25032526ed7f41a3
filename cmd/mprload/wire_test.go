package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// wireRun drives one tiny deterministic load run over the given wire and
// returns its report.
func wireRun(t *testing.T, wire string, shards int) *loadReport {
	t.Helper()
	h, err := newHarness(loadConfig{
		Agents:   32,
		Mode:     "closed",
		Duration: 400 * time.Millisecond,
		Dist:     "bimodal",
		Seed:     7,
		Jitter:   0, // deterministic bids: every market clears at one price
		Wire:     wire,
		Shards:   shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.connect(); err != nil {
		t.Fatal(err)
	}
	defer h.close()
	rep, err := h.run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestWireDifferential pins transport equivalence at the harness level:
// the same deterministic fleet over JSON lines and over binary frames —
// and across shard counts — must clear at the bit-identical price. With
// zero jitter every market in a run re-clears at one fixed point, so the
// min/last/max of the price section collapse to that value regardless of
// how many markets each run squeezed into its duration.
func TestWireDifferential(t *testing.T) {
	base := wireRun(t, "json", 1)
	if base.Markets.Runs < 1 || base.ClearPrice.Samples < 1 {
		t.Fatalf("baseline run cleared nothing: %+v", base.Markets)
	}
	if want := base.Markets.Runs - base.Markets.Errors; base.ClearPrice.Samples != want {
		t.Fatalf("clear_price.samples = %d, want one per cleared market (%d)", base.ClearPrice.Samples, want)
	}
	want := math.Float64bits(base.ClearPrice.Last)
	if math.Float64bits(base.ClearPrice.Min) != want || math.Float64bits(base.ClearPrice.Max) != want {
		t.Fatalf("zero-jitter baseline price drifted: %+v", base.ClearPrice)
	}
	for _, tc := range []struct {
		name   string
		wire   string
		shards int
	}{
		{"binary", "binary", 1},
		{"binary-sharded", "binary", 4},
		{"json-sharded", "json", 4},
	} {
		rep := wireRun(t, tc.wire, tc.shards)
		if rep.Config.Wire != tc.wire || rep.Config.Shards != tc.shards {
			t.Errorf("%s: config echo wire=%q shards=%d", tc.name, rep.Config.Wire, rep.Config.Shards)
		}
		for field, got := range map[string]float64{
			"last": rep.ClearPrice.Last, "min": rep.ClearPrice.Min, "max": rep.ClearPrice.Max,
		} {
			if math.Float64bits(got) != want {
				t.Errorf("%s: clear_price.%s = %v, want %v (bit-identical across wires)",
					tc.name, field, got, base.ClearPrice.Last)
			}
		}
	}
}

// TestHarnessRefusesBadJitter: a jitter outside [0,1] — NaN included —
// is refused before any agent connects. A NaN jitter would put NaN in
// every bid, and the report could not be written at the end of the run.
func TestHarnessRefusesBadJitter(t *testing.T) {
	for _, j := range []float64{math.NaN(), -0.1, 1.5, math.Inf(1)} {
		_, err := newHarness(loadConfig{Agents: 1, Mode: "closed", Dist: "uniform", Jitter: j})
		if err == nil || !strings.Contains(err.Error(), "-jitter") {
			t.Errorf("jitter %v: err = %v, want the -jitter range error", j, err)
		}
	}
}
