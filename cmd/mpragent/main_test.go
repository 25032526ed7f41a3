package main

import (
	"math"
	"testing"

	"mpr/internal/perf"
)

// TestCostModelRefusesNonFiniteAlpha pins -alpha's check: NaN and ±Inf
// are refused, and a finite alpha builds the library's model.
func TestCostModelRefusesNonFiniteAlpha(t *testing.T) {
	prof, err := perf.ProfileByName("XSBench")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if m, err := costModel(prof, a, false); err == nil {
			t.Errorf("alpha %v accepted as %+v", a, m)
		}
	}
	m, err := costModel(prof, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := perf.NewCostModel(prof, 2, perf.CostQuadratic); *m != *want {
		t.Errorf("alpha 2 quadratic built %+v, want %+v", m, want)
	}
}
