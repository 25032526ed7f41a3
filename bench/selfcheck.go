package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the A/A calibration reads.
type benchmarkSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadBenchmarkSpec finds BENCHMARK.json at the repository root, from
// there or from the bench's own directory.
func loadBenchmarkSpec() (*benchmarkSpec, error) {
	var data []byte
	var err error
	for _, path := range []string{"../BENCHMARK.json", "BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	spec := &benchmarkSpec{}
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (its default "exclusive" method), which is what the driver uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		lo := int(pos)
		if lo < 1 {
			lo = 1
		}
		if lo > len(s)-1 {
			lo = len(s) - 1
		}
		return s[lo-1] + (s[lo]-s[lo-1])*(pos-float64(lo))
	}
	return cut(1), cut(2), cut(3)
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worseBy(better string, a, b float64) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfCheck is the A/A calibration: every workload of BENCHMARK.json is
// run 2×runs times untraced, alternating between set A and set B (the
// same code, the same seeds), and the two sets must agree within each
// metric's bound. It is the source of every bound in BENCHMARK.json.
func selfCheck(w io.Writer, seed int64, runs int) error {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		return err
	}
	if runs < 2 {
		return fmt.Errorf("-runs must be at least 2")
	}
	bad := 0
	for _, wl := range spec.Workloads {
		names := strings.Split(wl.Name, "-")
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*runs; i++ {
			set := i % 2
			results, err := runPass(io.Discard, names, seed+int64(i/2), shareSeconds(names, spec.RunSeconds), false)
			if err != nil {
				return err
			}
			line, problems := merge(results)
			if line.Failed > 0 || len(problems) > 0 {
				return fmt.Errorf("%s: %d operations failed %v", wl.Name, line.Failed, problems)
			}
			for name, v := range line.Metrics {
				sets[set][name] = append(sets[set][name], v.Value)
			}
			fmt.Fprintf(w, "%s run %d/%d done\n", wl.Name, i+1, 2*runs)
		}
		fmt.Fprintf(w, "\n%s, %d runs per set\n%-22s %5s | %12s %7s | %12s %7s | %8s\n", wl.Name, runs,
			"metric", "bound", "A median", "spread", "B median", "spread", "B worse")
		for _, m := range spec.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			if len(a) != runs || len(b) != runs {
				return fmt.Errorf("%s: %s reported in %d and %d of %d runs", wl.Name, m.Name, len(a), len(b), runs)
			}
			aq1, amed, aq3 := quartiles(a)
			bq1, bmed, bq3 := quartiles(b)
			aSpread, bSpread := (aq3-aq1)/amed, (bq3-bq1)/bmed
			drift := worseBy(m.Better, amed, bmed)
			verdict := "ok"
			switch {
			case drift > m.Bound || -drift > m.Bound:
				verdict = "SETS DISAGREE"
				bad++
			case m.Name != "setup_s" && (aSpread > m.Bound || bSpread > m.Bound):
				verdict = "SPREAD OVER BOUND"
				bad++
			case m.Name != "setup_s" && (aSpread > m.Bound/3 || bSpread > m.Bound/3):
				verdict = "ok (spread over a third of the bound)"
			}
			fmt.Fprintf(w, "%-22s %5.2f | %12.6g %6.1f%% | %12.6g %6.1f%% | %+7.1f%%  %s\n",
				m.Name, m.Bound, amed, 100*aSpread, bmed, 100*bSpread, 100*drift, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric/workload pairs outside their bounds", bad)
	}
	fmt.Fprintln(w, "\nselfcheck passed: both sets agree within every bound")
	return nil
}
