// Command mprbench regenerates the MPR paper's tables and figures.
//
// Usage:
//
//	mprbench -exp all            # every table/figure + ablations
//	mprbench -exp f8,f9          # specific experiments
//	mprbench -exp t1 -quick=false -seed 7
//	mprbench -exp f8 -parallel 8 # bound the sweep worker pool
//	mprbench -exp all -benchout BENCH_sweep.json
//	mprbench -exp none -series series.jsonl  # export the recorded timeline
//
// -series runs the instrumented Gaia timeline simulation (the run behind
// Fig. 9's power timeline), exports its per-slot series store to the
// given file as JSONL (one line per point, whatever the file name), and
// evaluates the simulation SLO alert rules post hoc over the recording.
// The export is bit-identical at any -parallel setting. Use -exp none to
// export without running any experiment tables.
//
// Experiment IDs follow the paper: t1 (Table I), f1b, f2, f3, f4, f6, f7,
// f8, f9, f10, f11, f12, f13, f14, f15, f16, f17, plus the repository
// ablations a1..a6 and extension studies x1..x7. See DESIGN.md for the
// per-experiment index.
//
// Sweeps fan their independent simulation cells across a worker pool
// (-parallel; 0 = GOMAXPROCS, 1 = serial). Tables are bit-identical at
// any worker count — see DESIGN.md §9 for the determinism contract.
// -benchout writes a machine-readable per-experiment wall-clock report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"mpr/internal/experiments"
	"mpr/internal/runner"
	"mpr/internal/telemetry/alerts"
	"mpr/internal/telemetry/tsdb"
)

// benchReport is the -benchout JSON schema: enough context to compare
// runs across machines and worker counts.
type benchReport struct {
	Schema       string           `json:"schema"`
	GoVersion    string           `json:"go_version"`
	GOMAXPROCS   int              `json:"gomaxprocs"`
	Workers      int              `json:"workers"`
	Seed         int64            `json:"seed"`
	Quick        bool             `json:"quick"`
	Experiments  []benchExpReport `json:"experiments"`
	TotalSeconds float64          `json:"total_seconds"`
}

// benchSchema names the -benchout JSON schema: the per-experiment wall
// clock and nothing else. Strict decoding (schema_test.go) refuses the
// "stream" and "engine(s)" fields v2–v4 files carried.
const benchSchema = "mprbench/sweep/v5"

type benchExpReport struct {
	ID      string  `json:"id"`
	Title   string  `json:"title"`
	Seconds float64 `json:"seconds"`
}

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		seed     = flag.Int64("seed", 1, "random seed")
		quick    = flag.Bool("quick", true, "run reduced-scale experiments (full scale reproduces the paper's horizons but takes much longer)")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		format   = flag.String("format", "text", "output format: text or markdown")
		parallel = flag.Int("parallel", 0, "sweep worker-pool bound: 0 = GOMAXPROCS, 1 = serial, n > 1 = up to n concurrent cells (tables are identical at any setting)")
		benchout = flag.String("benchout", "", "write a machine-readable wall-clock report (JSON) to this file")
		series   = flag.String("series", "", "export the instrumented timeline run's per-slot series to this file as JSONL and evaluate the SLO alert rules over it")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []experiments.Experiment
	switch {
	case *exp == "all":
		selected = experiments.All()
	case *exp == "none" || *exp == "":
		// No tables — used with -series to just export the recording.
	default:
		for _, id := range strings.Split(*exp, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	opts := experiments.Options{Seed: *seed, Quick: *quick, Parallel: *parallel}
	workers := *parallel
	if workers <= 0 {
		workers = runner.DefaultWorkers()
	}
	report := benchReport{
		Schema:     benchSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Seed:       *seed,
		Quick:      *quick,
	}
	suiteStart := time.Now()
	for _, e := range selected {
		start := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		elapsed := time.Since(start).Seconds()
		report.Experiments = append(report.Experiments, benchExpReport{
			ID: e.ID, Title: e.Title, Seconds: elapsed,
		})
		switch *format {
		case "markdown":
			fmt.Printf("### %s — %s\n\n", res.ID, e.Title)
			for _, tbl := range res.Tables {
				fmt.Println(tbl.Markdown())
			}
			for _, n := range res.Notes {
				fmt.Printf("*Note: %s.*\n\n", n)
			}
		default:
			fmt.Printf("### %s — %s  (%.1fs)\n\n", res.ID, e.Title, elapsed)
			for _, tbl := range res.Tables {
				fmt.Println(tbl.String())
			}
			for _, n := range res.Notes {
				fmt.Printf("note: %s\n", n)
			}
			fmt.Println()
		}
	}
	report.TotalSeconds = time.Since(suiteStart).Seconds()

	if len(selected) > 1 && *format != "markdown" {
		fmt.Printf("wall clock by experiment (workers=%d):\n", workers)
		for _, r := range report.Experiments {
			fmt.Printf("  %-4s %7.1fs  %s\n", r.ID, r.Seconds, r.Title)
		}
		fmt.Printf("  %-4s %7.1fs\n", "all", report.TotalSeconds)
	}

	if *series != "" {
		res, err := experiments.TimelineRun(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "series run: %v\n", err)
			os.Exit(1)
		}
		if err := tsdb.ExportFile(res.Series, tsdb.Query{}, *series); err != nil {
			fmt.Fprintf(os.Stderr, "series export: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *series)
		firings := (&alerts.Scorecard{Rules: alerts.SimRules()}).Eval(res.Series)
		if len(firings) == 0 {
			fmt.Println("SLO alerts over the recorded series: none fired")
		} else {
			fmt.Printf("SLO alerts over the recorded series (%d firings):\n", len(firings))
			for _, f := range firings {
				fmt.Printf("  %s — %s\n", f, f.Help)
			}
		}
	}

	if *benchout != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*benchout, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *benchout)
	}
}
