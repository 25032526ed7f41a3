package main

import (
	_ "embed"
	"encoding/json"
	"os"
)

// goldenJSON holds, per workload, the facts — exact counts, and prices
// to 1e-9 — a run with the default seed must reproduce. A change that
// alters a simulated statistic or a clearing price fails against it.
//
//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]map[string]float64, error) {
	golden := map[string]map[string]float64{}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return nil, err
	}
	return golden, nil
}

// writeGolden rewrites golden.json in the current directory (the
// bench's own, under `go run -C bench`), keeping the workloads this run
// did not cover.
func writeGolden(results []*Result) error {
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	for _, r := range results {
		golden[r.Section] = r.Facts
	}
	data, err := json.MarshalIndent(golden, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile("golden.json", append(data, '\n'), 0o644)
}
