package mpr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Every exported facade name has a reader: README.md, a program under
// examples/, or example_test.go calls it as mpr.<Name>. A name nothing
// calls belongs in its internal package, not here.
func TestFacadeNamesHaveReaders(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "api.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				exported = append(exported, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exported = append(exported, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							exported = append(exported, n.Name)
						}
					}
				}
			}
		}
	}

	readers := []string{"README.md", "example_test.go"}
	err = filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			readers = append(readers, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	ref := regexp.MustCompile(`\bmpr\.([A-Z]\w*)`)
	for _, path := range readers {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllStringSubmatch(string(src), -1) {
			used[m[1]] = true
		}
	}

	var unread []string
	for _, name := range exported {
		if !used[name] {
			unread = append(unread, name)
		}
	}
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Errorf("%d facade names have no reader in README.md, examples/ or example_test.go: %s",
			len(unread), strings.Join(unread, ", "))
	}
	if len(exported) < 40 {
		t.Errorf("parsed only %d exported names from api.go", len(exported))
	}
}

// The facade must expose a coherent end-to-end workflow: profile → cost
// model → bids → market → settlement.
func TestPublicAPIMarketFlow(t *testing.T) {
	prof, err := ProfileByName("XSBench")
	if err != nil {
		t.Fatal(err)
	}
	model := NewCostModel(prof, 1, CostLinear)
	parts := []*Participant{{
		JobID:        "j1",
		Cores:        16,
		Bid:          CooperativeBid(16, model),
		WattsPerCore: DefaultCPUCoreModel.DynamicW,
		MaxFrac:      prof.MaxReduction(),
	}}
	res, err := Clear(parts, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.SuppliedW < 500-1e-6 {
		t.Errorf("clearing result = %+v", res)
	}
	ss, err := Settle(parts, res.Reductions, res.Price)
	if err != nil || len(ss) != 1 {
		t.Fatalf("settle: %v, %d", err, len(ss))
	}
}

func TestPublicAPISimulation(t *testing.T) {
	tr, err := GenerateTrace(TraceConfig{
		Name: "api-sim", Seed: 2, TotalCores: 128, Days: 3,
		JobCount: 400, MeanUtil: 0.72, MaxJobFrac: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cdf := UtilizationCDF(tr, 60); cdf.Len() == 0 {
		t.Error("empty utilization CDF")
	}
	res, err := RunSim(SimConfig{Trace: tr, OversubPct: 15, Algorithm: AlgMPRStat, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsCompleted != res.JobsTotal {
		t.Errorf("incomplete: %d/%d", res.JobsCompleted, res.JobsTotal)
	}
}

func TestPublicAPIProfiles(t *testing.T) {
	gpus := GPUProfiles()
	if len(gpus) != 6 {
		t.Errorf("GPU profiles = %d, want 6", len(gpus))
	}
	for _, p := range gpus {
		if got, err := ProfileByName(p.Name); err != nil || got != p {
			t.Errorf("ProfileByName(%q) = %v, %v", p.Name, got, err)
		}
	}
	if len(TracePresets(1)) != 4 {
		t.Error("trace presets wrong through the facade")
	}
}

func TestPublicAPICluster(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Seed: 1, UseMPR: true})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(120)
	if got := c.Result(); got.PowerSeries.Len() != 120 {
		t.Errorf("power series = %d samples", got.PowerSeries.Len())
	}
}

// The power substrate through the facade: a capacity plan, a per-core
// power model, and the emergency controller declaring on overload.
func TestPublicAPIInfrastructure(t *testing.T) {
	o := Oversubscription{PeakW: 10000, Percent: 20}
	if c := o.Capacity(); c >= 10000 || c <= 0 {
		t.Errorf("20%% oversubscribed capacity = %v W for a 10 kW peak", c)
	}
	if DefaultCPUCoreModel.DynamicW <= 0 || DefaultGPUCoreModel.DynamicW <= 0 {
		t.Error("default core models have no dynamic power")
	}
	ec, err := NewEmergencyController(EmergencyConfig{CapacityW: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if d := ec.Step(1100, 1100); !d.Declare {
		t.Error("controller facade broken")
	}
}
