package experiments

import (
	"reflect"
	"sync"
	"testing"

	"mpr/internal/perf"
	"mpr/internal/power"
	"mpr/internal/sim"
	"mpr/internal/trace"
)

// TestEachConfigSimulatedOnce runs figures that sweep one factor from
// the Gaia sweep's base (Figs. 12, 13, ablations A2, A3 and study X7)
// after Fig. 8, on caches that are cold only at the start, and holds the
// run cache to simulating each distinct normalized configuration once:
// a cell at its factor's default is the Gaia sweep's cell.
func TestEachConfigSimulatedOnce(t *testing.T) {
	var (
		mu   sync.Mutex
		seen []sim.Config
	)
	t.Cleanup(func() { simRun = sim.Run })
	simRun = func(cfg sim.Config) (*sim.Result, error) {
		norm := cfg
		if err := norm.Normalize(); err != nil {
			return nil, err
		}
		mu.Lock()
		seen = append(seen, norm)
		mu.Unlock()
		return sim.Run(cfg)
	}
	ResetCaches()
	o := Options{Seed: 1, Quick: true, Days: 2, Parallel: 4}
	for _, id := range []string{"f8", "f12", "f13", "a2", "a3", "x7", "x4", "x4"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	for i := range seen {
		for j := i + 1; j < len(seen); j++ {
			if reflect.DeepEqual(seen[i], seen[j]) {
				t.Errorf("runs %d and %d simulate one configuration (%s at %v%%)",
					i, j, seen[i].Algorithm, seen[i].OversubPct)
			}
		}
	}
	t.Logf("%d simulator runs", len(seen))
}

// TestRunKeyCoversEveryField perturbs each field of a base configuration
// in turn, found by reflection so that a field added to sim.Config is
// covered too: every perturbation must name a different run, and a field
// set to its default must name the same run as one left at zero.
func TestRunKeyCoversEveryField(t *testing.T) {
	gen := trace.GenConfig{Name: "key-test", Seed: 3, TotalCores: 64, Days: 1,
		JobCount: 40, MeanUtil: 0.6, MaxJobFrac: 0.25}
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	// The same workload built again: equal content, another pointer.
	twin, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	base := sim.Config{Trace: tr, OversubPct: 15, Algorithm: sim.AlgMPRStat, Seed: 1}
	key := func(c sim.Config) runKey {
		t.Helper()
		k, err := keyOf(c)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	baseKey := key(base)
	named := map[runKey]string{baseKey: "base"}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		c := base
		f := reflect.ValueOf(&c).Elem().Field(i)
		switch p := f.Addr().Interface().(type) {
		case **trace.Trace:
			*p = twin
		case *sim.Algorithm:
			*p = sim.AlgMPRInt
		case *power.CoreModel:
			*p = power.DefaultGPUCoreModel
		case *[]*perf.Profile:
			*p = perf.GPUProfiles()
		case *map[string]power.CoreModel:
			*p = map[string]power.CoreModel{"XSBench": power.DefaultGPUCoreModel}
		default:
			switch f.Kind() {
			case reflect.Float64:
				f.SetFloat(f.Float() + 0.25)
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Bool:
				f.SetBool(!f.Bool())
			default:
				t.Fatalf("no perturbation for field %s of type %s", typ.Field(i).Name, f.Type())
			}
		}
		k := key(c)
		if other, ok := named[k]; ok {
			t.Errorf("perturbing %s names the same run as %s", typ.Field(i).Name, other)
		}
		named[k] = typ.Field(i).Name
	}

	c := base
	c.Participation = 1
	if key(c) != baseKey {
		t.Error("Participation 1 and Participation 0 (its default) name different runs")
	}
}
