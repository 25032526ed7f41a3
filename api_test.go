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
	"strconv"
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

// Every daemon flag has a reader: README.md, EXPERIMENTS.md or the CI
// workflow passes or names it as -<name>. A flag nothing sets or
// documents is an option without a user, and goes with the code only it
// reaches.
func TestFlagsHaveReaders(t *testing.T) {
	var docs string
	for _, path := range []string{"README.md", "EXPERIMENTS.md", ".github/workflows/ci.yml"} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs += string(src) + "\n"
	}
	for _, main := range []string{"cmd/mprd/main.go", "cmd/mprload/main.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), main, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			// flag.String("name", …) or flag.StringVar(&v, "name", …).
			arg := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1
			}
			if len(call.Args) > arg {
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					names = append(names, name)
				}
			}
			return true
		})
		if len(names) < 10 {
			t.Fatalf("parsed only %d flags from %s", len(names), main)
		}
		for _, name := range names {
			// -flight must not be read through -flight-cooldown.
			ref := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `([^\w-]|$)`)
			if !ref.MatchString(docs) {
				t.Errorf("%s: flag -%s has no reader in README.md, EXPERIMENTS.md or ci.yml", main, name)
			}
		}
	}
}

// Every field of a library config struct has a setter: a binary, an
// experiment, an example, the benchmark or a preset sets it in a non-test
// file. internal/check does not count, since a differential that draws a
// value nothing else uses tests an option without a user. The config
// structs are the exported struct types under internal/ named Config,
// Options or *Config. A field counts as set when it is a key of a
// composite literal of its type (or of the type's api.go alias), which
// takes in trace's presets, or the target of x.Field = in a file of
// another package that imports its package; the package's own assignments
// only fill defaults. An option with one value in use is a constant, and
// goes with the code only other values reach.
func TestConfigFieldsHaveSetters(t *testing.T) {
	kept := map[string]string{
		"agentproto.ManagerConfig.MaxRounds": "tests run one-round markets with it; ROADMAP item 7 removes it",
		"sim.Config.RecordJobs":              "the engine differential compares job outcomes through it",
		"experiments.Options.Days":           "it sets the scale of the tests",
	}

	type file struct {
		dir string
		ast *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == filepath.Join("internal", "check")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, file{filepath.ToSlash(filepath.Dir(path)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The config structs, keyed "<package path>.<type>", with their fields.
	fields := map[string][]string{}
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range g.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !ast.IsExported(name) || !(name == "Config" || name == "Options" || strings.HasSuffix(name, "Config")) {
					continue
				}
				key := "mpr/" + f.dir + "." + name
				for _, fld := range st.Fields.List {
					for _, n := range fld.Names {
						fields[key] = append(fields[key], n.Name)
					}
				}
			}
		}
	}
	for _, want := range []string{
		"sim.Config", "power.EmergencyConfig", "cluster.Config", "carbon.Config",
		"trace.GenConfig", "agentproto.ManagerConfig", "agentproto.AgentConfig",
		"telemetry/flight.Config", "telemetry.HandlerConfig", "core.InteractiveConfig",
		"experiments.Options",
	} {
		if _, ok := fields["mpr/internal/"+want]; !ok {
			t.Fatalf("config struct %s not found", want)
		}
	}

	// imports maps a file's package names to import paths; api.go's
	// aliases map a facade type name to the config struct it names.
	imports := func(f *ast.File) map[string]string {
		m := map[string]string{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			m[name] = p
		}
		return m
	}
	aliases := map[string]string{}
	for _, f := range files {
		if f.dir != "." {
			continue
		}
		imp := imports(f.ast)
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Assign.IsValid() {
				if sel, ok := ts.Type.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok {
						aliases[ts.Name.Name] = imp[pkg.Name] + "." + sel.Sel.Name
					}
				}
			}
			return true
		})
	}

	set := map[string]bool{} // "<package path>.<type>.<field>"
	for _, f := range files {
		imp := imports(f.ast)
		own := "mpr/" + f.dir
		// The packages whose config fields x.Field = may set: those
		// imported, and through the facade those aliased.
		reach := map[string]bool{}
		for _, p := range imp {
			reach[p] = true
		}
		if reach["mpr"] || f.dir == "." {
			for _, key := range aliases {
				reach[key[:strings.LastIndex(key, ".")]] = true
			}
		}
		// configOf resolves a composite literal's type to a config
		// struct.
		configOf := func(e ast.Expr) string {
			var key string
			switch e := e.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := e.X.(*ast.Ident); ok {
					if p := imp[pkg.Name]; p == "mpr" {
						key = aliases[e.Sel.Name]
					} else {
						key = p + "." + e.Sel.Name
					}
				}
			case *ast.Ident:
				key = own + "." + e.Name
				if f.dir == "." {
					key = aliases[e.Name]
				}
			}
			if _, ok := fields[key]; !ok {
				return ""
			}
			return key
		}
		var mark func(key string, lit *ast.CompositeLit)
		mark = func(key string, lit *ast.CompositeLit) {
			for _, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						set[key+"."+id.Name] = true
					}
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if key := configOf(n.Type); key != "" {
					mark(key, n)
					return true
				}
				// []T{{…}} and map[K]T{k: {…}} elide T.
				var elt ast.Expr
				switch t := n.Type.(type) {
				case *ast.ArrayType:
					elt = t.Elt
				case *ast.MapType:
					elt = t.Value
				}
				if star, ok := elt.(*ast.StarExpr); ok {
					elt = star.X
				}
				key := configOf(elt)
				if key == "" {
					return true
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						el = kv.Value
					}
					if u, ok := el.(*ast.UnaryExpr); ok {
						el = u.X
					}
					if lit, ok := el.(*ast.CompositeLit); ok && lit.Type == nil {
						mark(key, lit)
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					for key := range fields {
						if pkg := key[:strings.LastIndex(key, ".")]; pkg != own && reach[pkg] {
							set[key+"."+sel.Sel.Name] = true
						}
					}
				}
			}
			return true
		})
	}
	var unset []string
	for key, names := range fields {
		short := strings.TrimPrefix(key, "mpr/internal/")
		for _, name := range names {
			field := short + "." + name
			reason, isKept := kept[field]
			switch {
			case set[key+"."+name] && isKept:
				t.Errorf("%s is kept without a setter (%s), but now has one: drop it from the list", field, reason)
			case !set[key+"."+name] && !isKept:
				unset = append(unset, field)
			}
			delete(kept, field)
		}
	}
	for field := range kept {
		t.Errorf("kept field %s does not exist", field)
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d config fields have no setter outside tests and internal/check; make each a constant or delete it: %s",
			len(unset), strings.Join(unset, ", "))
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
