package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mpr/internal/check/floats"
)

func TestJobAccessors(t *testing.T) {
	j := Job{ID: 1, Submit: 100, Wait: 20, Runtime: 300, Cores: 4}
	if j.Start() != 120 || j.End() != 420 || j.CoreSeconds() != 1200 {
		t.Errorf("accessors: start=%d end=%d cs=%d", j.Start(), j.End(), j.CoreSeconds())
	}
}

func TestTraceValidate(t *testing.T) {
	good := &Trace{Name: "g", TotalCores: 8, Jobs: []Job{
		{ID: 1, Submit: 0, Runtime: 60, Cores: 2},
		{ID: 2, Submit: 30, Runtime: 60, Cores: 8},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	bad := []*Trace{
		{Name: "cores0", TotalCores: 0},
		{Name: "order", TotalCores: 8, Jobs: []Job{{Submit: 10, Runtime: 1, Cores: 1}, {Submit: 5, Runtime: 1, Cores: 1}}},
		{Name: "runtime", TotalCores: 8, Jobs: []Job{{Submit: 0, Runtime: 0, Cores: 1}}},
		{Name: "jobcores", TotalCores: 8, Jobs: []Job{{Submit: 0, Runtime: 1, Cores: 0}}},
		{Name: "toolarge", TotalCores: 8, Jobs: []Job{{Submit: 0, Runtime: 1, Cores: 9}}},
		{Name: "wait", TotalCores: 8, Jobs: []Job{{Submit: 0, Wait: -1, Runtime: 1, Cores: 1}}},
	}
	for _, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("trace %s should be invalid", tr.Name)
		}
	}
}

func TestPeakAllocation(t *testing.T) {
	tr := &Trace{Name: "p", TotalCores: 10, Jobs: []Job{
		{ID: 1, Submit: 0, Runtime: 100, Cores: 4},
		{ID: 2, Submit: 50, Runtime: 100, Cores: 5}, // overlaps job 1 → 9
		{ID: 3, Submit: 200, Runtime: 10, Cores: 3}, // isolated
	}}
	if p := tr.PeakAllocation(); p != 9 {
		t.Errorf("peak = %d, want 9", p)
	}
	// Back-to-back jobs do not overlap (release before acquire).
	tr2 := &Trace{TotalCores: 4, Jobs: []Job{
		{Submit: 0, Runtime: 100, Cores: 4},
		{Submit: 100, Runtime: 100, Cores: 4},
	}}
	if p := tr2.PeakAllocation(); p != 4 {
		t.Errorf("back-to-back peak = %d, want 4", p)
	}
}

func TestSpan(t *testing.T) {
	tr := &Trace{TotalCores: 4, Jobs: []Job{
		{Submit: 100, Runtime: 50, Cores: 1},
		{Submit: 120, Runtime: 200, Cores: 1},
	}}
	if s := tr.Span(); s != 220 {
		t.Errorf("span = %d, want 220", s)
	}
	if (&Trace{}).Span() != 0 {
		t.Error("empty span should be 0")
	}
}

const sampleSWF = `; Version: 2.2
; MaxProcs: 128
; Note: synthetic sample
1 0 10 3600 16 -1 -1 16 3600 -1 1 1 1 -1 -1 -1 -1 -1
2 100 0 1800 32 -1 -1 32 1800 -1 1 2 1 -1 -1 -1 -1 -1
3 200 5 -1 8 -1 -1 8 900 -1 0 3 1 -1 -1 -1 -1 -1
4 300 0 900 -1 -1 -1 8 900 -1 0 3 1 -1 -1 -1 -1 -1
5 400 -1 600 8 -1 -1 8 600 -1 1 4 1 -1 -1 -1 -1 -1
`

func TestParseSWF(t *testing.T) {
	tr, err := ParseSWF(strings.NewReader(sampleSWF), "sample")
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalCores != 128 {
		t.Errorf("MaxProcs header not honored: %d", tr.TotalCores)
	}
	// Jobs 3 (runtime -1) and 4 (procs -1) skipped.
	if len(tr.Jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(tr.Jobs))
	}
	if tr.Skipped != 2 || tr.Malformed != 0 {
		t.Errorf("skipped = %d, malformed = %d, want 2, 0", tr.Skipped, tr.Malformed)
	}
	if tr.Jobs[0].ID != 1 || tr.Jobs[0].Wait != 10 || tr.Jobs[0].Cores != 16 {
		t.Errorf("job 1 = %+v", tr.Jobs[0])
	}
	// Negative wait clamped to 0.
	if tr.Jobs[2].Wait != 0 {
		t.Errorf("negative wait not clamped: %+v", tr.Jobs[2])
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("parsed trace invalid: %v", err)
	}
}

func TestParseSWFNoHeader(t *testing.T) {
	tr, err := ParseSWF(strings.NewReader("1 0 0 100 4 -1 -1 -1 -1 -1 1 1 1 -1 -1 -1 -1 -1\n"), "x")
	if err != nil {
		t.Fatal(err)
	}
	// Without MaxProcs, TotalCores falls back to the peak allocation.
	if tr.TotalCores != 4 {
		t.Errorf("fallback cores = %d, want 4", tr.TotalCores)
	}
}

// TestParseSWFMalformed: damaged data lines are skipped and counted —
// never fatal, never panicking — and the surviving jobs still form a
// valid trace. Archive logs carry this kind of damage routinely.
func TestParseSWFMalformed(t *testing.T) {
	good := "7 50 0 100 4 -1 -1 -1 -1 -1 1 1 1 -1 -1 -1 -1 -1\n"
	cases := []struct {
		name      string
		input     string
		malformed int
		skipped   int
		jobs      int
	}{
		{"truncated", "1 2 3\n" + good, 1, 0, 1},
		{"empty fields only", "   \n\t\n" + good, 0, 0, 1},
		{"bad id", "x 0 0 100 4\n" + good, 1, 0, 1},
		{"bad submit", "1 x 0 100 4\n" + good, 1, 0, 1},
		{"bad wait", "1 0 x 100 4\n" + good, 1, 0, 1},
		{"bad runtime", "1 0 0 x 4\n" + good, 1, 0, 1},
		{"bad procs", "1 0 0 100 x\n" + good, 1, 0, 1},
		{"float runtime", "1 0 0 1.5 4\n" + good, 1, 0, 1},
		{"negative runtime", "1 0 0 -7 4\n" + good, 0, 1, 1},
		{"unknown runtime", "1 0 0 -1 4\n" + good, 0, 1, 1},
		{"zero procs", "1 0 0 100 0\n" + good, 0, 1, 1},
		{"unknown submit", "1 -1 0 100 4\n" + good, 0, 1, 1},
		{"mixed damage", "garbage\n1 2 3\n" + good + "2 0 0 -1 4\n", 2, 1, 1},
		{"all damaged", "a b c\nd e f\n", 2, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := ParseSWF(strings.NewReader(c.input), c.name)
			if err != nil {
				t.Fatalf("malformed input must not be fatal: %v", err)
			}
			if tr.Malformed != c.malformed || tr.Skipped != c.skipped || len(tr.Jobs) != c.jobs {
				t.Errorf("malformed=%d skipped=%d jobs=%d, want %d/%d/%d",
					tr.Malformed, tr.Skipped, len(tr.Jobs), c.malformed, c.skipped, c.jobs)
			}
			if len(tr.Jobs) > 0 {
				if err := tr.Validate(); err != nil {
					t.Errorf("surviving jobs invalid: %v", err)
				}
			}
		})
	}
}

// Out-of-order submit timestamps are legal in archive logs; the parser
// re-sorts so the Validate ordering invariant holds on the result.
func TestParseSWFOutOfOrder(t *testing.T) {
	input := "3 200 0 100 2 -1 -1 -1 -1 -1 1 1 1 -1 -1 -1 -1 -1\n" +
		"1 0 0 100 2 -1 -1 -1 -1 -1 1 1 1 -1 -1 -1 -1 -1\n" +
		"2 100 0 100 2 -1 -1 -1 -1 -1 1 1 1 -1 -1 -1 -1 -1\n"
	tr, err := ParseSWF(strings.NewReader(input), "ooo")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(tr.Jobs))
	}
	for i, want := range []int{1, 2, 3} {
		if tr.Jobs[i].ID != want {
			t.Errorf("job[%d].ID = %d, want %d", i, tr.Jobs[i].ID, want)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("re-sorted trace invalid: %v", err)
	}
}

func TestSWFRoundTrip(t *testing.T) {
	orig := &Trace{Name: "rt", TotalCores: 64, Jobs: []Job{
		{ID: 1, Submit: 0, Wait: 5, Runtime: 600, Cores: 8},
		{ID: 2, Submit: 60, Wait: 0, Runtime: 1200, Cores: 32},
	}}
	var buf bytes.Buffer
	if err := WriteSWF(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSWF(&buf, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalCores != orig.TotalCores || len(back.Jobs) != len(orig.Jobs) {
		t.Fatalf("round trip: %+v", back)
	}
	for i := range orig.Jobs {
		if back.Jobs[i] != orig.Jobs[i] {
			t.Errorf("job %d: %+v != %+v", i, back.Jobs[i], orig.Jobs[i])
		}
	}
}

func smallConfig(seed int64) GenConfig {
	return GenConfig{
		Name: "small", Seed: seed, TotalCores: 256, Days: 7,
		JobCount: 2000, MeanUtil: 0.7, MaxJobFrac: 0.25,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("non-deterministic job count: %d vs %d", len(a.Jobs), len(b.Jobs))
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs", i)
		}
	}
	c, err := Generate(smallConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Jobs) == len(a.Jobs) {
		same := true
		for i := range a.Jobs {
			if a.Jobs[i] != c.Jobs[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestGenerateValidAndCalibrated(t *testing.T) {
	tr, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Job count within 2x of target.
	if n := len(tr.Jobs); n < 1000 || n > 4000 {
		t.Errorf("job count %d far from target 2000", n)
	}
	// Mean utilization near target.
	cdf := UtilizationCDF(tr, 60)
	mean := 0.0
	for _, p := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		mean += cdf.Quantile(p)
	}
	mean /= 5
	if !floats.AbsEqual(mean, 0.7, 0.12) {
		t.Errorf("mean utilization %.3f far from 0.7", mean)
	}
	// Peak never exceeds the cluster.
	if p := tr.PeakAllocation(); p > tr.TotalCores {
		t.Errorf("peak %d exceeds cluster %d", p, tr.TotalCores)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	bad := []GenConfig{
		{Name: "c", TotalCores: 0, Days: 1, JobCount: 1, MeanUtil: 0.5, MaxJobFrac: 0.5},
		{Name: "d", TotalCores: 8, Days: 0, JobCount: 1, MeanUtil: 0.5, MaxJobFrac: 0.5},
		{Name: "j", TotalCores: 8, Days: 1, JobCount: 0, MeanUtil: 0.5, MaxJobFrac: 0.5},
		{Name: "u", TotalCores: 8, Days: 1, JobCount: 1, MeanUtil: 0, MaxJobFrac: 0.5},
		{Name: "u2", TotalCores: 8, Days: 1, JobCount: 1, MeanUtil: 1, MaxJobFrac: 0.5},
		{Name: "f", TotalCores: 8, Days: 1, JobCount: 1, MeanUtil: 0.5, MaxJobFrac: 0},
	}
	for _, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %s should be rejected", cfg.Name)
		}
	}
}

// TestGenerateRefusesNonFinite checks every float knob of the generator
// refuses NaN and ±Inf, which slip through one-sided range checks and
// the defaults Generate fills.
func TestGenerateRefusesNonFinite(t *testing.T) {
	fields := map[string]func(*GenConfig) *float64{
		"MeanUtil":   func(c *GenConfig) *float64 { return &c.MeanUtil },
		"MaxJobFrac": func(c *GenConfig) *float64 { return &c.MaxJobFrac },
		"UtilSigma":  func(c *GenConfig) *float64 { return &c.UtilSigma },
		"Revert":     func(c *GenConfig) *float64 { return &c.Revert },
		"DiurnalAmp": func(c *GenConfig) *float64 { return &c.DiurnalAmp },
		"WeekendDip": func(c *GenConfig) *float64 { return &c.WeekendDip },
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := GenConfig{Name: "nf", Seed: 1, TotalCores: 64, Days: 1, JobCount: 50,
				MeanUtil: 0.6, MaxJobFrac: 0.25, DiurnalAmp: 0.1, WeekendDip: 0.1}
			*field(&cfg) = v
			if tr, err := Generate(cfg); err == nil {
				t.Errorf("%s = %v accepted: %d jobs", name, v, len(tr.Jobs))
			} else if !strings.Contains(err.Error(), name) {
				t.Errorf("%s = %v refused with %q, which does not name the field", name, v, err)
			}
		}
	}
}

func TestWithDays(t *testing.T) {
	cfg := PIKConfig(1)
	short := cfg.WithDays(90)
	if short.Days != 90 {
		t.Errorf("days = %d", short.Days)
	}
	wantJobs := int(float64(cfg.JobCount) * 90 / float64(cfg.Days))
	if short.JobCount != wantJobs {
		t.Errorf("jobs = %d, want %d", short.JobCount, wantJobs)
	}
	if same := cfg.WithDays(cfg.Days); same.JobCount != cfg.JobCount {
		t.Error("identity WithDays changed job count")
	}
	if z := cfg.WithDays(0); z.Days != cfg.Days {
		t.Error("WithDays(0) should be identity")
	}
}

func TestScaleUp(t *testing.T) {
	tr, err := Generate(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := tr.ScaleUp(1.2, 99)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(scaled.Jobs)) / float64(len(tr.Jobs))
	if ratio < 1.15 || ratio > 1.25 {
		t.Errorf("scale-up ratio %.3f, want ~1.2", ratio)
	}
	if scaled.TotalCores != int(math.Ceil(float64(tr.TotalCores)*1.2)) {
		t.Errorf("scaled cores = %d", scaled.TotalCores)
	}
	if err := scaled.Validate(); err != nil {
		t.Errorf("scaled trace invalid: %v", err)
	}
	if _, err := tr.ScaleUp(0.5, 1); err == nil {
		t.Error("factor < 1 accepted")
	}
	// Factor 1 is identity in load.
	id, err := tr.ScaleUp(1, 1)
	if err != nil || len(id.Jobs) != len(tr.Jobs) {
		t.Errorf("identity scale: %v, %d jobs", err, len(id.Jobs))
	}
}

// Property: ScaleUp preserves per-job fields of the original jobs.
func TestScaleUpPreservesOriginals(t *testing.T) {
	tr, _ := Generate(smallConfig(3))
	prop := func(seed int64) bool {
		scaled, err := tr.ScaleUp(1.3, seed)
		if err != nil {
			return false
		}
		// Every original job must appear in the scaled trace.
		seen := make(map[Job]int)
		for _, j := range scaled.Jobs {
			k := j
			k.ID = 0
			seen[k]++
		}
		for _, j := range tr.Jobs {
			k := j
			k.ID = 0
			if seen[k] == 0 {
				return false
			}
			seen[k]--
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

func TestAllocationSeries(t *testing.T) {
	tr := &Trace{Name: "a", TotalCores: 10, Jobs: []Job{
		{ID: 1, Submit: 0, Runtime: 120, Cores: 4},
		{ID: 2, Submit: 60, Runtime: 120, Cores: 3},
	}}
	s := AllocationSeries(tr, 60)
	if s.Len() < 3 {
		t.Fatalf("series len = %d", s.Len())
	}
	if s.V[0] != 4 {
		t.Errorf("slot0 = %v, want 4", s.V[0])
	}
	if s.V[1] != 7 {
		t.Errorf("slot1 = %v, want 7", s.V[1])
	}
	if s.Max() != 7 {
		t.Errorf("max = %v", s.Max())
	}
	if AllocationSeries(&Trace{TotalCores: 1}, 60).Len() != 0 {
		t.Error("empty trace series should be empty")
	}
}

func TestUtilizationCDF(t *testing.T) {
	tr := &Trace{Name: "u", TotalCores: 10, Jobs: []Job{
		{ID: 1, Submit: 0, Runtime: 600, Cores: 5},
	}}
	cdf := UtilizationCDF(tr, 60)
	if cdf.Len() == 0 {
		t.Fatal("empty CDF")
	}
	// Utilization constantly 0.5.
	if q := cdf.Quantile(0.5); !floats.AbsEqual(q, 0.5, 1e-9) {
		t.Errorf("median util = %v, want 0.5", q)
	}
}

func TestPresets(t *testing.T) {
	ps := Presets(1)
	if len(ps) != 4 {
		t.Fatalf("presets = %d", len(ps))
	}
	for name, cfg := range ps {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Published job counts and cluster sizes.
	if ps["gaia"].JobCount != 51987 || ps["gaia"].TotalCores != 2004 {
		t.Errorf("gaia preset = %+v", ps["gaia"])
	}
	if ps["pik"].JobCount != 742964 {
		t.Errorf("pik preset = %+v", ps["pik"])
	}
	if ps["ricc"].JobCount != 447794 {
		t.Errorf("ricc preset = %+v", ps["ricc"])
	}
	if ps["metacentrum"].JobCount != 103656 || ps["metacentrum"].TotalCores != 528 {
		t.Errorf("metacentrum preset = %+v", ps["metacentrum"])
	}
}

// The Fig. 1(b) ordering: Gaia is the most utilized cluster, PIK the
// least. Compare the 95th percentile utilization on shortened traces.
func TestPresetUtilizationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p95 := func(cfg GenConfig) float64 {
		tr, err := Generate(cfg.WithDays(14))
		if err != nil {
			t.Fatal(err)
		}
		return UtilizationCDF(tr, 300).Quantile(0.95)
	}
	gaia := p95(GaiaConfig(5))
	meta := p95(MetacentrumConfig(5))
	ricc := p95(RICCConfig(5))
	pik := p95(PIKConfig(5))
	if !(gaia > meta && meta > ricc && ricc > pik) {
		t.Errorf("p95 ordering violated: gaia=%.2f meta=%.2f ricc=%.2f pik=%.2f", gaia, meta, ricc, pik)
	}
	if gaia < 0.80 {
		t.Errorf("gaia p95 = %.2f, want high utilization", gaia)
	}
	if pik > 0.6 {
		t.Errorf("pik p95 = %.2f, want low utilization", pik)
	}
}
