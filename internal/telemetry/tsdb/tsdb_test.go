package tsdb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mpr/internal/telemetry"
)

func TestNilStoreIsNop(t *testing.T) {
	var st *Store
	s := st.Series("x", Label{Key: "a", Value: "b"})
	if s != nil {
		t.Fatal("nil store must hand out the nil series")
	}
	s.Append(1, 2) // must not panic
	if s.Len() != 0 || s.Total() != 0 || (s.Last() != Point{}) {
		t.Fatal("nil series must be empty")
	}
	if st.Query(Query{}) != nil || st.Len() != 0 {
		t.Fatal("nil store must answer empty queries")
	}
}

func TestSeriesIdentityAndLabels(t *testing.T) {
	st := New(64)
	a := st.Series("power", Label{Key: "node", Value: "n1"}, Label{Key: "algo", Value: "MPR-INT"})
	// Label order must not matter: identity is the sorted label set.
	b := st.Series("power", Label{Key: "algo", Value: "MPR-INT"}, Label{Key: "node", Value: "n1"})
	if a != b {
		t.Fatal("label order changed series identity")
	}
	if want := `power{algo="MPR-INT",node="n1"}`; a.Key() != want {
		t.Fatalf("key = %q, want %q", a.Key(), want)
	}
	if c := st.Series("power", Label{Key: "node", Value: "n2"}); c == a {
		t.Fatal("different labels must resolve different series")
	}
	if bare := st.Series("power"); bare.Key() != "power" {
		t.Fatalf("bare key = %q", bare.Key())
	}
	if st.Len() != 3 {
		t.Fatalf("store len = %d, want 3", st.Len())
	}
}

func TestAppendAndRawWindow(t *testing.T) {
	st := New(16)
	s := st.Series("v")
	for i := 0; i < 40; i++ {
		s.Append(int64(i), float64(i))
	}
	if s.Len() != 16 || s.Total() != 40 {
		t.Fatalf("len=%d total=%d", s.Len(), s.Total())
	}
	if last := s.Last(); last.T != 39 || last.V != 39 {
		t.Fatalf("last = %+v", last)
	}
	data := st.Query(Query{Name: "v", Resolution: ResRaw})
	if len(data) != 1 {
		t.Fatalf("series = %d", len(data))
	}
	pts := data[0].Points
	if len(pts) != 16 {
		t.Fatalf("points = %d", len(pts))
	}
	for i, b := range pts {
		want := int64(40 - 16 + i)
		if b.Start != want || b.End != want || b.Count != 1 || b.Min != float64(want) {
			t.Fatalf("point %d = %+v, want t=%d", i, b, want)
		}
	}
}

// TestDownsamplingPreservesSpikes drives enough samples through the
// store that the raw ring overwrites them, and checks the 10× and 100×
// buckets still carry the spike in their Max (and the dip in Min) —
// the min/max/sum/count design goal.
func TestDownsamplingPreservesSpikes(t *testing.T) {
	st := New(16) // raw keeps only 16; aggregates keep 16 buckets each
	s := st.Series("p")
	const n = 1000
	for i := 0; i < n; i++ {
		v := 1.0
		if i == 137 {
			v = 999 // spike long since overwritten in the raw ring
		}
		if i == 421 {
			v = -7 // dip
		}
		s.Append(int64(i), v)
	}
	// Raw ring no longer holds the spike.
	raw := st.Query(Query{Name: "p", Resolution: ResRaw})[0].Points
	for _, b := range raw {
		if b.Max == 999 {
			t.Fatal("raw ring unexpectedly still holds the spike")
		}
	}
	// The 100× ring covers 16*100 = 1600 samples, so bucket [100,199]
	// must still exist and carry the spike.
	coarse := st.Query(Query{Name: "p", Resolution: Res100})[0].Points
	var sawSpike, sawDip bool
	var total int64
	for _, b := range coarse {
		if b.Max == 999 {
			sawSpike = true
			if b.Start != 100 || b.End != 199 || b.Count != 100 {
				t.Fatalf("spike bucket = %+v", b)
			}
			if want := 999.0 + 99.0; b.Sum != want {
				t.Fatalf("spike bucket sum = %v, want %v", b.Sum, want)
			}
		}
		if b.Min == -7 {
			sawDip = true
		}
		total += b.Count
	}
	if !sawSpike || !sawDip {
		t.Fatalf("compaction lost extremes: spike=%v dip=%v", sawSpike, sawDip)
	}
	if total != n {
		t.Fatalf("100x buckets cover %d samples, want %d", total, n)
	}
	// 10× ring keeps 16 buckets = the newest 160 samples; its last
	// bucket must end at the last sample.
	mid := st.Query(Query{Name: "p", Resolution: Res10})[0].Points
	if len(mid) != 16 {
		t.Fatalf("10x points = %d", len(mid))
	}
	if last := mid[len(mid)-1]; last.End != n-1 {
		t.Fatalf("10x last bucket = %+v", last)
	}
}

// TestPartialBucketVisible checks the in-progress aggregate bucket shows
// up in coarse queries so the newest samples are never invisible.
func TestPartialBucketVisible(t *testing.T) {
	st := New(64)
	s := st.Series("v")
	for i := 0; i < 13; i++ { // one full 10× bucket + 3 partial samples
		s.Append(int64(i), float64(i))
	}
	pts := st.Query(Query{Name: "v", Resolution: Res10})[0].Points
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2 (full + partial)", len(pts))
	}
	if pts[0].Count != 10 || pts[1].Count != 3 || pts[1].End != 12 {
		t.Fatalf("buckets = %+v", pts)
	}
}

func TestQueryWindowMatcherAndThinning(t *testing.T) {
	st := New(128)
	a := st.Series("w", Label{Key: "algo", Value: "stat"})
	b := st.Series("w", Label{Key: "algo", Value: "int"})
	other := st.Series("x")
	for i := 0; i < 100; i++ {
		a.Append(int64(i), 1)
		b.Append(int64(i), 2)
		other.Append(int64(i), 3)
	}
	// Name filter.
	if data := st.Query(Query{Name: "w", Resolution: ResRaw}); len(data) != 2 {
		t.Fatalf("name filter returned %d series", len(data))
	}
	// Label matcher.
	data := st.Query(Query{Name: "w", Match: map[string]string{"algo": "int"}, Resolution: ResRaw})
	if len(data) != 1 || data[0].Labels["algo"] != "int" {
		t.Fatalf("matcher = %+v", data)
	}
	// Window bounds are inclusive.
	data = st.Query(Query{Name: "x", Start: 10, End: 19, Resolution: ResRaw})
	if n := len(data[0].Points); n != 10 {
		t.Fatalf("window points = %d, want 10", n)
	}
	// MaxPoints thins but keeps the newest point.
	data = st.Query(Query{Name: "x", Resolution: ResRaw, MaxPoints: 7})
	pts := data[0].Points
	if len(pts) > 7 {
		t.Fatalf("thinned to %d, want <= 7", len(pts))
	}
	if pts[len(pts)-1].End != 99 {
		t.Fatalf("thinning dropped the newest point: %+v", pts[len(pts)-1])
	}
	// Deterministic series order: sorted by canonical key —
	// w{algo="int"} < w{algo="stat"} < x.
	all := st.Query(Query{Resolution: ResRaw})
	if len(all) != 3 ||
		all[0].Labels["algo"] != "int" || all[1].Labels["algo"] != "stat" || all[2].Name != "x" {
		t.Fatalf("series order not deterministic: %+v", all)
	}
}

// TestAutoResolution checks ResAuto walks to coarser rings when the raw
// ring has wrapped past the requested start or the budget is exceeded.
func TestAutoResolution(t *testing.T) {
	st := New(16)
	s := st.Series("v")
	for i := 0; i < 20; i++ {
		s.Append(int64(i), 1)
	}
	// Raw ring wrapped (holds 4..19); asking from 0 must fall to 10×.
	data := st.Query(Query{Name: "v", Start: 0, Resolution: ResAuto})
	if data[0].Resolution != "10x" {
		t.Fatalf("resolution = %s, want 10x", data[0].Resolution)
	}
	// A window raw still covers stays raw.
	data = st.Query(Query{Name: "v", Start: 10, Resolution: ResAuto})
	if data[0].Resolution != "raw" {
		t.Fatalf("resolution = %s, want raw", data[0].Resolution)
	}
	// A tiny point budget forces coarser rings.
	data = st.Query(Query{Name: "v", Start: 10, Resolution: ResAuto, MaxPoints: 2})
	if data[0].Resolution == "raw" {
		t.Fatalf("budget ignored: %s", data[0].Resolution)
	}
}

// TestAppendZeroAlloc is the tentpole's allocation-frugality contract:
// once a series handle is resolved, the steady-state append path —
// including bucket completion and cascade — performs zero heap
// allocations.
func TestAppendZeroAlloc(t *testing.T) {
	st := New(1024)
	s := st.Series("v", Label{Key: "k", Value: "x"})
	var i int64
	allocs := testing.AllocsPerRun(2000, func() {
		s.Append(i, float64(i))
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Append allocates: %v allocs/op", allocs)
	}
}

// TestConcurrentResolveAndAppend: goroutines resolving and appending over
// shared and distinct names through the one series-map lock lose no
// series and no sample. Run it under -race.
func TestConcurrentResolveAndAppend(t *testing.T) {
	const workers, perWorker = 8, 500
	st := New(64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := fmt.Sprintf("own_%d", w)
			for i := 0; i < perWorker; i++ {
				// Resolve on every append: the map lookup is the contended path.
				st.Series("shared").Append(int64(i), 1)
				st.Series("labeled", Label{Key: "w", Value: strconv.Itoa(w % 2)}).Append(int64(i), 1)
				st.Series(own).Append(int64(i), float64(i))
			}
		}(w)
	}
	wg.Wait()
	if got, want := st.Len(), 1+2+workers; got != want {
		t.Fatalf("store holds %d series, want %d", got, want)
	}
	if got := st.Series("shared").Total(); got != workers*perWorker {
		t.Errorf("shared series total = %d, want %d", got, workers*perWorker)
	}
	for v := 0; v < 2; v++ {
		if got := st.Series("labeled", Label{Key: "w", Value: strconv.Itoa(v)}).Total(); got != workers/2*perWorker {
			t.Errorf("labeled w=%d total = %d, want %d", v, got, workers/2*perWorker)
		}
	}
	for w := 0; w < workers; w++ {
		if got := st.Series(fmt.Sprintf("own_%d", w)).Total(); got != perWorker {
			t.Errorf("own_%d total = %d, want %d", w, got, perWorker)
		}
	}
}

func TestExportJSONLDeterministic(t *testing.T) {
	build := func() *Store {
		st := New(64)
		s := st.Series("p", Label{Key: "algo", Value: "int"})
		q := st.Series("q")
		for i := 0; i < 25; i++ {
			s.Append(int64(i), float64(i)*1.5)
			q.Append(int64(i), float64(100-i))
		}
		return st
	}
	var j1, j2 bytes.Buffer
	if err := WriteJSONL(&j1, build().Query(Query{Resolution: ResRaw})); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&j2, build().Query(Query{Resolution: ResRaw})); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("JSONL export not byte-identical across identical stores")
	}
	// ExportFile writes the same JSONL whatever the file name.
	path := filepath.Join(t.TempDir(), "series.csv")
	if err := ExportFile(build(), Query{Resolution: Res10}, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// 25 samples → two full 10× buckets + one partial, per series.
	if want := 2 * 3; len(lines) != want {
		t.Fatalf("jsonl lines = %d, want %d", len(lines), want)
	}
	if !strings.HasPrefix(lines[0], `{"name":"p","labels":{"algo":"int"},"resolution":"10x",`) {
		t.Fatalf("first line = %q", lines[0])
	}
}

func TestIngestMarketTrace(t *testing.T) {
	tr := telemetry.NewTracer(64)
	run := tr.StartTrace("mpr-int-n3000")
	for r := 1; r <= 5; r++ {
		run.Emit(telemetry.Event{Name: "market_round", Round: r,
			Price: float64(r) * 0.25, Value: float64(r) * 0.125, SuppliedW: float64(r * 100)})
	}
	run.Emit(telemetry.Event{Name: "market_clear", Round: 5}) // ignored
	st := New(64)
	IngestMarketTrace(st, tr.Events())
	data := st.Query(Query{Name: "mpr_market_cleared_price",
		Match: map[string]string{"trace": "mpr-int-n3000"}, Resolution: ResRaw})
	if len(data) != 1 || len(data[0].Points) != 5 {
		t.Fatalf("ingest = %+v", data)
	}
	if p := data[0].Points[2]; p.Start != 3 || p.Max != 0.75 {
		t.Fatalf("round 3 = %+v", p)
	}
	if st.Len() != 3 {
		t.Fatalf("series = %d, want announced/cleared/supplied", st.Len())
	}
}
