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
)

func TestNilStoreIsNop(t *testing.T) {
	var st *Store
	s := st.Series("x", Label{Key: "a", Value: "b"})
	if s != nil {
		t.Fatal("nil store must hand out the nil series")
	}
	s.Append(1, 2) // must not panic
	if s.Total() != 0 {
		t.Fatal("nil series must be empty")
	}
	if st.Query(Query{}) != nil {
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
	if c := st.Series("power", Label{Key: "node", Value: "n2"}); c == a {
		t.Fatal("different labels must resolve different series")
	}
	st.Series("power")
	if n := len(st.Query(Query{})); n != 3 {
		t.Fatalf("store holds %d series, want 3", n)
	}
	if want := `power{algo="MPR-INT",node="n1"}`; CanonicalKey("power", []Label{{"node", "n1"}, {"algo", "MPR-INT"}}) != want {
		t.Fatalf("canonical key != %q", want)
	}
}

func TestAppendAndRawWindow(t *testing.T) {
	st := New(16)
	s := st.Series("v")
	for i := 0; i < 40; i++ {
		s.Append(int64(i), float64(i))
		if i == 15 { // exactly capacity: nothing overwritten yet
			if pts := st.Query(Query{Name: "v"})[0].Points; len(pts) != 16 || pts[0].T != 0 {
				t.Fatalf("at capacity: %+v", pts)
			}
		}
	}
	if s.Total() != 40 {
		t.Fatalf("total=%d", s.Total())
	}
	data := st.Query(Query{Name: "v"})
	if len(data) != 1 {
		t.Fatalf("series = %d", len(data))
	}
	pts := data[0].Points
	if len(pts) != 16 {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		want := int64(40 - 16 + i)
		if p.T != want || p.V != float64(want) {
			t.Fatalf("point %d = %+v, want t=%d", i, p, want)
		}
	}
}

func TestQueryWindowAndMatcher(t *testing.T) {
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
	if data := st.Query(Query{Name: "w"}); len(data) != 2 {
		t.Fatalf("name filter returned %d series", len(data))
	}
	// Label matcher.
	data := st.Query(Query{Name: "w", Match: map[string]string{"algo": "int"}})
	if len(data) != 1 || data[0].Labels["algo"] != "int" {
		t.Fatalf("matcher = %+v", data)
	}
	// Window bounds are inclusive.
	data = st.Query(Query{Name: "x", Start: 10, End: 19})
	if n := len(data[0].Points); n != 10 {
		t.Fatalf("window points = %d, want 10", n)
	}
	// Deterministic series order: sorted by canonical key —
	// w{algo="int"} < w{algo="stat"} < x.
	all := st.Query(Query{})
	if len(all) != 3 ||
		all[0].Labels["algo"] != "int" || all[1].Labels["algo"] != "stat" || all[2].Name != "x" {
		t.Fatalf("series order not deterministic: %+v", all)
	}
}

// TestAppendZeroAlloc is the tentpole's allocation-frugality contract:
// once a series handle is resolved, the steady-state append path —
// ring wrap included — performs zero heap allocations.
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
	if got, want := len(st.Query(Query{})), 1+2+workers; got != want {
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
	if err := WriteJSONL(&j1, build().Query(Query{})); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&j2, build().Query(Query{})); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("JSONL export not byte-identical across identical stores")
	}
	// ExportFile writes the same JSONL whatever the file name.
	path := filepath.Join(t.TempDir(), "series.csv")
	if err := ExportFile(build(), Query{Start: 20}, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// Samples 20..24, one line each, per series.
	if want := 2 * 5; len(lines) != want {
		t.Fatalf("jsonl lines = %d, want %d", len(lines), want)
	}
	if lines[0] != `{"name":"p","labels":{"algo":"int"},"t":20,"v":30}` {
		t.Fatalf("first line = %q", lines[0])
	}
}
