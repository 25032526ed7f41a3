package sim

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// resultDigest folds every scalar field of r — floats by their bits —
// its per-profile aggregates in name order and its recorded job timelines
// into one 64-bit FNV-1a hash.
func resultDigest(r *Result) string {
	h := fnv.New64a()
	digestFields(h, reflect.ValueOf(r).Elem())
	names := make([]string, 0, len(r.PerProfile))
	for name := range r.PerProfile {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		h.Write([]byte(name))
		digestFields(h, reflect.ValueOf(r.PerProfile[name]).Elem())
	}
	for i := range r.Jobs {
		digestFields(h, reflect.ValueOf(&r.Jobs[i]).Elem())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// digestFields writes the int, float64, bool and string fields of the
// struct v into h; pointer, slice and map fields are the caller's.
func digestFields(h hash.Hash64, v reflect.Value) {
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			put(uint64(f.Int()))
		case reflect.Float64:
			put(math.Float64bits(f.Float()))
		case reflect.Bool:
			if f.Bool() {
				put(1)
			} else {
				put(0)
			}
		case reflect.String:
			h.Write([]byte(f.String()))
			put(uint64(f.Len()))
		}
	}
}

// TestResultDigest pins Run's Results, bit for bit, to digests recorded
// before the per-job speed, power and finish-slot caches existed. The
// Run-vs-RunFixedStep differential cannot catch a stale cache, because
// both loops share step; a committed digest can. A deliberate change to
// the simulator's arithmetic re-records the table from the log lines.
func TestResultDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go spec lets other ports fuse x*y+z into one rounding.
		t.Skipf("digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	tr := testTrace(t, 3)
	want := map[string]string{
		"mpr-stat":      "8292c78cdd862230",
		"mpr-int":       "09ec7499acf890bc",
		"opt":           "3940142d4f49c89a",
		"eql":           "1016eac35de70c47",
		"none":          "1edbe2585611c0a9",
		"delay":         "a227ed5ece894aa3",
		"phases":        "041428c865e9a87f",
		"participation": "c780076c124c46b4",
		"cost-error":    "7cf1a00946da23fa",
		"predictive":    "62647d16856470af",
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"mpr-stat", Config{Algorithm: AlgMPRStat}},
		{"mpr-int", Config{Algorithm: AlgMPRInt}},
		{"opt", Config{Algorithm: AlgOPT}},
		{"eql", Config{Algorithm: AlgEQL}},
		{"none", Config{Algorithm: AlgNone}},
		{"delay", Config{Algorithm: AlgMPRStat, MarketDelaySlots: 3}},
		{"phases", Config{Algorithm: AlgMPRStat, PhaseAmp: 0.1}},
		{"participation", Config{Algorithm: AlgMPRInt, Participation: 0.6}},
		{"cost-error", Config{Algorithm: AlgMPRStat, CostErrorRand: 0.2}},
		{"predictive", Config{Algorithm: AlgMPRStat, Predictive: true, MarketDelaySlots: 2}},
	}
	for _, tc := range cases {
		cfg := tc.cfg
		cfg.Trace, cfg.OversubPct, cfg.Seed, cfg.RecordJobs = tr, 15, 7, true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.EmergencyCount == 0 {
			t.Fatalf("%s: no emergencies — the digest would not pin the market path", tc.name)
		}
		if got := resultDigest(res); got != want[tc.name] {
			t.Errorf("%q: %q, // digest changed", tc.name, got)
		}
	}
}
