// Package tsdb is the repo's embedded, allocation-frugal in-memory
// time-series store: fixed-capacity ring series keyed by name. Each
// series keeps its newest samples, one ring of raw points; readers
// that want coarser views (the Fig. 9 timeline, terminal charts) fold
// the samples themselves.
//
// One read-write lock guards the series map (resolving a name takes it;
// a resolved handle never does), and per-series appends touch only that
// series' mutex for a bounded, allocation-free critical section, so a
// sampler ticking every simulated slot or wall-clock second never blocks
// behind a reader: queries copy the requested window under the same short
// lock and do all rendering outside it.
//
// Timestamps are opaque int64s. The simulator writes virtual time
// (one-minute slot indices) so recorded series are bit-identical across
// runs and worker counts; daemons write Unix seconds.
package tsdb

import (
	"sort"
	"sync"

	"mpr/internal/telemetry"
)

// Point is one sample.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// Series is one named time series: a ring of its newest samples. Resolve
// a handle once with Store.Series and keep it — Append on a resolved
// handle allocates nothing.
type Series struct {
	name string

	mu  sync.Mutex
	raw telemetry.Ring[Point]
}

// Append records one sample, overwriting the oldest once the ring is
// full. Zero allocations on a resolved handle; no-op on a nil series.
func (s *Series) Append(t int64, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.raw.Push(Point{t, v})
	s.mu.Unlock()
}

// Total returns the number of samples ever appended, including those
// the ring has since overwritten.
func (s *Series) Total() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.raw.Total()
}

// snapshot copies the retained samples at or after start in
// chronological order.
func (s *Series) snapshot(start int64) []Point {
	var out []Point
	s.mu.Lock()
	for i := 0; i < s.raw.Len(); i++ {
		if p := s.raw.At(i); p.T >= start {
			out = append(out, p)
		}
	}
	s.mu.Unlock()
	return out
}

// Store is a set of ring series keyed by name. The zero value is not
// usable; construct with New. A nil *Store is the Nop store: Series
// returns nil (whose Append is a no-op) and queries return nothing,
// mirroring the telemetry package's nil-safety contract.
type Store struct {
	capacity int
	mu       sync.RWMutex
	series   map[string]*Series
}

// DefaultCapacity is the per-series ring size when New is given a
// non-positive capacity: with one sample per simulated one-minute slot it
// retains ~2.8 days.
const DefaultCapacity = 4096

// New builds a store whose series each retain the newest capacity
// samples (minimum 16; DefaultCapacity when non-positive).
func New(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if capacity < 16 {
		capacity = 16
	}
	return &Store{capacity: capacity, series: make(map[string]*Series)}
}

// Series resolves (creating on first use) the series with the given
// name. Creating allocates the ring — hot paths resolve once and keep
// the handle. Returns nil on a nil store.
func (st *Store) Series(name string) *Series {
	if st == nil {
		return nil
	}
	st.mu.RLock()
	s := st.series[name]
	st.mu.RUnlock()
	if s != nil {
		return s
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if s = st.series[name]; s != nil {
		return s
	}
	s = &Series{name: name, raw: telemetry.NewRing[Point](st.capacity)}
	st.series[name] = s
	return s
}

// all returns every series sorted by name — the deterministic
// iteration order every query and export uses.
func (st *Store) all() []*Series {
	if st == nil {
		return nil
	}
	var out []*Series
	st.mu.RLock()
	for _, s := range st.series {
		out = append(out, s)
	}
	st.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
