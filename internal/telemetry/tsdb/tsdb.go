// Package tsdb is the repo's embedded, allocation-frugal in-memory
// time-series store: fixed-capacity ring series keyed by name+labels with
// multi-resolution downsampling. Each series retains three rings — the
// raw samples, 10-sample aggregate buckets, and 100-sample aggregate
// buckets — where every aggregate bucket carries min/max/sum/count so
// power spikes and price excursions survive compaction. The coarse rings
// have the same slot count as the raw ring, so they cover 10× and 100×
// the raw window: recent history is sharp, older history is compacted
// but never silently truncated to averages.
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
// runs and worker counts; daemons write Unix nanoseconds.
package tsdb

import (
	"sort"
	"strings"
	"sync"

	"mpr/internal/telemetry"
)

// ratio is the downsampling factor between adjacent resolutions.
const ratio = 10

// aggLevels is the number of aggregate resolutions (10× and 100×).
const aggLevels = 2

// Point is one raw sample.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// Bucket is one downsampled aggregate over consecutive samples — or, at
// raw resolution, a single sample rendered in bucket form (Start = End,
// Min = Max = Sum = the sample, Count = 1). Keeping one wire shape for
// every resolution lets exporters and the alert evaluator treat windows
// uniformly.
type Bucket struct {
	// Start and End are the timestamps of the first and last sample
	// folded into the bucket (inclusive).
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Min, Max, Sum, Count aggregate the folded samples.
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Sum   float64 `json:"sum"`
	Count int64   `json:"count"`
}

// Mean returns the bucket's average sample (0 when empty).
func (b Bucket) Mean() float64 {
	if b.Count == 0 {
		return 0
	}
	return b.Sum / float64(b.Count)
}

// fold merges one sample into the bucket.
func (b *Bucket) fold(t int64, v float64) {
	if b.Count == 0 {
		*b = Bucket{Start: t, End: t, Min: v, Max: v, Sum: v, Count: 1}
		return
	}
	b.End = t
	if v < b.Min {
		b.Min = v
	}
	if v > b.Max {
		b.Max = v
	}
	b.Sum += v
	b.Count++
}

// merge folds a completed finer bucket into a coarser one.
func (b *Bucket) merge(f Bucket) {
	if b.Count == 0 {
		*b = f
		return
	}
	b.End = f.End
	if f.Min < b.Min {
		b.Min = f.Min
	}
	if f.Max > b.Max {
		b.Max = f.Max
	}
	b.Sum += f.Sum
	b.Count += f.Count
}

// Label is one series label. Series identity is the name plus the sorted
// label set.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Series is one named time series: a raw ring plus the two aggregate
// rings. Resolve a handle once with Store.Series and keep it — Append on
// a resolved handle allocates nothing.
type Series struct {
	name   string
	labels []Label // sorted by key, immutable after creation
	key    string  // canonical name{k="v",...} identity

	mu   sync.Mutex
	raw  telemetry.Ring[Point]
	agg  [aggLevels]telemetry.Ring[Bucket] // completed buckets per level
	cur  [aggLevels]Bucket                 // partial bucket being filled
	curN [aggLevels]int                    // finer units folded into cur (raw samples / level-0 buckets)
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Labels returns the series' sorted label set (shared; do not mutate).
func (s *Series) Labels() []Label { return s.labels }

// Key returns the canonical series identity, name{k="v",...}.
func (s *Series) Key() string { return s.key }

// Append records one sample. The sample lands in the raw ring and folds
// into the partial 10× bucket; every 10 raw samples complete a 10×
// bucket, every 10 of those a 100× bucket. Zero allocations on a
// resolved handle; no-op on a nil series.
func (s *Series) Append(t int64, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.raw.Push(Point{t, v})
	s.cur[0].fold(t, v)
	s.curN[0]++
	if s.curN[0] == ratio {
		s.pushAgg(0)
	}
	s.mu.Unlock()
}

// pushAgg completes the partial bucket at level and cascades it upward.
// Caller holds s.mu.
func (s *Series) pushAgg(level int) {
	done := s.cur[level]
	s.agg[level].Push(done)
	s.cur[level] = Bucket{}
	s.curN[level] = 0
	if level+1 < aggLevels {
		s.cur[level+1].merge(done)
		s.curN[level+1]++
		if s.curN[level+1] == ratio {
			s.pushAgg(level + 1)
		}
	}
}

// Len returns the number of raw samples currently retained.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.raw.Len()
}

// Total returns the number of samples ever appended (including samples
// that have since been overwritten in the raw ring — they survive,
// compacted, in the aggregate rings).
func (s *Series) Total() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.raw.Total()
}

// Last returns the most recent sample (zero Point when empty).
func (s *Series) Last() Point {
	if s == nil {
		return Point{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.raw.Len() == 0 {
		return Point{}
	}
	return s.raw.At(s.raw.Len() - 1)
}

// snapshotRaw copies the retained raw window in chronological order into
// out (appending), restricted to [start, end].
func (s *Series) snapshotRaw(out []Bucket, start, end int64) []Bucket {
	s.mu.Lock()
	for i := 0; i < s.raw.Len(); i++ {
		p := s.raw.At(i)
		if p.T < start || (end != 0 && p.T > end) {
			continue
		}
		out = append(out, Bucket{Start: p.T, End: p.T, Min: p.V, Max: p.V, Sum: p.V, Count: 1})
	}
	s.mu.Unlock()
	return out
}

// snapshotAgg copies the retained aggregate window at the given level in
// chronological order into out (appending), restricted to [start, end].
// The partial in-progress bucket is included so the newest samples are
// never invisible at coarse resolutions.
func (s *Series) snapshotAgg(out []Bucket, level int, start, end int64) []Bucket {
	s.mu.Lock()
	ring := &s.agg[level]
	for i := 0; i < ring.Len(); i++ {
		if b := ring.At(i); b.End >= start && (end == 0 || b.Start <= end) {
			out = append(out, b)
		}
	}
	if s.curN[level] > 0 {
		b := s.cur[level]
		if b.End >= start && (end == 0 || b.Start <= end) {
			out = append(out, b)
		}
	}
	s.mu.Unlock()
	return out
}

// retained describes the ring at the given resolution level (-1 = raw):
// the oldest timestamp it holds, how many points a query there renders
// (the partial bucket included), and whether it has overwritten anything.
// n == 0 means the series holds no data at that level.
func (s *Series) retained(level int) (oldest int64, n int, wrapped bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if level < 0 {
		if n = s.raw.Len(); n > 0 {
			oldest = s.raw.At(0).T
		}
		return oldest, n, s.raw.Total() > uint64(n)
	}
	ring := &s.agg[level]
	switch {
	case ring.Len() > 0:
		oldest = ring.At(0).Start
	case s.curN[level] > 0:
		oldest = s.cur[level].Start
	}
	n = ring.Len()
	if s.curN[level] > 0 {
		n++
	}
	return oldest, n, ring.Total() > uint64(ring.Len())
}

// Store is a set of ring series keyed by canonical identity. The zero
// value is not usable; construct with New. A nil *Store is the Nop
// store: Series returns nil (whose Append is a no-op) and queries return
// nothing, mirroring the telemetry package's nil-safety contract.
type Store struct {
	rawCap int
	mu     sync.RWMutex
	series map[string]*Series
}

// DefaultCapacity is the per-series raw ring size when New is given a
// non-positive capacity: with one sample per simulated one-minute slot it
// retains ~2.8 days raw, ~28 days at 10×, and the better part of a year
// at 100×.
const DefaultCapacity = 4096

// New builds a store whose series each retain rawCapacity raw samples
// (minimum 16; DefaultCapacity when non-positive). The two aggregate
// rings get the same slot count, covering 10× and 100× the raw window.
func New(rawCapacity int) *Store {
	if rawCapacity <= 0 {
		rawCapacity = DefaultCapacity
	}
	if rawCapacity < 16 {
		rawCapacity = 16
	}
	return &Store{rawCap: rawCapacity, series: make(map[string]*Series)}
}

// seriesKey renders the canonical identity name{k="v",...} over sorted
// labels (bare name without labels).
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(l.Value)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// CanonicalKey renders the canonical series identity — name{k="v",...}
// over sorted labels — without resolving a series. Consumers (the alert
// evaluator) use it to name series in firings exactly as the store does.
func CanonicalKey(name string, labels []Label) string {
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	return seriesKey(name, sorted)
}

// Series resolves (creating on first use) the series with the given name
// and labels. Resolution allocates (key rendering, ring allocation on
// first use) — hot paths resolve once and keep the handle. Returns nil
// on a nil store.
func (st *Store) Series(name string, labels ...Label) *Series {
	if st == nil {
		return nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	key := seriesKey(name, ls)
	st.mu.RLock()
	s := st.series[key]
	st.mu.RUnlock()
	if s != nil {
		return s
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if s = st.series[key]; s != nil {
		return s
	}
	s = &Series{
		name:   name,
		labels: ls,
		key:    key,
		raw:    telemetry.NewRing[Point](st.rawCap),
	}
	for i := range s.agg {
		s.agg[i] = telemetry.NewRing[Bucket](st.rawCap)
	}
	st.series[key] = s
	return s
}

// all returns every series sorted by canonical key — the deterministic
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
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// Len returns the number of series in the store.
func (st *Store) Len() int {
	if st == nil {
		return 0
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.series)
}
