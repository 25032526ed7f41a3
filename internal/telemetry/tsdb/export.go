package tsdb

import (
	"encoding/json"
	"io"
	"os"

	"mpr/internal/telemetry"
)

// jsonlRecord is one exported sample line: the series identity plus the
// point, flattened so downstream tools can stream-filter without holding
// whole series in memory.
type jsonlRecord struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	T      int64             `json:"t"`
	V      float64           `json:"v"`
}

// WriteJSONL writes one JSON line per sample. Series arrive in the
// deterministic key order Query produces and encoding/json sorts label
// maps, so identical data renders byte-identically.
func WriteJSONL(w io.Writer, data []SeriesData) error {
	enc := json.NewEncoder(w)
	for _, sd := range data {
		for _, p := range sd.Points {
			if err := enc.Encode(jsonlRecord{Name: sd.Name, Labels: sd.Labels, T: p.T, V: p.V}); err != nil {
				return err
			}
		}
	}
	return nil
}

// ExportFile renders the query's result to path as JSONL (WriteJSONL),
// whatever the file name.
func ExportFile(st *Store, q Query, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = WriteJSONL(f, st.Query(q))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Series names IngestMarketTrace writes, one per market_round field.
const (
	SeriesMarketAnnouncedPrice = "mpr_market_announced_price"
	SeriesMarketClearedPrice   = "mpr_market_cleared_price"
	SeriesMarketSuppliedW      = "mpr_market_supplied_w"
)

// IngestMarketTrace replays the telemetry layer's per-round
// "market_round" events into the store as per-trace convergence series (keyed by
// round): the announced price, the cleared price, and the supplied
// reduction. This is how the Fig. 10 convergence-trajectory tables are
// regenerated from recorded series instead of ad-hoc trace scraping.
func IngestMarketTrace(st *Store, events []telemetry.Event) {
	if st == nil {
		return
	}
	type handles struct{ announced, cleared, supplied *Series }
	byTrace := make(map[string]handles)
	for _, e := range events {
		if e.Name != "market_round" {
			continue
		}
		h, ok := byTrace[e.Trace]
		if !ok {
			lbl := Label{Key: "trace", Value: e.Trace}
			h = handles{
				announced: st.Series(SeriesMarketAnnouncedPrice, lbl),
				cleared:   st.Series(SeriesMarketClearedPrice, lbl),
				supplied:  st.Series(SeriesMarketSuppliedW, lbl),
			}
			byTrace[e.Trace] = h
		}
		t := int64(e.Round)
		h.announced.Append(t, e.Value)
		h.cleared.Append(t, e.Price)
		h.supplied.Append(t, e.SuppliedW)
	}
}
