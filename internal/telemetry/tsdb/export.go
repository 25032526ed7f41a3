package tsdb

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"mpr/internal/telemetry"
)

// jsonlRecord is one exported bucket line. Fields mirror SeriesData plus
// the bucket, flattened so downstream tools can stream-filter without
// holding whole series in memory.
type jsonlRecord struct {
	Name       string            `json:"name"`
	Labels     map[string]string `json:"labels,omitempty"`
	Resolution string            `json:"resolution"`
	Start      int64             `json:"start"`
	End        int64             `json:"end"`
	Min        float64           `json:"min"`
	Max        float64           `json:"max"`
	Sum        float64           `json:"sum"`
	Count      int64             `json:"count"`
}

// WriteJSONL writes one JSON line per bucket. Series arrive in the
// deterministic key order Query produces and encoding/json sorts label
// maps, so identical data renders byte-identically.
func WriteJSONL(w io.Writer, data []SeriesData) error {
	enc := json.NewEncoder(w)
	for _, sd := range data {
		for _, b := range sd.Points {
			rec := jsonlRecord{
				Name: sd.Name, Labels: sd.Labels, Resolution: sd.Resolution,
				Start: b.Start, End: b.End, Min: b.Min, Max: b.Max,
				Sum: b.Sum, Count: b.Count,
			}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSV writes a flat CSV with one row per bucket. Labels render as a
// single sorted "k=v;k2=v2" column.
func WriteCSV(w io.Writer, data []SeriesData) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"name", "labels", "resolution", "start", "end", "min", "max", "sum", "count"}); err != nil {
		return err
	}
	for _, sd := range data {
		labels := renderLabels(sd.Labels)
		for _, b := range sd.Points {
			row := []string{
				sd.Name, labels, sd.Resolution,
				strconv.FormatInt(b.Start, 10), strconv.FormatInt(b.End, 10),
				formatFloat(b.Min), formatFloat(b.Max), formatFloat(b.Sum),
				strconv.FormatInt(b.Count, 10),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s=%s", k, labels[k])
	}
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ExportFile renders the query's result to path: CSV when the path ends
// in ".csv", JSONL otherwise.
func ExportFile(st *Store, q Query, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	data := st.Query(q)
	if strings.HasSuffix(path, ".csv") {
		err = WriteCSV(f, data)
	} else {
		err = WriteJSONL(f, data)
	}
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
