package tsdb

import (
	"encoding/json"
	"io"
	"os"
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
