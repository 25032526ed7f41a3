package tsdb

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// Handler serves windowed JSON series queries over the store, mounted by
// the telemetry HTTP surface at /debug/series. Parameters:
//
//	name   exact series name ("" = all)
//	start  inclusive int64 lower bound of the window
//
// The response is {"series":[{name, points:[{t, v}...]}...]} in series
// name order, every retained sample in the window. A nil store serves an
// empty (but valid) document.
func Handler(st *Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := Query{Name: req.FormValue("name")}
		if v := req.FormValue("start"); v != "" {
			var err error
			if q.Start, err = strconv.ParseInt(v, 10, 64); err != nil {
				http.Error(w, "bad start: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		data := st.Query(q)
		if data == nil {
			data = []SeriesData{}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = json.NewEncoder(w).Encode(struct {
			Series []SeriesData `json:"series"`
		}{data})
	})
}
