package tsdb

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
)

// Handler serves windowed JSON series queries over the store, mounted by
// the telemetry HTTP surface at /debug/series. Parameters:
//
//	name        exact series name ("" = all)
//	match       label equality matcher, "k=v,k2=v2"
//	start, end  inclusive int64 window bounds (0 = unbounded)
//
// The response is {"series":[{name, labels, points:[{t, v}...]}...]} in
// deterministic series-key order, every retained sample in the window.
// A nil store serves an empty (but valid) document.
func Handler(st *Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := Query{Name: req.FormValue("name")}
		var err error
		if v := req.FormValue("start"); v != "" {
			if q.Start, err = strconv.ParseInt(v, 10, 64); err != nil {
				http.Error(w, "bad start: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		if v := req.FormValue("end"); v != "" {
			if q.End, err = strconv.ParseInt(v, 10, 64); err != nil {
				http.Error(w, "bad end: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		if v := req.FormValue("match"); v != "" {
			q.Match = make(map[string]string)
			for _, pair := range strings.Split(v, ",") {
				k, val, ok := strings.Cut(pair, "=")
				if !ok || k == "" {
					http.Error(w, "bad match: need k=v[,k2=v2...]", http.StatusBadRequest)
					return
				}
				q.Match[k] = val
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
