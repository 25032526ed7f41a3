package flight

import (
	"encoding/json"
	"net/http"
	"strings"
	"time"
)

// Handler serves the recorder's debug surface. Mounted by
// telemetry.NewHandler at /debug/flight:
//
//	GET  …/debug/flight       → Status JSON
//	POST …/debug/flight/dump  → manual bundle; responds {"path": …}
//
// Works for a nil recorder too (status reports enabled=false and dump
// returns 503), so daemons can mount it unconditionally.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.HasSuffix(req.URL.Path, "/dump") {
			if req.Method != http.MethodPost {
				w.Header().Set("Allow", http.MethodPost)
				http.Error(w, "POST required", http.StatusMethodNotAllowed)
				return
			}
			if r == nil {
				http.Error(w, "flight recorder disabled", http.StatusServiceUnavailable)
				return
			}
			path, err := r.Dump(time.Now(), ReasonManual, nil)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			if path == "" {
				http.Error(w, "flight recorder has no dump directory", http.StatusServiceUnavailable)
				return
			}
			writeJSON(w, map[string]string{"path": path})
			return
		}
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, r.Status())
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
