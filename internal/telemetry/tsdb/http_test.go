package tsdb

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

type seriesResponse struct {
	Series []SeriesData `json:"series"`
}

func getSeries(t *testing.T, h http.Handler, path string) (*http.Response, seriesResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out seriesResponse
	if res.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("bad JSON %q: %v", body, err)
		}
	}
	return res, out
}

func TestSeriesHandler(t *testing.T) {
	st := New(64)
	p := st.Series("mpr_sim_power_demand_w")
	for i := 0; i < 50; i++ {
		p.Append(int64(i), 1000+float64(i))
	}
	st.Series("other").Append(1, 2)
	h := Handler(st)

	res, out := getSeries(t, h, "/debug/series?name=mpr_sim_power_demand_w&start=40")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}
	if len(out.Series) != 1 {
		t.Fatalf("series = %d", len(out.Series))
	}
	sd := out.Series[0]
	if sd.Name != "mpr_sim_power_demand_w" || len(sd.Points) != 10 {
		t.Fatalf("window = %+v", sd)
	}
	if sd.Points[0] != (Point{40, 1040}) || sd.Points[9] != (Point{49, 1049}) {
		t.Fatalf("bounds = %+v .. %+v", sd.Points[0], sd.Points[9])
	}

	// Without bounds: every retained sample.
	_, out = getSeries(t, h, "/debug/series?name=mpr_sim_power_demand_w")
	if got := out.Series[0]; len(got.Points) != 50 {
		t.Fatalf("unbounded window = %d points, want 50", len(got.Points))
	}

	// Without a name: every series, in name order.
	_, out = getSeries(t, h, "/debug/series")
	if len(out.Series) != 2 || out.Series[0].Name != "mpr_sim_power_demand_w" || out.Series[1].Name != "other" {
		t.Fatalf("all series = %+v", out.Series)
	}

	// A bad start is a 400, not a panic.
	if res, _ := getSeries(t, h, "/debug/series?start=abc"); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad start status = %d, want 400", res.StatusCode)
	}

	// Nil store serves an empty but valid document.
	if res, out := getSeries(t, Handler(nil), "/debug/series"); res.StatusCode != http.StatusOK || out.Series == nil || len(out.Series) != 0 {
		t.Fatalf("nil store: status=%d series=%v", res.StatusCode, out.Series)
	}
}
