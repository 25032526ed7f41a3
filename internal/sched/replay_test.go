package sched

import (
	"container/heap"
	"testing"

	"mpr/internal/trace"
)

// jobEnd is a running job's completion; endHeap orders them by time, ties
// by ID.
type jobEnd struct {
	end int64
	id  int
}

type endHeap []jobEnd

func (h endHeap) Len() int { return len(h) }
func (h endHeap) Less(i, j int) bool {
	return h[i].end < h[j].end || h[i].end == h[j].end && h[i].id < h[j].id
}
func (h endHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *endHeap) Push(x any)   { *h = append(*h, x.(jobEnd)) }
func (h *endHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// replay drives tr through a fresh scheduler alone — Submit, TryStart and
// Finish from event to event, no power — and returns how many jobs started.
func replay(tb testing.TB, tr *trace.Trace) int {
	s, err := New(tr.TotalCores, false)
	if err != nil {
		tb.Fatal(err)
	}
	runtimeOf := make(map[int]int64, len(tr.Jobs))
	var ends endHeap
	next, started := 0, 0
	for next < len(tr.Jobs) || ends.Len() > 0 {
		var now int64
		if ends.Len() > 0 && (next == len(tr.Jobs) || ends[0].end <= tr.Jobs[next].Submit) {
			now = ends[0].end
		} else {
			now = tr.Jobs[next].Submit
		}
		for ends.Len() > 0 && ends[0].end <= now {
			if err := s.Finish(heap.Pop(&ends).(jobEnd).id); err != nil {
				tb.Fatal(err)
			}
		}
		for ; next < len(tr.Jobs) && tr.Jobs[next].Submit <= now; next++ {
			j := tr.Jobs[next]
			runtimeOf[j.ID] = j.Runtime
			if err := s.Submit(Request{ID: j.ID, Cores: j.Cores}); err != nil {
				tb.Fatal(err)
			}
		}
		for _, r := range s.TryStart(now) {
			heap.Push(&ends, jobEnd{now + runtimeOf[r.ID], r.ID})
			started++
		}
	}
	return started
}

// BenchmarkReplay replays the 7-day Gaia preset (trace seed 1) through the
// scheduler alone and reports the cost per job: the floor under what a
// simulated slot can cost.
func BenchmarkReplay(b *testing.B) {
	tr, err := trace.Generate(trace.Presets(1)["gaia"].WithDays(7))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := replay(b, tr); got != len(tr.Jobs) {
			b.Fatalf("replay started %d of %d jobs", got, len(tr.Jobs))
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N*len(tr.Jobs)), "us/job")
}
