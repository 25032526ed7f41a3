package sched

import (
	"math/rand"
	"testing"
)

func mustNew(t *testing.T, cores int) *Scheduler {
	t.Helper()
	s, err := New(cores, false)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsBadSize(t *testing.T) {
	if _, err := New(0, false); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := New(8, true); err == nil {
		t.Error("backfill accepted by an FCFS-only scheduler")
	}
}

func TestFCFSStartsInOrder(t *testing.T) {
	s := mustNew(t, 10)
	for i := 1; i <= 3; i++ {
		if err := s.Submit(Request{ID: i, Cores: 4}); err != nil {
			t.Fatal(err)
		}
	}
	started := s.TryStart(0)
	// 4+4 fit, third must wait.
	if len(started) != 2 || started[0].ID != 1 || started[1].ID != 2 {
		t.Fatalf("started = %+v", started)
	}
	if s.FreeCores() != 2 || s.QueueLen() != 1 || s.RunningCount() != 2 {
		t.Errorf("state: free=%d queue=%d running=%d", s.FreeCores(), s.QueueLen(), s.RunningCount())
	}
	if err := s.Finish(1); err != nil {
		t.Fatal(err)
	}
	started = s.TryStart(1)
	if len(started) != 1 || started[0].ID != 3 {
		t.Fatalf("after finish: %+v", started)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := mustNew(t, 8)
	if err := s.Submit(Request{ID: 1, Cores: 0}); err == nil {
		t.Error("zero cores accepted")
	}
	if err := s.Submit(Request{ID: 1, Cores: 9}); err == nil {
		t.Error("oversized job accepted")
	}
	if err := s.Submit(Request{ID: 1, Cores: 8}); err != nil {
		t.Fatal(err)
	}
	s.TryStart(0)
	if err := s.Submit(Request{ID: 1, Cores: 1}); err == nil {
		t.Error("duplicate running ID accepted")
	}
	if err := s.Submit(Request{ID: 2, Cores: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(Request{ID: 2, Cores: 4}); err == nil {
		t.Error("duplicate queued ID accepted")
	}
	if err := s.Finish(2); err == nil {
		t.Error("finishing a queued job accepted")
	}
	if err := s.Finish(1); err != nil {
		t.Fatal(err)
	}
	if got := s.TryStart(0); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("started %+v, want job 2 alone", got)
	}
	if err := s.Finish(2); err != nil {
		t.Fatal(err)
	}
	if s.FreeCores() != 8 || s.QueueLen() != 0 || s.RunningCount() != 0 {
		t.Errorf("drained: free=%d queue=%d running=%d, want 8, 0, 0", s.FreeCores(), s.QueueLen(), s.RunningCount())
	}
}

func TestFinishUnknown(t *testing.T) {
	s := mustNew(t, 4)
	if err := s.Finish(99); err == nil {
		t.Error("finishing unknown job accepted")
	}
}

func TestHaltBlocksAdmission(t *testing.T) {
	s := mustNew(t, 8)
	_ = s.Submit(Request{ID: 1, Cores: 2})
	s.Halt(true)
	if !s.Halted() {
		t.Error("halted flag")
	}
	if got := s.TryStart(0); got != nil {
		t.Errorf("started during halt: %+v", got)
	}
	s.Halt(false)
	if got := s.TryStart(0); len(got) != 1 {
		t.Errorf("not started after resume: %+v", got)
	}
}

func TestNoBackfillHeadBlocks(t *testing.T) {
	s := mustNew(t, 10)
	_ = s.Submit(Request{ID: 1, Cores: 8})
	s.TryStart(0)
	_ = s.Submit(Request{ID: 2, Cores: 4}) // blocked head
	_ = s.Submit(Request{ID: 3, Cores: 1}) // would fit
	if got := s.TryStart(1); len(got) != 0 {
		t.Errorf("FCFS without backfill must not jump the head: %+v", got)
	}
}

// Invariant: cores never over-allocated, free cores never negative, and
// everything is conserved across random workloads — including submits
// that reuse the ID of a queued or running job, which must be refused.
func TestRandomizedConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		s := mustNew(t, 64)
		active := map[int]int{} // id → cores
		var queued []int        // FCFS order
		nextID := 1
		for step := int64(0); step < 200; step++ {
			// Random submits, one in five reusing a live ID.
			for k := 0; k < rng.Intn(4); k++ {
				c := 1 << rng.Intn(6)
				if rng.Intn(5) == 0 && len(queued)+len(active) > 0 {
					id := nextID
					if n := rng.Intn(len(queued) + len(active)); n < len(queued) {
						id = queued[n]
					} else {
						for a := range active {
							id = a
							break
						}
					}
					if err := s.Submit(Request{ID: id, Cores: c}); err == nil {
						t.Fatalf("trial %d: job %d submitted while queued or running", trial, id)
					}
					continue
				}
				if err := s.Submit(Request{ID: nextID, Cores: c}); err != nil {
					t.Fatal(err)
				}
				queued = append(queued, nextID)
				nextID++
			}
			// Random finishes.
			for id := range active {
				if rng.Float64() < 0.2 {
					if err := s.Finish(id); err != nil {
						t.Fatal(err)
					}
					delete(active, id)
				}
			}
			// Random halts.
			s.Halt(rng.Float64() < 0.1)
			for _, r := range s.TryStart(step) {
				if r.ID != queued[0] {
					t.Fatalf("started job %d ahead of the head %d", r.ID, queued[0])
				}
				queued = queued[1:]
				active[r.ID] = r.Cores
			}
			used := 0
			for _, c := range active {
				used += c
			}
			if used+s.FreeCores() != 64 {
				t.Fatalf("core accounting broken: used=%d free=%d", used, s.FreeCores())
			}
			if s.FreeCores() < 0 {
				t.Fatal("negative free cores")
			}
			if s.RunningCount() != len(active) || s.QueueLen() != len(queued) {
				t.Fatalf("running %d, queued %d; want %d and %d", s.RunningCount(), s.QueueLen(), len(active), len(queued))
			}
		}
	}
}

// TestSteadyCycleZeroAlloc is the allocation gate of the FCFS hot path: once
// the queue, the running set and the result have reached their steady
// size, a cycle of Submit, TryStart and Finish — one job in, one started,
// one done, with a second job always queued behind the head — allocates
// nothing, and TryStart's result is still nil when it starts nothing.
func TestSteadyCycleZeroAlloc(t *testing.T) {
	const width = 16
	s := mustNew(t, width*4)
	id := 0
	submit := func() {
		id++
		if err := s.Submit(Request{ID: id, Cores: 4}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < width+2; i++ {
		submit()
	}
	if got := len(s.TryStart(0)); got != width || s.QueueLen() != 2 {
		t.Fatalf("started %d with %d queued, want %d with 2", got, s.QueueLen(), width)
	}
	done := 0
	cycle := func() {
		submit()
		if got := s.TryStart(0); got != nil {
			t.Fatalf("started %+v with no core free", got)
		}
		done++
		if err := s.Finish(done); err != nil {
			t.Fatal(err)
		}
		got := s.TryStart(0)
		if len(got) != 1 || got[0].ID != width+done {
			t.Fatalf("cycle %d started %+v, want job %d", done, got, width+done)
		}
	}
	for i := 0; i < 4*width; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("a steady Submit/TryStart/Finish cycle allocates %v, want 0", allocs)
	}
	if s.QueueLen() != 2 || s.RunningCount() != width {
		t.Fatalf("%d queued, %d running; want 2 and %d", s.QueueLen(), s.RunningCount(), width)
	}
}
