package sched

import (
	"math/rand"
	"testing"
)

func mustNew(t *testing.T, cores int, backfill bool) *Scheduler {
	t.Helper()
	s, err := New(cores, backfill)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsBadSize(t *testing.T) {
	if _, err := New(0, false); err == nil {
		t.Error("zero cores accepted")
	}
}

func TestFCFSStartsInOrder(t *testing.T) {
	s := mustNew(t, 10, false)
	for i := 1; i <= 3; i++ {
		if err := s.Submit(Request{ID: i, Cores: 4, EstRuntime: 10}); err != nil {
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
	s := mustNew(t, 8, false)
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
}

func TestFinishUnknown(t *testing.T) {
	s := mustNew(t, 4, false)
	if err := s.Finish(99); err == nil {
		t.Error("finishing unknown job accepted")
	}
}

func TestHaltBlocksAdmission(t *testing.T) {
	s := mustNew(t, 8, false)
	_ = s.Submit(Request{ID: 1, Cores: 2, EstRuntime: 5})
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
	s := mustNew(t, 10, false)
	_ = s.Submit(Request{ID: 1, Cores: 8, EstRuntime: 100})
	s.TryStart(0)
	_ = s.Submit(Request{ID: 2, Cores: 4, EstRuntime: 100}) // blocked head
	_ = s.Submit(Request{ID: 3, Cores: 1, EstRuntime: 1})   // would fit
	if got := s.TryStart(1); len(got) != 0 {
		t.Errorf("FCFS without backfill must not jump the head: %+v", got)
	}
}

func TestEASYBackfillShortJobJumps(t *testing.T) {
	s := mustNew(t, 10, true)
	_ = s.Submit(Request{ID: 1, Cores: 8, EstRuntime: 100})
	s.TryStart(0)
	// Head needs 4 cores → must wait until job 1 ends at t=100.
	_ = s.Submit(Request{ID: 2, Cores: 4, EstRuntime: 50})
	// Job 3 fits now (2 free) and ends at 0+90 ≤ 100: backfillable.
	_ = s.Submit(Request{ID: 3, Cores: 2, EstRuntime: 90})
	started := s.TryStart(0)
	if len(started) != 1 || started[0].ID != 3 {
		t.Fatalf("backfill started = %+v", started)
	}
	// Queue head still waiting.
	if s.QueueLen() != 1 {
		t.Errorf("queue len = %d", s.QueueLen())
	}
}

func TestEASYBackfillRespectsReservation(t *testing.T) {
	s := mustNew(t, 10, true)
	_ = s.Submit(Request{ID: 1, Cores: 8, EstRuntime: 100})
	s.TryStart(0)
	_ = s.Submit(Request{ID: 2, Cores: 10, EstRuntime: 50}) // head: needs all cores at t=100
	// Job 3 fits now but runs past the shadow time and would use cores
	// the reservation needs (spare at shadow = 0) → must not start.
	_ = s.Submit(Request{ID: 3, Cores: 2, EstRuntime: 500})
	if started := s.TryStart(0); len(started) != 0 {
		t.Fatalf("backfill violated reservation: %+v", started)
	}
	// A long job that fits within the spare cores at shadow time may
	// start: head needs only 4 of 10, so 6 cores are spare.
	s2 := mustNew(t, 10, true)
	_ = s2.Submit(Request{ID: 1, Cores: 8, EstRuntime: 100})
	s2.TryStart(0)
	_ = s2.Submit(Request{ID: 2, Cores: 4, EstRuntime: 50})
	_ = s2.Submit(Request{ID: 3, Cores: 2, EstRuntime: 500})
	if started := s2.TryStart(0); len(started) != 1 || started[0].ID != 3 {
		t.Fatalf("spare-core backfill failed: %+v", started)
	}
}

func TestExtendRuntime(t *testing.T) {
	s := mustNew(t, 10, true)
	_ = s.Submit(Request{ID: 1, Cores: 8, EstRuntime: 100})
	s.TryStart(0)
	// Emergency stretched job 1 to end at 200; a backfill candidate that
	// ends at 150 (> old shadow 100, < new 200) should now be admitted
	// against the new shadow only if it still fits.
	s.ExtendRuntime(1, 200)
	_ = s.Submit(Request{ID: 2, Cores: 4, EstRuntime: 50})
	_ = s.Submit(Request{ID: 3, Cores: 2, EstRuntime: 150})
	started := s.TryStart(0)
	if len(started) != 1 || started[0].ID != 3 {
		t.Fatalf("started = %+v", started)
	}
	// Extending an unknown job is a no-op.
	s.ExtendRuntime(999, 1)
}

// Invariant: cores never over-allocated, free cores never negative, and
// everything is conserved across random workloads.
func TestRandomizedConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		backfill := trial%2 == 0
		s := mustNew(t, 64, backfill)
		active := map[int]int{} // id → cores
		nextID := 1
		for step := int64(0); step < 200; step++ {
			// Random submits.
			for k := 0; k < rng.Intn(4); k++ {
				c := 1 << rng.Intn(6)
				_ = s.Submit(Request{ID: nextID, Cores: c, EstRuntime: int64(1 + rng.Intn(50))})
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
			if s.RunningCount() != len(active) {
				t.Fatalf("running count %d != %d", s.RunningCount(), len(active))
			}
		}
	}
}

// TestBackfillShadowTieDeterministic pins the shadow computation against
// map-iteration nondeterminism: when several running jobs share an
// expected end, the spare-core accounting (and with it every backfill
// decision) must come out identical on every run. The tie scenario is
// rebuilt many times so a map-order dependence cannot hide behind a
// lucky iteration order.
func TestBackfillShadowTieDeterministic(t *testing.T) {
	build := func() []int {
		s, err := New(32, true)
		if err != nil {
			t.Fatal(err)
		}
		// Two jobs with the same expected end (the tie), then a wide head
		// that must wait for both, then a short job whose backfill
		// eligibility hinges on the spare cores at the shadow time.
		for _, r := range []Request{
			{ID: 1, Cores: 20, EstRuntime: 177},
			{ID: 2, Cores: 4, EstRuntime: 177},
			{ID: 3, Cores: 26, EstRuntime: 50},
		} {
			if err := s.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		s.TryStart(0) // starts 1 and 2 (backfill), leaves 3 queued
		if err := s.Submit(Request{ID: 4, Cores: 4, EstRuntime: 500}); err != nil {
			t.Fatal(err)
		}
		var ids []int
		for _, r := range s.TryStart(11) {
			ids = append(ids, r.ID)
		}
		return ids
	}
	first := build()
	for i := 1; i < 100; i++ {
		if got := build(); len(got) != len(first) || (len(got) > 0 && got[0] != first[0]) {
			t.Fatalf("run %d backfilled %v, first run %v — shadow ties depend on map order", i, got, first)
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
	s := mustNew(t, width*4, false)
	id := 0
	submit := func() {
		id++
		if err := s.Submit(Request{ID: id, Cores: 4, EstRuntime: width}); err != nil {
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
