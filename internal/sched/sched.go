// Package sched is the job-scheduling substrate of the MPR reproduction:
// core accounting, a first-come-first-served queue, and the emergency
// admission halt of Section III-E ("During a power emergency, MPR also
// temporarily halts starting any new HPC job execution").
//
// MPR deliberately keeps the scheduler simple — the paper's point is that
// reactive overload handling frees the scheduler from power-aware
// bin-packing — so this scheduler only manages cores, not power, and never
// lets a later job start ahead of the queue's head.
package sched

import "fmt"

// Request describes a job waiting to start.
type Request struct {
	// ID identifies the job: no two queued or running jobs share one.
	ID int
	// Cores is the number of cores the job needs.
	Cores int
	// EstRuntime is not read. It stays only for callers that still set it.
	EstRuntime int64
}

// Scheduler is an FCFS scheduler with core accounting and an admission
// halt switch.
type Scheduler struct {
	totalCores int
	freeCores  int
	halted     bool

	// queue[head:] is the FCFS queue: a start pops the head by moving
	// head, and Submit moves the queue back to the front of its array
	// before it would grow it.
	queue []Request
	head  int
	// cores maps each queued or running job's ID to the cores it holds:
	// 0 while it waits, its request once it starts.
	cores map[int]int
	// started is TryStartBudget's result, reused by the next call.
	started []Request
}

// New creates an FCFS scheduler for a cluster with the given core count.
// backfill must be false: the scheduler has no backfill policy, and the
// parameter stays only for callers that still pass it.
func New(totalCores int, backfill bool) (*Scheduler, error) {
	if totalCores <= 0 {
		return nil, fmt.Errorf("sched: total cores must be positive, got %d", totalCores)
	}
	if backfill {
		return nil, fmt.Errorf("sched: backfill is not supported; the scheduler is FCFS")
	}
	return &Scheduler{
		totalCores: totalCores,
		freeCores:  totalCores,
		cores:      make(map[int]int),
	}, nil
}

// Submit queues a job request (FCFS order). It refuses a request whose ID
// a queued or running job already holds.
func (s *Scheduler) Submit(r Request) error {
	if r.Cores <= 0 {
		return fmt.Errorf("sched: job %d requests %d cores", r.ID, r.Cores)
	}
	if r.Cores > s.totalCores {
		return fmt.Errorf("sched: job %d requests %d cores on a %d-core system", r.ID, r.Cores, s.totalCores)
	}
	if _, ok := s.cores[r.ID]; ok {
		return fmt.Errorf("sched: job %d already queued or running", r.ID)
	}
	if s.head > 0 && len(s.queue) == cap(s.queue) {
		s.queue = s.queue[:copy(s.queue, s.queue[s.head:])]
		s.head = 0
	}
	s.queue = append(s.queue, r)
	s.cores[r.ID] = 0
	return nil
}

// Halt pauses (true) or resumes (false) job admission — the emergency
// admission halt.
func (s *Scheduler) Halt(h bool) { s.halted = h }

// Halted reports the admission state.
func (s *Scheduler) Halted() bool { return s.halted }

// FreeCores reports currently unallocated cores.
func (s *Scheduler) FreeCores() int { return s.freeCores }

// QueueLen reports the number of waiting jobs.
func (s *Scheduler) QueueLen() int { return len(s.queue) - s.head }

// RunningCount reports the number of started, unfinished jobs.
func (s *Scheduler) RunningCount() int { return len(s.cores) - s.QueueLen() }

// Finish releases a running job's cores.
func (s *Scheduler) Finish(id int) error {
	c := s.cores[id]
	if c == 0 {
		return fmt.Errorf("sched: finishing unknown job %d", id)
	}
	delete(s.cores, id)
	s.freeCores += c
	return nil
}

// TryStart is TryStartBudget with the whole machine as the budget. now is
// not read; it stays only for callers that still pass it.
func (s *Scheduler) TryStart(now int64) []Request {
	return s.TryStartBudget(s.totalCores)
}

// TryStartBudget starts queued jobs from the head, in FCFS order, while
// admission is open and the head fits both the free cores and what is
// left of coreBudget — the power-headroom admission gate of predictive
// overload avoidance: the caller converts its remaining watts of headroom
// into a core budget so a batch of starts cannot jump the system over its
// capacity in one slot. A head that does not fit blocks every job behind
// it. It returns the jobs started in start order, or nil when it starts
// none; the slice belongs to the scheduler and holds until its next
// TryStart or TryStartBudget call, so a caller reads it at once.
func (s *Scheduler) TryStartBudget(coreBudget int) []Request {
	if s.halted || coreBudget <= 0 {
		return nil
	}
	s.started = s.started[:0]
	for s.head < len(s.queue) && s.queue[s.head].Cores <= s.freeCores && s.queue[s.head].Cores <= coreBudget {
		r := s.queue[s.head]
		s.head++
		s.freeCores -= r.Cores
		s.cores[r.ID] = r.Cores
		coreBudget -= r.Cores
		s.started = append(s.started, r)
	}
	if s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
	}
	if len(s.started) == 0 {
		return nil
	}
	return s.started
}
