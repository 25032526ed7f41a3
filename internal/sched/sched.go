// Package sched is the job-scheduling substrate of the MPR reproduction:
// core accounting, an FCFS queue with optional EASY backfill, and the
// emergency admission halt of Section III-E ("During a power emergency,
// MPR also temporarily halts starting any new HPC job execution").
//
// MPR deliberately keeps the scheduler simple — the paper's point is that
// reactive overload handling frees the scheduler from power-aware
// bin-packing — so this scheduler only manages cores, not power.
package sched

import (
	"fmt"
	"sort"
)

// Request describes a job waiting to start.
type Request struct {
	// ID identifies the job.
	ID int
	// Cores is the number of cores the job needs.
	Cores int
	// EstRuntime is the user's runtime estimate (any consistent unit;
	// the simulator uses minutes). Used only for backfill reservations.
	EstRuntime int64
}

// running tracks a started job for backfill shadow-time computation.
type running struct {
	id          int
	cores       int
	expectedEnd int64
}

// Scheduler is an FCFS scheduler with core accounting, optional EASY
// backfill, and an admission halt switch.
type Scheduler struct {
	totalCores int
	freeCores  int
	backfill   bool
	halted     bool

	// queue[head:] is the FCFS queue: a start pops the head by moving
	// head, and Submit moves the queue back to the front of its array
	// before it would grow it.
	queue   []Request
	head    int
	running map[int]running
	// started is TryStartBudget's result, reused by the next call.
	started []Request
}

// New creates a scheduler for a cluster with the given core count.
func New(totalCores int, backfill bool) (*Scheduler, error) {
	if totalCores <= 0 {
		return nil, fmt.Errorf("sched: total cores must be positive, got %d", totalCores)
	}
	return &Scheduler{
		totalCores: totalCores,
		freeCores:  totalCores,
		backfill:   backfill,
		running:    make(map[int]running),
	}, nil
}

// Submit queues a job request (FCFS order).
func (s *Scheduler) Submit(r Request) error {
	if r.Cores <= 0 {
		return fmt.Errorf("sched: job %d requests %d cores", r.ID, r.Cores)
	}
	if r.Cores > s.totalCores {
		return fmt.Errorf("sched: job %d requests %d cores on a %d-core system", r.ID, r.Cores, s.totalCores)
	}
	if _, ok := s.running[r.ID]; ok {
		return fmt.Errorf("sched: job %d already running", r.ID)
	}
	if s.head > 0 && len(s.queue) == cap(s.queue) {
		s.queue = s.queue[:copy(s.queue, s.queue[s.head:])]
		s.head = 0
	}
	s.queue = append(s.queue, r)
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
func (s *Scheduler) RunningCount() int { return len(s.running) }

// Finish releases a running job's cores.
func (s *Scheduler) Finish(id int) error {
	r, ok := s.running[id]
	if !ok {
		return fmt.Errorf("sched: finishing unknown job %d", id)
	}
	delete(s.running, id)
	s.freeCores += r.cores
	return nil
}

// ExtendRuntime updates a running job's expected end (the simulator calls
// this when a power emergency stretches execution). Unknown jobs are
// ignored: the job may have finished in the same slot.
func (s *Scheduler) ExtendRuntime(id int, newExpectedEnd int64) {
	if r, ok := s.running[id]; ok {
		r.expectedEnd = newExpectedEnd
		s.running[id] = r
	}
}

// TryStart starts as many queued jobs as admission, core availability,
// and the backfill policy allow, and returns them in start order, or nil
// when it starts none. now is the current time in the same unit as
// EstRuntime. The returned slice belongs to the scheduler and holds until
// its next TryStart or TryStartBudget call: a caller reads it at once.
func (s *Scheduler) TryStart(now int64) []Request {
	return s.TryStartBudget(now, s.totalCores)
}

// TryStartBudget is TryStart with an additional cap on the total cores
// started this call — the power-headroom admission gate of predictive
// overload avoidance: the caller converts its remaining watts of
// headroom into a core budget so a batch of starts cannot jump the
// system over its capacity in one slot.
func (s *Scheduler) TryStartBudget(now int64, coreBudget int) []Request {
	if s.halted || coreBudget <= 0 {
		return nil
	}
	s.started = s.started[:0]

	// Plain FCFS from the head.
	for s.head < len(s.queue) && s.queue[s.head].Cores <= s.freeCores && s.queue[s.head].Cores <= coreBudget {
		r := s.queue[s.head]
		s.head++
		s.start(r, now)
		coreBudget -= r.Cores
		s.started = append(s.started, r)
	}
	if s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
	}
	if s.head == len(s.queue) || !s.backfill {
		return s.result()
	}

	// EASY backfill: reserve a shadow time for the queue head, then let
	// later jobs jump ahead only if they cannot delay that reservation.
	// The jobs that stay are compacted in place behind the head.
	head := s.queue[s.head]
	shadow, spareAtShadow := s.shadow(head)
	kept := s.queue[:s.head+1]
	for _, r := range s.queue[s.head+1:] {
		fitsNow := r.Cores <= s.freeCores && r.Cores <= coreBudget
		endsBeforeShadow := now+r.EstRuntime <= shadow
		fitsSpare := r.Cores <= spareAtShadow
		if fitsNow && (endsBeforeShadow || fitsSpare) {
			s.start(r, now)
			coreBudget -= r.Cores
			s.started = append(s.started, r)
			if !endsBeforeShadow {
				spareAtShadow -= r.Cores
			}
		} else {
			kept = append(kept, r)
		}
	}
	s.queue = kept
	return s.result()
}

// result is TryStartBudget's return value: the jobs it started, or nil.
func (s *Scheduler) result() []Request {
	if len(s.started) == 0 {
		return nil
	}
	return s.started
}

func (s *Scheduler) start(r Request, now int64) {
	s.freeCores -= r.Cores
	s.running[r.ID] = running{id: r.ID, cores: r.Cores, expectedEnd: now + r.EstRuntime}
}

// shadow computes when the queue head will have enough free cores
// (assuming running jobs end at their expected ends) and how many cores
// will be spare at that time beyond the head's needs.
func (s *Scheduler) shadow(head Request) (shadowTime int64, spare int) {
	ends := make([]running, 0, len(s.running))
	for _, r := range s.running {
		ends = append(ends, r)
	}
	// The running set is a map; ties on expectedEnd must order by id or
	// `spare` — and with it every backfill decision — would depend on map
	// iteration order.
	sort.Slice(ends, func(a, b int) bool {
		if ends[a].expectedEnd != ends[b].expectedEnd {
			return ends[a].expectedEnd < ends[b].expectedEnd
		}
		return ends[a].id < ends[b].id
	})
	free := s.freeCores
	for _, r := range ends {
		if free >= head.Cores {
			break
		}
		free += r.cores
		shadowTime = r.expectedEnd
	}
	spare = free - head.Cores
	if spare < 0 {
		spare = 0
	}
	return shadowTime, spare
}
