// Package perf models HPC application performance under resource reduction.
//
// It reproduces the user side of the MPR paper's evaluation: performance vs
// core allocation (Fig. 7(a), Fig. 15(a)), the "extra execution" impact
// metric (Fig. 7(b)), user cost models — linear and quadratic in extra
// execution (Section III-C) — the paper's logarithmic cost fit
// cost = a·log(b·x) − a (Section IV-B), and the per-application bidding
// reference curves (Fig. 7(d)).
//
// Allocation is expressed per core: an allocation of 1.0 means the core
// runs at full speed, 0.7 means the core was slowed to 70% (a resource
// reduction δ = 0.3 "cores").
//
// Each application's performance curve uses the classical scaled-speedup
// form
//
//	Performance(a) = 100·a / (a + s·(1−a)),
//
// where the sensitivity s is calibrated so the curve passes through the
// endpoints digitized from the paper's figures (see catalog.go and
// DESIGN.md §3). s = 1 gives performance exactly proportional to
// allocation (the most power-cap-sensitive CPU applications); s < 1 gives
// the flat curves of cache/memory-bound applications; s > 1 models the GPU
// applications of Fig. 15(a) whose throughput collapses faster than the
// allocation. Under this form the extra execution is
//
//	ExtraExecution(δ) = s·δ / (1−δ),
//
// smooth, strictly increasing, and strictly convex for every s > 0 — the
// diminishing-return behaviour the paper's supply function is designed to
// capture.
package perf

import "fmt"

// Device identifies the hardware class a profile was measured on.
type Device string

// Device classes used by the paper's evaluation.
const (
	DeviceCPU     Device = "cpu"         // Intel Xeon, power-capping study [41]
	DeviceGPUP40  Device = "gpu:P40"     // NVIDIA P40 [5]
	DeviceGPU1070 Device = "gpu:GTX1070" // NVIDIA GTX 1070 [26]
	DeviceGPU2080 Device = "gpu:RTX2080" // NVIDIA RTX 2080 [26]
)

// Profile is an application's performance response to per-core resource
// reduction.
type Profile struct {
	Name   string
	Device Device
	// Sens is the sensitivity s of the speedup curve: the marginal extra
	// execution per unit of reduction at δ→0.
	Sens float64
	// MinAlloc is the lowest supported per-core allocation; the maximum
	// reduction is Δ = 1 − MinAlloc. The paper uses Δ = 0.7 for the CPU
	// applications (e.g. XSBench) and we use Δ = 0.6 for the GPU ones.
	MinAlloc float64
}

// Validate checks the structural invariants of the profile.
func (p *Profile) Validate() error {
	if p.Sens <= 0 {
		return fmt.Errorf("perf: profile %s: sensitivity must be positive, got %v", p.Name, p.Sens)
	}
	if p.MinAlloc <= 0 || p.MinAlloc >= 1 {
		return fmt.Errorf("perf: profile %s: MinAlloc must be in (0,1), got %v", p.Name, p.MinAlloc)
	}
	return nil
}

// MaxReduction returns Δ, the largest per-core resource reduction this
// application supports. For XSBench this is 0.7, matching the paper.
func (p *Profile) MaxReduction() float64 { return 1 - p.MinAlloc }

// Performance returns the application performance (percent of full-speed
// throughput) at per-core allocation a. Allocation is clamped to
// [MinAlloc, 1].
func (p *Profile) Performance(a float64) float64 {
	if a < p.MinAlloc {
		a = p.MinAlloc
	}
	if a > 1 {
		a = 1
	}
	return 100 * a / (a + p.Sens*(1-a))
}

// Speed returns the relative execution speed (fraction of full speed) at
// allocation a: Performance(a)/100. The simulator advances a slowed job's
// work by Speed each time slot.
func (p *Profile) Speed(a float64) float64 { return p.Performance(a) / 100 }

// ExtraExecution returns the paper's Fig. 7(b) impact metric at per-core
// reduction delta: (100 − Performance) / Performance. It is the fraction
// of additional execution needed to finish the same work — with the same
// time unit as the reduction, so a reduction of δ cores for one hour costs
// ExtraExecution(δ) core-hours per core.
func (p *Profile) ExtraExecution(delta float64) float64 {
	if delta <= 0 {
		return 0
	}
	max := p.MaxReduction()
	if delta > max {
		delta = max
	}
	return p.Sens * delta / (1 - delta)
}

// ExtraExecutionDeriv returns d(ExtraExecution)/dδ — used by cost models
// to compute exact marginal costs.
func (p *Profile) ExtraExecutionDeriv(delta float64) float64 {
	if delta < 0 {
		delta = 0
	}
	max := p.MaxReduction()
	if delta > max {
		delta = max
	}
	om := 1 - delta
	return p.Sens / (om * om)
}
