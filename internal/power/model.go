// Package power provides the power substrate of the MPR reproduction: the
// job-wise power model of Section III-A, the hierarchical HPC power
// infrastructure of Fig. 1(a) (ATS → UPS → PDU → rack), oversubscription
// capacity accounting (Section II), and the power-emergency state machine
// of Section III-E (overload detection with a minimum-duration filter, the
// 1%-buffer reduction target, and the cool-down timer before resuming
// normal operation).
package power

import "fmt"

// CoreModel converts core allocation and speed into watts using the
// paper's model Power = Power_static + Utilization·Power_dynamic applied
// per core: a core at speed σ draws StaticW + σ·DynamicW. Uncore, DRAM and
// storage power are folded into the two coefficients, as in the paper.
type CoreModel struct {
	StaticW  float64
	DynamicW float64
}

// DefaultCPUCoreModel is the paper's Gaia parameterization: 25 W static
// and 125 W dynamic per core, giving the 301.8 kW peak for the 2012-core
// peak allocation.
var DefaultCPUCoreModel = CoreModel{StaticW: 25, DynamicW: 125}

// DefaultGPUCoreModel normalizes a GPU application's maximum power draw to
// "one core" (Section V-E): a normalized GPU core draws 250 W at full
// speed with a 50 W idle floor.
var DefaultGPUCoreModel = CoreModel{StaticW: 50, DynamicW: 200}

// JobPower returns the power attributed to a job running `cores` cores at
// relative speed `speed` (1.0 = full speed).
func (m CoreModel) JobPower(cores, speed float64) float64 {
	if cores < 0 {
		cores = 0
	}
	if speed < 0 {
		speed = 0
	}
	if speed > 1 {
		speed = 1
	}
	return cores * (m.StaticW + speed*m.DynamicW)
}

// Oversubscription describes a capacity plan: the infrastructure capacity
// is set below the system's peak power demand by the oversubscription
// percentage (Section IV-A): with x% oversubscription, overload occurs
// when demand exceeds 100/(100+x) of peak.
type Oversubscription struct {
	PeakW   float64 // peak power demand of the (scaled-up) system
	Percent float64 // oversubscription level, e.g. 15 for 15%
}

// Capacity returns the infrastructure power capacity C in watts.
func (o Oversubscription) Capacity() float64 {
	return o.PeakW * 100 / (100 + o.Percent)
}

// Validate checks the plan parameters.
func (o Oversubscription) Validate() error {
	if o.PeakW <= 0 {
		return fmt.Errorf("power: peak power must be positive, got %v", o.PeakW)
	}
	if o.Percent < 0 {
		return fmt.Errorf("power: oversubscription percent must be non-negative, got %v", o.Percent)
	}
	return nil
}

// ExtraCoreHours returns the additional core-hours per month that x%
// oversubscription adds to a system with the given total cores (Table I:
// 2004 cores × 10% × 720 h ≈ 144K core-hours).
func (o Oversubscription) ExtraCoreHours(totalCores float64, hoursPerMonth float64) float64 {
	return totalCores * o.Percent / 100 * hoursPerMonth
}
