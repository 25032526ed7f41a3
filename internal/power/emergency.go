package power

import "fmt"

// EmergencyState is the phase of the overload-handling state machine.
type EmergencyState int

// States of the controller.
const (
	// StateNormal: power within capacity, no active emergency.
	StateNormal EmergencyState = iota
	// StatePending: overload observed, waiting out the minimum-duration
	// filter before declaring an emergency (transient-spike protection,
	// Section III-E).
	StatePending
	// StateEmergency: emergency declared; the market's resource reduction
	// is in force and new job starts are halted.
	StateEmergency
	// StateCooldown: power has fallen enough to lift, waiting out the
	// cool-down timer to avoid declare/lift oscillation.
	StateCooldown
)

// String implements fmt.Stringer.
func (s EmergencyState) String() string {
	switch s {
	case StateNormal:
		return "normal"
	case StatePending:
		return "pending"
	case StateEmergency:
		return "emergency"
	case StateCooldown:
		return "cooldown"
	default:
		return fmt.Sprintf("EmergencyState(%d)", int(s))
	}
}

// EmergencyConfig parameterizes the controller. Zero values select the
// paper's defaults via Normalize.
type EmergencyConfig struct {
	// CapacityW is the infrastructure power capacity C.
	CapacityW float64
	// BufferFrac is the safety buffer on the reduction target:
	// ΔP = P(t) − (1−BufferFrac)·C. Paper default 0.01 (1%).
	BufferFrac float64
	// MinOverloadSlots is how many consecutive overloaded slots must be
	// observed before declaring an emergency. Paper example: 10 s; with
	// 1-minute slots the default is 1 (declare on first overloaded slot).
	MinOverloadSlots int
	// CooldownSlots is the minimum number of slots an emergency stays
	// active before it can be lifted. Paper evaluation: 10 minutes.
	CooldownSlots int
}

// Normalize fills defaults and validates.
func (c *EmergencyConfig) Normalize() error {
	if c.CapacityW <= 0 {
		return fmt.Errorf("power: emergency config needs positive capacity, got %v", c.CapacityW)
	}
	if c.BufferFrac == 0 {
		c.BufferFrac = 0.01
	}
	if c.BufferFrac < 0 || c.BufferFrac >= 1 {
		return fmt.Errorf("power: buffer fraction must be in [0,1), got %v", c.BufferFrac)
	}
	if c.MinOverloadSlots <= 0 {
		c.MinOverloadSlots = 1
	}
	if c.CooldownSlots <= 0 {
		c.CooldownSlots = 10
	}
	return nil
}

// Decision is the controller's output for one time slot.
type Decision struct {
	State EmergencyState
	// Declare is true on the slot an emergency is declared; TargetW then
	// carries the required power reduction ΔP.
	Declare bool
	// Raise is true when an already-active emergency needs a larger
	// reduction (power kept climbing); TargetW carries the new total.
	Raise bool
	// Lift is true on the slot the emergency is lifted.
	Lift bool
	// TargetW is the currently required total power reduction.
	TargetW float64
}

// EmergencyController implements the reactive overload handling of
// Section III-E as a per-slot state machine: feed it the instantaneous
// power consumption each slot (before any reduction the caller will apply)
// and act on the returned Decision.
type EmergencyController struct {
	cfg EmergencyConfig

	state          EmergencyState
	pendingSlots   int
	emergencySlots int
	targetW        float64
}

// NewEmergencyController validates cfg and builds a controller in
// StateNormal.
func NewEmergencyController(cfg EmergencyConfig) (*EmergencyController, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	return &EmergencyController{cfg: cfg}, nil
}

// State returns the current phase.
func (ec *EmergencyController) State() EmergencyState { return ec.state }

// TargetW returns the currently required power reduction (0 when no
// emergency is active).
func (ec *EmergencyController) TargetW() float64 { return ec.targetW }

// Capacity returns the configured capacity.
func (ec *EmergencyController) Capacity() float64 { return ec.cfg.CapacityW }

// reductionTarget computes ΔP = P − (1−buffer)·C.
func (ec *EmergencyController) reductionTarget(demandW float64) float64 {
	return demandW - (1-ec.cfg.BufferFrac)*ec.cfg.CapacityW
}

// Step advances the state machine by one slot.
//
// demandW is the power the system *would* draw this slot without any
// reduction (the demand); deliveredW is what it actually draws with the
// current reduction in force. During normal operation the two coincide.
func (ec *EmergencyController) Step(demandW, deliveredW float64) Decision {
	c := ec.cfg
	switch ec.state {
	case StateNormal, StatePending:
		if deliveredW > c.CapacityW {
			ec.pendingSlots++
			if ec.pendingSlots >= c.MinOverloadSlots {
				ec.state = StateEmergency
				ec.emergencySlots = 0
				ec.targetW = ec.reductionTarget(demandW)
				ec.pendingSlots = 0
				return Decision{State: ec.state, Declare: true, TargetW: ec.targetW}
			}
			ec.state = StatePending
			return Decision{State: ec.state}
		}
		ec.pendingSlots = 0
		ec.state = StateNormal
		return Decision{State: ec.state}

	case StateEmergency, StateCooldown:
		ec.emergencySlots++
		// If demand keeps growing so that even the reduced system
		// overloads, raise the target.
		if want := ec.reductionTarget(demandW); want > ec.targetW+1e-9 && deliveredW > c.CapacityW {
			ec.targetW = want
			ec.state = StateEmergency
			ec.emergencySlots = 0
			return Decision{State: ec.state, Raise: true, TargetW: ec.targetW}
		}
		// Lift condition (Section IV-A): after the cool-down, resume
		// normal operation when giving back the reduction no longer
		// violates capacity: (1−buffer)·C − P(t) ≥ ΔP, with P(t) the
		// delivered (reduced) power.
		headroom := (1-c.BufferFrac)*c.CapacityW - deliveredW
		if headroom >= ec.targetW {
			if ec.state != StateCooldown {
				ec.state = StateCooldown
			}
			if ec.emergencySlots >= c.CooldownSlots {
				ec.state = StateNormal
				target := ec.targetW
				ec.targetW = 0
				ec.emergencySlots = 0
				return Decision{State: ec.state, Lift: true, TargetW: target}
			}
			return Decision{State: ec.state, TargetW: ec.targetW}
		}
		ec.state = StateEmergency
		return Decision{State: ec.state, TargetW: ec.targetW}
	}
	return Decision{State: ec.state}
}
