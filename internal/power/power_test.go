package power

import (
	"math"
	"testing"
	"testing/quick"

	"mpr/internal/check/floats"
)

func TestJobPowerGaiaPeak(t *testing.T) {
	// Paper: 2012-core peak allocation → 301.8 kW with 25 W static,
	// 125 W dynamic per core.
	m := DefaultCPUCoreModel
	if got := m.JobPower(2012, 1); !floats.AbsEqual(got, 301800, 1e-6) {
		t.Errorf("Gaia peak = %v W, want 301800", got)
	}
}

func TestJobPowerClamps(t *testing.T) {
	m := DefaultCPUCoreModel
	if m.JobPower(-5, 1) != 0 {
		t.Error("negative cores should draw 0")
	}
	if got := m.JobPower(1, -0.5); got != 25 {
		t.Errorf("negative speed → static only, got %v", got)
	}
	if got := m.JobPower(1, 2); got != 150 {
		t.Errorf("speed clamped to 1, got %v", got)
	}
}

func TestOversubscriptionCapacity(t *testing.T) {
	o := Oversubscription{PeakW: 301800, Percent: 20}
	want := 301800.0 * 100 / 120
	if got := o.Capacity(); !floats.AbsEqual(got, want, 1e-9) {
		t.Errorf("capacity = %v, want %v", got, want)
	}
	// 0% oversubscription: capacity equals peak.
	o0 := Oversubscription{PeakW: 1000, Percent: 0}
	if o0.Capacity() != 1000 {
		t.Error("0%% oversub should not change capacity")
	}
}

func TestOversubscriptionExtraCoreHours(t *testing.T) {
	// Table I: 2004 cores at 10% → ~144K core-hours/month (720 h).
	o := Oversubscription{PeakW: 1, Percent: 10}
	got := o.ExtraCoreHours(2004, 720)
	if !floats.AbsEqual(got, 144288, 1) {
		t.Errorf("extra core-hours = %v, want ~144288", got)
	}
}

func TestOversubscriptionValidate(t *testing.T) {
	if err := (Oversubscription{PeakW: 0, Percent: 10}).Validate(); err == nil {
		t.Error("zero peak should fail")
	}
	if err := (Oversubscription{PeakW: 10, Percent: -1}).Validate(); err == nil {
		t.Error("negative percent should fail")
	}
	if err := (Oversubscription{PeakW: 10, Percent: 15}).Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func newController(t *testing.T, cfg EmergencyConfig) *EmergencyController {
	t.Helper()
	ec, err := NewEmergencyController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ec
}

func TestEmergencyDeclareAndTarget(t *testing.T) {
	ec := newController(t, EmergencyConfig{CapacityW: 1000})
	d := ec.Step(1100, 1100)
	if !d.Declare || d.State != StateEmergency {
		t.Fatalf("decision = %+v, want declare", d)
	}
	// ΔP = 1100 − 0.99·1000 = 110.
	if !floats.AbsEqual(d.TargetW, 110, 1e-9) {
		t.Errorf("target = %v, want 110", d.TargetW)
	}
}

func TestEmergencyMinDurationFilter(t *testing.T) {
	ec := newController(t, EmergencyConfig{CapacityW: 1000, MinOverloadSlots: 3})
	if d := ec.Step(1100, 1100); d.Declare || d.State != StatePending {
		t.Fatalf("slot1 = %+v, want pending", d)
	}
	if d := ec.Step(1100, 1100); d.Declare {
		t.Fatal("declared too early")
	}
	if d := ec.Step(1100, 1100); !d.Declare {
		t.Fatal("should declare on 3rd overloaded slot")
	}
	// Transient spike: pending resets when power dips back.
	ec2 := newController(t, EmergencyConfig{CapacityW: 1000, MinOverloadSlots: 3})
	ec2.Step(1100, 1100)
	ec2.Step(900, 900)
	if ec2.State() != StateNormal {
		t.Error("pending should reset on dip")
	}
	ec2.Step(1100, 1100)
	if d := ec2.Step(1100, 1100); d.Declare {
		t.Error("counter should have restarted")
	}
}

func TestEmergencyCooldownAndLift(t *testing.T) {
	ec := newController(t, EmergencyConfig{CapacityW: 1000, CooldownSlots: 3})
	d := ec.Step(1100, 1100)
	target := d.TargetW
	// Reduction applied: delivered drops; demand falls steeply so lifting
	// is safe ((0.99·1000 − delivered) ≥ ΔP → delivered ≤ 880).
	for i := 0; i < 2; i++ {
		d = ec.Step(850, 850)
		if d.Lift {
			t.Fatalf("lifted before cooldown at slot %d", i)
		}
		if d.State != StateCooldown {
			t.Fatalf("state = %v, want cooldown", d.State)
		}
	}
	d = ec.Step(850, 850)
	if !d.Lift || d.State != StateNormal {
		t.Fatalf("decision = %+v, want lift", d)
	}
	if !floats.AbsEqual(d.TargetW, target, 1e-9) {
		t.Errorf("lift reports target %v, want %v", d.TargetW, target)
	}
	if ec.TargetW() != 0 {
		t.Error("target must clear after lift")
	}
}

func TestEmergencyNoLiftWhileTight(t *testing.T) {
	ec := newController(t, EmergencyConfig{CapacityW: 1000, CooldownSlots: 2})
	ec.Step(1100, 1100) // declare, ΔP = 110
	// Delivered at 980: headroom 0.99·1000−980 = 10 < 110 → stay in
	// emergency indefinitely.
	for i := 0; i < 10; i++ {
		d := ec.Step(1090, 980)
		if d.Lift {
			t.Fatal("lifted while giving back would re-overload")
		}
		if d.State != StateEmergency {
			t.Fatalf("state = %v, want emergency", d.State)
		}
	}
}

func TestEmergencyRaiseTarget(t *testing.T) {
	ec := newController(t, EmergencyConfig{CapacityW: 1000})
	ec.Step(1100, 1100)
	// Demand climbs to 1300 and delivered power overloads again.
	d := ec.Step(1300, 1050)
	if !d.Raise {
		t.Fatalf("decision = %+v, want raise", d)
	}
	if !floats.AbsEqual(d.TargetW, 1300-990, 1e-9) {
		t.Errorf("raised target = %v, want 310", d.TargetW)
	}
	// No raise when delivered stays within capacity.
	d = ec.Step(1400, 990)
	if d.Raise {
		t.Error("raised although delivered power was within capacity")
	}
}

func TestEmergencyCooldownRelapse(t *testing.T) {
	// Power dips (enters cooldown) then surges again before lift: the
	// controller must fall back to emergency, not lift.
	ec := newController(t, EmergencyConfig{CapacityW: 1000, CooldownSlots: 5})
	ec.Step(1100, 1100)
	if d := ec.Step(800, 800); d.State != StateCooldown {
		t.Fatalf("want cooldown, got %v", d.State)
	}
	if d := ec.Step(1080, 960); d.State != StateEmergency {
		t.Fatalf("want relapse to emergency, got %v", d.State)
	}
}

func TestEmergencyConfigValidation(t *testing.T) {
	if _, err := NewEmergencyController(EmergencyConfig{CapacityW: 0}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewEmergencyController(EmergencyConfig{CapacityW: 10, BufferFrac: 1.5}); err == nil {
		t.Error("buffer >= 1 accepted")
	}
	// A NaN fails no plain comparison, and +Inf passes "> 0".
	if _, err := NewEmergencyController(EmergencyConfig{CapacityW: 10, BufferFrac: math.NaN()}); err == nil {
		t.Error("NaN buffer accepted")
	}
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewEmergencyController(EmergencyConfig{CapacityW: c}); err == nil {
			t.Errorf("capacity %v accepted", c)
		}
	}
	cfg := EmergencyConfig{CapacityW: 10}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.BufferFrac != 0.01 || cfg.MinOverloadSlots != 1 || cfg.CooldownSlots != 10 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestEmergencyStateString(t *testing.T) {
	for s, want := range map[EmergencyState]string{
		StateNormal: "normal", StatePending: "pending",
		StateEmergency: "emergency", StateCooldown: "cooldown",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
	if EmergencyState(42).String() == "" {
		t.Error("unknown state should still stringify")
	}
}

// Property: the controller never reports a negative reduction target, and
// a declared target always restores power to at most (1−buffer)·C if the
// reduction is applied exactly.
func TestEmergencyTargetProperty(t *testing.T) {
	prop := func(rawDemand float64) bool {
		demand := 1000 + math.Abs(math.Mod(rawDemand, 1000)) // 1000..2000
		ec, err := NewEmergencyController(EmergencyConfig{CapacityW: 1000})
		if err != nil {
			return false
		}
		d := ec.Step(demand, demand)
		if demand > 1000 {
			if !d.Declare || d.TargetW < 0 {
				return false
			}
			return demand-d.TargetW <= 0.99*1000+1e-9
		}
		return !d.Declare
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
