package power

import (
	"testing"

	"mpr/internal/telemetry"
)

// newInstrumentedController builds a controller over a private registry.
func newInstrumentedController(t *testing.T, cfg EmergencyConfig) (*EmergencyController, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	ec, err := NewEmergencyController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ec, reg
}

func eventCount(s *telemetry.Snapshot, event string) int64 {
	return s.Counter(MetricEmergencyEvents + `{event="` + event + `"}`)
}

func TestEmergencyTelemetryOnsetAndLift(t *testing.T) {
	ec, reg := newInstrumentedController(t, EmergencyConfig{
		CapacityW: 1000, BufferFrac: 0.01, MinOverloadSlots: 1, CooldownSlots: 2,
	})

	// Overloaded slot: declare, and the gauge carries the overload depth.
	d := ec.Step(1200, 1200)
	if !d.Declare {
		t.Fatalf("expected declare, got %+v", d)
	}
	if got := reg.Snapshot().Gauges[MetricOverloadW]; got != 200 {
		t.Fatalf("overload gauge = %g, want 200", got)
	}

	// Reduced operation with enough headroom: cooldown, then lift.
	var lifted bool
	slots := 0
	for i := 0; i < 10 && !lifted; i++ {
		d = ec.Step(1200, 700)
		slots++
		lifted = d.Lift
	}
	if !lifted {
		t.Fatal("emergency never lifted")
	}
	if got := reg.Snapshot().Gauges[MetricOverloadW]; got != 0 {
		t.Fatalf("overload gauge after lift = %g, want 0", got)
	}

	s := reg.Snapshot()
	if got := eventCount(s, "declare"); got != 1 {
		t.Fatalf("declares = %d, want 1", got)
	}
	if got := eventCount(s, "lift"); got != 1 {
		t.Fatalf("lifts = %d, want 1", got)
	}
	if got := eventCount(s, "raise"); got != 0 {
		t.Fatalf("raises = %d, want 0", got)
	}
	h := s.HDR(MetricEmergencyDuration)
	if h.Count != 1 {
		t.Fatalf("duration observations = %d, want 1", h.Count)
	}
	if h.Sum != float64(slots) {
		t.Fatalf("duration = %g slots, want %d (every post-declare step counts)", h.Sum, slots)
	}
}

// TestEmergencyTelemetryDurationSpansRaises pins the semantics of the
// duration histogram: a raise restarts the cooldown clock but NOT the
// duration measurement, which runs declare→lift.
func TestEmergencyTelemetryDurationSpansRaises(t *testing.T) {
	ec, reg := newInstrumentedController(t, EmergencyConfig{
		CapacityW: 1000, BufferFrac: 0.01, MinOverloadSlots: 1, CooldownSlots: 1,
	})
	if d := ec.Step(1200, 1200); !d.Declare {
		t.Fatalf("expected declare, got %+v", d)
	}
	// Demand climbs and the reduced system still overloads: raise.
	if d := ec.Step(1500, 1100); !d.Raise {
		t.Fatalf("expected raise, got %+v", d)
	}
	// Two more active slots, then lift.
	var lifted bool
	total := 1 // the raise slot already counted one active slot
	for i := 0; i < 10 && !lifted; i++ {
		d := ec.Step(1500, 400)
		total++
		lifted = d.Lift
	}
	if !lifted {
		t.Fatal("emergency never lifted")
	}
	s := reg.Snapshot()
	if got := eventCount(s, "raise"); got != 1 {
		t.Fatalf("raises = %d, want 1", got)
	}
	h := s.HDR(MetricEmergencyDuration)
	if h.Count != 1 || h.Sum != float64(total) {
		t.Fatalf("duration = %g slots over %d observations, want %d over 1",
			h.Sum, h.Count, total)
	}
}

// TestEmergencyTelemetryDisabled checks the nil-registry path stays a
// no-op: all handles nil, every Step still behaves identically.
func TestEmergencyTelemetryDisabled(t *testing.T) {
	ec, err := NewEmergencyController(EmergencyConfig{CapacityW: 1000, MinOverloadSlots: 1, CooldownSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := ec.Step(1200, 1200); !d.Declare {
		t.Fatalf("expected declare, got %+v", d)
	}
	for i := 0; i < 10; i++ {
		if d := ec.Step(1200, 600); d.Lift {
			return
		}
	}
	t.Fatal("emergency never lifted")
}
