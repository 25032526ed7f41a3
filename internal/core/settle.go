package core

import "fmt"

// Settlement records one participant's market outcome per hour of
// emergency: what it was paid, what the reduction cost it, and the net
// gain (Eqn. (7)). All rates are in core-hours per hour.
type Settlement struct {
	JobID string
	// ReductionCores is the resource reduction the job supplied.
	ReductionCores float64
	// PaymentRate is the incentive q′·δ the manager pays.
	PaymentRate float64
	// CostRate is the user's cost of performance loss C(δ).
	CostRate float64
	// NetGainRate is PaymentRate − CostRate.
	NetGainRate float64
}

// Settle computes per-participant settlements for a cleared market. The
// participant cost functions are evaluated at the awarded reductions;
// participants without a cost function settle with zero cost (the manager
// cannot observe user costs — settlement with costs is an evaluation-side
// view).
func Settle(ps []*Participant, reductions []float64, price float64) ([]Settlement, error) {
	if len(ps) != len(reductions) {
		return nil, fmt.Errorf("core: %d participants but %d reductions", len(ps), len(reductions))
	}
	out := make([]Settlement, len(ps))
	for i, p := range ps {
		d := reductions[i]
		s := Settlement{
			JobID:          p.JobID,
			ReductionCores: d,
			PaymentRate:    price * d,
		}
		if p.Cost != nil {
			s.CostRate = p.Cost(d)
		}
		s.NetGainRate = s.PaymentRate - s.CostRate
		out[i] = s
	}
	return out, nil
}
