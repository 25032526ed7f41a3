// Command mpragent is an autonomous MPR user bidding agent: it registers
// one job with the market manager (cmd/mprd) and answers every price
// announcement with the bid that maximizes the user's net gain, based on
// the job's application profile. The cost model stays local — only supply
// function parameters cross the wire.
//
// Usage:
//
//	mpragent -connect 127.0.0.1:7946 -job job42 -app XSBench -cores 16
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"mpr/internal/agentproto"
	"mpr/internal/core"
	"mpr/internal/perf"
)

func main() {
	var (
		connect = flag.String("connect", "127.0.0.1:7946", "manager address")
		job     = flag.String("job", "", "job identifier (required)")
		app     = flag.String("app", "XSBench", "application profile name")
		cores   = flag.Float64("cores", 16, "job core allocation")
		alpha   = flag.Float64("alpha", 1, "perceived cost coefficient (>= 1)")
		watts   = flag.Float64("watts", 125, "dynamic watts per core")
		quad    = flag.Bool("quadratic", false, "use quadratic instead of linear cost")
		wire    = flag.String("wire", "json", "wire format: json (lines) or binary (length-prefixed frames)")
	)
	flag.Parse()
	if *job == "" {
		fmt.Fprintln(os.Stderr, "-job is required")
		os.Exit(2)
	}
	prof, err := perf.ProfileByName(*app)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		fmt.Fprintln(os.Stderr, "available profiles:")
		for _, p := range perf.AllProfiles() {
			fmt.Fprintf(os.Stderr, "  %s (%s)\n", p.Name, p.Device)
		}
		os.Exit(2)
	}
	model, err := costModel(prof, *alpha, *quad)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	agent, err := agentproto.Dial(*connect, agentproto.AgentConfig{
		JobID:        *job,
		Cores:        *cores,
		WattsPerCore: *watts,
		MaxFrac:      prof.MaxReduction(),
		Strategy:     &core.RationalBidder{Cores: *cores, Model: model},
		Wire:         *wire,
		OnOrder: func(red, price, pay float64) {
			cost := *cores * model.Cost(red / *cores)
			log.Printf("order: reduce %.3f cores at price %.4f → payment %.4f, cost %.4f, net gain %.4f",
				red, price, pay, cost, pay-cost)
		},
		OnLift: func() { log.Printf("emergency lifted — back to full speed") },
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("agent %s (%s, %.0f cores) connected to %s", *job, *app, *cores, *connect)
	<-agent.Done()
	if err := agent.Err(); err != nil {
		log.Fatal(err)
	}
}

// costModel builds the agent's cost model from its flags. A non-finite
// alpha is refused: the model's α ≥ 1 floor would turn a NaN into 1, and
// an infinite cost prices every reduction out.
func costModel(prof *perf.Profile, alpha float64, quadratic bool) (*perf.CostModel, error) {
	if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return nil, fmt.Errorf("-alpha must be finite, got %v", alpha)
	}
	shape := perf.CostLinear
	if quadratic {
		shape = perf.CostQuadratic
	}
	return perf.NewCostModel(prof, alpha, shape), nil
}
