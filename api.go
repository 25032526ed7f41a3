package mpr

import (
	"mpr/internal/agentproto"
	"mpr/internal/carbon"
	"mpr/internal/cluster"
	"mpr/internal/core"
	"mpr/internal/perf"
	"mpr/internal/power"
	"mpr/internal/sim"
	"mpr/internal/stats"
	"mpr/internal/trace"
)

// --- Market mechanism (the paper's core contribution) ------------------

// Bid is a user's supply-function parameterization δ(q) = [Δ − b/q]⁺.
type Bid = core.Bid

// Participant is one running job taking part in overload handling.
type Participant = core.Participant

// Bidder answers price announcements in the interactive market.
type Bidder = core.Bidder

// RationalBidder maximizes the user's net gain at each announced price —
// the MPR-INT strategy.
type RationalBidder = core.RationalBidder

// InteractiveConfig attaches a trace and a span to the MPR-INT loop; the
// round budget (100) and stopping tolerance (1e-6) are fixed.
type InteractiveConfig = core.InteractiveConfig

// OPTDual selects the dual-decomposition solver for the OPT baseline.
const OPTDual = core.OPTDual

// Clear runs the one-shot MPR-STAT market: minimal clearing price whose
// aggregate supply meets the power-reduction target.
func Clear(ps []*Participant, targetW float64) (*core.ClearingResult, error) {
	return core.Clear(ps, targetW)
}

// ClearInteractive runs the MPR-INT market loop to (Nash) convergence.
func ClearInteractive(ps []*Participant, bidders []Bidder, targetW float64, cfg InteractiveConfig) (*core.ClearingResult, error) {
	return core.ClearInteractive(ps, bidders, targetW, cfg)
}

// SolveOPT solves the centralized optimum (requires user cost functions).
func SolveOPT(ps []*Participant, targetW float64, m core.OPTMethod) (*core.AllocationResult, error) {
	return core.SolveOPT(ps, targetW, m)
}

// Settle computes per-participant payments, costs, and net gains.
func Settle(ps []*Participant, reductions []float64, price float64) ([]core.Settlement, error) {
	return core.Settle(ps, reductions, price)
}

// CooperativeBid devises the no-loss static bid of Section III-C.
func CooperativeBid(cores float64, model *perf.CostModel) Bid {
	return core.CooperativeBid(cores, model)
}

// --- Application performance and cost models ---------------------------

// CostLinear is the linear user-cost shape.
const CostLinear = perf.CostLinear

// NewCostModel builds a user cost model (α ≥ 1).
func NewCostModel(p *perf.Profile, alpha float64, shape perf.CostShape) *perf.CostModel {
	return perf.NewCostModel(p, alpha, shape)
}

// GPUProfiles returns the paper's six GPU application profiles.
func GPUProfiles() []*perf.Profile { return perf.GPUProfiles() }

// ProfileByName looks a profile up by application name.
func ProfileByName(name string) (*perf.Profile, error) { return perf.ProfileByName(name) }

// --- Power substrate ----------------------------------------------------

// CoreModel converts core allocation and speed into watts.
type CoreModel = power.CoreModel

// Oversubscription describes a capacity plan.
type Oversubscription = power.Oversubscription

// EmergencyConfig parameterizes the overload controller.
type EmergencyConfig = power.EmergencyConfig

// Default per-core power models.
var (
	DefaultCPUCoreModel = power.DefaultCPUCoreModel
	DefaultGPUCoreModel = power.DefaultGPUCoreModel
)

// NewEmergencyController builds the reactive overload-handling state
// machine.
func NewEmergencyController(cfg EmergencyConfig) (*power.EmergencyController, error) {
	return power.NewEmergencyController(cfg)
}

// --- Workload traces ----------------------------------------------------

// TraceConfig parameterizes the synthetic workload generator.
type TraceConfig = trace.GenConfig

// GenerateTrace produces a deterministic synthetic trace.
func GenerateTrace(cfg TraceConfig) (*trace.Trace, error) { return trace.Generate(cfg) }

// TracePresets returns generator configs calibrated to the paper's four
// clusters: gaia, pik, ricc, metacentrum.
func TracePresets(seed int64) map[string]TraceConfig { return trace.Presets(seed) }

// UtilizationCDF returns the trace's utilization distribution (Fig. 1(b)).
func UtilizationCDF(t *trace.Trace, slotSeconds int64) *stats.CDF {
	return trace.UtilizationCDF(t, slotSeconds)
}

// --- Simulation ---------------------------------------------------------

// SimConfig parameterizes a trace-driven simulation run.
type SimConfig = sim.Config

// SimResult carries a run's evaluation statistics.
type SimResult = sim.Result

// Algorithm selects the overload-handling strategy.
type Algorithm = sim.Algorithm

// The benchmark algorithms.
const (
	AlgOPT     = sim.AlgOPT
	AlgEQL     = sim.AlgEQL
	AlgMPRStat = sim.AlgMPRStat
	AlgMPRInt  = sim.AlgMPRInt
)

// RunSim executes a simulation.
func RunSim(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// --- Prototype cluster emulation ----------------------------------------

// ClusterConfig parameterizes the emulated prototype.
type ClusterConfig = cluster.Config

// Cluster is the emulated two-server prototype with per-core DVFS.
type Cluster = cluster.Cluster

// NewCluster builds the emulated prototype.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// --- Distributed market over TCP ----------------------------------------

// ManagerConfig tunes the manager's market loop.
type ManagerConfig = agentproto.ManagerConfig

// Agent is a connected autonomous bidding agent.
type Agent = agentproto.Agent

// AgentConfig describes the job an agent represents.
type AgentConfig = agentproto.AgentConfig

// NewManager starts a market manager listening on addr.
func NewManager(addr string, cfg ManagerConfig) (*agentproto.Manager, error) {
	return agentproto.NewManager(addr, cfg)
}

// DialAgent connects a bidding agent to the manager.
func DialAgent(addr string, cfg AgentConfig) (*Agent, error) {
	return agentproto.Dial(addr, cfg)
}

// --- Carbon-aware demand response -----------------------------------------

// CarbonConfig parameterizes a carbon-aware demand-response run — the
// paper's "beyond oversubscription" direction (merit ④).
type CarbonConfig = carbon.Config

// NewCarbonSignal precomputes a deterministic carbon-intensity trace.
func NewCarbonSignal(slots int, seed int64) (*carbon.Signal, error) {
	return carbon.NewSignal(slots, seed)
}

// RunCarbonDR replays a workload against a carbon signal, buying power
// reduction through the MPR market whenever the grid is dirty.
func RunCarbonDR(cfg CarbonConfig) (*carbon.Result, error) { return carbon.Run(cfg) }
