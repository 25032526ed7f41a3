package mpr

import (
	"io"
	"net/http"

	"mpr/internal/agentproto"
	"mpr/internal/carbon"
	"mpr/internal/cluster"
	"mpr/internal/core"
	"mpr/internal/experiments"
	"mpr/internal/forecast"
	"mpr/internal/perf"
	"mpr/internal/power"
	"mpr/internal/sim"
	"mpr/internal/stats"
	"mpr/internal/tco"
	"mpr/internal/telemetry"
	"mpr/internal/trace"
)

// --- Market mechanism (the paper's core contribution) ------------------

// Bid is a user's supply-function parameterization δ(q) = [Δ − b/q]⁺.
type Bid = core.Bid

// Participant is one running job taking part in overload handling.
type Participant = core.Participant

// ClearingResult is the outcome of a market clearing.
type ClearingResult = core.ClearingResult

// AllocationResult is the outcome of a centralized baseline (OPT/EQL).
type AllocationResult = core.AllocationResult

// Bidder answers price announcements in the interactive market.
type Bidder = core.Bidder

// RationalBidder maximizes the user's net gain at each announced price —
// the MPR-INT strategy.
type RationalBidder = core.RationalBidder

// StaticBidder wraps a fixed bid for mixed static/interactive markets.
type StaticBidder = core.StaticBidder

// InteractiveConfig tunes the MPR-INT price-iteration loop.
type InteractiveConfig = core.InteractiveConfig

// Settlement records a participant's per-hour market outcome.
type Settlement = core.Settlement

// OPTMethod selects the OPT baseline solver.
type OPTMethod = core.OPTMethod

// OPT solver methods.
const (
	OPTGeneric = core.OPTGeneric
	OPTDual    = core.OPTDual
)

// MarketIndex is the reusable MClr fast path: activation-sorted prefix
// sums giving O(log M) supply evaluation and exact per-segment clearing.
type MarketIndex = core.MarketIndex

// NewMarketIndex builds a reusable market index over the participants'
// current bids.
func NewMarketIndex(ps []*Participant) (*MarketIndex, error) {
	return core.NewMarketIndex(ps)
}

// StreamMarket is the continuously-clearing market core: an
// order-statistic treap over activation prices giving O(log M) bid
// updates with an immediate re-clear after each one, at zero steady-state
// allocations. Prices match the batch solvers to within float summation
// order.
type StreamMarket = core.StreamMarket

// ParticipantDelta is one streamed market mutation: a bid update, a new
// participant, or a removal.
type ParticipantDelta = core.ParticipantDelta

// ParticipantRangeError reports a participant index outside the market.
type ParticipantRangeError = core.ParticipantRangeError

// NewStreamMarket builds a continuously-clearing market over the
// participants' current bids.
func NewStreamMarket(ps []*Participant, targetW float64) (*StreamMarket, error) {
	return core.NewStreamMarket(ps, targetW)
}

// Clear runs the one-shot MPR-STAT market: minimal clearing price whose
// aggregate supply meets the power-reduction target.
func Clear(ps []*Participant, targetW float64) (*ClearingResult, error) {
	return core.Clear(ps, targetW)
}

// ClearCapped clears the market under a manager-side price ceiling (the
// Table I affordability bound).
func ClearCapped(ps []*Participant, targetW, priceCap float64) (*ClearingResult, error) {
	return core.ClearCapped(ps, targetW, priceCap)
}

// InstrumentMarket points the market solvers' counters at reg; nil
// installs the no-op registry (the zero-overhead benchmark path). The
// default is the process-wide DefaultMetrics registry.
func InstrumentMarket(reg *MetricsRegistry) { core.Instrument(reg) }

// ClearInteractive runs the MPR-INT market loop to (Nash) convergence.
func ClearInteractive(ps []*Participant, bidders []Bidder, targetW float64, cfg InteractiveConfig) (*ClearingResult, error) {
	return core.ClearInteractive(ps, bidders, targetW, cfg)
}

// SolveOPT solves the centralized optimum (requires user cost functions).
func SolveOPT(ps []*Participant, targetW float64, m OPTMethod) (*AllocationResult, error) {
	return core.SolveOPT(ps, targetW, m)
}

// SolveEQL applies the performance-oblivious uniform slowdown baseline.
func SolveEQL(ps []*Participant, targetW float64) (*AllocationResult, error) {
	return core.SolveEQL(ps, targetW)
}

// SolvePriority applies priority-aware capping: the lowest tier is
// saturated before the next is touched (the hyperscale baseline of the
// paper's related work).
func SolvePriority(ps []*Participant, priorities []int, targetW float64) (*AllocationResult, error) {
	return core.SolvePriority(ps, priorities, targetW)
}

// Settle computes per-participant payments, costs, and net gains.
func Settle(ps []*Participant, reductions []float64, price float64) ([]Settlement, error) {
	return core.Settle(ps, reductions, price)
}

// VCGResult is the outcome of the VCG procurement auction baseline.
type VCGResult = core.VCGResult

// SolveVCG runs the VCG reduction auction (Section VI's alternative
// mechanism): exactly efficient and truthful, but it requires full cost
// revelation and M+1 optimal solves where MPR needs one bisection.
func SolveVCG(ps []*Participant, targetW float64) (*VCGResult, error) {
	return core.SolveVCG(ps, targetW)
}

// CooperativeBid devises the no-loss static bid of Section III-C.
func CooperativeBid(cores float64, model *CostModel) Bid {
	return core.CooperativeBid(cores, model)
}

// ConservativeBid adds reluctance margin on top of the cooperative bid.
func ConservativeBid(cores float64, model *CostModel, factor float64) Bid {
	return core.ConservativeBid(cores, model, factor)
}

// DeficientBid under-prices the cooperative bid (can lose money).
func DeficientBid(cores float64, model *CostModel, factor float64) Bid {
	return core.DeficientBid(cores, model, factor)
}

// --- Application performance and cost models ---------------------------

// Profile is an application's performance response to resource reduction.
type Profile = perf.Profile

// CostModel is a user's perceived cost of per-core resource reduction.
type CostModel = perf.CostModel

// CostShape selects linear or quadratic user cost.
type CostShape = perf.CostShape

// Cost shapes.
const (
	CostLinear    = perf.CostLinear
	CostQuadratic = perf.CostQuadratic
)

// NewCostModel builds a user cost model (α ≥ 1).
func NewCostModel(p *Profile, alpha float64, shape CostShape) *CostModel {
	return perf.NewCostModel(p, alpha, shape)
}

// CPUProfiles returns the paper's eight CPU application profiles.
func CPUProfiles() []*Profile { return perf.CPUProfiles() }

// GPUProfiles returns the paper's six GPU application profiles.
func GPUProfiles() []*Profile { return perf.GPUProfiles() }

// AllProfiles returns all fourteen application profiles.
func AllProfiles() []*Profile { return perf.AllProfiles() }

// ProfileByName looks a profile up by application name.
func ProfileByName(name string) (*Profile, error) { return perf.ProfileByName(name) }

// --- Power substrate ----------------------------------------------------

// CoreModel converts core allocation and speed into watts.
type CoreModel = power.CoreModel

// Oversubscription describes a capacity plan.
type Oversubscription = power.Oversubscription

// EmergencyController is the reactive overload-handling state machine.
type EmergencyController = power.EmergencyController

// EmergencyConfig parameterizes the controller.
type EmergencyConfig = power.EmergencyConfig

// Infrastructure is the hierarchical power-delivery tree of Fig. 1(a).
type Infrastructure = power.Infrastructure

// Default per-core power models.
var (
	DefaultCPUCoreModel = power.DefaultCPUCoreModel
	DefaultGPUCoreModel = power.DefaultGPUCoreModel
)

// NewEmergencyController builds the overload state machine.
func NewEmergencyController(cfg EmergencyConfig) (*EmergencyController, error) {
	return power.NewEmergencyController(cfg)
}

// NewUniformInfrastructure builds the paper's ATS→UPS→PDU→rack topology.
func NewUniformInfrastructure(upsCapacityW float64, pdus, racksPerPDU int) (*Infrastructure, error) {
	return power.NewUniformInfrastructure(upsCapacityW, pdus, racksPerPDU)
}

// --- Workload traces ----------------------------------------------------

// Trace is a batch workload.
type Trace = trace.Trace

// Job is one batch job.
type Job = trace.Job

// TraceConfig parameterizes the synthetic workload generator.
type TraceConfig = trace.GenConfig

// GenerateTrace produces a deterministic synthetic trace.
func GenerateTrace(cfg TraceConfig) (*Trace, error) { return trace.Generate(cfg) }

// ParseSWF reads a Standard Workload Format log.
func ParseSWF(r io.Reader, name string) (*Trace, error) { return trace.ParseSWF(r, name) }

// WriteSWF writes a trace in Standard Workload Format.
func WriteSWF(w io.Writer, t *Trace) error { return trace.WriteSWF(w, t) }

// TracePresets returns generator configs calibrated to the paper's four
// clusters: gaia, pik, ricc, metacentrum.
func TracePresets(seed int64) map[string]TraceConfig { return trace.Presets(seed) }

// UtilizationCDF returns the trace's utilization distribution (Fig. 1(b)).
func UtilizationCDF(t *Trace, slotSeconds int64) *CDF {
	return trace.UtilizationCDF(t, slotSeconds)
}

// CDF is an empirical cumulative distribution function.
type CDF = stats.CDF

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
	AlgNone    = sim.AlgNone
)

// RunSim executes a simulation.
func RunSim(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// --- Prototype cluster emulation ----------------------------------------

// ClusterConfig parameterizes the emulated prototype.
type ClusterConfig = cluster.Config

// Cluster is the emulated two-server prototype with per-core DVFS.
type Cluster = cluster.Cluster

// AppSpec describes one prototype application.
type AppSpec = cluster.AppSpec

// NewCluster builds the emulated prototype.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// DefaultApps returns the paper's four prototype applications.
func DefaultApps() []AppSpec { return cluster.DefaultApps() }

// FreqSweep characterizes applications across the DVFS range (Fig. 16).
func FreqSweep(apps []AppSpec, points int) ([]cluster.FreqSweepPoint, error) {
	return cluster.FreqSweep(apps, points)
}

// --- Distributed market over TCP ----------------------------------------

// Manager is the market facilitator daemon.
type Manager = agentproto.Manager

// ManagerConfig tunes the manager's market loop.
type ManagerConfig = agentproto.ManagerConfig

// Agent is a connected autonomous bidding agent.
type Agent = agentproto.Agent

// AgentConfig describes the job an agent represents.
type AgentConfig = agentproto.AgentConfig

// NewManager starts a market manager listening on addr.
func NewManager(addr string, cfg ManagerConfig) (*Manager, error) {
	return agentproto.NewManager(addr, cfg)
}

// DialAgent connects a bidding agent to the manager.
func DialAgent(addr string, cfg AgentConfig) (*Agent, error) {
	return agentproto.Dial(addr, cfg)
}

// --- Power forecasting and carbon-aware demand response -------------------

// Forecaster predicts near-future power for early market invocation
// (Section III-D).
type Forecaster = forecast.Forecaster

// ForecastConfig tunes the Holt-Winters predictor.
type ForecastConfig = forecast.Config

// NewForecaster builds a power forecaster.
func NewForecaster(cfg ForecastConfig) (*Forecaster, error) { return forecast.New(cfg) }

// CarbonSignal is a synthetic grid carbon-intensity trace.
type CarbonSignal = carbon.Signal

// CarbonConfig parameterizes a carbon-aware demand-response run — the
// paper's "beyond oversubscription" direction (merit ④).
type CarbonConfig = carbon.Config

// CarbonResult summarizes emissions saved and market flows.
type CarbonResult = carbon.Result

// NewCarbonSignal precomputes a deterministic carbon-intensity trace.
func NewCarbonSignal(slots int, seed int64) (*CarbonSignal, error) {
	return carbon.NewSignal(slots, seed)
}

// RunCarbonDR replays a workload against a carbon signal, buying power
// reduction through the MPR market whenever the grid is dirty.
func RunCarbonDR(cfg CarbonConfig) (*CarbonResult, error) { return carbon.Run(cfg) }

// --- Total cost of ownership ----------------------------------------------

// TCOParams prices the data-center cost components.
type TCOParams = tco.Params

// TCOScenario describes a capacity plan to price.
type TCOScenario = tco.Scenario

// TCOBreakdown is a monthly cost decomposition.
type TCOBreakdown = tco.Breakdown

// EvaluateTCO prices a capacity plan (Section III-F's TCO discussion).
func EvaluateTCO(p TCOParams, s TCOScenario) (*TCOBreakdown, error) {
	return tco.Evaluate(p, s)
}

// --- Telemetry ------------------------------------------------------------

// MetricsRegistry is a stdlib-only metrics registry: atomic counters and
// gauges, labeled counter families, and log-bucketed HDR histograms. A nil
// *MetricsRegistry is the no-op registry — every method is safe and free.
type MetricsRegistry = telemetry.Registry

// MetricsSnapshot is a point-in-time copy of a registry's metrics.
type MetricsSnapshot = telemetry.Snapshot

// EventTracer is a ring-buffered structured event recorder for market
// clearing rounds and emergency transitions.
type EventTracer = telemetry.Tracer

// TraceEvent is one recorded telemetry event.
type TraceEvent = telemetry.Event

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// DefaultMetrics returns the process-wide registry the market solvers
// report into by default.
func DefaultMetrics() *MetricsRegistry { return telemetry.Default() }

// NewEventTracer builds a ring-buffered tracer holding the last capacity
// events (capacity <= 0 selects the default of 256).
func NewEventTracer(capacity int) *EventTracer { return telemetry.NewTracer(capacity) }

// MetricsHandler serves reg as Prometheus text at /metrics and the
// tracer's last events and spans as JSON at /debug/market and
// /debug/spans (tracer may be nil).
func MetricsHandler(reg *MetricsRegistry, tracer *EventTracer) http.Handler {
	return telemetry.NewHandler(telemetry.HandlerConfig{Registry: reg, Tracer: tracer})
}

// --- Experiment harness --------------------------------------------------

// ExperimentOptions tunes experiment scale.
type ExperimentOptions = experiments.Options

// ExperimentResult is one experiment's tables and notes.
type ExperimentResult = experiments.Result

// RunExperiment regenerates one of the paper's tables or figures by ID
// (t1, f1b, f2, f3, f4, f6..f17, a1..a4).
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentResult, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(opts)
}

// ExperimentIDs lists the available experiment IDs in paper order.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}
