// Package mpr is a from-scratch Go implementation of MPR — Market-based
// Power Reduction — the user-in-the-loop market mechanism for managing
// power-oversubscribed HPC systems proposed in "Market Mechanism-Based
// User-in-the-Loop Scalable Power Oversubscription for HPC Systems"
// (HPCA 2023).
//
// # The idea
//
// HPC systems are chronically power-underutilized, so operators can
// oversubscribe their power infrastructure — install more compute than
// the nominal capacity supports — and reclaim the headroom. The price is
// occasional overloads. MPR handles them reactively: when total power
// exceeds capacity, the HPC manager buys "resource reduction" from the
// users through a supply-function market. Each user submits a bid
// (Δ, b) parameterizing the supply function δ(q) = [Δ − b/q]⁺; the
// manager picks the minimal clearing price q′ whose aggregate supply
// covers the needed power cut, pays q′ per unit of reduction, and slows
// the winning jobs with DVFS. Users who value performance highly bid
// high and keep their speed; users who don't earn core-hour rewards that
// provably exceed their performance cost.
//
// # Package layout
//
// This root package is the public API: a small facade over the internal
// implementation packages, holding exactly the names README.md and the
// programs under examples/ call (a test enforces it). The entry points
// are:
//
//   - Market primitives: Bid, Participant, Clear (MPR-STAT),
//     ClearInteractive (MPR-INT), RationalBidder, CooperativeBid,
//     SolveOPT (the paper's centralized baseline), Settle.
//   - Application models: NewCostModel, ProfileByName, GPUProfiles.
//   - Power substrate: CoreModel, Oversubscription,
//     NewEmergencyController.
//   - Workloads: GenerateTrace, UtilizationCDF, and trace presets for
//     the Gaia/PIK/RICC/Metacentrum clusters.
//   - Simulation: SimConfig, RunSim — the trace-driven evaluation
//     engine.
//   - Prototype: NewCluster — the emulated two-server prototype with
//     per-core DVFS.
//   - Distributed market: NewManager and DialAgent — the manager↔agent
//     TCP protocol for interactive bidding.
//   - Carbon-aware demand response: NewCarbonSignal, RunCarbonDR.
//
// See the runnable programs under examples/ for end-to-end usage, the
// commands under cmd/ for the paper's tables and figures (mprbench), and
// DESIGN.md / EXPERIMENTS.md for the reproduction methodology.
package mpr
