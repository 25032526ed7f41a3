// Package check is the verification harness of the market stack: a
// seeded, deterministic property-based and differential testing
// subsystem for the MClr solvers (closed-form segmented index,
// bisection), the interactive MPR-INT market, and the OPT/EQL benchmark
// algorithms.
//
// It has three layers:
//
//   - Generators (gen.go): seeded random market instances — participant
//     pools with adversarial shapes (zero-b fully willing bids, duplicate
//     activation prices, Δ = 0 never-suppliers, degenerate
//     single-participant markets), power-reduction targets below, at, and
//     above total capacity, and analytic quadratic-cost pools whose OPT
//     solution is known through the KKT conditions.
//
//   - Invariant oracles (oracle.go): machine-checkable encodings of the
//     paper's equilibrium properties — cleared supply meets demand within
//     tolerance, the clearing price is minimal and lies within the
//     activation-price structure, per-participant reductions stay in
//     [0, Δ], payout consistency q′·Σδ, and the OPT ≤ STAT and
//     OPT ≤ EQL cost ordering.
//
//   - Differential drivers (diff.go): cross-checks that run thousands of
//     generated instances through independent solver implementations
//     (core.Clear vs core.ClearBisect, MPR-INT vs the OPT KKT dual fast
//     path) and fail with the reproducing instance seed on any
//     disagreement or invariant violation.
//
// The package's own test suite additionally hosts the native Go fuzz
// targets (FuzzClear, FuzzMarketIndex, FuzzSWFParse; seed corpus under
// testdata/fuzz/) and the metamorphic suites
// (participant-permutation invariance, power-of-two scale invariance).
// Everything is deterministic for a fixed seed: a reported seed
// reproduces the failing instance exactly.
//
// Shared floating-point comparison helpers live in the dependency-free
// subpackage check/floats so in-package (white-box) tests anywhere in
// the module can use them without import cycles.
package check
