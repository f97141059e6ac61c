// Package repro reproduces "Transformations for the Synthesis and
// Optimization of Asynchronous Distributed Control" (Theobald & Nowick,
// DAC 2001): a transformation-based flow that turns a scheduled,
// resource-bound control-data flow graph into an optimized set of
// interacting asynchronous burst-mode controllers.
//
// The library lives under internal/: cdfg (graphs), transform (GT1–GT5),
// extract (controller extraction), local (LT1–LT5), synth + hfmin + logic
// (gate-level hazard-free synthesis), sim (token- and controller-level
// simulation), timing (interval analysis), core (the assembled flow),
// diffeq, gcd and fir (benchmarks), search (the cost-directed rewrite
// search over transform plans, whose seeds-only run is the design-space
// sweep of the paper's "scripts"), par (the bounded worker pool every
// fan-out runs on) and obs (structured tracing and per-stage metrics —
// the cmd/asyncsynth -trace/-metrics flags).
//
// The root-level benchmarks (bench_test.go) regenerate every table and
// figure of the paper's evaluation; see EXPERIMENTS.md for the comparison
// against the published numbers.
package repro
