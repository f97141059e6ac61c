// Package explore implements design-space exploration over the transform
// set — the "scripts" the paper names as the intended use of its
// transformations (§2.3, §7): sequences of global and local transforms are
// applied and scored, so a designer can trade communication cost, control
// area and performance.
//
// The sweep is a degenerate rewrite search: each variant of the fixed
// ablation grid maps to a search seed plan, and internal/search scores the
// whole batch in one zero-wave run. `asyncsynth search` runs the same
// evaluator with expansion waves enabled.
package explore

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cdfg"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/synth"
)

// Variant describes one point of the design space: which transforms run.
type Variant struct {
	Name                                        string
	SkipGT1, SkipGT2, SkipGT3, SkipGT4, SkipGT5 bool
	LT                                          bool
}

// AllVariants enumerates the standard exploration script: the unoptimized
// baseline, each transform ablated from the full global pipeline, and the
// fully optimized flows without and with local transforms.
func AllVariants() []Variant {
	return []Variant{
		{Name: "baseline", SkipGT1: true, SkipGT2: true, SkipGT3: true, SkipGT4: true, SkipGT5: true},
		{Name: "no-GT1", SkipGT1: true},
		{Name: "no-GT2", SkipGT2: true},
		{Name: "no-GT3", SkipGT3: true},
		{Name: "no-GT4", SkipGT4: true},
		{Name: "no-GT5", SkipGT5: true},
		{Name: "all-GT"},
		{Name: "all-GT+LT", LT: true},
	}
}

// Plan maps a variant onto the search space's decision vector: skip flags
// carry over, channel elimination keeps the built-in script, and the local
// stage runs the full pipeline on every controller.
func (v Variant) Plan() search.Plan {
	return search.Plan{
		Tag:     v.Name,
		SkipGT1: v.SkipGT1, SkipGT2: v.SkipGT2, SkipGT3: v.SkipGT3,
		SkipGT4: v.SkipGT4, SkipGT5: v.SkipGT5,
		GT5Auto: !v.SkipGT5,
		LT:      v.LT,
	}
}

// Score is the evaluation of one variant.
type Score struct {
	Variant   Variant
	Channels  int
	Multiway  int
	States    int // total controller states
	Trans     int
	Makespan  float64 // token-simulation finish time under the model's mean delays
	Assumed   int     // number of timing assumptions taken
	RunError  string
	Simulated bool
	// Gate-level metrics, filled when the sweep ran with Synthesize
	// (Figure 13's columns per design point).
	Products    int
	Literals    int
	Synthesized bool
	SynthError  string
}

// Failed reports whether the variant's flow, simulation, or requested
// synthesis failed — such a score carries zeroed metrics and must never
// win a comparison.
func (s Score) Failed() bool {
	return s.RunError != "" || s.SynthError != "" || !s.Simulated
}

// Options configures a sweep.
type Options struct {
	// Workers bounds the worker pool (0 = GOMAXPROCS, 1 = sequential).
	Workers int
	// Synthesize additionally runs gate-level synthesis per variant and
	// scores product/literal totals. This multiplies sweep cost — the
	// hazard-free minimizer dominates the flow — which is what Minimizer
	// amortizes.
	Synthesize bool
	// Minimizer is the shared hfmin memoization layer (one cache per
	// sweep): variants whose ablated transform leaves a controller's AFSM
	// untouched re-pose identical minimization problems, which become
	// cache hits instead of repeated solves.
	Minimizer synth.Minimizer
}

// Evaluate runs one variant on a fresh clone of the graph.
func Evaluate(g *cdfg.Graph, v Variant) Score {
	return SweepWith(g, []Variant{v}, Options{Workers: 1})[0]
}

// Sweep evaluates every variant.
func Sweep(g *cdfg.Graph, variants []Variant) []Score {
	return SweepWith(g, variants, Options{Workers: 1})
}

// SweepParallel evaluates every variant concurrently on up to `workers`
// goroutines (0 = GOMAXPROCS, 1 = equivalent to Sweep). Each variant runs
// the whole flow on a private clone of the graph, and scores land in
// index-addressed slots, so the result slice is identical to Sweep's,
// element for element.
func SweepParallel(g *cdfg.Graph, variants []Variant, workers int) []Score {
	return SweepWith(g, variants, Options{Workers: workers})
}

// SweepWith is the fully-configurable sweep, implemented as a degenerate
// rewrite search: the variants become seed plans of a zero-wave
// search.Run, whose batch evaluation carries the concurrency contract
// (deterministic at every worker count and cache state), and the scored
// seeds convert back one-to-one.
func SweepWith(g *cdfg.Graph, variants []Variant, opt Options) []Score {
	plans := make([]search.Plan, len(variants))
	for i, v := range variants {
		plans[i] = v.Plan()
	}
	res, _ := search.Run(g, search.Options{
		Workers:    opt.Workers,
		Waves:      -1, // score the seeds only
		Budget:     len(plans),
		Synthesize: opt.Synthesize,
		Minimizer:  opt.Minimizer,
		Seeds:      plans,
	})
	obs.Add("explore/variants", int64(len(variants)))
	out := make([]Score, len(variants))
	for i, v := range variants {
		out[i] = fromState(v, res.Seeds[i])
		if out[i].RunError != "" || out[i].SynthError != "" {
			obs.Add("explore/errors", 1)
		}
	}
	return out
}

// fromState converts a scored search state back into the sweep's score row.
func fromState(v Variant, st search.State) Score {
	sc := st.Score
	return Score{
		Variant:     v,
		Channels:    sc.Channels,
		Multiway:    sc.Multiway,
		States:      sc.States,
		Trans:       sc.Trans,
		Makespan:    sc.Makespan,
		Assumed:     sc.Assumed,
		RunError:    sc.RunError,
		Simulated:   sc.Simulated,
		Products:    sc.Products,
		Literals:    sc.Literals,
		Synthesized: sc.Synthesized,
		SynthError:  sc.SynthError,
	}
}

// Format renders a sweep as a table. Gate-level columns appear when any
// score carries them (a sweep run with Options.Synthesize).
func Format(scores []Score) string {
	gate := false
	for _, sc := range scores {
		if sc.Synthesized || sc.SynthError != "" {
			gate = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %9s %6s %7s %7s %9s %8s",
		"variant", "#channels", "#mway", "states", "trans", "makespan", "assumed")
	if gate {
		fmt.Fprintf(&b, " %7s %7s", "#prod", "#lits")
	}
	b.WriteString("\n")
	for _, sc := range scores {
		if sc.RunError != "" {
			fmt.Fprintf(&b, "%-12s ERROR: %s\n", sc.Variant.Name, sc.RunError)
			continue
		}
		ms := "-"
		if sc.Simulated {
			ms = fmt.Sprintf("%9.1f", sc.Makespan)
		}
		fmt.Fprintf(&b, "%-12s %9d %6d %7d %7d %9s %8d",
			sc.Variant.Name, sc.Channels, sc.Multiway, sc.States, sc.Trans, ms, sc.Assumed)
		if gate {
			if sc.Synthesized {
				fmt.Fprintf(&b, " %7d %7d", sc.Products, sc.Literals)
			} else if sc.SynthError != "" {
				fmt.Fprintf(&b, " SYNTH ERROR: %s", sc.SynthError)
			} else {
				fmt.Fprintf(&b, " %7s %7s", "-", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Best returns the variant minimizing the given metric among fully scored
// variants. A failed variant — flow error, failed simulation, or failed
// requested synthesis — carries zeroed metrics that would otherwise sort
// as a spurious optimum, so it is never eligible.
func Best(scores []Score, metric func(Score) float64) (Score, bool) {
	var best Score
	found := false
	for _, sc := range scores {
		if sc.Failed() {
			continue
		}
		if !found || metric(sc) < metric(best) {
			best = sc
			found = true
		}
	}
	return best, found
}

// Pareto returns the scores not dominated on (channels, states, makespan).
func Pareto(scores []Score) []Score {
	var valid []Score
	for _, sc := range scores {
		if !sc.Failed() {
			valid = append(valid, sc)
		}
	}
	var out []Score
	for i, a := range valid {
		dominated := false
		for j, b := range valid {
			if i == j {
				continue
			}
			if b.Channels <= a.Channels && b.States <= a.States && b.Makespan <= a.Makespan &&
				(b.Channels < a.Channels || b.States < a.States || b.Makespan < a.Makespan) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Variant.Name < out[j].Variant.Name })
	return out
}
