// Package search implements a cost-directed rewrite search over the
// paper's transform space. Its seeds are the fixed ablation grid (skip
// GT1 … skip GT5, with or without local transforms); from there the
// search treats every rewrite as an individual move — apply or skip
// one GT5.1 channel merge, take one GT5.2 re-route step, toggle or
// reorder each local transform per controller, pin one encoding-ladder
// rung — and expands a beam of candidate plans in deterministic parallel
// waves, scoring each by a weighted combination of analyzed makespan and
// the Figure 13 literal count.
//
// The exploration sweep is the zero-wave case: Run with Options.Waves < 0
// scores the seeds only, and FormatTable, Best and Pareto report them.
package search

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/local"
)

// Plan is one point of the search space: a complete decision vector that
// the evaluator replays onto a fresh clone of the input graph. Plans are
// value types; the mutating with* constructors copy shared state first.
type Plan struct {
	// Global-transform ablation toggles (GT1–GT5).
	SkipGT1, SkipGT2, SkipGT3, SkipGT4, SkipGT5 bool
	// GT5Auto runs the built-in budgeted merge search (transform.Eliminate)
	// for channel elimination. When false, the Merges/MergesDone/Reduces
	// trace below is replayed one decision at a time instead.
	GT5Auto bool
	// Merges indexes transform.CandidateMerges at each replay step.
	Merges []int
	// MergesDone closes the merge trace; only then do GT5.2 steps apply.
	MergesDone bool
	// Reduces is the number of single GT5.2 re-route steps to take.
	Reduces int
	// LT enables the local-transform stage.
	LT bool
	// LTConfigs selects per-controller local-transform subsets (missing
	// entry = the full LT1–LT5 pipeline).
	LTConfigs map[string]local.Config
	// Rungs pins a per-controller encoding-ladder rung (missing = auto).
	Rungs map[string]int
	// Tag is a display name for reports and traces. It is not part of the
	// canonical key: two plans differing only by tag are the same state.
	Tag string
}

// DefaultPlan is the paper's full script: every global transform, the
// built-in GT5 elimination, and the full local pipeline per controller.
func DefaultPlan() Plan {
	return Plan{GT5Auto: true, LT: true, Tag: "all-GT+LT"}
}

// StandardPlans is the standard exploration script — the unoptimized
// baseline, each global transform ablated from the full pipeline, and
// the full pipeline without and with local transforms — as search seed
// states, so the search starts from, and can therefore never score worse
// than, the best fixed ablation.
func StandardPlans() []Plan {
	return []Plan{
		{Tag: "baseline", SkipGT1: true, SkipGT2: true, SkipGT3: true, SkipGT4: true, SkipGT5: true},
		{Tag: "no-GT1", SkipGT1: true, GT5Auto: true},
		{Tag: "no-GT2", SkipGT2: true, GT5Auto: true},
		{Tag: "no-GT3", SkipGT3: true, GT5Auto: true},
		{Tag: "no-GT4", SkipGT4: true, GT5Auto: true},
		{Tag: "no-GT5", SkipGT5: true},
		{Tag: "all-GT", GT5Auto: true},
		DefaultPlan(),
	}
}

// clone deep-copies the plan's shared state so a derived move never
// aliases its parent.
func (p Plan) clone() Plan {
	q := p
	q.Merges = append([]int(nil), p.Merges...)
	if p.LTConfigs != nil {
		q.LTConfigs = make(map[string]local.Config, len(p.LTConfigs))
		for k, v := range p.LTConfigs {
			q.LTConfigs[k] = v
		}
	}
	if p.Rungs != nil {
		q.Rungs = make(map[string]int, len(p.Rungs))
		for k, v := range p.Rungs {
			q.Rungs[k] = v
		}
	}
	return q
}

// withLT returns the plan with fu's local-transform config replaced.
// Entries equal to the full default are normalized away so semantically
// equal plans share one key.
func (p Plan) withLT(fu string, cfg local.Config) Plan {
	q := p.clone()
	if cfg == local.FullConfig() {
		delete(q.LTConfigs, fu)
		return q
	}
	if q.LTConfigs == nil {
		q.LTConfigs = map[string]local.Config{}
	}
	q.LTConfigs[fu] = cfg
	return q
}

// withRung returns the plan with fu's encoding rung pinned (negative
// restores the automatic ladder and is normalized away).
func (p Plan) withRung(fu string, rung int) Plan {
	q := p.clone()
	if rung < 0 {
		delete(q.Rungs, fu)
		return q
	}
	if q.Rungs == nil {
		q.Rungs = map[string]int{}
	}
	q.Rungs[fu] = rung
	return q
}

// ltConfig returns fu's effective local-transform config.
func (p Plan) ltConfig(fu string) local.Config {
	if cfg, ok := p.LTConfigs[fu]; ok {
		return cfg
	}
	return local.FullConfig()
}

// rung returns fu's effective encoding rung (-1 = automatic ladder).
func (p Plan) rung(fu string) int {
	if r, ok := p.Rungs[fu]; ok {
		return r
	}
	return -1
}

// Key is the canonical content string of the decision vector: equal keys
// mean equal states. It drives visited-state deduplication, deterministic
// tiebreaks and trace labels. Tag is display-only and excluded.
func (p Plan) Key() string {
	var b strings.Builder
	b.WriteString("gt")
	for _, skip := range []bool{p.SkipGT1, p.SkipGT2, p.SkipGT3, p.SkipGT4, p.SkipGT5} {
		if skip {
			b.WriteByte('0')
		} else {
			b.WriteByte('1')
		}
	}
	if !p.SkipGT5 {
		if p.GT5Auto {
			b.WriteString(";gt5=auto")
		} else {
			fmt.Fprintf(&b, ";gt5=m%v", p.Merges)
			if p.MergesDone {
				fmt.Fprintf(&b, ".r%d", p.Reduces)
			}
		}
	}
	if p.LT {
		b.WriteString(";lt")
		for _, fu := range sortedKeys(p.LTConfigs) {
			if cfg := p.LTConfigs[fu]; cfg != local.FullConfig() {
				fmt.Fprintf(&b, ",%s=%s", fu, cfg.Key())
			}
		}
	}
	for _, fu := range sortedKeys(p.Rungs) {
		if r := p.Rungs[fu]; r >= 0 {
			fmt.Fprintf(&b, ";enc,%s=%d", fu, r)
		}
	}
	return b.String()
}

// Name returns the display tag, falling back to the canonical key.
func (p Plan) Name() string {
	if p.Tag != "" {
		return p.Tag
	}
	return p.Key()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
