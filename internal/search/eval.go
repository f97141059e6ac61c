package search

import (
	"context"
	"math"

	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/timing"
	"repro/internal/transform"
)

// Weights combines the two cost axes: Time scales the analyzed makespan
// upper bound, Area scales the synthesized literal total (Figure 13).
type Weights struct {
	// Time weights the makespan axis of the cost function.
	Time float64
	// Area weights the literal-count axis of the cost function.
	Area float64
}

// Score is the evaluation of one plan.
type Score struct {
	// Channels is the communication-channel count after the transforms.
	Channels int
	// Multiway counts the multi-way (symmetrized) channels among them.
	Multiway int
	// States is the total controller state count across all AFSMs.
	States int
	// Trans is the total controller transition count.
	Trans int
	// Assumed counts the timing assumptions the local transforms took.
	Assumed int
	// Makespan is the token-simulation finish time under the model's mean
	// delays (the exploration sweep's historical metric); Analyzed is the
	// timing-analysis makespan upper bound that the cost function uses.
	Makespan float64
	// Analyzed is the interval timing-analysis makespan upper bound.
	Analyzed float64
	// Simulated reports whether the token simulation ran to completion.
	Simulated bool
	// Products is the gate-level product-term total, filled when the
	// search synthesizes.
	Products int
	// Literals is the gate-level literal total (Figure 13), filled when
	// the search synthesizes.
	Literals int
	// Synthesized reports whether gate-level synthesis ran and succeeded.
	Synthesized bool
	// RunError carries the pipeline error that failed the plan, if any.
	RunError string
	// SynthError carries the gate-level synthesis error, if any.
	SynthError string
	// Cost is the scalar objective; failed plans score +Inf so they sort
	// strictly after every scored plan and never survive into the beam.
	Cost float64
}

// Failed reports whether any pipeline stage errored for this plan.
func (s Score) Failed() bool { return s.RunError != "" || s.SynthError != "" }

// State is a search node: a plan, its score, and the expansion hints the
// evaluator gathered (how many merges are applicable at the trace end,
// whether another GT5.2 step applies, and the controller names).
type State struct {
	// Plan is the decision vector this state evaluated.
	Plan Plan
	// Score is the plan's evaluation.
	Score Score

	mergeCands int
	canReduce  bool
	fus        []string
}

// Options configures a search run.
type Options struct {
	// Workers bounds the worker pool for wave expansion and the flow's
	// internal fan-outs (0 = GOMAXPROCS, 1 = sequential). Results are
	// bit-identical at every setting.
	Workers int
	// Beam is the number of states kept per wave (default 3).
	Beam int
	// Waves is the number of expansion waves after scoring the seeds
	// (default 3).
	Waves int
	// Budget caps the total number of plan evaluations (default 64).
	Budget int
	// MaxBranch caps how many GT5.1 merge candidates extend a trace per
	// state (default 4); the rest are counted as pruned.
	MaxBranch int
	// Weights sets the cost function; the zero value selects {1, 1}.
	Weights Weights
	// Synthesize scores gate-level literals. Without it the cost is
	// time-only.
	Synthesize bool
	// Minimizer is the shared hfmin memoization layer — one cache per
	// search, so sibling states that re-pose a controller's minimization
	// problems hit instead of re-solving.
	Minimizer synth.Minimizer
	// Solver is the covering mode when no Minimizer is supplied.
	Solver logic.Solver
	// Seeds overrides the initial frontier (default StandardPlans).
	Seeds []Plan
}

func (o Options) withDefaults() Options {
	if o.Beam <= 0 {
		o.Beam = 3
	}
	if o.Waves < 0 {
		o.Waves = 0
	} else if o.Waves == 0 {
		o.Waves = 3
	}
	if o.Budget <= 0 {
		o.Budget = 64
	}
	if o.MaxBranch <= 0 {
		o.MaxBranch = 4
	}
	if o.Weights.Time == 0 && o.Weights.Area == 0 {
		o.Weights = Weights{Time: 1, Area: 1}
	}
	return o
}

// CoreOptions maps the plan onto the pipeline configuration that realizes
// it: level, global-transform skips, the GT5 decision trace, per-controller
// local-transform subsets and encoding rungs. Callers that need the actual
// synthesis artifacts of a chosen plan (not just its score) run the flow
// themselves with these options.
func (p Plan) CoreOptions(workers int, min synth.Minimizer, solver logic.Solver) core.Options {
	copt := core.Options{
		Level:  core.OptimizedGT,
		Timing: timing.DefaultModel(),
		Transform: transform.Options{
			Timing:  timing.DefaultModel(),
			Unroll:  3,
			SkipGT1: p.SkipGT1, SkipGT2: p.SkipGT2, SkipGT3: p.SkipGT3,
			SkipGT4: p.SkipGT4, SkipGT5: p.SkipGT5,
		},
		Parallelism: workers,
		Minimizer:   min,
		Solver:      solver,
		LTConfigs:   p.LTConfigs,
		Encodings:   p.Rungs,
	}
	if !p.SkipGT5 && !p.GT5Auto {
		script := &transform.Script{Merges: p.Merges}
		if p.MergesDone {
			script.Reduces = p.Reduces
		}
		copt.Transform.GT5 = script
	}
	if p.LT {
		copt.Level = core.OptimizedGTLT
	}
	return copt
}

// evaluateOn scores a plan on a private working graph (which it mutates).
// Each evaluation is one obs span (stage "search-eval", unit = plan name).
// A context cancellation surfaces as the plan's RunError/SynthError; RunCtx
// turns that into a run-level error rather than a failed state.
func evaluateOn(ctx context.Context, work *cdfg.Graph, p Plan, opt Options) State {
	sp := obs.Start("search-eval", p.Name())
	defer sp.End()
	st := State{Plan: p}
	sc := &st.Score
	s, err := core.RunCtx(ctx, work, p.CoreOptions(opt.Workers, opt.Minimizer, opt.Solver))
	if err != nil {
		sc.RunError = err.Error()
		sc.Cost = math.Inf(1)
		return st
	}
	sc.Channels = s.Channels()
	sc.Multiway = s.MultiwayChannels()
	for _, m := range s.Machines {
		sc.States += m.NumStates()
		sc.Trans += m.NumTransitions()
	}
	sc.Assumed = len(s.Assumptions())
	st.fus = s.FUs()
	// Token-level makespan under the transformed graph (the exploration
	// sweep's historical performance metric, kept for its reports) …
	if res, err := sim.NewTokenSim(work, sim.FromModel(timing.DefaultModel(), 1)).Run(); err == nil && res.Finished {
		sc.Makespan = res.FinishTime
		sc.Simulated = true
	}
	// … and the analyzed makespan upper bound that directs the search.
	if an, err := timing.Analyze(work, timing.DefaultModel(), 3); err == nil {
		sc.Analyzed = an.Makespan().Max
	}
	if opt.Synthesize {
		results, err := s.SynthesizeLogicCtx(ctx)
		if err != nil {
			sc.SynthError = err.Error()
			sc.Cost = math.Inf(1)
			return st
		}
		for _, r := range results {
			sc.Products += r.Products
			sc.Literals += r.Literals
		}
		sc.Synthesized = true
	}
	// Expansion hints, gathered after scoring (ReduceOnce mutates the
	// plan's scratch graph, which is discarded with this evaluation).
	if !p.SkipGT5 && !p.GT5Auto {
		if !p.MergesDone {
			st.mergeCands = len(s.Plan.CandidateMerges())
		} else {
			st.canReduce = s.Plan.ReduceOnce()
		}
	}
	sc.Cost = opt.cost(*sc)
	return st
}

// cost folds a score into the scalar objective. Failed plans — a pipeline
// error, a synthesis error, or a design whose makespan could not be
// assessed at all — cost +Inf, so they sort after every scored plan and
// drop out of candidate expansion.
func (o Options) cost(sc Score) float64 {
	if sc.Failed() {
		return math.Inf(1)
	}
	t := sc.Analyzed
	if t <= 0 {
		if !sc.Simulated {
			return math.Inf(1)
		}
		t = sc.Makespan
	}
	c := o.Weights.Time * t
	if sc.Synthesized {
		c += o.Weights.Area * float64(sc.Literals)
	}
	return c
}
