// Package core ties the synthesis flow together: it is the programmatic
// entry point implementing the paper's three-step method —
//
//  1. apply global transformations to the scheduled CDFG (GT1–GT5),
//  2. extract one extended burst-mode AFSM per functional unit,
//  3. apply local transformations to each controller (LT1–LT5),
//
// and exposes evaluation hooks: channel counts (Figure 5), state-machine
// sizes (Figure 12), gate-level synthesis (Figure 13) and simulation-based
// functional verification.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/bm"
	"repro/internal/cdfg"
	"repro/internal/extract"
	"repro/internal/local"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/timing"
	"repro/internal/transform"
)

// Level selects how much of the optimization pipeline runs, matching the
// paper's three experiments.
type Level int

// Pipeline levels (Figure 12 rows).
const (
	Unoptimized Level = iota
	OptimizedGT
	OptimizedGTLT
)

func (l Level) String() string {
	switch l {
	case Unoptimized:
		return "unoptimized"
	case OptimizedGT:
		return "optimized-GT"
	case OptimizedGTLT:
		return "optimized-GT-and-LT"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Options configures a flow run.
type Options struct {
	Level Level
	// Timing is the delay model for relative-timing optimization; zero
	// value selects timing.DefaultModel().
	Timing timing.Model
	// Transform forwards fine-grained transform toggles (ablations).
	Transform transform.Options
	// Parallelism bounds the worker pool used to fan out per-controller
	// local optimization, gate-level synthesis and per-output hazard-free
	// minimization: 0 selects GOMAXPROCS, 1 forces the sequential path
	// (useful for debugging). Results are identical at every setting.
	Parallelism int
	// Minimizer, when non-nil, routes every exact hazard-free
	// minimization through a memoization layer (internal/memo's *Cache).
	// Results are bit-identical with and without it; only wall time
	// changes. Sharing one cache across runs (e.g. an exploration sweep)
	// turns repeated minimization problems into hits.
	Minimizer synth.Minimizer
	// Solver names the covering mode of the hazard-free minimizations
	// (see logic.Solver); exact branch-and-bound, the zero value, is the
	// only one.
	Solver logic.Solver
	// LTConfigs selects a per-controller subset/order of the local
	// transforms (a rewrite-search decision); nil, or a missing entry,
	// runs the full pipeline for that controller. Only consulted at
	// Level OptimizedGTLT.
	LTConfigs map[string]local.Config
	// Encodings forces a per-controller rung of the encoding-attempt
	// ladder (see synth.SynthesizeRung); nil, a missing entry, or a
	// negative value tries the whole ladder.
	Encodings map[string]int
}

// DefaultOptions runs the full pipeline.
func DefaultOptions() Options {
	return Options{Level: OptimizedGTLT, Timing: timing.DefaultModel(), Transform: transform.DefaultOptions()}
}

// Synthesis is the result of running the flow on a CDFG.
type Synthesis struct {
	Level     Level
	Graph     *cdfg.Graph
	Plan      *transform.Plan
	Machines  map[string]*bm.Machine
	Shared    map[string]map[string][]string
	GTReports []*transform.Report
	LTReports map[string]*local.Report
	Wires     map[cdfg.ArcID]extract.WireEvent
	Primers   map[string]bm.Edge
	// Parallelism is the worker-pool bound inherited from Options; it
	// governs SynthesizeLogic's per-controller fan-out.
	Parallelism int
	// Minimizer is the optional hfmin memoization layer inherited from
	// Options, used by SynthesizeLogic.
	Minimizer synth.Minimizer
	// Solver is the covering mode inherited from Options.
	Solver logic.Solver
	// Encodings carries the per-controller forced encoding rungs inherited
	// from Options into SynthesizeLogic.
	Encodings map[string]int
}

// FUs returns the controller (functional-unit) names in sorted order —
// the canonical iteration order over Machines, so reports, errors and
// fan-out work lists are deterministic run to run.
func (s *Synthesis) FUs() []string {
	fus := make([]string, 0, len(s.Machines))
	for fu := range s.Machines {
		fus = append(fus, fu)
	}
	sort.Strings(fus)
	return fus
}

// Run executes the flow on graph g (which is mutated: clone first to keep
// the original). The whole run is bracketed in an obs span ("run", unit =
// level) with per-phase child spans, so `asyncsynth -metrics`/-trace see
// the complete cascade: GT1–GT5 (inside transform.OptimizeGT), extraction,
// and the per-controller LT fan-out.
func Run(g *cdfg.Graph, opt Options) (*Synthesis, error) {
	return RunCtx(context.Background(), g, opt)
}

// RunCtx is Run with cooperative cancellation: ctx is checked at every
// stage boundary (before the global transforms, before extraction, before
// the LT fan-out) and threaded through the worker pool, so a cancelled or
// deadline-exceeded run — a cancelled service job, typically — stops
// between stages and releases its pool workers instead of completing the
// pipeline. A cancelled run returns ctx.Err().
func RunCtx(ctx context.Context, g *cdfg.Graph, opt Options) (_ *Synthesis, err error) {
	sp := obs.Start("run", opt.Level.String())
	defer func() { sp.EndErr(err) }()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt = opt.Normalized()
	s := &Synthesis{
		Level:       opt.Level,
		Graph:       g,
		Shared:      map[string]map[string][]string{},
		LTReports:   map[string]*local.Report{},
		Parallelism: opt.Parallelism,
		Minimizer:   opt.Minimizer,
		Solver:      opt.Solver,
		Encodings:   opt.Encodings,
	}
	plan, reports, exOpt, err := GTPhase(g, opt)
	if err != nil {
		return nil, err
	}
	s.Plan = plan
	s.GTReports = reports
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := ExtractPhase(g, s.Plan, exOpt)
	if err != nil {
		return nil, err
	}
	s.Machines = res.Machines
	s.Wires = res.Wires
	s.Primers = res.Primers
	if opt.Level == OptimizedGTLT {
		// Fan out LT1–LT5 across controllers: each machine is optimized in
		// place and touches no shared state, so per-FU work is independent.
		// Reports land in index-addressed slots over the sorted FU list,
		// keeping results and error attribution deterministic.
		fus := s.FUs()
		reps, err := par.NamedMapCtx(ctx, "lt", opt.Parallelism, fus, func(_ context.Context, _ int, fu string) (*local.Report, error) {
			return LTPhase(s.Machines[fu], LTConfigFor(opt, fu), fu)
		})
		if err != nil {
			return nil, err
		}
		for i, fu := range fus {
			s.LTReports[fu] = reps[i]
			s.Shared[fu] = reps[i].SharedWires
		}
	}
	return s, nil
}

// Channels returns the number of inter-controller communication channels.
func (s *Synthesis) Channels() int { return s.Plan.Count() }

// MultiwayChannels returns the number of multi-way channels.
func (s *Synthesis) MultiwayChannels() int { return s.Plan.MultiwayCount() }

// StateCounts returns per-controller (states, transitions).
func (s *Synthesis) StateCounts() map[string][2]int {
	out := map[string][2]int{}
	for _, fu := range s.FUs() {
		m := s.Machines[fu]
		out[fu] = [2]int{m.NumStates(), m.NumTransitions()}
	}
	return out
}

// SynthesizeLogic runs gate-level synthesis on every controller,
// fanning the independent per-controller problems out across the
// Parallelism-bounded worker pool (each synthesis in turn parallelizes
// its per-output minimizations on the same bound).
func (s *Synthesis) SynthesizeLogic() (map[string]*synth.Result, error) {
	return s.SynthesizeLogicCtx(context.Background())
}

// SynthesizeLogicCtx is SynthesizeLogic with cooperative cancellation:
// ctx flows into every per-controller synthesis and from there into the
// per-output minimizations, which check it between encoding-ladder rungs
// and covering iterations. A cancelled synthesis returns ctx.Err().
func (s *Synthesis) SynthesizeLogicCtx(ctx context.Context) (map[string]*synth.Result, error) {
	fus := s.FUs()
	results, err := par.NamedMapCtx(ctx, "synth", s.Parallelism, fus, func(ctx context.Context, _ int, fu string) (*synth.Result, error) {
		return SynthPhase(ctx, s.Machines[fu], s.Parallelism, s.Minimizer, s.Solver, RungFor(s.Encodings, fu), fu)
	})
	if err != nil {
		return nil, err
	}
	out := map[string]*synth.Result{}
	for i, fu := range fus {
		out[fu] = results[i]
	}
	return out, nil
}

// Simulate runs the controller-level simulation under a seeded random
// delay model and returns the final register file.
func (s *Synthesis) Simulate(seed int64) (*sim.MachineResult, error) {
	sys := &sim.MachineSystem{
		G:        s.Graph,
		Machines: s.Machines,
		Shared:   s.Shared,
		Primers:  s.Primers,
		Delays:   sim.DefaultMachineDelays(seed),
	}
	return sys.Run()
}

// GateSimulate runs the synthesized two-level logic (with state feedback)
// as the controllers — the gate-level closure of the whole flow.
func (s *Synthesis) GateSimulate(results map[string]*synth.Result, seed int64) (*sim.LogicResult, error) {
	evs := map[string]*synth.Evaluator{}
	for _, fu := range s.FUs() {
		m := s.Machines[fu]
		r, ok := results[fu]
		if !ok {
			return nil, fmt.Errorf("core: no synthesis result for %s", fu)
		}
		ev, err := synth.NewEvaluator(m, r)
		if err != nil {
			return nil, err
		}
		evs[fu] = ev
	}
	sys := &sim.LogicSystem{
		G:          s.Graph,
		Evaluators: evs,
		Machines:   s.Machines,
		Shared:     s.Shared,
		Primers:    s.Primers,
		Delays:     sim.DefaultMachineDelays(seed),
	}
	return sys.Run()
}

// Verify simulates under `seeds` random delay assignments and checks the
// named registers against want; it returns an error describing the first
// mismatch or violation.
func (s *Synthesis) Verify(want map[string]float64, seeds int) error {
	for seed := 0; seed < seeds; seed++ {
		res, err := s.Simulate(int64(seed))
		if err != nil {
			return err
		}
		for reg, w := range want {
			if math.Abs(res.Regs[reg]-w) > 1e-9 {
				return fmt.Errorf("core: seed %d: register %s = %v, want %v", seed, reg, res.Regs[reg], w)
			}
		}
		if len(res.Violations) > 0 {
			return fmt.Errorf("core: seed %d: %s", seed, res.Violations[0])
		}
	}
	return nil
}

// Row is one line of the Figure 12 table.
type Row struct {
	Name        string
	Channels    int
	States      map[string]int
	Transitions map[string]int
}

// Fig12Row summarizes the synthesis as a Figure 12 table row.
func (s *Synthesis) Fig12Row() Row {
	r := Row{Name: s.Level.String(), Channels: s.Channels(),
		States: map[string]int{}, Transitions: map[string]int{}}
	for _, fu := range s.FUs() {
		m := s.Machines[fu]
		r.States[fu] = m.NumStates()
		r.Transitions[fu] = m.NumTransitions()
	}
	return r
}

// FormatFig12 renders rows in the layout of the paper's Figure 12.
func FormatFig12(fus []string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %9s", "", "#channels")
	for _, fu := range fus {
		fmt.Fprintf(&b, " | %5s st/tr", fu)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %9d", r.Name, r.Channels)
		for _, fu := range fus {
			fmt.Fprintf(&b, " | %5s %2d/%2d", "", r.States[fu], r.Transitions[fu])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatFig13 renders gate-level results in the layout of Figure 13.
func FormatFig13(fus []string, results map[string]*synth.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %8s %8s\n", "", "#prod", "#lits")
	totP, totL := 0, 0
	for _, fu := range fus {
		r := results[fu]
		if r == nil {
			continue
		}
		fmt.Fprintf(&b, "%-8s %8d %8d\n", fu, r.Products, r.Literals)
		totP += r.Products
		totL += r.Literals
	}
	fmt.Fprintf(&b, "%-8s %8d %8d\n", "total", totP, totL)
	return b.String()
}

// Assumptions collects every timing assumption taken by the flow, sorted.
func (s *Synthesis) Assumptions() []string {
	var out []string
	for _, rep := range s.GTReports {
		for _, n := range rep.Notes {
			if strings.Contains(n, "assumption") {
				out = append(out, rep.Name+": "+n)
			}
		}
	}
	for fu, rep := range s.LTReports {
		for _, a := range rep.Assumptions {
			out = append(out, fu+": "+a)
		}
	}
	sort.Strings(out)
	return out
}
