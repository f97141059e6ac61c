// Package stage is the incremental synthesis engine: it runs the same
// pipeline as core.RunCtx + Synthesis.SynthesizeLogicCtx, but as an
// explicit DAG of individually cached stage nodes —
//
//	global transforms ─→ extraction ─→ per-FU local transforms ─→ per-FU synthesis
//
// — each keyed by a SHA-256 content hash over its canonical inputs (the
// CDFG fingerprint and resolved options for the global stages; the
// extracted controller's canonical bytes, local.Config key, encoding
// rung and covering-solver version for the per-controller stages) and
// stored through internal/memo's memory→disk chain (memo.Store). A
// re-run after an edit recomputes only the stages whose inputs changed:
// the per-controller stages are keyed by the extracted machine's
// content, so an edit that leaves a functional unit's controller
// byte-identical skips that controller's LT and synthesis outright —
// including across a restart when the store has a directory.
//
// # Correctness model
//
// The engine re-derives every stage key from actual stage inputs, never
// from an edit description, so results are bit-identical to a cold
// core.RunCtx run by construction: a stage either recomputes (same code
// path as core; the seams in core/phases.go are shared, not duplicated)
// or replays a result whose key proves identical inputs. The dirty
// classification (Classify) is advisory — it routes reporting and
// counters, not correctness. Incremental == full equivalence is enforced
// by tests over the benchmark registry and the internal/gen corpus with
// randomized edit sequences.
//
// Unlike core.RunCtx, Run never mutates the caller's graph (stages are
// cached and shared, so inputs must stay pristine). Cached stage outputs
// — the transformed graph, extracted machines, LT'd machines, synthesis
// results — are shared by reference across runs and jobs; callers must
// treat a returned Synthesis and result map as immutable.
//
// # Observability
//
// Every stage lookup lands in the obs registry: stage/hits and
// stage/misses totals, per-stage stage/<name>/hits|misses, and a
// "stage-skip" span (unit = stage name) for every cache hit so traces
// show exactly which work an incremental run avoided. Engine.Stats
// mirrors the counters programmatically.
package stage

import (
	"context"
	"crypto/sha256"
	"sort"
	"sync/atomic"

	"repro/internal/bm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/local"
	"repro/internal/logic"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/synth"
	"repro/internal/transform"
)

// Engine caches pipeline stages in a memo.Store. One engine is shared by
// every job of a process (the daemon constructs one at startup); it is
// safe for concurrent use, and concurrent runs needing the same stage
// collapse onto one computation via the store's singleflight.
type Engine struct {
	store *memo.Store

	gtHits      atomic.Int64
	gtMisses    atomic.Int64
	exHits      atomic.Int64
	exMisses    atomic.Int64
	ltHits      atomic.Int64
	ltMisses    atomic.Int64
	synthHits   atomic.Int64
	synthMisses atomic.Int64
}

// Stats is a snapshot of the engine's per-stage cache counters.
type Stats struct {
	// GTHits and GTMisses count global-transform stage lookups.
	GTHits, GTMisses int64
	// ExtractHits and ExtractMisses count extraction stage lookups.
	ExtractHits, ExtractMisses int64
	// LTHits and LTMisses count per-controller local-transform lookups.
	LTHits, LTMisses int64
	// SynthHits and SynthMisses count per-controller synthesis lookups.
	SynthHits, SynthMisses int64
}

// Hits returns the total stage-cache hits across all stage kinds.
func (s Stats) Hits() int64 { return s.GTHits + s.ExtractHits + s.LTHits + s.SynthHits }

// Misses returns the total stage-cache misses across all stage kinds.
func (s Stats) Misses() int64 { return s.GTMisses + s.ExtractMisses + s.LTMisses + s.SynthMisses }

// New returns an engine backed by store. A nil store selects a fresh
// in-memory-only store, giving process-local incrementality without
// persistence.
func New(store *memo.Store) *Engine {
	if store == nil {
		store, _ = memo.NewStore("") // empty dir never errors
	}
	return &Engine{store: store}
}

// Stats returns the engine's current per-stage counters.
func (e *Engine) Stats() Stats {
	return Stats{
		GTHits: e.gtHits.Load(), GTMisses: e.gtMisses.Load(),
		ExtractHits: e.exHits.Load(), ExtractMisses: e.exMisses.Load(),
		LTHits: e.ltHits.Load(), LTMisses: e.ltMisses.Load(),
		SynthHits: e.synthHits.Load(), SynthMisses: e.synthMisses.Load(),
	}
}

// count publishes one stage lookup outcome: counters always, plus a
// "stage-skip" span on hits so traces show the avoided work.
func (e *Engine) count(name string, src memo.Source, hits, misses *atomic.Int64) {
	if src == memo.SourceComputed {
		misses.Add(1)
		obs.Add("stage/misses", 1)
		obs.Add("stage/"+name+"/misses", 1)
		return
	}
	hits.Add(1)
	obs.Add("stage/hits", 1)
	obs.Add("stage/"+name+"/hits", 1)
	sp := obs.Start("stage-skip", name)
	sp.End()
}

// gtResult is the memory-only global-transform stage output: the
// transformed graph clone, its channel plan and reports, the extraction
// options the next stage must use, and that stage's key. Like every
// stage value it is immutable after its fill, so the key, a hash of the
// transformed graph, the plan's description and the options, is made
// there once rather than on every run.
type gtResult struct {
	g       *cdfg.Graph
	plan    *transform.Plan
	reports []*transform.Report
	exOpt   extract.Options
	exKey   [sha256.Size]byte
}

// exResult is the memory-only extraction stage output: the extracted
// controllers and each one's canonical bytes (bm.EncodeMachine), the
// key material of its lt or synth stage.
type exResult struct {
	*extract.Result
	mb map[string][]byte
}

// fuResult is one controller's pipeline tail: its (possibly LT'd)
// machine, the LT report (nil below OptimizedGTLT) and its synthesis.
type fuResult struct {
	m   *bm.Machine
	rep *local.Report
	res *synth.Result
}

// Run executes the full pipeline on g through the stage cache and
// returns the synthesis (as core.RunCtx would build it) plus the
// gate-level results (as Synthesis.SynthesizeLogicCtx would). g is never
// mutated. Outputs are bit-identical to the uncached core path; only
// which stages actually execute differs.
func (e *Engine) Run(ctx context.Context, g *cdfg.Graph, opt core.Options) (_ *core.Synthesis, _ map[string]*synth.Result, err error) {
	sp := obs.Start("run", opt.Level.String())
	defer func() { sp.EndErr(err) }()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	opt = opt.Normalized()

	// Stage 1: global transforms, keyed by the input graph fingerprint
	// and every resolved option the transform cascade reads. Memory-only:
	// the result holds a live graph.
	gtKey := stageKey("gt", hashGraph(g), optionsKey(opt))
	v, src, err := e.store.Do(ctx, gtKey, nil, func(context.Context) (any, error) {
		gg := g.Clone()
		plan, reports, exOpt, gerr := core.GTPhase(gg, opt)
		if gerr != nil {
			return nil, gerr
		}
		// Stage 2's key: the transformed graph and the channel plan it
		// feeds on.
		exKey := stageKey("extract",
			hashGraph(gg),
			[]byte(plan.Describe()),
			u64bytes(boolU64(exOpt.SeparateWaits)))
		return &gtResult{g: gg, plan: plan, reports: reports, exOpt: exOpt, exKey: exKey}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	gt := v.(*gtResult)
	e.count("gt", src, &e.gtHits, &e.gtMisses)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// Stage 2: extraction. Memory-only likewise; its fill encodes each
	// controller once for the keys of the stages after it.
	v, src, err = e.store.Do(ctx, gt.exKey, nil, func(context.Context) (any, error) {
		ex, xerr := core.ExtractPhase(gt.g, gt.plan, gt.exOpt)
		if xerr != nil {
			return nil, xerr
		}
		mb := make(map[string][]byte, len(ex.Machines))
		for fu, m := range ex.Machines {
			if mb[fu], xerr = bm.EncodeMachine(m); xerr != nil {
				return nil, xerr
			}
		}
		return &exResult{Result: ex, mb: mb}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	ex := v.(*exResult)
	e.count("extract", src, &e.exHits, &e.exMisses)

	s := &core.Synthesis{
		Level:       opt.Level,
		Graph:       gt.g,
		Plan:        gt.plan,
		GTReports:   gt.reports,
		Machines:    map[string]*bm.Machine{},
		Shared:      map[string]map[string][]string{},
		LTReports:   map[string]*local.Report{},
		Wires:       ex.Wires,
		Primers:     ex.Primers,
		Parallelism: opt.Parallelism,
		Minimizer:   opt.Minimizer,
		Solver:      opt.Solver,
		Encodings:   opt.Encodings,
	}
	fus := make([]string, 0, len(ex.Machines))
	for fu := range ex.Machines {
		fus = append(fus, fu)
	}
	sort.Strings(fus)

	// Stages 3+4: the per-controller chains are independent; fan them out
	// like core's LT/synth loops, each controller flowing through its LT
	// lookup straight into its synth lookup without a barrier.
	outs, err := par.NamedMapCtx(ctx, "stage", opt.Parallelism, fus, func(ctx context.Context, _ int, fu string) (*fuResult, error) {
		return e.runFU(ctx, fu, ex.Machines[fu], ex.mb[fu], opt)
	})
	if err != nil {
		return nil, nil, err
	}
	results := map[string]*synth.Result{}
	for i, fu := range fus {
		s.Machines[fu] = outs[i].m
		if outs[i].rep != nil {
			s.LTReports[fu] = outs[i].rep
			s.Shared[fu] = outs[i].rep.SharedWires
		}
		results[fu] = outs[i].res
	}
	return s, results, nil
}

// runFU runs one controller's LT and synthesis stages through the cache.
// mb is m's canonical bytes; the lt stage value carries its output's, so
// a run whose stages all hit encodes no machine.
func (e *Engine) runFU(ctx context.Context, fu string, m *bm.Machine, mb []byte, opt core.Options) (*fuResult, error) {
	out := &fuResult{m: m}
	if opt.Level == core.OptimizedGTLT {
		cfg := core.LTConfigFor(opt, fu)
		ltKey := stageKey("lt", mb, []byte(cfg.Key()))
		v, src, lerr := e.store.Do(ctx, ltKey, ltCodec{}, func(context.Context) (any, error) {
			mm := m.Clone()
			rep, perr := core.LTPhase(mm, cfg, fu)
			if perr != nil {
				return nil, perr
			}
			return newLTResult(mm, rep)
		})
		if lerr != nil {
			return nil, lerr
		}
		lt := v.(*ltResult)
		e.count("lt", src, &e.ltHits, &e.ltMisses)
		out.m, out.rep, mb = lt.M, lt.Report, lt.mb
	}
	rung := core.RungFor(opt.Encodings, fu)
	synthKey := stageKey("synth",
		mb,
		u64bytes(uint64(int64(rung))),
		u64bytes(uint64(logic.SolverBB)),
		[]byte(logic.SolverVersion))
	v, src, serr := e.store.Do(ctx, synthKey, synthCodec{}, func(ctx context.Context) (any, error) {
		return core.SynthPhase(ctx, out.m, opt.Parallelism, opt.Minimizer, opt.Solver, rung, fu)
	})
	if serr != nil {
		return nil, serr
	}
	out.res = v.(*synth.Result)
	e.count("synth", src, &e.synthHits, &e.synthMisses)
	return out, nil
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
