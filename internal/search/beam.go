package search

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/cdfg"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/synth"
)

// Result is the outcome of a search run.
type Result struct {
	// Best is the lowest-cost state seen anywhere in the run.
	Best State
	// Frontier is the final beam, best first.
	Frontier []State
	// Seeds holds the scored seed states in input order, so a caller can
	// compare the search outcome against each fixed starting point (the
	// exploration sweep's table is these rows; see FormatTable). It is
	// filled even when Run reports that every plan failed.
	Seeds []State
	// Counters: plans evaluated, states discarded (beam truncation, branch
	// caps, budget cuts, failed plans), duplicate states skipped via the
	// visited set, and expansion waves completed.
	Expanded, Pruned, CacheHits, Waves int
}

// Run searches the transform space of g. The graph is never mutated: every
// evaluation clones it. Seed plans are scored first (wave 0), then up to
// Waves expansion waves each enumerate the beam's single-decision moves,
// deduplicate against every state visited so far, and score the survivors
// in one deterministic parallel batch — results land in index-addressed
// slots and ties break on the canonical plan key, so the chosen plan is
// bit-identical at every Workers setting.
func Run(g *cdfg.Graph, opt Options) (*Result, error) {
	return RunCtx(context.Background(), g, opt)
}

// RunCtx is Run with cooperative cancellation: ctx is observed between
// evaluation batches and inside each evaluation's pipeline stages, so a
// cancelled search releases its pool workers within a poll interval (the
// job server's DELETE path relies on this).
func RunCtx(ctx context.Context, g *cdfg.Graph, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	sp := obs.Start("search", "")
	defer sp.End()
	r := &Result{}
	visited := map[string]bool{}
	seeds := opt.Seeds
	if seeds == nil {
		seeds = StandardPlans()
	}
	// Seeds are the caller's explicit request: duplicates are scored once
	// but reported per input slot, and the evaluation budget only bounds
	// the expansion waves on top of them.
	var batch []Plan
	for _, p := range seeds {
		if k := p.Key(); !visited[k] {
			visited[k] = true
			batch = append(batch, p)
		} else {
			r.CacheHits++
		}
	}
	evalBatch := func(plans []Plan) []State {
		states, _ := par.NamedMap("search", opt.Workers, plans, func(i int, p Plan) (State, error) {
			return evaluateOn(ctx, g.Clone(), p, opt), nil
		})
		return states
	}
	scored := evalBatch(batch)
	r.Expanded += len(batch)
	if err := ctx.Err(); err != nil {
		return r, err
	}
	byKey := make(map[string]State, len(scored))
	for _, st := range scored {
		byKey[st.Plan.Key()] = st
	}
	for _, p := range seeds {
		st := byKey[p.Key()]
		st.Plan.Tag = p.Tag
		r.Seeds = append(r.Seeds, st)
	}
	frontier := trim(append([]State(nil), scored...), opt.Beam, r)
	for wave := 1; wave <= opt.Waves && len(frontier) > 0 && r.Expanded < opt.Budget; wave++ {
		var children []Plan
		for _, st := range frontier {
			for _, c := range moves(st, opt, r) {
				if k := c.Key(); !visited[k] {
					visited[k] = true
					children = append(children, c)
				} else {
					r.CacheHits++
				}
			}
		}
		if len(children) == 0 {
			break
		}
		if left := opt.Budget - r.Expanded; len(children) > left {
			r.Pruned += len(children) - left
			children = children[:left]
		}
		scored := evalBatch(children)
		r.Expanded += len(children)
		if err := ctx.Err(); err != nil {
			return r, err
		}
		r.Waves = wave
		frontier = trim(append(frontier, scored...), opt.Beam, r)
	}
	if len(frontier) == 0 {
		obs.Add("search/expanded", int64(r.Expanded))
		return r, fmt.Errorf("search: every candidate plan failed (%d evaluated)", r.Expanded)
	}
	r.Frontier = frontier
	r.Best = frontier[0]
	obs.Add("search/expanded", int64(r.Expanded))
	obs.Add("search/pruned", int64(r.Pruned))
	obs.Add("search/cache-hit", int64(r.CacheHits))
	obs.Set("search/waves", int64(r.Waves))
	return r, nil
}

// trim sorts states by (cost, key), drops failed ones, and keeps the best
// beam states; everything discarded counts as pruned.
func trim(states []State, beam int, r *Result) []State {
	var ok []State
	for _, st := range states {
		if math.IsInf(st.Score.Cost, 1) {
			r.Pruned++
			continue
		}
		ok = append(ok, st)
	}
	sort.Slice(ok, func(i, j int) bool {
		if ok[i].Score.Cost != ok[j].Score.Cost {
			return ok[i].Score.Cost < ok[j].Score.Cost
		}
		return ok[i].Plan.Key() < ok[j].Plan.Key()
	})
	if len(ok) > beam {
		r.Pruned += len(ok) - beam
		ok = ok[:beam]
	}
	return ok
}

// moves enumerates the single-decision rewrites applicable to a state, in
// deterministic order: global-transform toggles, the GT5 trace decisions,
// per-controller local-transform toggles and reorders, and per-controller
// encoding rungs. Derived plans drop the parent's display tag — their name
// is their decision vector.
func moves(st State, opt Options, r *Result) []Plan {
	p := st.Plan
	p.Tag = ""
	var out []Plan
	add := func(q Plan) { out = append(out, q) }
	// Toggle each GT1–GT4 ablation. A changed upstream transform invalidates
	// a manual merge trace (the candidate enumeration shifts), so the trace
	// resets and the search re-grows it if worthwhile.
	for i, skip := range []*bool{&p.SkipGT1, &p.SkipGT2, &p.SkipGT3, &p.SkipGT4} {
		q := p.clone()
		for j, qs := range []*bool{&q.SkipGT1, &q.SkipGT2, &q.SkipGT3, &q.SkipGT4} {
			if i == j {
				*qs = !*skip
			}
		}
		q.Merges, q.MergesDone, q.Reduces = nil, false, 0
		add(q)
	}
	// Toggle GT5 wholesale; re-enabling starts from the automatic script.
	{
		q := p.clone()
		q.SkipGT5 = !p.SkipGT5
		q.GT5Auto = true
		q.Merges, q.MergesDone, q.Reduces = nil, false, 0
		add(q)
	}
	if !p.SkipGT5 && p.GT5Auto {
		// Leave the automatic script: an empty manual trace, grown merge by
		// merge in later waves.
		q := p.clone()
		q.GT5Auto = false
		q.Merges, q.MergesDone, q.Reduces = nil, false, 0
		add(q)
	}
	if !p.SkipGT5 && !p.GT5Auto && !p.MergesDone {
		n := st.mergeCands
		if n > opt.MaxBranch {
			r.Pruned += n - opt.MaxBranch
			n = opt.MaxBranch
		}
		for k := 0; k < n; k++ {
			q := p.clone()
			q.Merges = append(q.Merges, k)
			add(q)
		}
		q := p.clone()
		q.MergesDone = true
		add(q)
	}
	if !p.SkipGT5 && !p.GT5Auto && p.MergesDone && st.canReduce {
		q := p.clone()
		q.Reduces++
		add(q)
	}
	if !p.LT {
		q := p.clone()
		q.LT = true
		add(q)
	} else {
		for _, fu := range st.fus {
			base := p.ltConfig(fu)
			for bit := 0; bit < 5; bit++ {
				cfg := base
				switch bit {
				case 0:
					cfg.LT1 = !cfg.LT1
				case 1:
					cfg.LT3 = !cfg.LT3
				case 2:
					cfg.LT4 = !cfg.LT4
				case 3:
					cfg.LT5 = !cfg.LT5
				case 4:
					cfg.PreselectFirst = !cfg.PreselectFirst
				}
				add(p.withLT(fu, cfg))
			}
		}
	}
	if opt.Synthesize {
		for _, fu := range st.fus {
			cur := p.rung(fu)
			for rung := -1; rung < synth.NumRungs(); rung++ {
				if rung == cur {
					continue
				}
				add(p.withRung(fu, rung))
			}
		}
	}
	return out
}

// Format renders a search result as a report: the chosen plan, the final
// beam, and the run counters.
func Format(r *Result) string {
	var b strings.Builder
	sc := r.Best.Score
	fmt.Fprintf(&b, "best plan: %s\n", r.Best.Plan.Name())
	fmt.Fprintf(&b, "  cost %.1f  analyzed-makespan %.1f  token-makespan %.1f  channels %d  states %d\n",
		sc.Cost, sc.Analyzed, sc.Makespan, sc.Channels, sc.States)
	if sc.Synthesized {
		fmt.Fprintf(&b, "  products %d  literals %d\n", sc.Products, sc.Literals)
	}
	fmt.Fprintf(&b, "frontier:\n")
	for _, st := range r.Frontier {
		fmt.Fprintf(&b, "  %10.1f  %s\n", st.Score.Cost, st.Plan.Name())
	}
	fmt.Fprintf(&b, "expanded %d, pruned %d, cache hits %d, waves %d\n",
		r.Expanded, r.Pruned, r.CacheHits, r.Waves)
	return b.String()
}
