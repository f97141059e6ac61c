package synth

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/bm"
	"repro/internal/hfmin"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/par"
)

// FuncResult is the minimized implementation of one signal.
type FuncResult struct {
	Name     string
	Products int
	Literals int
	Cover    logic.Cover
	// HazardFree is false when the exact hazard-free covering was
	// infeasible for this function and the plain two-level cover was used
	// instead (real tools repair this by inserting extra state variables,
	// as 3D does; see DESIGN.md).
	HazardFree bool
	// exact carries the per-function covering exactness to the Result
	// aggregation.
	exact bool
}

// Result is the gate-level synthesis outcome for one controller.
type Result struct {
	Controller string
	StateBits  int
	States     int
	OneHot     bool
	Functions  []FuncResult
	Products   int
	Literals   int
	Exact      bool
	// NonHazardFree counts functions that needed the plain fallback.
	NonHazardFree int
	// Encoding maps concrete state IDs to their assigned codes.
	Encoding map[int]uint64
	// OutputFeedback reports whether outputs were fed back as state
	// variables (MINIMALIST-style) in this implementation.
	OutputFeedback bool
}

// Minimizer abstracts the exact hazard-free minimization entry point so a
// memoization layer (internal/memo's *Cache) can be threaded through the
// pipeline without this package depending on it. Implementations must be
// safe for concurrent use and return results bit-identical to
// hfmin.Minimize — the memo layer guarantees this via hfmin's canonical
// transition order.
type Minimizer interface {
	Minimize(hfmin.Spec) (hfmin.Result, error)
}

// MinimizerCtx is the optional context-aware extension of Minimizer. When
// a Minimizer also implements it (internal/memo's *Cache does), the
// synthesis pipeline routes cancellable minimizations through MinimizeCtx
// so a cancelled job stops mid-minimization instead of finishing the
// covering search it was in.
type MinimizerCtx interface {
	Minimizer
	MinimizeCtx(ctx context.Context, spec hfmin.Spec) (hfmin.Result, error)
}

// Synthesize produces two-level hazard-free logic for every output signal
// and state bit of the machine, in the single-output style of the 3D tool,
// and reports product/literal totals (the paper's Figure 13 metrics).
// It runs the per-output minimizations sequentially and uncached, trying
// the whole encoding ladder; SynthesizeRung is the configurable form.
func Synthesize(m *bm.Machine) (*Result, error) {
	return SynthesizeRung(context.Background(), m, 1, nil, logic.SolverBB, -1)
}

// attempt is one rung of the encoding-attempt ladder.
type attempt struct {
	oneHot, strict, feedback bool
}

// encodingLadder orders the encoding attempts: hazard-free implementations
// first (a plain fallback cover can glitch at gate level) — binary
// encodings of increasing width, then the same with output feedback
// (bounded by variable count), then one-hot; only then the lenient modes
// that accept plain fallback covers.
var encodingLadder = []attempt{
	{strict: true},
	{strict: true, oneHot: true},
	{strict: true, feedback: true},
	{},
	{oneHot: true},
}

// NumRungs returns the length of the encoding-attempt ladder, for callers
// that enumerate forced rungs as search moves.
func NumRungs() int { return len(encodingLadder) }

// RungName describes ladder rung i for reports and traces.
func RungName(i int) string {
	names := []string{"strict-binary", "strict-onehot", "strict-feedback", "binary", "onehot"}
	if i < 0 || i >= len(names) {
		return "auto"
	}
	return names[i]
}

// SynthesizeRung synthesizes m on one rung of the encoding-attempt ladder
// (0-based; negative tries the whole ladder, accepting the first rung that
// succeeds). Forcing a rung lets a rewrite search treat the encoding style
// as an explicit decision.
//
// The independent per-output (and per-state-bit) minimizations fan out
// across a bounded worker pool (workers: 0 = GOMAXPROCS, 1 = sequential);
// each is minimized against the same immutable concretized machine and
// encoding, and results are collected by function index, so the outcome
// is bit-identical at every worker count. Every exact minimization routes
// through min (nil = hfmin directly), and cache hits are bit-identical to
// fresh computations, so only the wall time depends on the cache state.
// solver names the covering mode; logic.SolverBB is the only one.
//
// The context is checked between rungs, before each feasibility check of
// a binary-encoded strict attempt's outputs, before each per-output
// minimization is dispatched (par.NamedMapCtx) and inside the minimizer
// itself (hfmin.MinimizeCtx, or min's MinimizeCtx when it implements
// MinimizerCtx), so a cancelled job releases its pool workers promptly. A
// cancelled synthesis returns ctx.Err().
func SynthesizeRung(ctx context.Context, m *bm.Machine, workers int, min Minimizer, solver logic.Solver, rung int) (_ *Result, err error) {
	sp := obs.Start("synth", m.Name)
	defer func() { sp.EndErr(err) }()
	c, err := Concretize(m)
	if err != nil {
		return nil, err
	}
	reach := c.ReachableStates()
	// Try minimal-width binary encodings with increasing widths; fall back
	// to one-hot when the function specifications conflict (critical-race
	// style code overlap).
	minBits := 1
	for (1 << minBits) < len(reach) {
		minBits++
	}
	var lastErr error
	ladder := encodingLadder
	if rung >= 0 {
		if rung >= len(encodingLadder) {
			return nil, fmt.Errorf("synth %s: encoding rung %d out of range (ladder has %d)", m.Name, rung, len(encodingLadder))
		}
		ladder = encodingLadder[rung : rung+1]
	}
	for _, a := range ladder {
		// Cancellation checkpoint between ladder rungs: a cancelled job
		// abandons the remaining encoding attempts immediately.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if a.feedback && len(c.Inputs)+len(c.Outputs)+minBits+4 > 26 {
			continue // output feedback too wide to minimize exactly
		}
		if a.oneHot {
			enc, encErr := oneHotEncoding(reach)
			if encErr != nil {
				lastErr = encErr
				continue
			}
			res, err := synthesizeWith(ctx, c, enc, len(reach), true, a.strict, a.feedback, workers, min)
			if err == nil {
				res.Controller = m.Name
				recordSynth(res)
				return res, nil
			}
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			lastErr = err
			continue
		}
		for bits := minBits; bits <= minBits+4 && bits <= 16; bits++ {
			enc := hypercubeEncode(c, reach, bits)
			if enc == nil {
				enc = sequentialEncoding(c, reach, bits)
			}
			res, err := synthesizeWith(ctx, c, enc, bits, false, a.strict, a.feedback, workers, min)
			if err == nil {
				res.Controller = m.Name
				recordSynth(res)
				return res, nil
			}
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			lastErr = err
		}
	}
	return nil, fmt.Errorf("synth %s: all encoding attempts failed: %v", m.Name, lastErr)
}

// recordSynth publishes the Figure 13 metrics of a successful synthesis
// to the global obs registry.
func recordSynth(r *Result) {
	obs.Add("synth/products", int64(r.Products))
	obs.Add("synth/literals", int64(r.Literals))
	obs.Add("synth/nonhazardfree", int64(r.NonHazardFree))
}

// sequentialEncoding assigns codes in a BFS-ordered Gray sequence, which
// keeps consecutive transitions at small Hamming distance.
func sequentialEncoding(c *Concrete, reach []int, bits int) map[int]uint64 {
	// BFS order from init.
	order := []int{}
	seen := map[int]bool{c.Init: true}
	queue := []int{c.Init}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		order = append(order, s)
		for _, t := range c.outTrans(s) {
			if !seen[t.To] {
				seen[t.To] = true
				queue = append(queue, t.To)
			}
		}
	}
	for _, s := range reach {
		if !seen[s] {
			order = append(order, s)
		}
	}
	enc := map[int]uint64{}
	for i, s := range order {
		g := uint64(i) ^ (uint64(i) >> 1) // Gray code
		enc[s] = g
	}
	return enc
}

// oneHotEncoding assigns each reachable state its own bit of the 64-bit
// code word. More than logic.MaxVars states cannot be one-hot encoded —
// the shift would wrap and hand several states the same code — so that
// case is an error and the encoding ladder skips this rung.
func oneHotEncoding(reach []int) (map[int]uint64, error) {
	if len(reach) > logic.MaxVars {
		return nil, fmt.Errorf("synth: one-hot encoding of %d states exceeds the %d-bit code limit", len(reach), logic.MaxVars)
	}
	enc := map[int]uint64{}
	for i, s := range reach {
		enc[s] = 1 << uint(i)
	}
	return enc, nil
}

// synthesizeWith builds and minimizes every function under an encoding.
// In strict mode a hazard-infeasible function fails the whole attempt
// rather than falling back to a (glitchy) plain cover, and under a binary
// encoding the outputs are checked for that before anything is
// minimized. With feedback, the outputs are fed back as additional state
// variables. The per-function minimizations are independent (they only
// read the shared concretized machine and encoding) and fan out across
// `workers` goroutines; exact minimizations go through min when one is
// supplied.
func synthesizeWith(ctx context.Context, c *Concrete, enc map[int]uint64, bits int, oneHot, strict, feedback bool, workers int, min Minimizer) (*Result, error) {
	obs.Add("synth/attempts", 1)
	vars, varIdx := variableOrder(c, bits, feedback)
	n := len(vars)
	if n > logic.MaxVars {
		return nil, fmt.Errorf("synth: %d variables exceed the %d-variable limit", n, logic.MaxVars)
	}
	res := &Result{StateBits: bits, States: len(c.ReachableStates()), OneHot: oneHot, Exact: true, Encoding: enc, OutputFeedback: feedback}

	// Function list: outputs then state bits.
	type fn struct {
		name string
		// valueAt returns the function's stable value at a concrete state.
		out  string // output signal name, or "" for state bits
		ybit int    // state bit index, or -1
	}
	var fns []fn
	for _, o := range c.Outputs {
		fns = append(fns, fn{name: o, out: o, ybit: -1})
	}
	for b := 0; b < bits; b++ {
		fns = append(fns, fn{name: fmt.Sprintf("Y%d", b), ybit: b})
	}

	// Terminal states (no outgoing transition) get no phase-1 hold
	// requirement from the transition loop below: without one, every input
	// combination there is a don't-care, and the minimized cover is free to
	// fire arbitrary outputs or drop state bits once the final handshake's
	// unobserved ack falls — or a late wire edge from a still-running
	// peer — land after the machine has stopped. Each one gets an explicit
	// hold face instead: every function frozen at its resting value across
	// the state's whole input space.
	hasOut := map[int]bool{}
	for _, t := range c.Trans {
		hasOut[t.From] = true
	}
	var terminals []int
	for _, sid := range c.ReachableStates() {
		if !hasOut[sid] {
			terminals = append(terminals, sid)
		}
	}

	// The cubes a transition traverses depend on the encoding, not on the
	// function, so they are built once per attempt. Phase 1: the input
	// burst completes; outputs and state bits change at completion. Burst
	// signals start at the opposite of their arriving edge (an unobserved
	// return-to-zero may have moved them off the stale nominal level).
	// Phase 2: the fed-back outputs and the state bits settle to their
	// post-transition values while inputs rest at their nominal post-burst
	// levels. All known inputs are bound (no directed don't-cares here): a
	// dashed wire would cover the burst-completion point of the next
	// transition and falsely conflict with its rising output. The settle is
	// monotone — rising variables first, then falling — so the traversed
	// cubes avoid unrelated total states (the all-zero code in particular).
	type transGeom struct {
		start, endInputs logic.Cube      // phase 1
		settle           [][2]logic.Cube // phase 2: the non-degenerate legs
	}
	geoms := make([]transGeom, len(c.Trans))
	for i, t := range c.Trans {
		from := c.States[t.From]
		g := &geoms[i]
		g.start = bindState(baseCube(c, from, t, vars, varIdx), enc[t.From], bits, n)
		g.endInputs = g.start
		for _, e := range t.In {
			g.start = g.start.With(varIdx[e.Signal], oppositeVal(e.Edge))
			g.endInputs = g.endInputs.With(varIdx[e.Signal], edgeVal(e.Edge))
		}
		sStart, sMid, sEnd := settleCubes(c, from, t, enc, bits, n, varIdx)
		for _, leg := range [][2]logic.Cube{{sStart, sMid}, {sMid, sEnd}} {
			if !leg[0].Equal(leg[1]) {
				g.settle = append(g.settle, leg)
			}
		}
	}
	holds := make([]logic.Cube, len(terminals))
	for i, sid := range terminals {
		holds[i] = bindState(logic.FullCube(n), enc[sid], bits, n)
		if feedback {
			for _, sig := range c.Outputs {
				if v, ok := varIdx[sig]; ok {
					if lvl := levelOf(c.States[sid], sig); lvl >= 0 {
						holds[i] = holds[i].With(v, boolVal(lvl == 1))
					}
				}
			}
		}
	}

	// specOf builds one function's hazard-free minimization spec.
	specOf := func(f fn) hfmin.Spec {
		spec := hfmin.Spec{N: n}
		for i, t := range c.Trans {
			g := &geoms[i]
			from := c.States[t.From]
			cFrom, cTo := enc[t.From], enc[t.To]
			var kind hfmin.Kind
			switch {
			case f.out != "":
				kind = dynKind(levelOf(from, f.out), outEdge(t, f.out))
			default:
				kind = bitKind(cFrom, cTo, f.ybit)
			}
			if isDynamic(kind) && g.start.Equal(g.endInputs) {
				// No input changes (pure conditional transition folded at a
				// join): the change rides the state-change phase instead.
				kind = staticOf(kind, false)
			}
			if t1, ok := mkTrans(g.start, g.endInputs, kind); ok {
				spec.Transitions = append(spec.Transitions, t1)
			}
			// Every function is static at its new value during the settle.
			var k2 hfmin.Kind
			if f.out != "" {
				k2 = staticLevel(levelAfter(from, t, f.out))
			} else {
				k2 = bitPhase2Kind(cFrom, cTo, f.ybit)
			}
			for _, leg := range g.settle {
				if t2, ok := mkTrans(leg[0], leg[1], k2); ok {
					spec.Transitions = append(spec.Transitions, t2)
				}
			}
		}
		for i, sid := range terminals {
			var kind hfmin.Kind
			if f.out != "" {
				lvl := levelOf(c.States[sid], f.out)
				if lvl < 0 {
					continue // resting level unknown (toggle wire): no hold
				}
				kind = staticLevel(lvl)
			} else {
				kind = staticLevel(b2i(enc[sid]&(1<<uint(f.ybit)) != 0))
			}
			if tHold, ok := mkTrans(holds[i], holds[i], kind); ok {
				spec.Transitions = append(spec.Transitions, tHold)
			}
		}
		return spec
	}

	// A strict attempt fails on its first hazard-infeasible function. On
	// the registry designs and gen seeds 0–59, every strict binary attempt
	// fails, and in each one rejected as hazard-infeasible that function
	// is an output, while no strict one-hot attempt is hazard-infeasible.
	// So the outputs of a binary-encoded strict attempt are refuted
	// first, in index order, by hfmin.Feasible, which generates no
	// dhf-prime: a doomed attempt costs one analysis per output up to the
	// failing one, and poses nothing to the minimizer. A one-hot attempt
	// skips the check, which would only add an analysis per output to an
	// attempt that succeeds. The outputs lead fns, so the error is the
	// lowest-index one the fan-out below would return at any worker
	// count: every earlier function passed the check, so it minimizes.
	// Each checked spec is canonical, and the fan-out minimizes that same
	// spec, so an attempt that passes builds and sorts none twice.
	var checked []hfmin.Spec
	if strict && !oneHot {
		checked = make([]hfmin.Spec, len(c.Outputs))
		for i, f := range fns[:len(c.Outputs)] {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			checked[i] = specOf(f).Canonical()
			if err := hfmin.Feasible(checked[i]); err != nil {
				return nil, fmt.Errorf("function %s: %w", f.name, err)
			}
		}
	}

	// The span ends with the closure's actual error outcome (named return),
	// so failed minimizations are attributed in traces instead of reading
	// as clean spans. The span's unit field identifies the controller and
	// function; the counter stays a bounded per-stage aggregate so the
	// metrics registry's cardinality does not grow with design size.
	minimized, err := par.NamedMapCtx(ctx, "hfmin", workers, fns, func(ctx context.Context, i int, f fn) (_ FuncResult, err error) {
		fnSp := obs.Start("hfmin", c.Name+"."+f.name)
		defer func() { fnSp.EndErr(err) }()
		obs.Add("hfmin/minimizations", 1)
		var spec hfmin.Spec
		if i < len(checked) {
			spec = checked[i]
		} else {
			spec = specOf(f)
		}
		hf := true
		minimize := func(s hfmin.Spec) (hfmin.Result, error) { return hfmin.MinimizeCtx(ctx, s) }
		if min != nil {
			if mc, ok := min.(MinimizerCtx); ok {
				minimize = func(s hfmin.Spec) (hfmin.Result, error) { return mc.MinimizeCtx(ctx, s) }
			} else {
				minimize = min.Minimize
			}
		}
		r, err := minimize(spec)
		if errors.Is(err, hfmin.ErrInfeasible) && strict {
			return FuncResult{}, fmt.Errorf("function %s: %w", f.name, err)
		}
		if errors.Is(err, hfmin.ErrInfeasible) {
			// No hazard-free cover exists under this encoding (real tools
			// insert extra state variables here); fall back to the plain
			// two-level cover and record the deficiency.
			hf = false
			obs.Add("hfmin/fallbacks", 1)
			r, err = hfmin.MinimizePlain(spec)
		}
		if err != nil {
			return FuncResult{}, fmt.Errorf("function %s: %w", f.name, err)
		}
		return FuncResult{
			Name: f.name, Products: r.Products(), Literals: r.Literals(),
			Cover: r.Cover, HazardFree: hf, exact: r.Exact,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, fr := range minimized {
		if !fr.exact {
			res.Exact = false
		}
		if !fr.HazardFree {
			res.NonHazardFree++
		}
		res.Functions = append(res.Functions, fr)
		res.Products += fr.Products
		res.Literals += fr.Literals
	}
	return res, nil
}

// variables lists inputs (wires, acks, sampled levels), optionally the
// fed-back outputs (outputs double as state variables, MINIMALIST's output
// feedback), then the state bits.
func variables(inputs, outputs []string, bits int, feedback bool) []string {
	vars := append([]string{}, inputs...)
	if feedback {
		vars = append(vars, outputs...)
	}
	for b := 0; b < bits; b++ {
		vars = append(vars, fmt.Sprintf("Y%d", b))
	}
	return vars
}

// variableOrder is the variables of a concretized machine with each
// variable's index.
func variableOrder(c *Concrete, bits int, feedback bool) ([]string, map[string]int) {
	vars := variables(c.Inputs, c.Outputs, bits, feedback)
	idx := map[string]int{}
	for i, v := range vars {
		idx[v] = i
	}
	return vars, idx
}

// baseCube binds the non-state variables at the transition's start: inputs
// at their nominal levels (dash when free or unknown), sampled conditions
// at their branch values.
func baseCube(c *Concrete, from *CState, t *CTrans, vars []string, varIdx map[string]int) logic.Cube {
	cube := logic.FullCube(len(vars))
	free := map[string]bool{}
	for _, f := range t.Free {
		free[f] = true
	}
	for _, sig := range c.Inputs {
		if free[sig] {
			continue
		}
		if lvl, ok := from.Levels[sig]; ok && lvl >= 0 {
			cube = cube.With(varIdx[sig], boolVal(lvl == 1))
		}
	}
	// Output feedback (when enabled): the outputs hold their
	// pre-transition levels while the burst accumulates.
	for _, sig := range c.Outputs {
		if i, ok := varIdx[sig]; ok {
			if lvl, ok2 := from.Levels[sig]; ok2 && lvl >= 0 {
				cube = cube.With(i, boolVal(lvl == 1))
			}
		}
	}
	for _, cd := range t.Cond {
		cube = cube.With(varIdx[cd.Signal], boolVal(cd.Value))
	}
	return cube
}

// postBurstCube binds every input at its nominal level after transition
// t's burst (state bits left dashed).
func postBurstCube(c *Concrete, from *CState, t *CTrans, n int) logic.Cube {
	cube := logic.FullCube(n)
	for i, sig := range c.Inputs {
		lvl, ok := from.Levels[sig]
		for _, e := range t.In {
			// The just-consumed burst signals hold their arrival values
			// while the state settles; acknowledgments follow their
			// requests only after the out-burst propagates (tracked in
			// Concretize's state levels).
			if e.Signal == sig {
				lvl, ok = b2i(e.Edge == bm.Rise), true
			}
		}
		if ok && lvl >= 0 {
			cube = cube.With(i, boolVal(lvl == 1))
		}
	}
	for i, sig := range c.Inputs {
		for _, cd := range t.Cond {
			if sig == cd.Signal {
				cube = cube.With(i, boolVal(cd.Value))
			}
		}
	}
	return cube
}

// settleCubes builds the start, monotone midpoint and end cubes of the
// phase-2 settle: inputs at post-burst nominal levels, fed-back outputs and
// state bits moving from their old to their new values (rising first).
func settleCubes(c *Concrete, from *CState, t *CTrans, enc map[int]uint64, bits, n int, varIdx map[string]int) (logic.Cube, logic.Cube, logic.Cube) {
	rest := postBurstCube(c, from, t, n)
	start, mid, end := rest, rest, rest
	for _, o := range c.Outputs {
		i, fed := varIdx[o]
		if !fed {
			continue
		}
		old := levelOf(from, o)
		nw := levelAfter(from, t, o)
		if old < 0 {
			continue
		}
		start = start.With(i, boolVal(old == 1))
		end = end.With(i, boolVal(nw == 1))
		mid = mid.With(i, boolVal(old == 1 || nw == 1))
	}
	cFrom, cTo := enc[t.From], enc[t.To]
	cMid := cFrom | cTo
	for b := 0; b < bits; b++ {
		start = start.With(n-bits+b, boolVal(cFrom&(1<<uint(b)) != 0))
		mid = mid.With(n-bits+b, boolVal(cMid&(1<<uint(b)) != 0))
		end = end.With(n-bits+b, boolVal(cTo&(1<<uint(b)) != 0))
	}
	return start, mid, end
}

func bindState(cube logic.Cube, code uint64, bits, n int) logic.Cube {
	for b := 0; b < bits; b++ {
		cube = cube.With(n-bits+b, boolVal(code&(1<<uint(b)) != 0))
	}
	return cube
}

func boolVal(b bool) logic.Val {
	if b {
		return logic.One
	}
	return logic.Zero
}

func edgeVal(e bm.Edge) logic.Val {
	if e == bm.Rise {
		return logic.One
	}
	return logic.Zero
}

func oppositeVal(e bm.Edge) logic.Val {
	if e == bm.Rise {
		return logic.Zero
	}
	return logic.One
}

func levelOf(s *CState, sig string) int {
	if lvl, ok := s.Levels[sig]; ok {
		return lvl
	}
	return 0
}

// outEdge returns the edge of signal sig in the out-burst, or -1.
func outEdge(t *CTrans, sig string) bm.Edge {
	for _, e := range t.Out {
		if e.Signal == sig {
			return e.Edge
		}
	}
	return bm.Edge(-1)
}

func levelAfter(from *CState, t *CTrans, sig string) int {
	switch outEdge(t, sig) {
	case bm.Rise:
		return 1
	case bm.Fall:
		return 0
	}
	return levelOf(from, sig)
}

func dynKind(level int, edge bm.Edge) hfmin.Kind {
	switch edge {
	case bm.Rise:
		return hfmin.Rise
	case bm.Fall:
		return hfmin.Fall
	}
	return staticLevel(level)
}

func staticLevel(level int) hfmin.Kind {
	if level == 1 {
		return hfmin.Static1
	}
	return hfmin.Static0
}

func bitKind(cFrom, cTo uint64, bit int) hfmin.Kind {
	f := cFrom&(1<<uint(bit)) != 0
	t := cTo&(1<<uint(bit)) != 0
	switch {
	case f == t && f:
		return hfmin.Static1
	case f == t:
		return hfmin.Static0
	case t:
		return hfmin.Rise
	default:
		return hfmin.Fall
	}
}

// bitPhase2Kind: during the state-change phase the bit function already
// drives the new value.
func bitPhase2Kind(cFrom, cTo uint64, bit int) hfmin.Kind {
	t := cTo&(1<<uint(bit)) != 0
	return staticLevel(b2i(t))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func isDynamic(k hfmin.Kind) bool { return k == hfmin.Rise || k == hfmin.Fall }

// staticOf converts a dynamic kind to the static level it settles at (used
// when no input actually changes in the phase).
func staticOf(k hfmin.Kind, atStart bool) hfmin.Kind {
	if k == hfmin.Rise {
		if atStart {
			return hfmin.Static0
		}
		return hfmin.Static1
	}
	if atStart {
		return hfmin.Static1
	}
	return hfmin.Static0
}

// mkTrans builds an hfmin transition, skipping degenerate ones.
func mkTrans(start, end logic.Cube, kind hfmin.Kind) (hfmin.Transition, bool) {
	t := hfmin.Transition{Start: start, End: end, Kind: kind}
	if isDynamic(kind) {
		changed := false
		for i := 0; i < start.N(); i++ {
			s, e := start.Get(i), end.Get(i)
			if s != logic.Dash && e != logic.Dash && s != e {
				changed = true
			}
		}
		if !changed {
			return t, false
		}
	}
	return t, true
}

// Summary renders one controller's result as a Figure 13 row.
func (r *Result) Summary() string {
	return fmt.Sprintf("%-6s %3d products %4d literals (%d states, %d bits%s)",
		r.Controller, r.Products, r.Literals, r.States, r.StateBits, onehotTag(r.OneHot))
}

func onehotTag(b bool) string {
	if b {
		return ", one-hot"
	}
	return ""
}

// SortFunctions orders function results by name for stable output.
func (r *Result) SortFunctions() {
	sort.Slice(r.Functions, func(i, j int) bool { return r.Functions[i].Name < r.Functions[j].Name })
}
