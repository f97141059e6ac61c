// Package hfmin implements hazard-free two-level logic minimization for
// functions specified by multiple-input-change transitions, following the
// required-cube / dhf-prime-implicant framework of Nowick–Dill and the exact
// algorithm of Theobald–Nowick (TCAD'98). It stands in for
// the MINIMALIST and 3D minimizers used in the paper.
//
// A specification is a set of input transitions. Each transition is a cube
// [A,B] (the supercube of start and end states) together with the function
// behaviour: static 0, static 1, falling (1→0) or rising (0→1). Within a
// dynamic transition the function changes exactly when the full input burst
// has arrived, which is the extended-burst-mode semantics of the paper's
// controllers.
//
// The minimizer computes, per transition:
//
//   - ON-set and OFF-set care cubes;
//   - required cubes: subfunctions that must each be covered by a single
//     product to avoid logic hazards;
//   - privileged cubes: dynamic transition cubes that no product may
//     intersect without containing the transition's ON end state.
//
// It then generates dynamic-hazard-free prime implicants (expansions of
// required cubes against the OFF-set, shrunk to remove illegal
// intersections) and solves a unate covering problem, minimizing product
// count first and literal count second.
package hfmin

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/logic"
)

// Kind classifies the function behaviour over one input transition.
type Kind int

// Transition kinds.
const (
	Static0 Kind = iota // f = 0 throughout the transition
	Static1             // f = 1 throughout the transition
	Fall                // f: 1 → 0 (falls when the full burst has arrived)
	Rise                // f: 0 → 1 (rises when the full burst has arrived)
)

func (k Kind) String() string {
	switch k {
	case Static0:
		return "0->0"
	case Static1:
		return "1->1"
	case Fall:
		return "1->0"
	case Rise:
		return "0->1"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Transition is one specified multiple-input-change transition of the
// function.
type Transition struct {
	// Start and End are the start and end input subcubes. Directed
	// don't-care inputs appear as dashes in both. Start and End must agree
	// on all variables bound in both except the changing variables.
	Start, End logic.Cube
	Kind       Kind
}

// Cube returns the transition cube [Start, End].
func (t Transition) Cube() logic.Cube { return t.Start.Supercube(t.End) }

// changing returns the variables on which Start and End conflict.
func (t Transition) changing() []int {
	var vars []int
	for i := 0; i < t.Start.N(); i++ {
		s, e := t.Start.Get(i), t.End.Get(i)
		if s != logic.Dash && e != logic.Dash && s != e {
			vars = append(vars, i)
		}
	}
	return vars
}

// Spec is a complete transition specification of a single-output function.
type Spec struct {
	N           int // number of input variables
	Transitions []Transition
}

// Canonical returns a copy of the spec with the transitions sorted by the
// total order on (kind, start, end) cube keys. Two specs describing the
// same set of transitions in different construction orders have identical
// canonical forms, which makes them hash alike (content-addressed
// memoization in internal/memo) and — because Analyze canonicalizes its
// input — minimize alike: prime generation and covering tie-breaks see the
// same ordering regardless of how the caller assembled the spec. An
// already canonical spec is only copied, not sorted again.
func (s Spec) Canonical() Spec {
	ts := append([]Transition(nil), s.Transitions...)
	if !canonicalOrder(ts) {
		slices.SortFunc(ts, transCompare)
	}
	return Spec{N: s.N, Transitions: ts}
}

// canonicalOrder reports whether ts is already in Canonical's order.
func canonicalOrder(ts []Transition) bool {
	return slices.IsSortedFunc(ts, transCompare)
}

// transCompare is the total order behind Canonical: kind first, then the
// raw cube keys of start and end. Distinct transitions never compare
// equal, so every sort of a spec's transitions gives one order.
func transCompare(a, b Transition) int {
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	if c := compareKeys(a.Start.Key(), b.Start.Key()); c != 0 {
		return c
	}
	return compareKeys(a.End.Key(), b.End.Key())
}

// compareKeys orders cube keys by their zero mask, then their one mask.
func compareKeys(a, b [2]uint64) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// Result reports details of a minimization.
type Result struct {
	Cover      logic.Cover
	OnSet      logic.Cover
	OffSet     logic.Cover
	Required   []logic.Cube
	Privileged []Privileged
	Primes     []logic.Cube
	Exact      bool // covering solved exactly
}

// Privileged is a dynamic transition cube with the subcube every
// intersecting product must contain.
type Privileged struct {
	Trans logic.Cube // the transition cube
	Need  logic.Cube // products intersecting Trans must contain Need
}

// Products returns the product count of the minimized cover.
func (r Result) Products() int { return r.Cover.Len() }

// Literals returns the literal count of the minimized cover.
func (r Result) Literals() int { return r.Cover.Literals() }

// Analyze derives the ON-set, OFF-set, required cubes and privileged cubes
// of a specification without minimizing. The spec is canonicalized first
// (see Spec.Canonical), so the derived sets — and everything downstream of
// them, including covering tie-breaks — do not depend on transition
// insertion order. Transition indices in errors refer to the canonical
// order.
func Analyze(spec Spec) (Result, error) {
	if !canonicalOrder(spec.Transitions) {
		spec = spec.Canonical() // Analyze only reads: a canonical spec needs no copy
	}
	var res Result
	res.OnSet = logic.Cover{N: spec.N}
	res.OffSet = logic.Cover{N: spec.N}
	var onSrc, offSrc []int
	seenReq := map[[2]uint64]bool{}
	addReq := func(c logic.Cube) {
		if c.IsEmpty() {
			return
		}
		if !seenReq[c.Key()] {
			seenReq[c.Key()] = true
			res.Required = append(res.Required, c)
		}
	}
	for i, t := range spec.Transitions {
		if t.Start.N() != spec.N || t.End.N() != spec.N {
			return res, fmt.Errorf("hfmin: transition %d arity mismatch", i)
		}
		T := t.Cube()
		trackOn := func(c logic.Cube) {
			if !c.IsEmpty() {
				onSrc = append(onSrc, i)
			}
		}
		trackOff := func(c logic.Cube) {
			if !c.IsEmpty() {
				offSrc = append(offSrc, i)
			}
		}
		switch t.Kind {
		case Static0:
			trackOff(T)
			res.OffSet.Add(T)
		case Static1:
			trackOn(T)
			res.OnSet.Add(T)
			addReq(T)
		case Fall:
			ch := t.changing()
			if len(ch) == 0 {
				return res, fmt.Errorf("hfmin: falling transition %d has no changing variables", i)
			}
			endCube := endSubcube(T, t.End, ch)
			trackOff(endCube)
			res.OffSet.Add(endCube)
			for _, v := range ch {
				on := T.With(v, t.Start.Get(v))
				trackOn(on)
				res.OnSet.Add(on)
				addReq(on)
			}
			res.Privileged = append(res.Privileged, Privileged{Trans: T, Need: startSubcube(T, t.Start, ch)})
		case Rise:
			ch := t.changing()
			if len(ch) == 0 {
				return res, fmt.Errorf("hfmin: rising transition %d has no changing variables", i)
			}
			endCube := endSubcube(T, t.End, ch)
			trackOn(endCube)
			res.OnSet.Add(endCube)
			addReq(endCube)
			for _, v := range ch {
				off := T.With(v, t.Start.Get(v))
				trackOff(off)
				res.OffSet.Add(off)
			}
			res.Privileged = append(res.Privileged, Privileged{Trans: T, Need: endCube})
		default:
			return res, fmt.Errorf("hfmin: transition %d has invalid kind %d", i, t.Kind)
		}
	}
	// Consistency: ON and OFF care sets must not overlap.
	for oi, on := range res.OnSet.Cubes {
		for fi, off := range res.OffSet.Cubes {
			if on.Intersects(off) {
				return res, fmt.Errorf("hfmin: inconsistent specification: ON cube %s (transition %d: %s %s→%s) intersects OFF cube %s (transition %d: %s %s→%s)",
					on, onSrc[oi], spec.Transitions[onSrc[oi]].Kind, spec.Transitions[onSrc[oi]].Start, spec.Transitions[onSrc[oi]].End,
					off, offSrc[fi], spec.Transitions[offSrc[fi]].Kind, spec.Transitions[offSrc[fi]].Start, spec.Transitions[offSrc[fi]].End)
			}
		}
	}
	return res, nil
}

// endSubcube returns the transition cube restricted to the end values of the
// changing variables.
func endSubcube(T, end logic.Cube, changing []int) logic.Cube {
	c := T
	for _, v := range changing {
		c = c.With(v, end.Get(v))
	}
	return c
}

// startSubcube returns the transition cube restricted to the start values of
// the changing variables.
func startSubcube(T, start logic.Cube, changing []int) logic.Cube {
	c := T
	for _, v := range changing {
		c = c.With(v, start.Get(v))
	}
	return c
}

// ErrInfeasible is returned when some required cube cannot be covered by any
// dynamic-hazard-free implicant (the specification has an unavoidable
// hazard).
var ErrInfeasible = errors.New("hfmin: specification has no hazard-free cover")

// Minimize computes a minimum (products first, literals second) hazard-free
// two-level cover of the specification, using exact branch-and-bound
// covering.
func Minimize(spec Spec) (Result, error) {
	return minimize(context.Background(), spec)
}

// MinimizeCtx is Minimize with cooperative cancellation: the context is
// checked between the minimization phases (analysis, dhf-prime
// generation, covering) and between branch-and-bound iterations of the
// covering search, so a cancelled synthesis job abandons even a large
// minimization promptly. A cancelled call returns ctx.Err(); partial
// results are discarded, never cached (see internal/memo).
func MinimizeCtx(ctx context.Context, spec Spec) (Result, error) {
	return minimize(ctx, spec)
}

// Covering derives the unate covering problem behind a spec's exact
// minimization: the analysis result with dhf-primes generated, and the
// matrix in which every required cube (row) must be contained in at least
// one chosen dhf-prime (column), costed to minimize products first and
// literals second. The returned problem has no Cancel or Budget set;
// callers configure both. Exported for the covering benchmarks and the
// worst-case capture tool (scripts/capturecover).
func Covering(spec Spec) (Result, *logic.CoveringProblem, error) {
	res, err := Analyze(spec)
	if err != nil {
		return res, nil, err
	}
	if len(res.Required) == 0 {
		return res, &logic.CoveringProblem{}, nil
	}
	res.Primes = dhfPrimes(res.Required, res.OffSet, res.Privileged)
	prob := &logic.CoveringProblem{NumCols: len(res.Primes)}
	prob.Cost = make([]int, len(res.Primes))
	const productWeight = 1 << 12 // lexicographic: products dominate literals
	for i, p := range res.Primes {
		prob.Cost[i] = productWeight + p.Literals()
	}
	for _, r := range res.Required {
		var row []int
		for i, p := range res.Primes {
			if p.Contains(r) {
				row = append(row, i)
			}
		}
		if len(row) == 0 {
			return res, nil, fmt.Errorf("%w: required cube %s uncoverable", ErrInfeasible, r)
		}
		prob.Rows = append(prob.Rows, row)
	}
	return res, prob, nil
}

// Feasible returns the error Minimize would return for spec, without
// generating a single dhf-prime: nil, the Analyze error, or ErrInfeasible
// naming the first required cube, in canonical order, that no dhf-prime
// contains.
//
// It grows each required cube r into a cube c: while c intersects some
// privileged cube's Trans without containing its Need, c becomes its
// supercube with that Need. r is coverable exactly when the final c
// misses every OFF-set cube:
//   - Every dhf-implicant that contains r also contains c, because each
//     growth step is forced: a legal implicant that contains c and meets
//     Trans must contain Need, so it contains their supercube. So if c
//     meets the OFF-set, no dhf-prime contains r, and Covering finds r's
//     row empty.
//   - Otherwise c is a legal implicant, and the prime that contains it is
//     one of r's expansions. At each illegal step of dhfPrimes' shrink
//     walk, the walk's cube contains c but not that privileged cube's
//     Need, so c lies outside its Trans: c binds a variable the walk's
//     cube leaves free to the value opposite Trans's. The shrink that
//     binds it so still contains c. So one branch of the walk keeps
//     containing c until it reaches a legal cube, a shrink inside a legal
//     prime (which the walk emits in its own turn), or a cube it visited
//     before. Maximal keeps a cube that contains the one reached, so r's
//     row is not empty.
//
// Both hold for every required cube, so the first failing one, and with
// it the error text, is Covering's too. The argument assumes that
// logic.Expansions did not truncate r's expansions at
// logic.MaxExpansions, which could drop the prime containing c.
// Synthesizing the registry designs and gen seeds 0–59, and searching
// diffeq and fir, truncates no enumeration.
func Feasible(spec Spec) error {
	res, err := Analyze(spec)
	if err != nil {
		return err
	}
	for _, r := range res.Required {
		c := r
		for grown := true; grown; {
			grown = false
			for _, pv := range res.Privileged {
				if c.Intersects(pv.Trans) && !c.Contains(pv.Need) {
					c, grown = c.Supercube(pv.Need), true
				}
			}
		}
		if res.OffSet.IntersectsCube(c) {
			return fmt.Errorf("%w: required cube %s uncoverable", ErrInfeasible, r)
		}
	}
	return nil
}

func minimize(ctx context.Context, spec Spec) (Result, error) {
	res, prob, err := Covering(spec)
	if err != nil {
		return res, err
	}
	if len(res.Required) == 0 {
		res.Cover = logic.Cover{N: spec.N}
		res.Exact = true
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	prob.Cancel = ctx.Err
	cols, exact := prob.Solve()
	res.Exact = exact
	// A cancelled covering search returns its fallback solution; discard
	// it — a cancelled job must not observe (or cache) partial answers.
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if cols == nil {
		return res, ErrInfeasible
	}
	res.Cover = logic.Cover{N: spec.N}
	for _, c := range cols {
		res.Cover.Add(res.Primes[c])
	}
	return res, nil
}

// dhfPrimes generates the dynamic-hazard-free prime implicants relevant to
// covering the required cubes: maximal implicants (disjoint from the
// OFF-set) with no illegal intersection with any privileged cube. Their
// order sets the covering columns and so the covering tie-breaks.
//
// Each prime is emitted if legal; an illegal one is shrunk away from the
// privileged cube it intersects, one more variable bound per shrink, and
// the shrinks are emitted the same way, depth first. A shrink that lies
// inside a legal prime is skipped, together with every shrink below it.
// This changes no element and no order of the result:
//   - Such a shrink is never maximal. It lies strictly inside the prime it
//     was shrunk from, so it is not a prime itself (no prime contains
//     another), and it lies inside a legal prime P, hence strictly inside.
//     Every shrink below it lies strictly inside P too. P is no shrink,
//     so the recursion emits P in its own turn, and Maximal would drop the
//     skipped cubes. Nor does a skipped cube keep another cube from being
//     maximal: whatever it contains, P contains.
//   - The test depends only on the cube, not on when the walk visits it.
//     A skipped cube is skipped on every visit, and every cube below it
//     lies inside P, so it is skipped wherever the walk meets it. So the
//     other cubes are visited, and emitted, in the order in which the
//     unpruned walk first visited them.
//
// Primes themselves are never skipped: a legal prime lies inside itself.
func dhfPrimes(required []logic.Cube, off logic.Cover, priv []Privileged) []logic.Cube {
	primes := logic.PrimesContaining(required, off)
	// illegal returns the first privileged cube p intersects without
	// containing its Need subcube, or nil when p is legal.
	illegal := func(p logic.Cube) *Privileged {
		for i := range priv {
			if pv := &priv[i]; p.Intersects(pv.Trans) && !p.Contains(pv.Need) {
				return pv
			}
		}
		return nil
	}
	legal := logic.NewCubeIndex(primes) // the walk asks about their shrinks
	for _, p := range primes {
		if illegal(p) == nil {
			legal.Add(p)
		}
	}
	seen := map[[2]uint64]bool{}
	var out []logic.Cube
	var emit func(p logic.Cube, shrunk bool)
	emit = func(p logic.Cube, shrunk bool) {
		if p.IsEmpty() || shrunk && legal.Contains(p) || seen[p.Key()] {
			return
		}
		seen[p.Key()] = true
		pv := illegal(p)
		if pv == nil {
			out = append(out, p)
			return
		}
		// Illegal intersection: shrink p away from the transition cube
		// along every variable the transition binds and p leaves free, and
		// recurse.
		for vs := pv.Trans.BoundVars() &^ p.BoundVars(); vs != 0; vs &= vs - 1 {
			v := bits.TrailingZeros64(vs)
			flip := logic.Zero
			if pv.Trans.Get(v) == logic.Zero {
				flip = logic.One
			}
			emit(p.With(v, flip), true)
		}
	}
	for _, p := range primes {
		emit(p, false)
	}
	return logic.Maximal(out)
}

// Verify checks that a cover is a correct hazard-free implementation of the
// analyzed specification: it covers the ON-set, avoids the OFF-set, contains
// every required cube in a single product, and has no illegal intersections.
// It returns nil on success.
func Verify(res Result, cover logic.Cover) error {
	for _, on := range res.OnSet.Cubes {
		if !cover.ContainsCube(on) {
			return fmt.Errorf("hfmin: ON cube %s not covered", on)
		}
	}
	for _, off := range res.OffSet.Cubes {
		for _, p := range cover.Cubes {
			if p.Intersects(off) {
				return fmt.Errorf("hfmin: product %s intersects OFF cube %s", p, off)
			}
		}
	}
	for _, r := range res.Required {
		ok := false
		for _, p := range cover.Cubes {
			if p.Contains(r) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("hfmin: required cube %s not contained in a single product", r)
		}
	}
	for _, pv := range res.Privileged {
		for _, p := range cover.Cubes {
			if p.Intersects(pv.Trans) && !p.Contains(pv.Need) {
				return fmt.Errorf("hfmin: product %s illegally intersects privileged cube %s (needs %s)", p, pv.Trans, pv.Need)
			}
		}
	}
	return nil
}
