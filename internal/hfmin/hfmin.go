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
	"sync"

	"repro/internal/logic"
	"repro/internal/obs"
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

// changing returns the variables on which Start and End conflict, as a
// mask: those both bind (or leave empty) and to different values.
func (t Transition) changing() uint64 {
	sz, so := t.Start.Raw()
	ez, eo := t.End.Raw()
	dash := sz&so | ez&eo
	differ := (sz ^ ez) | (so ^ eo)
	return differ &^ dash & (uint64(1)<<uint(t.Start.N()) - 1)
}

// Spec is a complete transition specification of a single-output function.
type Spec struct {
	N           int // number of input variables
	Transitions []Transition
}

// Canonical returns the spec with its transitions sorted by the total
// order on (kind, start, end) cube keys. Two specs describing the same set
// of transitions in different construction orders have identical
// canonical forms, which makes them hash alike (content-addressed
// memoization in internal/memo) and — because Analyze canonicalizes its
// input — minimize alike: prime generation and covering tie-breaks see the
// same ordering regardless of how the caller assembled the spec.
//
// An already canonical spec is returned as is, sharing its transitions:
// no caller writes to them. Any other spec is sorted in a copy, and the
// receiver's transitions are never changed.
func (s Spec) Canonical() Spec {
	if slices.IsSortedFunc(s.Transitions, transCompare) {
		return s
	}
	ts := slices.Clone(s.Transitions)
	slices.SortFunc(ts, transCompare)
	obs.Add("hfmin/spec-sorts", 1)
	return Spec{N: s.N, Transitions: ts}
}

// transCompare is the total order behind Canonical: kind first, then
// start and end in logic.Compare order. Distinct transitions never compare
// equal, so every sort of a spec's transitions gives one order.
func transCompare(a, b Transition) int {
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	if c := logic.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	return logic.Compare(a.End, b.End)
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
	spec = spec.Canonical() // no copy when already canonical
	var res Result
	res.OnSet = logic.Cover{N: spec.N}
	res.OffSet = logic.Cover{N: spec.N}
	if err := derive(spec, &res, nil); err != nil {
		return res, err
	}
	// Consistency: ON and OFF care sets must not overlap.
	for oi, on := range res.OnSet.Cubes {
		for fi, off := range res.OffSet.Cubes {
			if on.Intersects(off) {
				return res, inconsistent(spec, oi, fi)
			}
		}
	}
	return res, nil
}

// derive sets the care sets, required cubes and privileged cubes of the
// spec's transitions on res, in transition order. When after is non-nil,
// it is called with each transition's index once that transition's cubes
// are in, and the walk stops when it returns true.
//
// One pass counts the cubes each transition yields, and each slice is
// allocated once at that count. Every count but the required one is
// exact unless a cube is empty, and addRequired also drops repeats. A
// slice left empty is nil, as a decoded memo record's is.
func derive(spec Spec, res *Result, after func(i int) bool) error {
	var on, off, req, priv int
	for _, t := range spec.Transitions {
		ch := bits.OnesCount64(t.changing())
		switch t.Kind {
		case Static0:
			off++
		case Static1:
			on++
			req++
		case Fall:
			on, off, req, priv = on+ch, off+1, req+ch, priv+1
		case Rise:
			on, off, req, priv = on+1, off+ch, req+1, priv+1
		}
	}
	res.OnSet.Cubes = make([]logic.Cube, 0, on)
	res.OffSet.Cubes = make([]logic.Cube, 0, off)
	res.Required = make([]logic.Cube, 0, req)
	res.Privileged = make([]Privileged, 0, priv)
	err := deriveCubes(spec, res, after)
	res.OnSet.Cubes = nilIfEmpty(res.OnSet.Cubes)
	res.OffSet.Cubes = nilIfEmpty(res.OffSet.Cubes)
	res.Required = nilIfEmpty(res.Required)
	res.Privileged = nilIfEmpty(res.Privileged)
	return err
}

// nilIfEmpty returns s, or nil when s is empty.
func nilIfEmpty[E any](s []E) []E {
	if len(s) == 0 {
		return nil
	}
	return s
}

// deriveCubes appends what derive sets, in transition order.
func deriveCubes(spec Spec, res *Result, after func(i int) bool) error {
	for i, t := range spec.Transitions {
		if t.Start.N() != spec.N || t.End.N() != spec.N {
			return fmt.Errorf("hfmin: transition %d arity mismatch", i)
		}
		T := t.Cube()
		switch t.Kind {
		case Static0:
			res.OffSet.Add(T)
		case Static1:
			res.OnSet.Add(T)
			res.Required = addRequired(res.Required, T)
		case Fall:
			ch := t.changing()
			if ch == 0 {
				return fmt.Errorf("hfmin: falling transition %d has no changing variables", i)
			}
			res.OffSet.Add(endSubcube(T, t.End, ch))
			for vs := ch; vs != 0; vs &= vs - 1 {
				v := bits.TrailingZeros64(vs)
				on := T.With(v, t.Start.Get(v))
				res.OnSet.Add(on)
				res.Required = addRequired(res.Required, on)
			}
			res.Privileged = append(res.Privileged, Privileged{Trans: T, Need: startSubcube(T, t.Start, ch)})
		case Rise:
			ch := t.changing()
			if ch == 0 {
				return fmt.Errorf("hfmin: rising transition %d has no changing variables", i)
			}
			endCube := endSubcube(T, t.End, ch)
			res.OnSet.Add(endCube)
			res.Required = addRequired(res.Required, endCube)
			for vs := ch; vs != 0; vs &= vs - 1 {
				v := bits.TrailingZeros64(vs)
				res.OffSet.Add(T.With(v, t.Start.Get(v)))
			}
			res.Privileged = append(res.Privileged, Privileged{Trans: T, Need: endCube})
		default:
			return fmt.Errorf("hfmin: transition %d has invalid kind %d", i, t.Kind)
		}
		if after != nil && after(i) {
			return nil
		}
	}
	return nil
}

// addRequired appends a non-empty cube to the required cubes unless it is
// there already. A spec yields at most a few dozen required cubes, so a
// scan of their keys is cheaper than a set.
func addRequired(req []logic.Cube, c logic.Cube) []logic.Cube {
	if c.IsEmpty() {
		return req
	}
	k := c.Key()
	for _, r := range req {
		if r.Key() == k {
			return req
		}
	}
	return append(req, c)
}

// inconsistent names, in the error Analyze returns, ON cube oi and OFF
// cube fi of spec's analysis, which intersect, with the transitions that
// contributed them. The cubes are derived again up to the later of the
// two: only this error needs to know where a cube came from.
func inconsistent(spec Spec, oi, fi int) error {
	var res Result
	res.OnSet = logic.Cover{N: spec.N}
	res.OffSet = logic.Cover{N: spec.N}
	onSrc, offSrc := -1, -1
	_ = derive(spec, &res, func(i int) bool {
		if onSrc < 0 && len(res.OnSet.Cubes) > oi {
			onSrc = i
		}
		if offSrc < 0 && len(res.OffSet.Cubes) > fi {
			offSrc = i
		}
		return onSrc >= 0 && offSrc >= 0
	})
	on, off := spec.Transitions[onSrc], spec.Transitions[offSrc]
	return fmt.Errorf("hfmin: inconsistent specification: ON cube %s (transition %d: %s %s→%s) intersects OFF cube %s (transition %d: %s %s→%s)",
		res.OnSet.Cubes[oi], onSrc, on.Kind, on.Start, on.End,
		res.OffSet.Cubes[fi], offSrc, off.Kind, off.Start, off.End)
}

// endSubcube returns the transition cube restricted to the end values of the
// changing variables.
func endSubcube(T, end logic.Cube, changing uint64) logic.Cube {
	c := T
	for vs := changing; vs != 0; vs &= vs - 1 {
		v := bits.TrailingZeros64(vs)
		c = c.With(v, end.Get(v))
	}
	return c
}

// startSubcube returns the transition cube restricted to the start values of
// the changing variables.
func startSubcube(T, start logic.Cube, changing uint64) logic.Cube {
	c := T
	for vs := changing; vs != 0; vs &= vs - 1 {
		v := bits.TrailingZeros64(vs)
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
	return minimize(context.Background(), spec, false)
}

// MinimizeCtx is Minimize with cooperative cancellation: the context is
// checked between the minimization phases (analysis, dhf-prime
// generation, covering) and between branch-and-bound iterations of the
// covering search, so a cancelled synthesis job abandons even a large
// minimization promptly. A cancelled call returns ctx.Err(); partial
// results are discarded, never cached (see internal/memo).
func MinimizeCtx(ctx context.Context, spec Spec) (Result, error) {
	return minimize(ctx, spec, false)
}

// Covering derives the unate covering problem behind a spec's exact
// minimization: the analysis result with dhf-primes generated, and the
// matrix in which every required cube (row) must be contained in at least
// one chosen dhf-prime (column), costed to minimize products first and
// literals second. The returned problem has no Cancel or Budget set;
// callers configure both. Exported for the covering benchmarks and the
// worst-case capture tool (scripts/capturecover).
func Covering(spec Spec) (Result, *logic.CoveringProblem, error) {
	return covering(spec, false)
}

// covering derives Covering's problem, or with plain set MinimizePlain's:
// the distinct ON cubes as the rows, every prime that contains one as
// the columns, and no privileged cubes.
func covering(spec Spec, plain bool) (Result, *logic.CoveringProblem, error) {
	res, err := Analyze(spec)
	if err != nil {
		return res, nil, err
	}
	if plain {
		res.Required = nil
		for _, c := range res.OnSet.Cubes {
			res.Required = addRequired(res.Required, c)
		}
	}
	if len(res.Required) == 0 {
		return res, &logic.CoveringProblem{}, nil
	}
	if plain {
		res.Privileged = nil
		res.Primes = logic.PrimesContaining(res.Required, res.OffSet)
	} else {
		res.Primes = dhfPrimes(res.Required, res.OffSet, res.Privileged)
	}
	prob := &logic.CoveringProblem{NumCols: len(res.Primes)}
	prob.Cost = make([]int, len(res.Primes))
	const productWeight = 1 << 12 // lexicographic: products dominate literals
	for i, p := range res.Primes {
		prob.Cost[i] = productWeight + p.Literals()
	}
	// p contains a non-empty r exactly when r's masks lie inside p's, and
	// required cubes are never empty (Analyze drops empty ones). The rows
	// are gathered in a pooled scratch and then copied into one slab the
	// problem owns: callers keep the problem. Each row lists its columns
	// in ascending order, so the covering search shares it.
	m := matrices.Get().(*matrix)
	m.keys = m.keys[:0]
	for _, p := range res.Primes {
		m.keys = append(m.keys, p.Key())
	}
	m.cols, m.ends = m.cols[:0], m.ends[:0]
	for _, r := range res.Required {
		rk := r.Key()
		n := len(m.cols)
		for i, k := range m.keys {
			if rk[0]&^k[0] == 0 && rk[1]&^k[1] == 0 {
				m.cols = append(m.cols, i)
			}
		}
		if len(m.cols) == n {
			m.put()
			return res, nil, fmt.Errorf("%w: required cube %s uncoverable", ErrInfeasible, r)
		}
		m.ends = append(m.ends, len(m.cols))
	}
	slab := append(make([]int, 0, len(m.cols)), m.cols...)
	prob.Rows = make([][]int, len(m.ends))
	start := 0
	for r, end := range m.ends {
		prob.Rows[r] = slab[start:end:end]
		start = end
	}
	m.put()
	return res, prob, nil
}

// matrix is Covering's scratch: the primes' keys, and the rows' columns
// end to end with where each row ends.
type matrix struct {
	keys [][2]uint64
	cols []int
	ends []int
}

var matrices = sync.Pool{New: func() any { return new(matrix) }}

// maxPooled caps the scratch this package's pools keep: one that grew
// past maxPooled entries is dropped, not pooled, so the working memory of
// one large minimization does not stay live after it. No result aliases
// a scratch, and every use resets what it reads first.
const maxPooled = 4096

// put pools m unless it grew past maxPooled.
func (m *matrix) put() {
	if max(cap(m.keys), cap(m.cols), cap(m.ends)) <= maxPooled {
		matrices.Put(m)
	}
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
// logic.PrimesContaining did not truncate r's expansions at
// logic.MaxExpansions, which could drop the prime containing c.
// Synthesizing the registry designs and gen seeds 0–59, and searching
// diffeq and fir, truncates no enumeration (logic/hs-truncated reads 0
// in TestWorkCountersPinned).
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

// minimize solves covering's problem for spec exactly, within the
// covering search's step budget.
func minimize(ctx context.Context, spec Spec, plain bool) (Result, error) {
	res, prob, err := covering(spec, plain)
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
	res.Cover = logic.Cover{N: spec.N, Cubes: make([]logic.Cube, 0, len(cols))} // every row needs a column
	for _, c := range cols {
		res.Cover.Add(res.Primes[c])
	}
	return res, nil
}

// dhfPrimes generates the dynamic-hazard-free prime implicants relevant to
// covering the required cubes: maximal implicants (disjoint from the
// OFF-set) with no illegal intersection with any privileged cube, in
// logic.Compare order. Their order sets the covering columns and so the
// covering tie-breaks, and it depends only on the set of primes: the
// result is either Maximal's, or a subsequence of PrimesContaining's.
//
// Each prime is emitted if legal; an illegal one is shrunk away from the
// privileged cube it intersects, one more variable bound per shrink, and
// the shrinks are emitted the same way, depth first. A shrink that lies
// inside a legal prime is skipped, together with every shrink below it.
// This changes no element of the result:
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
//     walk visits every other cube the unpruned walk visited.
//
// Primes themselves are never skipped: a legal prime lies inside itself.
//
// The walk keeps no record of the primes, and merges its output through
// Maximal only when it emitted a legal shrink:
//   - The primes are distinct, and no shrink is a prime: a shrink lies
//     strictly inside the prime it was shrunk from, and no prime contains
//     another. So the walk visits each prime once, and only the shrinks
//     need a record of the cubes visited.
//   - Only shrinks query the legal-prime index, and its answers do not
//     depend on when its cubes were filed. So it is built on the walk's
//     first shrink, and a spec whose primes are all legal builds none.
//   - Without a legal shrink the output is the legal primes, distinct and
//     pairwise non-containing, so Maximal would keep every one.
func dhfPrimes(required []logic.Cube, off logic.Cover, priv []Privileged) []logic.Cube {
	primes := logic.PrimesContaining(required, off)
	w := walks.Get().(*walk)
	w.primes, w.priv = primes, priv
	w.out, w.shrinks, w.indexed = w.out[:0], 0, false
	for _, p := range primes {
		w.emit(p, false)
	}
	// An empty result stays nil, as a memoized Result's slice is; primes
	// is nil when there are none.
	var out []logic.Cube
	switch {
	case w.shrinks > 0:
		out = logic.Maximal(w.out)
	case len(w.out) == len(primes):
		out = primes // every prime is legal and was emitted in order
	case len(w.out) > 0:
		out = append(make([]logic.Cube, 0, len(w.out)), w.out...)
	}
	obs.Add("hfmin/shrinks-emitted", int64(w.shrinks))
	obs.Add("hfmin/dhf-primes", int64(len(out)))
	w.put()
	return out
}

// walk is dhfPrimes' shrink walk over one spec's primes: the legal-prime
// index and the set of shrinks visited, both reset on the walk's first
// shrink, and the cubes emitted. dhfPrimes takes it from walks.
type walk struct {
	primes  []logic.Cube
	priv    []Privileged
	indexed bool               // legal and seen are reset and filled
	legal   logic.CubeIndex    // the legal primes
	seen    map[[2]uint64]bool // the shrinks visited
	out     []logic.Cube
	shrinks int // legal shrinks emitted
}

var walks = sync.Pool{New: func() any { return &walk{seen: map[[2]uint64]bool{}} }}

// put pools w unless it grew past maxPooled, dropping its references to
// the spec first. The legal index filed at most one cube per prime.
func (w *walk) put() {
	filed := len(w.primes)
	w.primes, w.priv = nil, nil
	if max(cap(w.out), len(w.seen), filed) <= maxPooled {
		walks.Put(w)
	}
}

// illegal returns the first privileged cube p intersects without
// containing its Need subcube, or nil when p is legal.
func (w *walk) illegal(p logic.Cube) *Privileged {
	for i := range w.priv {
		if pv := &w.priv[i]; p.Intersects(pv.Trans) && !p.Contains(pv.Need) {
			return pv
		}
	}
	return nil
}

// emit emits p if it is legal, and otherwise its shrinks, depth first.
func (w *walk) emit(p logic.Cube, shrunk bool) {
	if p.IsEmpty() {
		return
	}
	if shrunk {
		if !w.indexed {
			w.indexed = true
			w.legal.Reset(w.primes) // the walk asks about their shrinks
			for _, q := range w.primes {
				if w.illegal(q) == nil {
					w.legal.Add(q)
				}
			}
			clear(w.seen)
		}
		if w.legal.Contains(p) || w.seen[p.Key()] {
			return
		}
		w.seen[p.Key()] = true
	}
	pv := w.illegal(p)
	if pv == nil {
		w.out = append(w.out, p)
		if shrunk {
			w.shrinks++
		}
		return
	}
	// Illegal intersection: shrink p away from the transition cube along
	// every variable the transition binds and p leaves free, and recurse.
	for vs := pv.Trans.BoundVars() &^ p.BoundVars(); vs != 0; vs &= vs - 1 {
		v := bits.TrailingZeros64(vs)
		flip := logic.Zero
		if pv.Trans.Get(v) == logic.Zero {
			flip = logic.One
		}
		w.emit(p.With(v, flip), true)
	}
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
