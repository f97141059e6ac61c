package logic

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/obs"
)

// MaxExpansions caps the hitting-set enumeration behind the expansions of
// a single cube. It bounds the antichain of sets found so far, which can
// briefly hold non-minimal sets that a later, smaller set evicts: the
// enumeration stops as soon as that antichain holds MaxExpansions sets.
// So a truncated enumeration returns MaxExpansions sets (some of which
// need not be minimal), not the first MaxExpansions maximal expansions.
const MaxExpansions = 4096

// expander holds the buffers of the hitting-set enumeration, which one
// PrimesContaining call reuses for every seed, and counts the candidates
// its enumerations complete. PrimesContaining takes it from expanders.
type expander struct {
	rows       []uint64 // the blocking rows of one seed
	sorted     []uint64 // the rows sorted by size
	results    []uint64 // the hitting sets found so far
	limit      int
	candidates int
	out        []Cube // every seed's expansions
}

// maxPooled caps the scratch a pool keeps: a scratch that grew past
// maxPooled entries in one call is dropped instead of put back, so the
// working memory of one large minimization does not stay live after it,
// as fmt drops printers whose buffers grew past 64 kB. No result aliases
// a scratch, and every get resets what the call reads, so a scratch put
// back after a panic or a cancelled call is harmless.
const maxPooled = 4096

var expanders = sync.Pool{New: func() any { return new(expander) }}

// getExpander returns a pooled expander, reset.
func getExpander() *expander {
	x := expanders.Get().(*expander)
	x.rows, x.sorted, x.results, x.out = x.rows[:0], x.sorted[:0], x.results[:0], x.out[:0]
	x.candidates = 0
	return x
}

// putExpander pools x unless it grew past maxPooled.
func putExpander(x *expander) {
	if max(cap(x.rows), cap(x.sorted), cap(x.results), cap(x.out)) <= maxPooled {
		expanders.Put(x)
	}
}

// resized returns s with length n, reusing its array when it has room.
// The elements are not cleared.
func resized[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// sortBySize puts the elements of s into dst, resized to len(s), in
// ascending order of size, from 0 to MaxVars, keeping the order of equal
// sizes: one counting pass, then one placing pass.
func sortBySize[E any](dst, s []E, size func(E) int) []E {
	var start [MaxVars + 2]int
	for _, e := range s {
		start[size(e)+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	dst = resized(dst, len(s))
	for _, e := range s {
		k := size(e)
		dst[start[k]] = e
		start[k]++
	}
	return dst
}

// expand appends the maximal supercubes of seed that are disjoint from
// every cube of off to out, in the order the enumeration finds them, and
// reports whether the enumeration stopped at MaxExpansions. These are
// exactly the prime implicants of the function complement(off) that
// contain seed.
//
// The computation reduces to enumerating the minimal hitting sets of the
// "blocking matrix": for each off cube o intersected with the current
// expansion candidate, at least one variable on which seed conflicts with o
// must keep its literal. Rows and hitting sets are variable masks in the
// cube's own bit layout.
func (x *expander) expand(out []Cube, seed Cube, off Cover) ([]Cube, bool) {
	if seed.IsEmpty() {
		return out, false
	}
	bound := seed.BoundVars()
	// Blocking rows: for each off cube, the bound seed variables on which
	// the two have no common value. An off cube with no such variable
	// intersects seed itself: no expansion exists.
	x.rows = x.rows[:0]
	for _, o := range off.Cubes {
		seed.checkArity(o)
		if o.IsEmpty() {
			continue // an empty off cube blocks nothing
		}
		row := ^(seed.zero&o.zero | seed.one&o.one) & bound
		if row == 0 {
			return out, false // seed intersects the off-set
		}
		x.rows = append(x.rows, row)
	}
	if len(x.rows) == 0 {
		return append(out, FullCube(seed.N())), false
	}
	hs := x.minimalHittingSets(x.rows, MaxExpansions)
	for _, keep := range hs {
		drop := bound &^ keep
		out = append(out, Cube{zero: seed.zero | drop, one: seed.one | drop, n: seed.n})
	}
	return out, len(hs) >= MaxExpansions
}

// minimalHittingSets enumerates minimal hitting sets of the given rows
// (each row is a variable mask; a hitting set keeps at least one variable
// of every row). The result is a list of "keep" masks, valid until the
// next call on x. Enumeration is capped at limit. It adds the sets the
// enumeration completed to x.candidates.
//
// The rows are visited by ascending size, which prunes better, equal
// sizes in their given order. The search branches on the variables of
// the first row not yet hit, in ascending bit order, and keeps the
// completed sets in results, evicting a found set when a later one is a
// strict subset of it. After the branch on variable b of a row returns,
// the row's later branches may not choose b (sibling exclusion). This
// changes neither results nor when the limit stops the search, compared
// with branching on every variable and discarding each completed set
// that contains a found one:
//   - A set cut this way contains some earlier sibling b of a row R. Its
//     own variables, followed down the b branch, lead that branch to a
//     completed subset of it. Once a set enters results, a subset of it
//     stays there (eviction only replaces a set by a smaller one), so the
//     discarding search would find the cut set's subset in results and
//     drop it without changing results. Cutting every such set in order,
//     results goes through the same states and len(results) reaches limit
//     at the same point.
//   - No set the search completes contains an earlier result r. Where
//     the two paths part, at a row R that neither had hit, r took a
//     variable b of R before this set's branch; r ⊆ this set would put b
//     in it, but b was excluded from R's later branches and their
//     subtrees. So the discarding scan never fires and is gone.
func (x *expander) minimalHittingSets(rows []uint64, limit int) []uint64 {
	x.sorted = sortBySize(x.sorted, rows, bits.OnesCount64)
	x.results, x.limit = x.results[:0], limit
	x.search(0, 0, 0)
	return x.results
}

// search completes the hitting sets that contain chosen and none of
// excluded, branching from row idx of x.sorted.
func (x *expander) search(idx int, chosen, excluded uint64) {
	if len(x.results) >= x.limit {
		return
	}
	for idx < len(x.sorted) && x.sorted[idx]&chosen != 0 {
		idx++ // row already hit
	}
	if idx == len(x.sorted) {
		// Candidate complete; found supersets of it are evicted.
		x.candidates++
		kept := x.results[:0]
		for _, r := range x.results {
			if chosen&^r != 0 {
				kept = append(kept, r)
			}
		}
		x.results = append(kept, chosen)
		return
	}
	for row := x.sorted[idx] &^ excluded; row != 0; row &= row - 1 {
		b := row & -row
		x.search(idx+1, chosen|b, excluded)
		if len(x.results) >= x.limit {
			return
		}
		excluded |= b
	}
}

// PrimesContaining returns all prime implicants of the function whose
// off-set is off (with everything else on or don't-care) that contain at
// least one of the seed cubes, each once, in Compare order. A cube from
// one seed contained in an expansion of another is dropped.
//
// One pooled scratch serves every seed, and each seed's expansions are
// appended to one buffer. When no enumeration stopped at MaxExpansions,
// every expansion is a maximal cube disjoint from off, so a prime. No
// prime contains another, so Maximal would only drop repeats, and sorting
// the buffer and compacting it drops them. A truncated enumeration can
// return non-maximal cubes, and then Maximal filters. Either way the
// result is a new slice of its final size, or nil.
func PrimesContaining(seeds []Cube, off Cover) []Cube {
	x := getExpander()
	truncated := 0
	for _, s := range seeds {
		var cut bool
		if x.out, cut = x.expand(x.out, s, off); cut {
			truncated++
		}
	}
	obs.Add("logic/hs-candidates", int64(x.candidates))
	obs.Add("logic/hs-truncated", int64(truncated))
	var primes []Cube
	switch {
	case truncated > 0:
		primes = Maximal(x.out)
	case len(x.out) > 0:
		slices.SortFunc(x.out, Compare)
		kept := slices.Compact(x.out)
		primes = append(make([]Cube, 0, len(kept)), kept...)
	}
	putExpander(x)
	return primes
}

// Maximal returns the cubes not strictly contained in another cube of the
// list, each once, in Compare order, in a new slice of their number, or
// nil for none. The cubes must be non-empty and of one arity.
//
// A container of a cube has strictly fewer literals, so visiting the cubes
// by ascending literal count means every container of a cube, and in
// particular a maximal one, is visited first; so is one copy of a
// repeated cube. Each cube is then tested only against the maximal-so-far
// cubes, through a CubeIndex, which looks at just those filed under one
// of the cube's own literals instead of scanning them all.
func Maximal(cubes []Cube) []Cube {
	if len(cubes) == 0 {
		return nil
	}
	byLiterals := sortBySize(nil, cubes, Cube.Literals)
	maximal := NewCubeIndex(cubes) // the cubes are the queries
	kept := byLiterals[:0]
	for _, c := range byLiterals {
		if !maximal.Contains(c) {
			maximal.Add(c)
			kept = append(kept, c)
		}
	}
	slices.SortFunc(kept, Compare)
	return append(make([]Cube, 0, len(kept)), kept...)
}

// CubeIndex holds cubes of one arity and answers whether some cube added
// to it contains a query cube, without scanning every added cube. Added
// cubes must be non-empty. The zero value is an empty index; NewCubeIndex
// tunes one for its queries.
//
// A cube d contains a non-empty cube c exactly when every literal of d is
// a literal of c. So the index files each added cube under one of its own
// literals, and a query probes only the buckets of c's literals: every
// container of c is filed under one of them, and each added cube is looked
// at at most once. The full cube has no literals; it contains everything
// and is kept as a flag.
type CubeIndex struct {
	full bool
	// weight[2v+b] counts the sample cubes (see NewCubeIndex) that bind
	// variable v to b; buckets[2v+b] holds the added cubes filed under
	// that literal, and bit v of nonEmpty[b] is set when it is not empty.
	weight   [2 * MaxVars]int32
	buckets  [][]Cube
	nonEmpty [2]uint64
}

// NewCubeIndex returns an empty index tuned for queries like the sample
// cubes. A query looks at the buckets of its own literals, so a bucket
// costs little when few queries bind its literal. The index counts how
// many sample cubes bind each literal and files an added cube under its
// literal with the lowest count, the shortest bucket among equal counts.
// The sample only steers the filing: answers do not depend on it.
func NewCubeIndex(sample []Cube) *CubeIndex {
	x := &CubeIndex{}
	x.Reset(sample)
	return x
}

// Reset empties the index and tunes it for queries like the sample
// cubes, as NewCubeIndex does. It keeps its buckets' memory for the cubes
// added next, unless they have room for more than 4,096 cubes. The index
// may then hold cubes of another arity.
func (x *CubeIndex) Reset(sample []Cube) {
	x.full = false
	x.nonEmpty = [2]uint64{}
	if x.entries() > maxPooled {
		x.buckets = nil
	}
	for i := range x.buckets {
		x.buckets[i] = x.buckets[i][:0]
	}
	x.weight = [2 * MaxVars]int32{}
	for _, c := range sample {
		for b, vs := range c.literalMasks() {
			for ; vs != 0; vs &= vs - 1 {
				x.weight[2*bits.TrailingZeros64(vs)+b]++
			}
		}
	}
}

// entries returns the number of cubes the index's buckets have room for.
func (x *CubeIndex) entries() int {
	n := 0
	for _, b := range x.buckets {
		n += cap(b)
	}
	return n
}

// literalMasks returns the variables c binds to 0 and those it binds to
// 1.
func (c Cube) literalMasks() [2]uint64 {
	return [2]uint64{c.zero &^ c.one, c.one &^ c.zero}
}

// Add files c in the index.
func (x *CubeIndex) Add(c Cube) {
	lits := c.literalMasks()
	if lits[0]|lits[1] == 0 {
		x.full = true
		return
	}
	if n := 2 * int(c.n); len(x.buckets) < n {
		x.buckets = append(x.buckets, make([][]Cube, n-len(x.buckets))...)
	}
	best := -1
	for b, vs := range lits {
		for ; vs != 0; vs &= vs - 1 {
			k := 2*bits.TrailingZeros64(vs) + b
			if best < 0 || x.weight[k] < x.weight[best] ||
				x.weight[k] == x.weight[best] && len(x.buckets[k]) < len(x.buckets[best]) {
				best = k
			}
		}
	}
	x.buckets[best] = append(x.buckets[best], c)
	x.nonEmpty[best&1] |= 1 << uint(best>>1)
}

// Contains reports whether some cube added to the index contains c, which
// must be non-empty and of the added cubes' arity.
func (x *CubeIndex) Contains(c Cube) bool {
	if x.full {
		return true
	}
	for b, vs := range c.literalMasks() {
		for vs &= x.nonEmpty[b]; vs != 0; vs &= vs - 1 {
			for _, d := range x.buckets[2*bits.TrailingZeros64(vs)+b] {
				if c.zero&^d.zero == 0 && c.one&^d.one == 0 {
					return true
				}
			}
		}
	}
	return false
}
