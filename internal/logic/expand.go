package logic

import (
	"math/bits"
	"sort"
)

// MaxExpansions caps the number of maximal expansions enumerated for a
// single cube; pathological blocking structures are truncated (the greedy
// largest-first expansions are kept).
const MaxExpansions = 4096

// Expansions returns all maximal supercubes of seed that are disjoint from
// every cube of off. These are exactly the prime implicants of the function
// complement(off) that contain seed.
//
// The computation reduces to enumerating the minimal hitting sets of the
// "blocking matrix": for each off cube o intersected with the current
// expansion candidate, at least one variable on which seed conflicts with o
// must keep its literal. Rows and hitting sets are variable masks in the
// cube's own bit layout. Enumeration is capped at MaxExpansions.
func Expansions(seed Cube, off Cover) []Cube {
	if seed.IsEmpty() {
		return nil
	}
	bound := seed.BoundVars()
	// Blocking rows: for each off cube, the bound seed variables on which
	// the two have no common value. An off cube with no such variable
	// intersects seed itself: no expansion exists.
	var rows []uint64
	for _, o := range off.Cubes {
		seed.checkArity(o)
		if o.IsEmpty() {
			continue // an empty off cube blocks nothing
		}
		row := ^(seed.zero&o.zero | seed.one&o.one) & bound
		if row == 0 {
			return nil // seed intersects the off-set
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return []Cube{FullCube(seed.N())}
	}
	hs := minimalHittingSets(rows, MaxExpansions)
	out := make([]Cube, len(hs))
	for i, keep := range hs {
		drop := bound &^ keep
		out[i] = Cube{zero: seed.zero | drop, one: seed.one | drop, n: seed.n}
	}
	return out
}

// minimalHittingSets enumerates minimal hitting sets of the given rows
// (each row is a variable mask; a hitting set keeps at least one variable
// of every row). The result is a list of "keep" masks. Enumeration is
// capped at limit.
func minimalHittingSets(rows []uint64, limit int) []uint64 {
	// Sort rows by size: small rows first prunes better. The enumeration
	// order, and with it the dhf-prime order, depends on this exact
	// permutation of equal-size rows, so the sort stays sort.Slice.
	sorted := append([]uint64(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool {
		return bits.OnesCount64(sorted[i]) < bits.OnesCount64(sorted[j])
	})

	var results []uint64
	var rec func(idx int, chosen uint64)
	rec = func(idx int, chosen uint64) {
		if len(results) >= limit {
			return
		}
		for idx < len(sorted) && sorted[idx]&chosen != 0 {
			idx++ // row already hit
		}
		if idx == len(sorted) {
			// Candidate complete; supersets of found sets are discarded,
			// and found supersets of the candidate are evicted.
			for _, r := range results {
				if r&^chosen == 0 {
					return
				}
			}
			kept := results[:0]
			for _, r := range results {
				if chosen&^r != 0 {
					kept = append(kept, r)
				}
			}
			results = append(kept, chosen)
			return
		}
		for row := sorted[idx]; row != 0; row &= row - 1 {
			rec(idx+1, chosen|row&-row)
			if len(results) >= limit {
				return
			}
		}
	}
	rec(0, 0)
	return results
}

// PrimesContaining returns all prime implicants of the function whose
// off-set is off (with everything else on or don't-care) that contain at
// least one of the seed cubes, in the order the seeds' expansions first
// produce them. Duplicates are removed, and so is a cube from one seed
// contained in an expansion of another.
func PrimesContaining(seeds []Cube, off Cover) []Cube {
	var out []Cube
	for _, s := range seeds {
		out = append(out, Expansions(s, off)...)
	}
	return Maximal(out)
}

// Maximal returns the cubes not strictly contained in another cube of the
// list, with repeated cubes kept once, in their input order. The cubes
// must be non-empty and of one arity.
//
// A container of a cube has strictly fewer literals, so visiting the cubes
// by ascending literal count (a stable bucket pass) means every container
// of a cube, and in particular a maximal one, is visited first. Testing
// only against the maximal-so-far cubes makes the filter
// O(len(cubes)·len(result)) instead of quadratic in the input.
func Maximal(cubes []Cube) []Cube {
	var start [MaxVars + 2]int
	for _, c := range cubes {
		start[c.Literals()+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	order := make([]int, len(cubes))
	for i, c := range cubes {
		l := c.Literals()
		order[start[l]] = i
		start[l]++
	}
	isMax := make([]bool, len(cubes))
	var maximal []Cube
	for _, i := range order {
		c := cubes[i]
		contained := false
		for _, m := range maximal {
			if m.Contains(c) {
				contained = true
				break
			}
		}
		if !contained {
			isMax[i] = true
			maximal = append(maximal, c)
		}
	}
	out := maximal[:0]
	for i, c := range cubes {
		if isMax[i] {
			out = append(out, c)
		}
	}
	return out
}
