package logic

import (
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/obs"
)

// CoveringProblem is a unate covering problem: choose a minimum-cost subset
// of columns such that every row has at least one chosen column.
type CoveringProblem struct {
	NumCols int
	Rows    [][]int // each row lists the columns that cover it
	Cost    []int   // per-column cost; nil means unit cost
	// Budget bounds the exact search in branch steps; 0 means
	// DefaultCoveringBudget. When exceeded the solver returns the
	// best cover found so far (at worst the greedy seed) with exact=false.
	Budget int
	// Cancel, when non-nil, is polled between search iterations (every
	// cancelCheckInterval steps); a non-nil return abandons the search as
	// if the step budget were exhausted. Callers pass a context's Err
	// method to make long covering searches cancellable.
	Cancel func() error
}

// cancelCheckInterval bounds how often the search polls Cancel; checking
// every step would put an atomic context load on the hot search path.
const cancelCheckInterval = 1024

// DefaultCoveringBudget bounds the exact search when CoveringProblem.Budget
// is zero; when exceeded the solver falls back to the best solution found
// so far.
const DefaultCoveringBudget = 200000

func (p *CoveringProblem) budget() int {
	if p.Budget > 0 {
		return p.Budget
	}
	return DefaultCoveringBudget
}

// unitOr returns p.Cost, or a unit-cost vector when p.Cost is nil.
func (p *CoveringProblem) unitOr() []int {
	if p.Cost != nil {
		return p.Cost
	}
	cost := make([]int, p.NumCols)
	for i := range cost {
		cost[i] = 1
	}
	return cost
}

// SolveGreedy returns the greedy cover (best cost/coverage ratio first)
// without branch-and-bound refinement, or nil when infeasible. It is the
// incumbent Solve starts from.
func (p *CoveringProblem) SolveGreedy() []int {
	for _, r := range p.Rows {
		if len(r) == 0 {
			return nil
		}
	}
	s := searches.Get().(*bbSearch)
	cols := slices.Clone(s.greedy(p, p.unitOr()))
	putSearch(s)
	sort.Ints(cols)
	return cols
}

// Solve returns a minimum-cost column set (exact for problems within the
// step budget, greedy otherwise) and whether the solution is known exact.
// Rows with no covering column make the problem infeasible and Solve
// returns nil, false.
//
// Solve is deterministic: for a given problem it always returns the same
// cover — the greedy cover when greedy is already optimal, otherwise the
// first optimal-cost cover in the search's fixed depth-first branch
// order. That cover is the canonical one the golden synthesis documents
// and memo entries hold.
func (p *CoveringProblem) Solve() (cols []int, exact bool) {
	for _, r := range p.Rows {
		if len(r) == 0 {
			return nil, false
		}
	}
	cost := p.unitOr()
	s := searches.Get().(*bbSearch)
	greedy := s.greedy(p, cost)
	s.seed(greedy, totalCost(greedy, cost))
	s.start(p, cost)
	s.run()
	best := append([]int(nil), s.best...)
	sort.Ints(best)
	obs.Add("solver/bb/solves", 1)
	obs.Add("solver/bb/steps", s.steps)
	obs.Add("solver/bb/cutoffs", s.cutoffs)
	exact = !s.aborted
	putSearch(s)
	return best, exact
}

func totalCost(cols []int, cost []int) int {
	t := 0
	for _, c := range cols {
		t += cost[c]
	}
	return t
}

// bbSearch is the branch-and-bound state: a bitset covering matrix plus the
// scratch memory reused across nodes so the hot path never allocates.
type bbSearch struct {
	nRows, nCols int
	cost         []int
	rowCols      []bitset // row → columns covering it
	colRows      []bitset // column → rows it covers
	rowList      [][]int  // row → ascending column indices
	budget       int64
	cancel       func() error

	// orig maps the columns of a compacted matrix (see compact) to the
	// problem's, and base holds the columns chosen before compaction, in
	// the problem's numbering. orig is nil until the search compacts.
	orig []int
	base []int

	best     []int // in the problem's numbering
	bestCost int
	chosen   []int

	steps   int64
	cutoffs int64
	aborted bool // budget blown or cancelled: result may be inexact

	// Free lists of row-width and column-width bitsets, reused across
	// branch nodes.
	freeRowSets []bitset
	freeColSets []bitset

	// Dual-ascent scratch: reduced costs with epoch-stamped validity so the
	// vector never needs clearing between nodes.
	rc      []int
	rcMark  []int64
	rcEpoch int64

	// Dominance scratch: effective row masks (row ∩ active columns), and
	// for column dominance each column's coverage hash and size, the
	// open-addressing table of coverage groups and their representatives.
	effRows []bitset
	effIdx  []int
	covHash []uint64
	covSize []int
	groups  []int32
	reps    []int

	// Memory kept for the next search: the backing of rowCols, colRows
	// and effRows, the problem's row lists, and greedy's state.
	backing   []uint64
	rows      [][]int
	covered   []bool
	uncovered []int
	colStart  []int
	colSlab   []int
	picked    []int
}

// searches pools the search state; start and greedy reset what they
// read.
var searches = sync.Pool{New: func() any { return new(bbSearch) }}

// putSearch pools s unless it grew past maxPooled, dropping its
// references to the problem first.
func putSearch(s *bbSearch) {
	clear(s.rows)
	s.cost, s.rowList, s.cancel, s.orig = nil, nil, nil, nil
	if max(len(s.backing), cap(s.rows), cap(s.rc), cap(s.effIdx), len(s.groups), cap(s.colSlab)) <= maxPooled {
		searches.Put(s)
	}
}

// start resets s to search p with the given costs. A row that is
// already strictly ascending is shared, not copied: the search only
// reads its row lists. Other rows are sorted and deduplicated in a copy,
// so unsorted or duplicated input rows cannot perturb branch order.
func (s *bbSearch) start(p *CoveringProblem, cost []int) {
	s.budget, s.cancel = int64(p.budget()), p.Cancel
	s.orig, s.base, s.chosen = nil, s.base[:0], s.chosen[:0]
	s.steps, s.cutoffs, s.aborted = 0, 0, false
	s.rows = resized(s.rows, len(p.Rows))
	for r, row := range p.Rows {
		if !strictlyAscending(row) {
			row = slices.Clone(row)
			slices.Sort(row)
			row = slices.Compact(row)
		}
		s.rows[r] = row
	}
	s.load(p.NumCols, cost, s.rows)
}

func strictlyAscending(row []int) bool {
	for i := 1; i < len(row); i++ {
		if row[i] <= row[i-1] {
			return false
		}
	}
	return true
}

// load sets the search's matrix: nCols columns with the given costs, and
// one row per ascending column list, and sizes the scratch to match,
// reusing its memory.
func (s *bbSearch) load(nCols int, cost []int, rowList [][]int) {
	s.nRows, s.nCols, s.cost, s.rowList = len(rowList), nCols, cost, rowList
	rowWords, colWords := bitsetWords(s.nRows), bitsetWords(nCols)
	s.backing = resized(s.backing, 2*s.nRows*colWords+nCols*rowWords)
	clear(s.backing)
	backing := s.backing
	s.rowCols, backing = carveBitsets(s.rowCols, backing, s.nRows, colWords)
	s.effRows, backing = carveBitsets(s.effRows, backing, s.nRows, colWords)
	s.colRows, _ = carveBitsets(s.colRows, backing, nCols, rowWords)
	for r, lst := range rowList {
		for _, c := range lst {
			s.rowCols[r].set(c)
			s.colRows[c].set(r)
		}
	}
	s.rc = resized(s.rc, nCols) // read only where rcMark holds the epoch
	s.rcMark = resized(s.rcMark, nCols)
	clear(s.rcMark)
	s.rcEpoch = 0
	if n := max(s.nRows, nCols); cap(s.effIdx) < n {
		s.effIdx = make([]int, 0, n)
	}
	s.covHash = resized(s.covHash, nCols) // written before read
	s.covSize = resized(s.covSize, nCols)
	s.reps = s.reps[:0]
}

// carveBitsets returns count bitsets of the given number of words, cut
// from the front of backing, in hdr's memory, and the rest of backing.
func carveBitsets(hdr []bitset, backing []uint64, count, words int) ([]bitset, []uint64) {
	hdr = resized(hdr, count)
	for i := range hdr {
		hdr[i] = backing[i*words : (i+1)*words : (i+1)*words]
	}
	return hdr, backing[count*words:]
}

// compact renumbers the search onto the active submatrix, rows and
// columns in ascending order, when that saves a bitset word, and returns
// the active sets in the new numbering. The root calls it once, at its
// reduction fixed point. The rest of the search reads the matrix only
// through the active sets, the relative order of rows and of columns,
// and the costs: the lowest-index tie-breaks, rows and columns scanned in
// ascending order, branching on a row's columns in ascending order. An
// ascending renumbering of the active rows and columns keeps all of
// these, so the search walks the same tree, takes the same steps and
// cutoffs, and finds the same covers, mapped back through orig.
func (s *bbSearch) compact(activeRows, activeCols bitset) (bitset, bitset) {
	nRows, nCols := activeRows.popcount(), activeCols.popcount()
	if bitsetWords(nRows) == bitsetWords(s.nRows) && bitsetWords(nCols) == bitsetWords(s.nCols) {
		return activeRows, activeCols
	}
	newCol := make([]int, s.nCols)
	orig := make([]int, 0, nCols)
	activeCols.forEach(func(c int) {
		newCol[c] = len(orig)
		orig = append(orig, c)
	})
	cost := make([]int, nCols)
	for i, c := range orig {
		cost[i] = s.cost[c]
	}
	rowList := make([][]int, 0, nRows)
	activeRows.forEach(func(r int) {
		var lst []int
		for _, c := range s.rowList[r] {
			if activeCols.has(c) {
				lst = append(lst, newCol[c])
			}
		}
		rowList = append(rowList, lst)
	})
	s.base = append(s.base[:0], s.chosen...)
	s.chosen = s.chosen[:0]
	s.orig = orig
	s.load(nCols, cost, rowList)
	rows, cols := newBitset(nRows), newBitset(nCols)
	rows.setAll(nRows)
	cols.setAll(nCols)
	return rows, cols
}

// record makes the chosen columns, at total cost acc, the incumbent.
func (s *bbSearch) record(acc int) {
	s.best = append(s.best[:0], s.base...)
	for _, c := range s.chosen {
		if s.orig != nil {
			c = s.orig[c]
		}
		s.best = append(s.best, c)
	}
	s.bestCost = acc
}

func (s *bbSearch) seed(cover []int, ub int) {
	s.best = append(s.best[:0], cover...)
	s.bestCost = ub
}

// allocRowSet returns a row-width bitset from the free list, or a new
// one. The free lists outlive a load, so a listed set may be of another
// width: it is resliced when it has room and dropped when not. Every
// caller writes all of a set's words before reading it.
func (s *bbSearch) allocRowSet() bitset { return allocSet(&s.freeRowSets, s.nRows) }

func (s *bbSearch) freeRowSet(b bitset) { s.freeRowSets = append(s.freeRowSets, b) }

func (s *bbSearch) allocColSet() bitset { return allocSet(&s.freeColSets, s.nCols) }

func (s *bbSearch) freeColSet(b bitset) { s.freeColSets = append(s.freeColSets, b) }

func allocSet(free *[]bitset, n int) bitset {
	words := bitsetWords(n)
	for len(*free) > 0 {
		b := (*free)[len(*free)-1]
		*free = (*free)[:len(*free)-1]
		if cap(b) >= words {
			return b[:words]
		}
	}
	return newBitset(n)
}

func (s *bbSearch) run() {
	activeRows := s.allocRowSet()
	activeRows.setAll(s.nRows)
	activeCols := s.allocColSet()
	activeCols.setAll(s.nCols)
	s.node(activeRows, activeCols, 0, true)
	s.freeRowSet(activeRows)
	s.freeColSet(activeCols)
}

// node explores one branch-and-bound node. activeRows/activeCols are owned
// by the caller and are mutated freely (the caller passes copies).
func (s *bbSearch) node(activeRows, activeCols bitset, acc int, root bool) {
	s.steps++
	if s.steps > s.budget {
		s.aborted = true
		return
	}
	if s.cancel != nil && s.steps%cancelCheckInterval == 0 && s.cancel() != nil {
		s.aborted = true
		return
	}
	if acc >= s.bestCost {
		s.cutoffs++
		return
	}

	// Reduction loop: essential columns, then row dominance, then column
	// dominance, repeated to a fixed point.
	mark := len(s.chosen)
	for {
		// Essential columns and infeasibility: any active row whose
		// effective (active-column) cover count is 0 or 1.
		changed := false
		essential := -1
		infeasible := false
		activeRows.forEach(func(r int) {
			if infeasible || essential >= 0 {
				return
			}
			switch s.rowCols[r].intersectionCount(activeCols) {
			case 0:
				infeasible = true
			case 1:
				essential = r
			}
		})
		if infeasible {
			// All columns covering this row were excluded on earlier
			// branches; no solution in this subtree.
			s.chosen = s.chosen[:mark]
			s.cutoffs++
			return
		}
		if essential >= 0 {
			// The single remaining column of the essential row.
			c := -1
			for _, cc := range s.rowList[essential] {
				if activeCols.has(cc) {
					c = cc
					break
				}
			}
			s.chosen = append(s.chosen, c)
			acc += s.cost[c]
			activeRows.andNot(s.colRows[c])
			activeCols.clear(c)
			if acc >= s.bestCost {
				s.chosen = s.chosen[:mark]
				s.cutoffs++
				return
			}
			continue
		}

		// Materialize effective row masks once for the dominance passes.
		s.effIdx = s.effIdx[:0]
		activeRows.forEach(func(r int) {
			s.effRows[r].copyFrom(s.rowCols[r])
			s.effRows[r].and(activeCols)
			s.effIdx = append(s.effIdx, r)
		})

		// Row dominance: if eff(a) ⊆ eff(b), covering a forces covering b;
		// drop b (equal rows keep the lower index). Ascending scan keeps
		// the choice deterministic.
		for i := 0; i < len(s.effIdx) && !changed; i++ {
			a := s.effIdx[i]
			if !activeRows.has(a) {
				continue
			}
			for _, b := range s.effIdx {
				if a == b || !activeRows.has(b) {
					continue
				}
				if s.effRows[a].subsetOf(s.effRows[b]) && (a < b || !s.effRows[b].subsetOf(s.effRows[a])) {
					activeRows.clear(b)
					changed = true
				}
			}
		}
		if changed {
			continue
		}

		// Column dominance: drop column c when some other column d covers
		// every active row c covers at no greater cost. Quadratic in active
		// columns, so only applied while the active matrix is small (or at
		// the root, where the payoff is largest).
		nActive := activeCols.popcount()
		if root || nActive <= 128 {
			if s.columnDominance(activeRows, activeCols) {
				continue
			}
		}
		break
	}

	if activeRows.isEmpty() {
		// New incumbent (acc < bestCost was checked above and after every
		// essential-column addition).
		s.record(acc)
		s.chosen = s.chosen[:mark]
		return
	}
	if root {
		activeRows, activeCols = s.compact(activeRows, activeCols)
	}

	// Lower bound: dual ascent over the active matrix.
	if acc+s.dualAscent(activeRows, activeCols) >= s.bestCost {
		s.chosen = s.chosen[:mark]
		s.cutoffs++
		return
	}

	// Branch on the active row with the fewest active columns (ties:
	// lowest row index), trying its columns in ascending order. After a
	// column's subtree is explored it is excluded from the remaining
	// siblings, so subtrees partition the solution space.
	branchRow, branchLen := -1, int(^uint(0)>>1)
	activeRows.forEach(func(r int) {
		if n := s.rowCols[r].intersectionCount(activeCols); n < branchLen {
			branchRow, branchLen = r, n
		}
	})
	childRows := s.allocRowSet()
	childCols := s.allocColSet()
	for _, c := range s.rowList[branchRow] {
		if !activeCols.has(c) {
			continue
		}
		childRows.copyFrom(activeRows)
		childRows.andNot(s.colRows[c])
		childCols.copyFrom(activeCols)
		childCols.clear(c)
		s.chosen = append(s.chosen, c)
		s.node(childRows, childCols, acc+s.cost[c], false)
		s.chosen = s.chosen[:len(s.chosen)-1]
		if s.aborted {
			break
		}
		// Sibling exclusion: covers containing c are fully explored.
		activeCols.clear(c)
	}
	s.freeRowSet(childRows)
	s.freeColSet(childCols)
	s.chosen = s.chosen[:mark]
}

// columnDominance clears every active column that another active column
// dominates, and reports whether it cleared any. Column d dominates c when
// d covers every active row c covers at no greater cost, and has the
// lower index when the two cover the same active rows at the same cost.
//
// With that tie-break, dominance is a strict partial order. So the
// columns to clear are exactly those with a dominator among the active
// columns: a maximal column is never cleared, and every other column has
// a maximal dominator, which stays active. That set does not depend on
// the order in which columns are tested, and it is computed directly:
//   - The active columns are grouped by the active rows they cover. Each
//     group's cheapest column, lowest index first, dominates the rest of
//     the group.
//   - A representative is cleared when another group's representative
//     covers a strict superset of its rows at no greater cost. Only
//     representatives need testing: a dominator from another group is
//     dominated by its own group's representative, which then dominates
//     as well.
//
// So the work is linear in the active columns plus quadratic in the
// distinct row sets they cover, not quadratic in the columns.
func (s *bbSearch) columnDominance(activeRows, activeCols bitset) bool {
	cols := s.effIdx[:0] // reuse scratch; effRows content is not needed here
	activeCols.forEach(func(c int) { cols = append(cols, c) })
	// Open-addressing table of the groups, at most half full; entry g > 0
	// names reps[g-1].
	size := 1
	for size < 2*len(cols) {
		size <<= 1
	}
	if len(s.groups) < size {
		s.groups = make([]int32, size)
	}
	table := s.groups[:size]
	clear(table)
	reps := s.reps[:0]
	changed := false
	for _, c := range cols {
		h, n := s.coverage(c, activeRows)
		s.covHash[c], s.covSize[c] = h, n
		for i := h & uint64(size-1); ; i = (i + 1) & uint64(size-1) {
			g := table[i]
			if g == 0 {
				reps = append(reps, c)
				table[i] = int32(len(reps))
				break
			}
			r := reps[g-1]
			if s.covHash[r] != h || s.covSize[r] != n || !sameCoverage(s.colRows[r], s.colRows[c], activeRows) {
				continue
			}
			// Same rows: the cheaper column stays, on equal cost the
			// lower index, r (columns arrive in ascending order).
			if s.cost[c] < s.cost[r] {
				activeCols.clear(r)
				reps[g-1] = c
			} else {
				activeCols.clear(c)
			}
			changed = true
			break
		}
	}
	// Largest row sets first: a representative's strict supersets are
	// larger, so they come before it.
	slices.SortFunc(reps, func(a, b int) int { return s.covSize[b] - s.covSize[a] })
	for i, r := range reps {
		for _, d := range reps[:i] {
			if s.covSize[d] == s.covSize[r] {
				break
			}
			if s.cost[d] <= s.cost[r] && covSubset(s.colRows[r], s.colRows[d], activeRows) {
				activeCols.clear(r)
				changed = true
				break
			}
		}
	}
	s.effIdx = cols[:0]
	s.reps = reps[:0]
	return changed
}

// coverage returns a hash and the size of the active rows column c
// covers.
func (s *bbSearch) coverage(c int, activeRows bitset) (h uint64, n int) {
	for i, w := range s.colRows[c] {
		w &= activeRows[i]
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 32
		n += bits.OnesCount64(w)
	}
	return h, n
}

// sameCoverage reports whether a and b cover the same active rows.
func sameCoverage(a, b, active bitset) bool {
	for i, w := range a {
		if (w^b[i])&active[i] != 0 {
			return false
		}
	}
	return true
}

// covSubset reports whether a's coverage of the active rows is contained in
// b's: (a ∩ active) ⊆ b.
func covSubset(a, b, active bitset) bool {
	for i, w := range a {
		if (w&active[i])&^b[i] != 0 {
			return false
		}
	}
	return true
}

// dualAscent computes a Lagrangian-style lower bound: rows are visited in
// ascending order, each claiming the minimum reduced cost among its active
// columns and charging it against those columns. The result dominates the
// independent-row bound (independent rows claim their full cheapest cost)
// and is integral and deterministic.
func (s *bbSearch) dualAscent(activeRows, activeCols bitset) int {
	s.rcEpoch++
	epoch := s.rcEpoch
	lb := 0
	activeRows.forEach(func(r int) {
		delta := int(^uint(0) >> 1)
		for _, c := range s.rowList[r] {
			if !activeCols.has(c) {
				continue
			}
			rc := s.cost[c]
			if s.rcMark[c] == epoch {
				rc = s.rc[c]
			}
			if rc < delta {
				delta = rc
			}
		}
		if delta <= 0 {
			return
		}
		lb += delta
		for _, c := range s.rowList[r] {
			if !activeCols.has(c) {
				continue
			}
			if s.rcMark[c] != epoch {
				s.rcMark[c] = epoch
				s.rc[c] = s.cost[c]
			}
			s.rc[c] -= delta
		}
	})
	return lb
}

// greedy picks, until every row of p is covered, the column covering the
// most uncovered rows per unit cost, the lowest index among equal scores.
// It keeps each column's count of uncovered rows and lowers it as rows
// get covered, instead of recounting every column's rows each round. The
// columns' row lists, in ascending row order, share one slab, filled
// after a count. The picked columns are valid until s is used again.
func (s *bbSearch) greedy(p *CoveringProblem, cost []int) []int {
	covered := resized(s.covered, len(p.Rows))
	clear(covered)
	remaining := len(p.Rows)
	chosen := s.picked[:0]
	// colStart[c+1] counts column c's rows, then becomes where they go in
	// the slab, then where they end, which is where column c+1's begin.
	colStart := resized(s.colStart, p.NumCols+1)
	clear(colStart)
	for _, row := range p.Rows {
		for _, c := range row {
			colStart[c+1]++
		}
	}
	uncovered := resized(s.uncovered, p.NumCols)
	total := 0
	for c := range uncovered {
		uncovered[c] = colStart[c+1]
		colStart[c+1] = total
		total += uncovered[c]
	}
	slab := resized(s.colSlab, total)
	for ri, row := range p.Rows {
		for _, c := range row {
			slab[colStart[c+1]] = ri
			colStart[c+1]++
		}
	}
	s.covered, s.colStart, s.uncovered, s.colSlab = covered, colStart, uncovered, slab
	for remaining > 0 {
		bestCol, bestScore := -1, -1.0
		for c, cnt := range uncovered {
			if cnt == 0 {
				continue
			}
			score := float64(cnt) / float64(cost[c])
			if score > bestScore {
				bestScore, bestCol = score, c
			}
		}
		if bestCol < 0 {
			s.picked = chosen
			return nil // infeasible
		}
		chosen = append(chosen, bestCol)
		for _, ri := range slab[colStart[bestCol]:colStart[bestCol+1]] {
			if !covered[ri] {
				covered[ri] = true
				remaining--
				for _, c := range p.Rows[ri] {
					uncovered[c]--
				}
			}
		}
	}
	s.picked = chosen
	return chosen
}
