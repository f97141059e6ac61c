package logic

import (
	"sort"

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
	cols := p.greedy(p.unitOr())
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
	greedy := p.greedy(cost)
	s := newBBSearch(p, cost)
	s.seed(greedy, totalCost(greedy, cost))
	s.run()
	best := append([]int(nil), s.best...)
	sort.Ints(best)
	obs.Add("solver/bb/solves", 1)
	obs.Add("solver/bb/steps", s.steps)
	obs.Add("solver/bb/cutoffs", s.cutoffs)
	return best, !s.aborted
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

	best     []int
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

	// Dominance scratch: effective row masks (row ∩ active columns).
	effRows []bitset
	effIdx  []int
}

func newBBSearch(p *CoveringProblem, cost []int) *bbSearch {
	s := &bbSearch{
		nRows:  len(p.Rows),
		nCols:  p.NumCols,
		cost:   cost,
		budget: int64(p.budget()),
		cancel: p.Cancel,
	}
	s.rowCols = make([]bitset, s.nRows)
	s.rowList = make([][]int, s.nRows)
	s.colRows = make([]bitset, s.nCols)
	for c := range s.colRows {
		s.colRows[c] = newBitset(s.nRows)
	}
	for r, row := range p.Rows {
		s.rowCols[r] = newBitset(s.nCols)
		for _, c := range row {
			s.rowCols[r].set(c)
			s.colRows[c].set(r)
		}
		// Ascending unique column list, rebuilt from the bitset so
		// unsorted or duplicated input rows cannot perturb branch order.
		lst := make([]int, 0, len(row))
		s.rowCols[r].forEach(func(c int) { lst = append(lst, c) })
		s.rowList[r] = lst
	}
	s.rc = make([]int, s.nCols)
	s.rcMark = make([]int64, s.nCols)
	s.effRows = make([]bitset, s.nRows)
	for i := range s.effRows {
		s.effRows[i] = newBitset(s.nCols)
	}
	s.effIdx = make([]int, 0, s.nRows)
	return s
}

func (s *bbSearch) seed(cover []int, ub int) {
	s.best = append([]int(nil), cover...)
	s.bestCost = ub
}

func (s *bbSearch) allocRowSet() bitset {
	if n := len(s.freeRowSets); n > 0 {
		b := s.freeRowSets[n-1]
		s.freeRowSets = s.freeRowSets[:n-1]
		return b
	}
	return newBitset(s.nRows)
}

func (s *bbSearch) freeRowSet(b bitset) { s.freeRowSets = append(s.freeRowSets, b) }

func (s *bbSearch) allocColSet() bitset {
	if n := len(s.freeColSets); n > 0 {
		b := s.freeColSets[n-1]
		s.freeColSets = s.freeColSets[:n-1]
		return b
	}
	return newBitset(s.nCols)
}

func (s *bbSearch) freeColSet(b bitset) { s.freeColSets = append(s.freeColSets, b) }

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
		s.best = append(s.best[:0], s.chosen...)
		s.bestCost = acc
		s.chosen = s.chosen[:mark]
		return
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

// columnDominance removes active columns whose effective row coverage is
// contained in a no-more-expensive other column's. Returns whether any
// column was removed. Ties (equal coverage, equal cost) keep the lower
// index, so the reduction is deterministic and never removes both.
func (s *bbSearch) columnDominance(activeRows, activeCols bitset) bool {
	changed := false
	cols := s.effIdx[:0] // reuse scratch; effRows content is not needed here
	activeCols.forEach(func(c int) { cols = append(cols, c) })
	for i := 0; i < len(cols); i++ {
		c := cols[i]
		if !activeCols.has(c) {
			continue
		}
		for j := 0; j < len(cols); j++ {
			if i == j {
				continue
			}
			d := cols[j]
			if !activeCols.has(d) || !activeCols.has(c) {
				continue
			}
			// Does d cover every active row c covers, at cost ≤ cost(c)?
			if s.cost[d] > s.cost[c] {
				continue
			}
			if s.cost[d] == s.cost[c] && d > c && s.colRows[c].intersectionCount(activeRows) == s.colRows[d].intersectionCount(activeRows) {
				// Potential mutual dominance: keep the lower index.
				if covSubset(s.colRows[c], s.colRows[d], activeRows) && covSubset(s.colRows[d], s.colRows[c], activeRows) {
					activeCols.clear(d)
					changed = true
					continue
				}
			}
			if covSubset(s.colRows[c], s.colRows[d], activeRows) {
				activeCols.clear(c)
				changed = true
				break
			}
		}
	}
	s.effIdx = cols[:0]
	return changed
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

func (p *CoveringProblem) greedy(cost []int) []int {
	covered := make([]bool, len(p.Rows))
	remaining := len(p.Rows)
	var chosen []int
	colRows := make([][]int, p.NumCols)
	for ri, row := range p.Rows {
		for _, c := range row {
			colRows[c] = append(colRows[c], ri)
		}
	}
	for remaining > 0 {
		bestCol, bestScore := -1, -1.0
		for c := 0; c < p.NumCols; c++ {
			cnt := 0
			for _, ri := range colRows[c] {
				if !covered[ri] {
					cnt++
				}
			}
			if cnt == 0 {
				continue
			}
			score := float64(cnt) / float64(cost[c])
			if score > bestScore {
				bestScore, bestCol = score, c
			}
		}
		if bestCol < 0 {
			return nil // infeasible
		}
		chosen = append(chosen, bestCol)
		for _, ri := range colRows[bestCol] {
			if !covered[ri] {
				covered[ri] = true
				remaining--
			}
		}
	}
	return chosen
}
