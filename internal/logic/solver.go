package logic

import "fmt"

// SolverVersion identifies the observable behaviour of the covering
// solvers (branching order, reductions, tie-breaks, cost weights). It is
// folded into internal/memo's cache key, so bumping it rejects persisted
// minimization results produced by older covering code instead of
// silently replaying them. Bump on ANY change that can alter a returned
// cover, even one of equal cost.
const SolverVersion = "covering-v2"

// Solver names a covering mode. SolverBB is the only one; its number is
// part of persisted memo and stage keys, so it keeps it for good.
type Solver int

// SolverBB is the exact branch-and-bound search (bitset matrix,
// dual-ascent lower bound, dominance reductions); its answers define the
// canonical cover.
const SolverBB Solver = 0

func (s Solver) String() string {
	if s == SolverBB {
		return "bb"
	}
	return fmt.Sprintf("Solver(%d)", int(s))
}

// SolveWith is Solve: branch-and-bound is the one covering mode. It
// reports whether the search completed within the step budget.
func (p *CoveringProblem) SolveWith(Solver) (cols []int, exact bool) {
	return p.Solve()
}
