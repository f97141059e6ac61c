package logic

import "fmt"

// SolverVersion identifies the observable behaviour of the covering
// solvers (branching order, reductions, tie-breaks, cost weights). It is
// folded into internal/memo's cache key, so bumping it rejects persisted
// minimization results produced by older covering code instead of
// silently replaying them. Bump on ANY change that can alter a returned
// cover, even one of equal cost.
const SolverVersion = "covering-v2"

// Solver selects a covering mode. The numbers are part of persisted memo
// and stage keys, so a mode keeps its number for good.
type Solver int

// Covering modes.
const (
	// SolverBB is the exact branch-and-bound search (bitset matrix,
	// dual-ascent lower bound, dominance reductions); its answers define
	// the canonical cover.
	SolverBB Solver = 0
	// SolverGreedy is the non-exact greedy heuristic (best cost/coverage
	// ratio first), which also seeds SolverBB's incumbent.
	SolverGreedy Solver = 2
)

func (s Solver) String() string {
	switch s {
	case SolverBB:
		return "bb"
	case SolverGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// SolveWith dispatches to the selected mode. Greedy reports exact =
// false (its cover is feasible but unproven); branch-and-bound reports
// whether the search completed within the step budget.
func (p *CoveringProblem) SolveWith(s Solver) (cols []int, exact bool) {
	if s == SolverGreedy {
		return p.SolveGreedy(), false
	}
	return p.Solve()
}
