package logic

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

// randomProblem builds a feasible random covering instance with weighted
// costs in the shape hfmin produces (large product weight + literal count).
func randomProblem(r *rand.Rand, nRows, nCols int) *CoveringProblem {
	p := &CoveringProblem{NumCols: nCols, Cost: make([]int, nCols)}
	for c := 0; c < nCols; c++ {
		p.Cost[c] = 1<<12 + r.Intn(12)
	}
	for i := 0; i < nRows; i++ {
		var row []int
		for c := 0; c < nCols; c++ {
			if r.Intn(4) == 0 {
				row = append(row, c)
			}
		}
		if len(row) == 0 {
			row = []int{r.Intn(nCols)}
		}
		p.Rows = append(p.Rows, row)
	}
	return p
}

func coverCost(p *CoveringProblem, cols []int) int {
	t := 0
	for _, c := range cols {
		if p.Cost != nil {
			t += p.Cost[c]
		} else {
			t++
		}
	}
	return t
}

func assertIsCover(t *testing.T, p *CoveringProblem, cols []int, who string) {
	t.Helper()
	chosen := map[int]bool{}
	for _, c := range cols {
		chosen[c] = true
	}
	for ri, row := range p.Rows {
		hit := false
		for _, c := range row {
			if chosen[c] {
				hit = true
				break
			}
		}
		if !hit {
			t.Fatalf("%s: returned set %v does not cover row %d (%v)", who, cols, ri, row)
		}
	}
}

// referenceCost is the optimal cover cost found by plain depth-first
// search: branch on every column of the first uncovered row, and prune a
// branch once its cost reaches the best cover found. It has no reductions
// and no lower bound, so it shares no logic with the search it checks.
func referenceCost(p *CoveringProblem) int {
	best := int(^uint(0) >> 1)
	chosen := make([]bool, p.NumCols)
	var dfs func(acc int)
	dfs = func(acc int) {
		if acc >= best {
			return
		}
		for _, row := range p.Rows {
			covered := false
			for _, c := range row {
				covered = covered || chosen[c]
			}
			if covered {
				continue
			}
			for _, c := range row {
				chosen[c] = true
				dfs(acc + coverCost(p, []int{c}))
				chosen[c] = false
			}
			return
		}
		best = acc
	}
	dfs(0)
	return best
}

// TestSolverCrossCheck is the covering-solver cross-check corpus: on
// random weighted instances branch-and-bound must prove a cover of the
// reference search's optimal cost, and greedy must never beat it.
func TestSolverCrossCheck(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 120; iter++ {
		p := randomProblem(r, 2+r.Intn(12), 2+r.Intn(20))

		bb, bbExact := p.Solve()
		greedy := p.SolveGreedy()

		if !bbExact {
			t.Fatalf("iter %d: bb inexact", iter)
		}
		assertIsCover(t, p, bb, "bb")
		assertIsCover(t, p, greedy, "greedy")

		bbCost := coverCost(p, bb)
		if want := referenceCost(p); bbCost != want {
			t.Errorf("iter %d: bb cost %d, reference optimum %d", iter, bbCost, want)
		}
		if coverCost(p, greedy) < bbCost {
			t.Errorf("iter %d: greedy cover cheaper than proven optimum", iter)
		}
	}
}

// TestSolverCrossCheckUnitCosts runs the corpus against brute force on
// small unit-cost instances, where optimal size is independently checkable.
func TestSolverCrossCheckUnitCosts(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for iter := 0; iter < 80; iter++ {
		nc := 2 + r.Intn(6)
		p := &CoveringProblem{NumCols: nc}
		for i := 0; i < 1+r.Intn(7); i++ {
			var row []int
			for c := 0; c < nc; c++ {
				if r.Intn(2) == 0 {
					row = append(row, c)
				}
			}
			if len(row) == 0 {
				row = []int{r.Intn(nc)}
			}
			p.Rows = append(p.Rows, row)
		}
		cols, exact := p.Solve()
		if !exact {
			t.Fatalf("iter %d: bb inexact on tiny instance", iter)
		}
		assertIsCover(t, p, cols, "bb")
		if want := bruteForceCover(p); len(cols) != want {
			t.Errorf("iter %d: bb found %d cols, brute force %d", iter, len(cols), want)
		}
	}
}

// TestSolverInfeasible: branch-and-bound and its greedy seed report an
// uncoverable row the same way.
func TestSolverInfeasible(t *testing.T) {
	p := &CoveringProblem{NumCols: 2, Rows: [][]int{{0}, {}}}
	if cols, exact := p.SolveWith(SolverBB); cols != nil || exact {
		t.Errorf("bb on infeasible: cols=%v exact=%v, want nil false", cols, exact)
	}
	if cols := p.SolveGreedy(); cols != nil {
		t.Errorf("greedy on infeasible: cols=%v, want nil", cols)
	}
}

// TestSolverBudget: a tiny step budget aborts the exact search but still
// returns a feasible (greedy-seeded) cover flagged inexact.
func TestSolverBudget(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	p := randomProblem(r, 30, 60)
	p.Budget = 4
	cols, exact := p.Solve()
	if exact {
		t.Error("4-step budget should not complete a 30×60 search")
	}
	assertIsCover(t, p, cols, "bb")
}

// TestSolverCancel: a cancelled problem aborts promptly and reports
// inexact.
func TestSolverCancel(t *testing.T) {
	errStop := errors.New("stop")
	r := rand.New(rand.NewSource(5))
	p := randomProblem(r, 30, 60)
	p.Cancel = func() error { return errStop }
	cols, exact := p.Solve()
	// With an immediately-failing Cancel the search may still finish
	// within the first poll interval; all that is required is that an
	// aborted result is feasible and inexactness is never hidden.
	if exact {
		// The 30×60 instance needs far more than one poll interval.
		t.Log("bb finished before the first cancel poll")
	}
	if cols != nil {
		assertIsCover(t, p, cols, "bb")
	}
}

// TestColumnDominance: a strictly dominated column (same coverage, higher
// cost) is never chosen.
func TestColumnDominance(t *testing.T) {
	p := &CoveringProblem{
		NumCols: 3,
		// Column 0 covers rows {0,1} at cost 5; column 1 covers {0,1} at
		// cost 3; column 2 covers {2}.
		Rows: [][]int{{0, 1}, {0, 1}, {2}},
		Cost: []int{5, 3, 1},
	}
	cols, exact := p.Solve()
	if !exact {
		t.Fatal("inexact")
	}
	want := []int{1, 2}
	if !reflect.DeepEqual(cols, want) {
		t.Errorf("cols = %v, want %v", cols, want)
	}
}

// worstCoverFixture loads the captured GCD worst-case covering matrix.
func worstCoverFixture(tb testing.TB) *CoveringProblem {
	tb.Helper()
	data, err := os.ReadFile("testdata/gcd_worst_cover.json")
	if err != nil {
		tb.Fatalf("fixture: %v (regenerate with scripts/capturecover)", err)
	}
	var f struct {
		NumCols int     `json:"num_cols"`
		Rows    [][]int `json:"rows"`
		Cost    []int   `json:"cost"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		tb.Fatalf("fixture: %v", err)
	}
	return &CoveringProblem{NumCols: f.NumCols, Rows: f.Rows, Cost: f.Cost}
}

// BenchmarkCoveringWorstCase times branch-and-bound and its greedy seed
// on the captured GCD worst covering matrix (44 rows × 133 columns) — the
// instance behind the slowest hfmin output of the three paper benchmarks.
// scripts/verify.sh runs it as a smoke step.
func BenchmarkCoveringWorstCase(b *testing.B) {
	p := worstCoverFixture(b)
	for _, leg := range []struct {
		name  string
		solve func() []int
	}{
		{"bb", func() []int { cols, _ := p.SolveWith(SolverBB); return cols }},
		{"greedy", p.SolveGreedy},
	} {
		b.Run(leg.name, func(b *testing.B) {
			var cols []int
			for i := 0; i < b.N; i++ {
				cols = leg.solve()
			}
			b.ReportMetric(float64(len(cols)), "cover-cols")
			b.ReportMetric(float64(coverCost(p, cols)), "cover-cost")
		})
	}
}

// TestGCDWorstCaseFixture pins branch-and-bound's proven optimum on the
// captured GCD worst covering instance: 10 columns at cost 41104, an
// optimum an independent pseudo-Boolean search also proved.
func TestGCDWorstCaseFixture(t *testing.T) {
	p := worstCoverFixture(t)
	bb, bbExact := p.Solve()
	if !bbExact {
		t.Fatal("bb inexact on the GCD worst instance")
	}
	assertIsCover(t, p, bb, "bb")
	bbCost := coverCost(p, bb)
	if len(bb) != 10 || bbCost != 41104 {
		t.Errorf("bb cover has %d columns at cost %d, want 10 at 41104", len(bb), bbCost)
	}
	if g := coverCost(p, p.SolveGreedy()); g < bbCost {
		t.Errorf("greedy cover cheaper (%d) than proven optimum (%d)", g, bbCost)
	}
}
