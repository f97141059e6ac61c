package logic

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/solve_pinned.txt")

// loadCoverFixture loads a covering matrix from testdata.
func loadCoverFixture(tb testing.TB, name string) *CoveringProblem {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatalf("fixture: %v", err)
	}
	var f struct {
		NumCols int     `json:"num_cols"`
		Rows    [][]int `json:"rows"`
		Cost    []int   `json:"cost"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		tb.Fatalf("fixture %s: %v", name, err)
	}
	return &CoveringProblem{NumCols: f.NumCols, Rows: f.Rows, Cost: f.Cost}
}

// pinnedProblem builds one problem of TestSolvePinned's seeded corpus. Its
// shape varies with r: unit, small-range or hfmin-style costs (so many
// columns cost the same), columns that cover no row, columns with a
// duplicate's coverage, and sizes beyond one bitset word and beyond the
// 128 active columns below which column dominance runs off the root.
func pinnedProblem(r *rand.Rand) *CoveringProblem {
	var nRows, nCols, budget int
	if r.Intn(10) == 0 {
		// A large problem's exact search can take millions of steps; a
		// budget keeps the test short and still pins the tree's prefix.
		nRows, nCols, budget = 65+r.Intn(80), 129+r.Intn(150), 200+r.Intn(800)
	} else {
		nRows, nCols = 1+r.Intn(30), 1+r.Intn(50)
	}
	p := &CoveringProblem{NumCols: nCols, Budget: budget}
	switch r.Intn(3) {
	case 1:
		p.Cost = make([]int, nCols)
		for c := range p.Cost {
			p.Cost[c] = 1 + r.Intn(3)
		}
	case 2:
		p.Cost = make([]int, nCols)
		for c := range p.Cost {
			p.Cost[c] = 1<<12 + r.Intn(6)
		}
	}
	// Each column covers rows at its own density; some cover none, and
	// some copy an earlier column's rows.
	colRows := make([][]int, nCols)
	for c := range colRows {
		switch k := r.Intn(10); {
		case k == 0:
			// covers no row
		case k == 1 && c > 0:
			colRows[c] = colRows[r.Intn(c)]
		default:
			density := 2 + r.Intn(8)
			for row := 0; row < nRows; row++ {
				if r.Intn(density) == 0 {
					colRows[c] = append(colRows[c], row)
				}
			}
		}
	}
	p.Rows = make([][]int, nRows)
	for c, rows := range colRows {
		for _, row := range rows {
			p.Rows[row] = append(p.Rows[row], c)
		}
	}
	for i, row := range p.Rows {
		if len(row) == 0 {
			p.Rows[i] = []int{r.Intn(nCols)}
		}
	}
	if budget == 0 && r.Intn(8) == 0 {
		p.Budget = 1 + r.Intn(60) // pins where the search stops
	}
	return p
}

// TestSolvePinned pins, for each problem of a seeded random corpus and
// for the GCD worst and FIR baseline matrices, what Solve returns and the
// tree it walks to get there: one line of the sorted columns, the exact
// flag and the solver/bb/steps and solver/bb/cutoffs deltas, against
// testdata/solve_pinned.txt. TestSolverCrossCheck compares only costs;
// this test fixes which optimum is chosen, and where a budget stops the
// search. Regenerate with -args -update only for an intended change of
// the covering search.
func TestSolvePinned(t *testing.T) {
	prev := obs.Gather()
	m := obs.NewMetrics()
	obs.SetMetrics(m)
	defer obs.SetMetrics(prev)

	type named struct {
		name string
		p    *CoveringProblem
	}
	var corpus []named
	r := rand.New(rand.NewSource(2201))
	for i := 0; i < 400; i++ {
		corpus = append(corpus, named{fmt.Sprintf("random-%03d", i), pinnedProblem(r)})
	}
	corpus = append(corpus,
		named{"gcd_worst_cover", loadCoverFixture(t, "gcd_worst_cover.json")},
		named{"fir_baseline_cover", loadCoverFixture(t, "fir_baseline_cover.json")})

	var got strings.Builder
	greedyBeaten, budgeted, dupCols, emptyCols := 0, 0, 0, 0
	for _, pr := range corpus {
		steps0, cutoffs0 := m.Counter("solver/bb/steps"), m.Counter("solver/bb/cutoffs")
		cols, exact := pr.p.Solve()
		steps, cutoffs := m.Counter("solver/bb/steps")-steps0, m.Counter("solver/bb/cutoffs")-cutoffs0
		fmt.Fprintf(&got, "%s %v exact=%v steps=%d cutoffs=%d\n", pr.name, cols, exact, steps, cutoffs)
		if cols != nil {
			assertIsCover(t, pr.p, cols, pr.name)
			if exact && coverCost(pr.p, pr.p.SolveGreedy()) > coverCost(pr.p, cols) {
				greedyBeaten++
			}
		}
		if pr.p.Budget > 0 {
			budgeted++
		}
		d, e := columnShapes(pr.p)
		dupCols += d
		emptyCols += e
	}
	// The corpus must keep exercising what the pin is for.
	if greedyBeaten < 20 || budgeted < 40 || dupCols < 100 || emptyCols < 100 {
		t.Errorf("corpus too tame: greedy beaten on %d problems, %d budgeted, %d duplicate and %d empty columns",
			greedyBeaten, budgeted, dupCols, emptyCols)
	}
	checkGolden(t, filepath.Join("testdata", "solve_pinned.txt"), got.String())
}

// columnShapes counts p's columns that repeat an earlier column's rows
// and those that cover no row.
func columnShapes(p *CoveringProblem) (dup, empty int) {
	colRows := make([]string, p.NumCols)
	for ri, row := range p.Rows {
		for _, c := range row {
			colRows[c] += fmt.Sprintf("%d,", ri)
		}
	}
	seen := map[string]bool{}
	for _, s := range colRows {
		switch {
		case s == "":
			empty++
		case seen[s]:
			dup++
		}
		seen[s] = true
	}
	return dup, empty
}

// checkGolden compares text with the golden file, or rewrites the file
// under -update. A mismatch reports the first differing line.
func checkGolden(t *testing.T, golden, text string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden: %v (run with -args -update to regenerate)", err)
	}
	if text == string(want) {
		return
	}
	g, w := strings.Split(text, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s differs at line %d:\n got %q\nwant %q", golden, i+1, gl, wl)
		}
	}
}
