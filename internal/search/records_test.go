package search

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/logic"
	"repro/internal/memo"
)

var update = flag.Bool("update", false, "rewrite the search goldens in testdata")

// recordsProfile is perfbench's search profile: what asyncsynth -j 1
// search <design> -waves 1 -budget 12 runs.
func recordsProfile(min *memo.Cache) Options {
	return Options{
		Workers:    1,
		Beam:       3,
		Waves:      1,
		Budget:     12,
		MaxBranch:  4,
		Weights:    Weights{Time: 1, Area: 1},
		Synthesize: true,
		Minimizer:  min,
		Solver:     logic.SolverBB,
	}
}

// TestSearchRecordsPinned runs the search profile on diffeq and fir, each
// through memo.OnStore over a fresh disk store, and requires the report
// (search.Format) and every record file, by name and by the SHA-256 of
// its bytes, to equal testdata/search_records.txt. The records hold every
// dhf-prime list, cover and Exact flag of the search's minimizations, so
// a change that reorders a dhf-prime or picks another optimum fails here
// even when every same-build oracle stays green. Regenerate with -args
// -update only for an intended change of synthesized logic.
func TestSearchRecordsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis-backed search is slow")
	}
	var got strings.Builder
	for _, name := range []string{"diffeq", "fir"} {
		b, ok := bench.Lookup(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		dir := t.TempDir()
		store, err := memo.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(b.Build(), recordsProfile(memo.OnStore(store)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(files)
		fmt.Fprintf(&got, "== %s\n%s-- %d records\n", name, Format(res), len(files))
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s %x\n", filepath.Base(f), sha256.Sum256(data))
		}
	}
	checkGolden(t, filepath.Join("testdata", "search_records.txt"), got.String())
}

// checkGolden compares text with the golden file, or rewrites the file
// under -update. A mismatch reports the first differing line.
func checkGolden(t *testing.T, golden, text string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
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
