package repro_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/stage"
)

var updateCounters = flag.Bool("update", false, "rewrite testdata/work_counters.txt")

// workCounters are the exact structural counts TestWorkCountersPinned
// pins: how much enumeration the minimizer, the covering search and GT5's
// merge search do, independent of wall time; how many specs had to be
// sorted into canonical order; how many hitting-set enumerations stopped
// at logic.MaxExpansions (the exactness arguments of hfmin.Feasible and of
// PrimesContaining's deduplication assume none); how many encoding
// attempts synthesis made and how many strict binary ones hfmin.Feasible
// refuted; and how many minimizations the memo store served and computed.
var workCounters = []string{
	"hfmin/minimizations",
	"logic/hs-candidates",
	"hfmin/shrinks-emitted",
	"hfmin/dhf-primes",
	"solver/bb/steps",
	"solver/bb/cutoffs",
	"gt5/states",
	"gt5/graph-clones",
	"hfmin/spec-sorts",
	"logic/hs-truncated",
	"synth/attempts",
	"synth/refuted",
	"memo/hits",
	"memo/misses",
}

// stageCounters are the stage-cache lookups TestWorkCountersPinned pins
// for a warm re-run and for an edit: hits and misses in all, and per
// stage.
var stageCounters = []string{
	"stage/hits",
	"stage/misses",
	"stage/gt/hits",
	"stage/gt/misses",
	"stage/extract/hits",
	"stage/extract/misses",
	"stage/lt/hits",
	"stage/lt/misses",
	"stage/synth/hits",
	"stage/synth/misses",
}

// countWork runs fn with a fresh metrics registry installed and appends
// one "label counter value" line per named counter to b.
func countWork(t *testing.T, b *strings.Builder, label string, counters []string, fn func() error) {
	t.Helper()
	m := obs.NewMetrics()
	obs.SetMetrics(m)
	err := fn()
	obs.SetMetrics(nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, name := range counters {
		fmt.Fprintf(b, "%s %s %d\n", label, name, m.Counter(name))
	}
}

// countStages runs design through a stage.Engine at -j 1 over a fresh
// in-memory store three times: cold, warm, and after swapDelta on its
// first swappable node. It appends the stage counters of the warm run,
// labelled warm/<design>, and of the edited run, labelled edit/<design>.
func countStages(t *testing.T, b *strings.Builder, design string, g *cdfg.Graph) {
	t.Helper()
	opt := core.DefaultOptions()
	opt.Parallelism = 1
	e := stage.New(nil)
	run := func(g *cdfg.Graph) error {
		_, _, err := e.Run(context.Background(), g, opt)
		return err
	}
	if err := run(g); err != nil {
		t.Fatalf("cold/%s through the stage engine: %v", design, err)
	}
	countWork(t, b, "warm/"+design, stageCounters, func() error { return run(g) })
	nodes := swappable(g)
	if len(nodes) == 0 {
		t.Fatalf("%s has no swappable FU-bound op", design)
	}
	edited, err := codec.ApplyDelta(g, swapDelta(nodes[0]))
	if err != nil {
		t.Fatalf("%s: ApplyDelta: %v", design, err)
	}
	countWork(t, b, "edit/"+design, stageCounters, func() error { return run(edited) })
}

// genSample are perfbench's generated designs: the first three seeds
// from 1 that close at gate level.
var genSample = []int64{2, 5, 7}

// coldSynth runs g through core.Run and SynthesizeLogic at -j 1 over a
// fresh in-memory memo store, as asyncsynth -j 1 synthdoc runs it.
func coldSynth(g *cdfg.Graph) error {
	opt := core.DefaultOptions()
	opt.Parallelism = 1
	store, _ := memo.NewStore("") // in memory: never errors
	opt.Minimizer = memo.OnStore(store)
	s, err := core.Run(g, opt)
	if err != nil {
		return err
	}
	_, err = s.SynthesizeLogic()
	return err
}

// TestWorkCountersPinned pins exact work counts against
// testdata/work_counters.txt: for every registry design a cold -j 1
// synthesis (coldSynth) and the stage-cache lookups of a warm re-run and
// of an edit (countStages), for diffeq and fir the search profile of
// asyncsynth -j 1 search -waves 1 -budget 12, and a cold synthesis of
// each design of perfbench's gen sample, decoded from its JSON encoding
// as the daemon receives it.
// A rewrite that claims to do less work shows it here as counts that
// fall, with no timing noise. A count may fall in a change that
// regenerates the file (-args -update); a rise needs a stated reason.
func TestWorkCountersPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis-backed search is slow")
	}
	prev := obs.Gather()
	defer obs.SetMetrics(prev)

	var got strings.Builder
	for _, b := range bench.All() {
		countWork(t, &got, "cold/"+b.Name, workCounters, func() error { return coldSynth(b.Build()) })
		countStages(t, &got, b.Name, b.Build())
	}
	for _, name := range []string{"diffeq", "fir"} {
		b, ok := bench.Lookup(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		countWork(t, &got, "search/"+name, workCounters, func() error {
			store, _ := memo.NewStore("")
			_, err := search.Run(b.Build(), search.Options{
				Workers:    1,
				Beam:       3,
				Waves:      1,
				Budget:     12,
				MaxBranch:  4,
				Weights:    search.Weights{Time: 1, Area: 1},
				Synthesize: true,
				Minimizer:  memo.OnStore(store),
				Solver:     logic.SolverBB,
			})
			return err
		})
	}
	for _, seed := range genSample {
		body, err := codec.EncodeGraph(gen.Graph(seed))
		if err != nil {
			t.Fatalf("gen-%d: %v", seed, err)
		}
		g, err := codec.DecodeGraph(body)
		if err != nil {
			t.Fatalf("gen-%d: %v", seed, err)
		}
		countWork(t, &got, fmt.Sprintf("cold/gen-%d", seed), workCounters, func() error { return coldSynth(g) })
	}

	golden := filepath.Join("testdata", "work_counters.txt")
	if *updateCounters {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden: %v (run with -args -update to regenerate)", err)
	}
	if got.String() != string(want) {
		t.Errorf("work counters differ from %s:\n got:\n%s\nwant:\n%s", golden, got.String(), want)
	}
}
