// Command capturecover extracts the hazard-free covering workload of a
// benchmark: it runs the full pipeline with an instrumented minimizer,
// rebuilds the unate covering problem of every exact minimization the
// encoding ladder dispatched, times each one's branch-and-bound solve
// (logic.CoveringProblem.Solve), and reports the worst instance. With
// -fixture it writes that instance as a JSON covering matrix (the format
// loaded by internal/logic's worst-case tests and
// BenchmarkCoveringWorstCase).
//
// Usage:
//
//	go run ./scripts/capturecover [-bench gcd] [-fixture out.json]
//	                              [-spec-fixture out.json] [-top N]
//
// Besides the covering matrices, the tool times the complete
// hfmin.Minimize call (analysis + dhf-prime generation + covering) of
// every captured spec and reports the worst one — the "per-output hfmin
// worst case" tracked in EXPERIMENTS.md — and can persist that spec with
// -spec-fixture for BenchmarkCoveringWorstCase.
//
// The tool exists to keep the covering numbers honest: a covering solver
// change re-runs it to measure the per-benchmark worst-output solve time
// (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/diffeq"
	"repro/internal/fir"
	"repro/internal/gcd"
	"repro/internal/hfmin"
	"repro/internal/logic"
)

var (
	benchName = flag.String("bench", "gcd", "benchmark to capture: diffeq, gcd or fir")
	fixture   = flag.String("fixture", "", "write the worst instance as a JSON covering matrix to this file")
	specFix   = flag.String("spec-fixture", "", "write the spec with the slowest full minimization as JSON to this file")
	top       = flag.Int("top", 5, "how many of the slowest instances to report")
	reps      = flag.Int("reps", 3, "timing repetitions per instance (minimum is reported)")
)

// specRecorder captures every spec routed through the synthesis
// pipeline's exact-minimization seam while still solving it.
type specRecorder struct {
	mu    sync.Mutex
	specs []hfmin.Spec
}

func (r *specRecorder) Minimize(spec hfmin.Spec) (hfmin.Result, error) {
	r.mu.Lock()
	r.specs = append(r.specs, spec)
	r.mu.Unlock()
	return hfmin.Minimize(spec)
}

// fixtureFile is the serialized covering matrix; internal/logic's tests
// decode the same shape.
type fixtureFile struct {
	Comment string  `json:"comment"`
	NumCols int     `json:"num_cols"`
	Rows    [][]int `json:"rows"`
	Cost    []int   `json:"cost"`
}

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "capturecover:", err)
		os.Exit(1)
	}
}

func buildBench(name string) (*cdfg.Graph, error) {
	switch name {
	case "diffeq":
		return diffeq.Build(diffeq.DefaultParams()), nil
	case "gcd":
		return gcd.Build(123, 45), nil
	case "fir":
		return fir.Build(fir.DefaultParams()), nil
	}
	return nil, fmt.Errorf("unknown benchmark %q", name)
}

func run() error {
	g, err := buildBench(*benchName)
	if err != nil {
		return err
	}
	rec := &specRecorder{}
	opt := core.DefaultOptions()
	opt.Parallelism = 1
	opt.Minimizer = rec
	s, err := core.Run(g, opt)
	if err != nil {
		return err
	}
	if _, err := s.SynthesizeLogic(); err != nil {
		return err
	}

	// Deduplicate by canonical covering content (the ladder retries specs).
	type inst struct {
		prob *logic.CoveringProblem
		key  string
	}
	seen := map[string]bool{}
	var insts []inst
	for _, spec := range rec.specs {
		_, prob, err := hfmin.Covering(spec)
		if err != nil || prob == nil || len(prob.Rows) == 0 {
			continue // infeasible or trivial: no covering search happened
		}
		key := probKey(prob)
		if seen[key] {
			continue
		}
		seen[key] = true
		insts = append(insts, inst{prob: prob, key: key})
	}
	fmt.Printf("%s: %d minimizations, %d unique covering instances\n",
		*benchName, len(rec.specs), len(insts))

	// Time the complete per-output minimization (analysis, dhf-prime
	// generation, covering) — the number EXPERIMENTS.md tracks.
	worstSpec, worstSpecTime, totalMinimize := -1, time.Duration(0), time.Duration(0)
	for i, spec := range rec.specs {
		best := time.Duration(-1)
		for r := 0; r < *reps; r++ {
			start := time.Now()
			if _, err := hfmin.Minimize(spec); err != nil && !errors.Is(err, hfmin.ErrInfeasible) {
				return err
			}
			if d := time.Since(start); best < 0 || d < best {
				best = d
			}
		}
		totalMinimize += best
		if best > worstSpecTime {
			worstSpec, worstSpecTime = i, best
		}
	}
	fmt.Printf("worst single hfmin.Minimize: %v (spec #%d); total across %d specs: %v\n",
		worstSpecTime, worstSpec, len(rec.specs), totalMinimize)
	if *specFix != "" && worstSpec >= 0 {
		data, err := hfmin.MarshalSpec(rec.specs[worstSpec],
			fmt.Sprintf("spec with the slowest exact minimization of the %s benchmark (captured by scripts/capturecover)", *benchName))
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(*specFix), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(*specFix, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("spec fixture written to %s\n", *specFix)
	}

	type timed struct {
		idx   int
		rows  int
		cols  int
		time  time.Duration
		exact bool
		cost  int
	}
	results := make([]timed, 0, len(insts))
	for i, in := range insts {
		tr := timed{idx: i, rows: len(in.prob.Rows), cols: in.prob.NumCols, time: -1}
		var cols []int
		for r := 0; r < *reps; r++ {
			start := time.Now()
			cols, tr.exact = in.prob.Solve()
			if d := time.Since(start); tr.time < 0 || d < tr.time {
				tr.time = d
			}
		}
		if cols != nil {
			tr.cost = coverCost(in.prob, cols)
		}
		results = append(results, tr)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].time > results[j].time })

	n := *top
	if n > len(results) {
		n = len(results)
	}
	fmt.Printf("slowest %d instances by covering time:\n", n)
	for _, tr := range results[:n] {
		fmt.Printf("  #%-3d %3d rows × %4d cols  cost %5d  %v(exact=%v)\n",
			tr.idx, tr.rows, tr.cols, tr.cost, tr.time, tr.exact)
	}
	if len(results) > 0 {
		var total time.Duration
		for _, tr := range results {
			total += tr.time
		}
		fmt.Printf("total covering time across %d instances: %v\n", len(results), total)
	}

	if *fixture != "" && len(results) > 0 {
		worst := insts[results[0].idx].prob
		f := fixtureFile{
			Comment: fmt.Sprintf("worst covering instance of the %s benchmark (captured by scripts/capturecover)", *benchName),
			NumCols: worst.NumCols,
			Rows:    worst.Rows,
			Cost:    worst.Cost,
		}
		data, err := json.MarshalIndent(f, "", " ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(*fixture), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(*fixture, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("fixture written to %s\n", *fixture)
	}
	return nil
}

// probKey is a cheap content key for deduplicating covering instances.
func probKey(p *logic.CoveringProblem) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d;", p.NumCols)
	for _, r := range p.Rows {
		fmt.Fprintf(&b, "%v", r)
	}
	fmt.Fprintf(&b, ";%v", p.Cost)
	return b.String()
}

func coverCost(p *logic.CoveringProblem, cols []int) int {
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
