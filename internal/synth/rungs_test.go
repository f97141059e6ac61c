package synth_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/bm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hfmin"
	"repro/internal/logic"
	"repro/internal/synth"
)

var update = flag.Bool("update", false, "rewrite testdata/strict_rungs.txt")

// controller is one controller of a registry design, named design/FU.
type controller struct {
	name string
	m    *bm.Machine
}

// registryControllers runs every registry design through the default
// flow and returns its controllers, designs in registry order and FUs
// sorted.
func registryControllers(t *testing.T) []controller {
	t.Helper()
	var out []controller
	for _, b := range bench.All() {
		out = append(out, controllers(t, b.Name, b.Build())...)
	}
	return out
}

// controllers runs g through the default flow and returns its
// controllers, FUs sorted.
func controllers(t *testing.T, design string, g *cdfg.Graph) []controller {
	t.Helper()
	opt := core.DefaultOptions()
	opt.Parallelism = 1
	s, err := core.Run(g, opt)
	if err != nil {
		t.Fatalf("%s: %v", design, err)
	}
	var out []controller
	for _, fu := range s.FUs() {
		out = append(out, controller{name: design + "/" + fu, m: s.Machines[fu]})
	}
	return out
}

// genControllers returns the controllers of gen seeds lo..hi-1, each
// named gen<seed>/FU, leaving out the designs the flow rejects.
func genControllers(lo, hi int64) []controller {
	var out []controller
	for seed := lo; seed < hi; seed++ {
		opt := core.DefaultOptions()
		opt.Parallelism = 1
		s, err := core.Run(gen.Graph(seed), opt)
		if err != nil {
			continue // a generated design the flow rejects has no controllers
		}
		for _, fu := range s.FUs() {
			out = append(out, controller{name: fmt.Sprintf("gen%d/%s", seed, fu), m: s.Machines[fu]})
		}
	}
	return out
}

// outcome renders a synthesis outcome as one line: the result's shape,
// or the error text.
func outcome(res *synth.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("ok: %d products, %d literals, %d state bits, one-hot %v, feedback %v, %d not hazard-free",
		res.Products, res.Literals, res.StateBits, res.OneHot, res.OutputFeedback, res.NonHazardFree)
}

// specCounter is a synth.Minimizer that counts the specs posed to it.
type specCounter struct {
	mu sync.Mutex
	n  int
}

func (c *specCounter) Minimize(spec hfmin.Spec) (hfmin.Result, error) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	return hfmin.Minimize(spec)
}

// TestStrictRungOutcomes runs every rung of the encoding ladder, and the
// whole ladder, on every registry controller and on the controllers of
// gen seeds 0–39, and requires every outcome, success or the exact error
// text, to equal the one in testdata/strict_rungs.txt. The strict rungs'
// lines were written by an earlier version that minimized every function
// of a strict attempt: the feasibility check that now refutes a doomed
// attempt before any minimization must fail it with the same error. An
// error names the function and cube that the last width tried makes
// uncoverable, so a ladder that left out a width whose error reaches
// the caller shows here too.
//
// The registry controllers and those of gen seeds 12 and 19 run three
// times at one worker and at four, the other gen controllers once at
// each. The hypercube encoder takes gen seeds 12 and 19 through rejected
// codes, so an encoder that ranges over a map, and tries codes in a
// different order from run to run, shows here. A strict-binary attempt
// the check refutes poses no spec to the minimizer: every registry
// controller's strict-binary rung fails, and none may pose one.
func TestStrictRungOutcomes(t *testing.T) {
	ctrls := registryControllers(t)
	registry := len(ctrls)
	ctrls = append(ctrls, genControllers(0, 40)...)
	var got strings.Builder
	refuted, refutedRegistry := 0, 0
	for ci, c := range ctrls {
		runs := 1
		if ci < registry || strings.HasPrefix(c.name, "gen12/") || strings.HasPrefix(c.name, "gen19/") {
			runs = 3
		}
		for rung := -1; rung < synth.NumRungs(); rung++ {
			var first string
			for run := 0; run < runs; run++ {
				for _, workers := range []int{1, 4} {
					posed := &specCounter{}
					res, err := synth.SynthesizeRung(context.Background(), c.m, workers, posed, logic.SolverBB, rung)
					line := outcome(res, err)
					if run == 0 && workers == 1 {
						first = line
					} else if line != first {
						t.Errorf("%s %s: run %d at -j %d differs from run 0 at -j 1:\n got %s\nwant %s", c.name, synth.RungName(rung), run, workers, line, first)
					}
					if rung == 0 && err != nil {
						if posed.n > 0 {
							t.Errorf("%s %s (-j %d): a refuted attempt posed %d specs to the minimizer", c.name, synth.RungName(rung), workers, posed.n)
						} else if run == 0 && workers == 1 {
							refuted++
							if ci < registry {
								refutedRegistry++
							}
						}
					}
				}
			}
			fmt.Fprintf(&got, "%s %s: %s\n", c.name, synth.RungName(rung), first)
		}
	}
	t.Logf("%d controllers (%d registry), %d failed their strict-binary rung without posing a spec", len(ctrls), registry, refuted)
	if registry != 18 || refutedRegistry != registry {
		t.Errorf("%d of %d registry controllers failed their strict-binary rung without posing a spec; want all 18", refutedRegistry, registry)
	}
	golden := filepath.Join("testdata", "strict_rungs.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden: %v (run with -update to regenerate)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d outcome lines, golden %s has %d", len(gotLines), golden, len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("outcome differs from %s:\n got %s\nwant %s", golden, gotLines[i], wantLines[i])
		}
	}
}
