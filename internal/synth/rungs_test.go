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

// TestStrictRungOutcomes forces each strict rung of the encoding ladder
// on every registry controller and on the controllers of gen seeds 12
// and 19, three times at one worker and at four, and requires every
// outcome, success or the exact error text, to equal the one in
// testdata/strict_rungs.txt, written by an earlier version that
// minimized every function of a strict attempt. The feasibility check
// that now refutes a doomed attempt before any minimization must fail it
// with the same error. The hypercube encoder takes gen seeds 12 and 19
// through rejected codes, and a strict attempt's error names the
// function and cube its codes make uncoverable, so an encoder that
// ranges over a map, and tries codes in a different order from run to
// run, shows here. A strict-binary attempt the check refutes poses no
// spec to the minimizer: every registry controller's strict-binary rung
// fails, and none may pose one.
func TestStrictRungOutcomes(t *testing.T) {
	const runs = 3
	ctrls := registryControllers(t)
	registry := len(ctrls)
	for _, seed := range []int64{12, 19} {
		ctrls = append(ctrls, controllers(t, fmt.Sprintf("gen%d", seed), gen.Graph(seed))...)
	}
	var got strings.Builder
	refuted, refutedRegistry := 0, 0
	for ci, c := range ctrls {
		for rung := 0; rung < 3; rung++ {
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
