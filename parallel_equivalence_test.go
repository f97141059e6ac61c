// Equivalence tests for the parallel synthesis engine: the worker-pool
// fan-out (internal/par) must be a pure performance transform, so the
// parallel pipeline, gate-level synthesis and exploration sweep are
// asserted bit-identical to their sequential counterparts on every
// benchmark.
package repro_test

import (
	"reflect"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/diffeq"
	"repro/internal/fir"
	"repro/internal/gcd"
	"repro/internal/search"
)

// benches enumerates the three benchmarks.
var benches = []struct {
	name  string
	build func() *cdfg.Graph
}{
	{"diffeq", func() *cdfg.Graph { return diffeq.Build(diffeq.DefaultParams()) }},
	{"gcd", func() *cdfg.Graph { return gcd.Build(123, 45) }},
	{"fir", func() *cdfg.Graph { return fir.Build(fir.DefaultParams()) }},
}

func runAt(t *testing.T, g *cdfg.Graph, workers int) *core.Synthesis {
	t.Helper()
	opt := core.DefaultOptions()
	opt.Parallelism = workers
	s, err := core.Run(g, opt)
	if err != nil {
		t.Fatalf("core.Run (j=%d): %v", workers, err)
	}
	return s
}

// TestParallelRunEquivalence asserts that core.Run with a worker pool
// produces the same machines, channel plan, state counts and synthesized
// covers as the sequential path.
func TestParallelRunEquivalence(t *testing.T) {
	for _, bench := range benches {
		bench := bench
		t.Run(bench.name, func(t *testing.T) {
			seq := runAt(t, bench.build(), 1)
			for _, j := range []int{0, 2, 4} {
				par := runAt(t, bench.build(), j)
				if got, want := par.Channels(), seq.Channels(); got != want {
					t.Errorf("j=%d: channels = %d, want %d", j, got, want)
				}
				if got, want := par.StateCounts(), seq.StateCounts(); !reflect.DeepEqual(got, want) {
					t.Errorf("j=%d: state counts = %v, want %v", j, got, want)
				}
				if got, want := par.FUs(), seq.FUs(); !reflect.DeepEqual(got, want) {
					t.Fatalf("j=%d: FUs = %v, want %v", j, got, want)
				}
				for _, fu := range seq.FUs() {
					if got, want := par.Machines[fu].String(), seq.Machines[fu].String(); got != want {
						t.Errorf("j=%d: machine %s differs from sequential:\n got: %s\nwant: %s", j, fu, got, want)
					}
				}
				if !reflect.DeepEqual(par.Shared, seq.Shared) {
					t.Errorf("j=%d: shared-wire maps differ: %v vs %v", j, par.Shared, seq.Shared)
				}
			}
			seqLogic, err := seq.SynthesizeLogic()
			if err != nil {
				t.Fatalf("sequential SynthesizeLogic: %v", err)
			}
			par4 := runAt(t, bench.build(), 4)
			parLogic, err := par4.SynthesizeLogic()
			if err != nil {
				t.Fatalf("parallel SynthesizeLogic: %v", err)
			}
			for _, fu := range seq.FUs() {
				sr, pr := seqLogic[fu], parLogic[fu]
				if sr.Products != pr.Products || sr.Literals != pr.Literals {
					t.Errorf("%s: products/literals = %d/%d, want %d/%d",
						fu, pr.Products, pr.Literals, sr.Products, sr.Literals)
				}
				if !reflect.DeepEqual(sr, pr) {
					t.Errorf("%s: parallel synthesis result differs from sequential (covers/encoding)", fu)
				}
			}
		})
	}
}

// TestSweepParallelEquivalence asserts the exploration sweep — a
// zero-wave search over the standard seeds — returns the exact
// Result.Seeds of the sequential run at every worker count, element for
// element.
func TestSweepParallelEquivalence(t *testing.T) {
	for _, bench := range benches {
		bench := bench
		t.Run(bench.name, func(t *testing.T) {
			g := bench.build()
			seeds := func(j int) []search.State {
				res, err := search.Run(g, search.Options{Workers: j, Waves: -1})
				if err != nil {
					t.Fatalf("j=%d: %v", j, err)
				}
				return res.Seeds
			}
			seq := seeds(1)
			for _, j := range []int{0, 1, 4} {
				if par := seeds(j); !reflect.DeepEqual(seq, par) {
					t.Errorf("j=%d: parallel sweep seeds differ from sequential\n got: %+v\nwant: %+v", j, par, seq)
				}
			}
		})
	}
}
