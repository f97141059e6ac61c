package hfmin

import (
	"context"
	"os"
	"testing"

	"repro/internal/logic"
)

// loadSpecFixture loads a minimization spec from testdata.
func loadSpecFixture(tb testing.TB, name string) Spec {
	tb.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		tb.Fatalf("fixture: %v", err)
	}
	spec, err := UnmarshalSpec(data)
	if err != nil {
		tb.Fatalf("fixture: %v", err)
	}
	return spec
}

// worstSpecFixture loads the captured GCD worst-case minimization spec —
// the single slowest output of the three paper benchmarks (regenerate with
// scripts/capturecover -spec-fixture).
func worstSpecFixture(tb testing.TB) Spec {
	return loadSpecFixture(tb, "gcd_worst_spec.json")
}

// firBaselineSpecFixture loads the slowest minimization of the search
// workload, asyncsynth -j 1 search fir -waves 1 -budget 12: the spec FIR
// poses under the "baseline" seed of search.StandardPlans (31 variables,
// 110 transitions, 8,428 dhf-primes). It was captured by running that
// plan's core options (Plan.CoreOptions with one worker and a recording
// synth.Minimizer) through core.Run and SynthesizeLogic, and writing the
// recorded spec whose hfmin.Covering took longest with MarshalSpec.
func firBaselineSpecFixture(tb testing.TB) Spec {
	return loadSpecFixture(tb, "fir_baseline_spec.json")
}

// TestWorstCaseSpecSolvers pins the exact minimization of the GCD worst
// spec: 10 products and 117 literals, an optimum an independent
// pseudo-Boolean search also proved.
func TestWorstCaseSpecSolvers(t *testing.T) {
	spec := worstSpecFixture(t)
	bb, err := MinimizeSolver(context.Background(), spec, logic.SolverBB)
	if err != nil {
		t.Fatal(err)
	}
	if !bb.Exact {
		t.Fatal("bb minimize inexact on the worst spec")
	}
	if bb.Products() != 10 || bb.Literals() != 117 {
		t.Errorf("bb cover %d products/%d literals, want 10/117", bb.Products(), bb.Literals())
	}
}

// TestFIRBaselineSpecCover pins the exact minimization of the search
// workload's worst spec at 26 products and 118 literals over 8,428
// dhf-primes, as read before legal-prime pruning.
func TestFIRBaselineSpecCover(t *testing.T) {
	res, err := Minimize(firBaselineSpecFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("minimize inexact on the FIR baseline spec")
	}
	if len(res.Primes) != 8428 || res.Products() != 26 || res.Literals() != 118 {
		t.Errorf("%d dhf-primes, cover %d products/%d literals, want 8428, 26/118",
			len(res.Primes), res.Products(), res.Literals())
	}
}

// BenchmarkMinimizeWorstCase times the full hazard-free minimization of
// the GCD worst spec and of the search workload's FIR baseline spec — the
// end-to-end numbers behind the EXPERIMENTS.md before/after tables.
func BenchmarkMinimizeWorstCase(b *testing.B) {
	for _, leg := range []struct {
		name string
		spec Spec
	}{
		{"gcd", worstSpecFixture(b)},
		{"fir", firBaselineSpecFixture(b)},
	} {
		b.Run(leg.name, func(b *testing.B) {
			var res Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = MinimizeSolver(context.Background(), leg.spec, logic.SolverBB)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Products()), "products")
			b.ReportMetric(float64(res.Literals()), "literals")
		})
	}
}
