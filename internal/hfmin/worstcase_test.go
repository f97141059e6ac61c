package hfmin

import (
	"context"
	"os"
	"testing"

	"repro/internal/logic"
)

// worstSpecFixture loads the captured GCD worst-case minimization spec —
// the single slowest output of the three paper benchmarks (regenerate with
// scripts/capturecover -spec-fixture).
func worstSpecFixture(tb testing.TB) Spec {
	tb.Helper()
	data, err := os.ReadFile("testdata/gcd_worst_spec.json")
	if err != nil {
		tb.Fatalf("fixture: %v (regenerate with scripts/capturecover)", err)
	}
	spec, err := UnmarshalSpec(data)
	if err != nil {
		tb.Fatalf("fixture: %v", err)
	}
	return spec
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

// BenchmarkMinimizeWorstCase times the full hazard-free minimization of the
// GCD worst spec — the end-to-end number behind the EXPERIMENTS.md
// before/after table.
func BenchmarkMinimizeWorstCase(b *testing.B) {
	spec := worstSpecFixture(b)
	b.Run(logic.SolverBB.String(), func(b *testing.B) {
		var res Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = MinimizeSolver(context.Background(), spec, logic.SolverBB)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Products()), "products")
		b.ReportMetric(float64(res.Literals()), "literals")
	})
}
