package hfmin

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
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
	bb, err := Minimize(spec)
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
				res, err = Minimize(leg.spec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Products()), "products")
			b.ReportMetric(float64(res.Literals()), "literals")
		})
	}
}

var update = flag.Bool("update", false, "rewrite "+firCoverFixture)

// firCoverFixture is the FIR baseline spec's covering matrix, kept with
// internal/logic's covering fixtures so its solver tests can pin the
// search on it.
const firCoverFixture = "../logic/testdata/fir_baseline_cover.json"

// TestFIRBaselineCoverMatrix requires the covering matrix Covering derives
// from the FIR baseline spec (rows, columns and costs) to equal
// firCoverFixture. Regenerate with -args -update only for an intended
// change of the dhf-primes or the cost weights.
func TestFIRBaselineCoverMatrix(t *testing.T) {
	_, prob, err := Covering(firBaselineSpecFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "{\"comment\": %q,\n \"num_cols\": %d,\n \"rows\": [\n",
		"covering matrix of the FIR baseline spec (internal/hfmin/testdata/fir_baseline_spec.json)", prob.NumCols)
	for i, row := range prob.Rows {
		sep := ","
		if i == len(prob.Rows)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %s%s\n", intList(row), sep)
	}
	fmt.Fprintf(&b, " ],\n \"cost\": %s}\n", intList(prob.Cost))
	if *update {
		if err := os.WriteFile(firCoverFixture, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(firCoverFixture)
	if err != nil {
		t.Fatalf("fixture: %v (run with -args -update to regenerate)", err)
	}
	if b.String() != string(want) {
		t.Errorf("Covering's matrix of the FIR baseline spec differs from %s", firCoverFixture)
	}
}

// intList renders ints as a JSON array on one line.
func intList(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return "[" + strings.Join(parts, ",") + "]"
}
