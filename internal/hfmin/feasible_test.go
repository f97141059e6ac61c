package hfmin_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hfmin"
	"repro/internal/logic"
	"repro/internal/synth"
)

// feasibleAgrees checks hfmin.Feasible against Minimize on one spec: nil
// exactly when Minimize succeeds, and otherwise the same error text. It
// reports whether Minimize found the spec hazard-infeasible.
func feasibleAgrees(t *testing.T, name string, spec hfmin.Spec) (infeasible bool) {
	t.Helper()
	_, want := hfmin.Minimize(spec)
	got := hfmin.Feasible(spec)
	switch {
	case (got == nil) != (want == nil):
		t.Fatalf("%s: Feasible = %v, Minimize = %v", name, got, want)
	case got != nil && got.Error() != want.Error():
		t.Fatalf("%s: Feasible error %q, Minimize error %q", name, got, want)
	}
	return errors.Is(want, hfmin.ErrInfeasible)
}

// overlappingSpec draws a consistent spec of up to k transitions over n
// variables whose cubes may overlap. Each start binds a variable with
// probability 3/4 and the end flips one to three bound variables; a
// transition that would make the spec inconsistent is dropped, so many
// dynamic transitions, and their privileged cubes, overlap.
func overlappingSpec(r *rand.Rand, n, k int) hfmin.Spec {
	spec := hfmin.Spec{N: n}
	for tries := 0; len(spec.Transitions) < k && tries < 4*k; tries++ {
		start := logic.FullCube(n)
		var bound []int
		for v := 0; v < n; v++ {
			if r.Intn(4) > 0 {
				start = start.With(v, logic.Val(r.Intn(2)))
				bound = append(bound, v)
			}
		}
		if len(bound) == 0 {
			continue
		}
		end := start
		for c := 1 + r.Intn(3); c > 0; c-- {
			v := bound[r.Intn(len(bound))]
			end = end.With(v, 1-start.Get(v))
		}
		spec.Transitions = append(spec.Transitions, hfmin.Transition{Start: start, End: end, Kind: hfmin.Kind(r.Intn(4))})
		if _, err := hfmin.Analyze(spec); err != nil {
			spec.Transitions = spec.Transitions[:len(spec.Transitions)-1]
		}
	}
	return spec
}

// namedSpec is one spec of a test corpus, with the place it came from
// and the encoding rung that posed it.
type namedSpec struct {
	name string
	rung int
	spec hfmin.Spec
}

// lenientRungSpecs returns every distinct spec the registry designs and
// gen seeds 0–39 pose at the lenient encoding rungs, in the order first
// posed. These rungs minimize every function, infeasible ones included,
// so they also pose every function of the strict one-hot rung and of the
// strict binary rung's narrowest encoding.
func lenientRungSpecs(t *testing.T) []namedSpec {
	t.Helper()
	type design struct {
		name  string
		build func() *cdfg.Graph
	}
	var designs []design
	for _, b := range bench.All() {
		designs = append(designs, design{b.Name, b.Build})
	}
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		designs = append(designs, design{fmt.Sprintf("gen%d", seed), func() *cdfg.Graph { return gen.Graph(seed) }})
	}
	seen := map[string]bool{}
	var out []namedSpec
	for _, d := range designs {
		opt := core.DefaultOptions()
		opt.Parallelism = 1
		s, err := core.Run(d.build(), opt)
		if err != nil {
			continue // a generated design the flow rejects poses nothing
		}
		for _, fu := range s.FUs() {
			for rung := 3; rung < synth.NumRungs(); rung++ {
				// A rung that fails on an inconsistent function still
				// posed the functions before it.
				rec := &specRecorder{}
				_, _ = synth.SynthesizeRung(context.Background(), s.Machines[fu], 1, rec, logic.SolverBB, rung)
				for i, spec := range rec.specs {
					key, err := hfmin.MarshalSpec(spec.Canonical(), "")
					if err != nil {
						t.Fatal(err)
					}
					if seen[string(key)] {
						continue
					}
					seen[string(key)] = true
					out = append(out, namedSpec{fmt.Sprintf("%s/%s %s spec %d", d.name, fu, synth.RungName(rung), i), rung, spec})
				}
			}
		}
	}
	return out
}

// TestFeasibleMatchesMinimize requires hfmin.Feasible to return what
// Minimize returns, nil or the same error text, on two sets of specs:
//   - every spec the lenient encoding rungs pose (lenientRungSpecs);
//   - seeded random specs with overlapping cubes. Only these tell a
//     single growth pass from the fixpoint.
func TestFeasibleMatchesMinimize(t *testing.T) {
	t.Run("pipeline", func(t *testing.T) {
		specs, infeasible := 0, 0
		for _, s := range lenientRungSpecs(t) {
			specs++
			if feasibleAgrees(t, s.name, s.spec) {
				infeasible++
			}
		}
		t.Logf("%d distinct specs, %d of them infeasible", specs, infeasible)
		if specs < 3000 || infeasible < 200 {
			t.Fatalf("%d distinct specs, %d infeasible; want at least 3000 and 200", specs, infeasible)
		}
	})
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(18))
		feasible, infeasible := 0, 0
		for i := 0; i < 50000; i++ {
			if feasibleAgrees(t, fmt.Sprintf("random spec %d", i), overlappingSpec(r, 3+r.Intn(5), 2+r.Intn(5))) {
				infeasible++
			} else {
				feasible++
			}
		}
		t.Logf("random specs: %d feasible, %d infeasible", feasible, infeasible)
		if feasible < 45000 || infeasible < 2500 {
			t.Fatalf("random specs: %d feasible, %d infeasible; want at least 45000 and 2500", feasible, infeasible)
		}
	})
}

// TestDHFPrimesMatchLenientRungs pins the dhf-prime list, in
// logic.Compare order, against the reference (as
// TestDHFPrimesMatchReference does) on every spec the lenient encoding
// rungs pose (lenientRungSpecs). Strict
// attempts that Feasible refutes pose nothing, so the full ladder no
// longer poses a binary-encoded or an infeasible spec on the registry
// designs; these rungs still pose both.
func TestDHFPrimesMatchLenientRungs(t *testing.T) {
	compared, pruned, binary, infeasible := 0, 0, 0, 0
	for _, s := range lenientRungSpecs(t) {
		_, prunes, ok := checkDHFPrimes(t, s.name, s.spec)
		if !ok {
			continue
		}
		compared++
		if prunes {
			pruned++
		}
		if synth.RungName(s.rung) == "binary" {
			binary++
		}
		if errors.Is(hfmin.Feasible(s.spec), hfmin.ErrInfeasible) {
			infeasible++
		}
	}
	t.Logf("%d specs compared: %d pruned, %d binary-encoded, %d infeasible", compared, pruned, binary, infeasible)
	if compared < 3000 || pruned < 2200 || binary < 1000 || infeasible < 200 {
		t.Fatalf("%d specs compared: %d pruned, %d binary-encoded, %d infeasible; want at least 3000, 2200, 1000 and 200",
			compared, pruned, binary, infeasible)
	}
}
