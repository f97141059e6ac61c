package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/frontend"
)

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"ar", "diffeq", "ewf", "fir", "gcd"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	for i, b := range All() {
		if b.Name != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, b.Name, want[i])
		}
		if b.Description == "" || len(b.Build().FUs) == 0 {
			t.Errorf("%s: missing description or FUs", b.Name)
		}
		got, ok := Lookup(b.Name)
		if !ok || got != b {
			t.Errorf("Lookup(%s) failed", b.Name)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
}

// Every registered benchmark must build a valid graph whose token-level
// simulation, after the full GT+LT flow, reproduces its golden registers.
func TestBenchmarksFullPipeline(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			g := b.Build()
			if err := g.Validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
			s, err := core.Run(g, core.DefaultOptions())
			if err != nil {
				t.Fatalf("core.Run: %v", err)
			}
			if err := s.Verify(b.Want(), 3); err != nil {
				t.Errorf("verify: %v", err)
			}
		})
	}
}

// The ADL-compiled benchmarks are the acceptance workload for the
// frontend: they must survive every optimization level, not just the
// default flow.
func TestADLBenchmarksAllLevels(t *testing.T) {
	for _, name := range []string{"ewf", "ar"} {
		b, ok := Lookup(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		for _, level := range []core.Level{core.Unoptimized, core.OptimizedGT, core.OptimizedGTLT} {
			name, level := name, level
			t.Run(name+"/"+level.String(), func(t *testing.T) {
				t.Parallel()
				opt := core.DefaultOptions()
				opt.Level = level
				s, err := core.Run(b.Build(), opt)
				if err != nil {
					t.Fatalf("core.Run: %v", err)
				}
				if err := s.Verify(b.Want(), 3); err != nil {
					t.Errorf("verify: %v", err)
				}
			})
		}
	}
}

// The registry's golden registers for ADL entries must agree with the
// frontend's sequential interpreter run directly on the compiled graph.
func TestADLWantMatchesInterpreter(t *testing.T) {
	for _, name := range []string{"ewf", "ar"} {
		b, _ := Lookup(name)
		ref, err := frontend.Interpret(b.Build())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for reg, w := range b.Want() {
			if ref[reg] != w {
				t.Errorf("%s: %s = %v, interpreter says %v", name, reg, w, ref[reg])
			}
		}
	}
}
