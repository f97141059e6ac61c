// Package bench is the stock benchmark registry: one place naming every
// design the tools can run by name — the three hand-built classics
// (DIFFEQ, GCD, FIR) and the two ADL-compiled HLS companions (EWF, AR) —
// so the CLI, the exploration sweep, the benchmark harness and the server
// smoke tests all pick up new benchmarks from a single table.
//
// The ADL entries are compiled on first use from the canonical sources
// embedded in the examples package (examples/ewf.adl, examples/ar.adl);
// their reference register files come from the frontend's sequential
// interpreter, so the registry never hand-duplicates a golden model.
package bench

import (
	"fmt"
	"sort"
	"sync"

	"repro/examples"
	"repro/internal/cdfg"
	"repro/internal/diffeq"
	"repro/internal/fir"
	"repro/internal/frontend"
	"repro/internal/gcd"
)

// Benchmark is one registered design.
type Benchmark struct {
	// Name is the registry key used on CLI command lines.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Build constructs a fresh CDFG (callers own and may mutate it).
	Build func() *cdfg.Graph
	// Want maps register names to the values simulation must reproduce.
	Want func() map[string]float64
	// Source is the embedded .adl path for frontend-compiled entries
	// ("" for the hand-built Go benchmarks).
	Source string
}

var (
	mu       sync.Mutex
	registry map[string]*Benchmark
)

// table builds the registry once. ADL compilation failures panic: the
// embedded sources are covered by tests, so a failure here is a build
// break, not a runtime condition.
func table() map[string]*Benchmark {
	mu.Lock()
	defer mu.Unlock()
	if registry != nil {
		return registry
	}
	registry = map[string]*Benchmark{}
	add := func(b *Benchmark) { registry[b.Name] = b }

	add(&Benchmark{
		Name:        "diffeq",
		Description: "differential equation solver (the paper's case study, HAL benchmark)",
		Build:       func() *cdfg.Graph { return diffeq.Build(diffeq.DefaultParams()) },
		Want: func() map[string]float64 {
			ref := diffeq.Reference(diffeq.DefaultParams())
			return map[string]float64{"X": ref["X"], "Y": ref["Y"], "U": ref["U"]}
		},
	})
	add(&Benchmark{
		Name:        "gcd",
		Description: "greatest common divisor by repeated subtraction (IF blocks)",
		Build:       func() *cdfg.Graph { return gcd.Build(123, 45) },
		Want: func() map[string]float64 {
			return map[string]float64{"a": gcd.Reference(123, 45)}
		},
	})
	add(&Benchmark{
		Name:        "fir",
		Description: "3-tap FIR filter over a ramp input (assignment-heavy)",
		Build:       func() *cdfg.Graph { return fir.Build(fir.DefaultParams()) },
		Want: func() map[string]float64 {
			ref := fir.Reference(fir.DefaultParams())
			return map[string]float64{"s": ref["s"], "i": ref["i"]}
		},
	})
	add(adlBenchmark("ewf", "elliptic wave filter kernel (lattice wave-digital form, ADL source)",
		"ewf.adl", []string{"acc", "s1", "s2", "x", "i"}))
	add(adlBenchmark("ar", "AR lattice filter, second-order synthesis form (ADL source)",
		"ar.adl", []string{"acc", "b0", "b1", "x", "i"}))
	return registry
}

// adlBenchmark builds a registry entry compiled from an embedded .adl
// source; wantRegs names the registers verified against the sequential
// interpreter.
func adlBenchmark(name, desc, source string, wantRegs []string) *Benchmark {
	build := func() *cdfg.Graph {
		src, err := examples.ADL.ReadFile(source)
		if err != nil {
			panic(fmt.Sprintf("bench: embedded source %s: %v", source, err))
		}
		g, err := frontend.Compile("examples/"+source, src)
		if err != nil {
			panic(fmt.Sprintf("bench: compiling %s: %v", source, err))
		}
		return g
	}
	return &Benchmark{
		Name:        name,
		Description: desc,
		Build:       build,
		Source:      "examples/" + source,
		Want: func() map[string]float64 {
			ref, err := frontend.Interpret(build())
			if err != nil {
				panic(fmt.Sprintf("bench: reference for %s: %v", source, err))
			}
			out := map[string]float64{}
			for _, r := range wantRegs {
				out[r] = ref[r]
			}
			return out
		},
	}
}

// Lookup returns the benchmark registered under name.
func Lookup(name string) (*Benchmark, bool) {
	b, ok := table()[name]
	return b, ok
}

// Names returns every registered benchmark name, sorted.
func Names() []string {
	t := table()
	out := make([]string, 0, len(t))
	for n := range t {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns every registered benchmark in Names order.
func All() []*Benchmark {
	t := table()
	out := make([]*Benchmark, 0, len(t))
	for _, n := range Names() {
		out = append(out, t[n])
	}
	return out
}
