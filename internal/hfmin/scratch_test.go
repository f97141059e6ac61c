package hfmin_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/hfmin"
)

// outcome is what one minimization returned: its result and its error
// text.
type outcome struct {
	res hfmin.Result
	err string
}

func minimizeOutcome(spec hfmin.Spec) outcome {
	res, err := hfmin.Minimize(spec)
	o := outcome{res: res}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// registrySpecs returns the distinct specs the registry designs pose at
// -j 1, in the order they are first posed, as TestDHFPrimesMatchReference
// records them.
func registrySpecs(t *testing.T) []hfmin.Spec {
	t.Helper()
	seen := map[string]bool{}
	var out []hfmin.Spec
	for _, b := range bench.All() {
		rec := &specRecorder{}
		opt := core.DefaultOptions()
		opt.Parallelism = 1
		opt.Minimizer = rec
		s, err := core.Run(b.Build(), opt)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if _, err := s.SynthesizeLogic(); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, spec := range rec.specs {
			key, err := hfmin.MarshalSpec(spec.Canonical(), "")
			if err != nil {
				t.Fatal(err)
			}
			if !seen[string(key)] {
				seen[string(key)] = true
				out = append(out, spec)
			}
		}
	}
	return out
}

// TestScratchReuse minimizes the registry's distinct specs, seeded
// random specs with overlapping cubes (some of them hazard-infeasible,
// which the registry's minimized specs never are) and both worst-case
// fixtures forward, in reverse, with the fixtures between every tenth
// spec, and from four goroutines at once. Every order must give every
// spec the same Result, reflect.DeepEqual (nil slices included), and the
// same error text. Whatever one minimization leaves behind for the next,
// such as reused working memory, must not show in any result.
func TestScratchReuse(t *testing.T) {
	specs := registrySpecs(t)
	registry := len(specs)
	r := rand.New(rand.NewSource(25))
	for i := 0; i < 100; i++ {
		specs = append(specs, overlappingSpec(r, 3+r.Intn(5), 2+r.Intn(5)))
	}
	var fixtures []hfmin.Spec
	for _, name := range []string{"gcd_worst_spec.json", "fir_baseline_spec.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := hfmin.UnmarshalSpec(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fixtures = append(fixtures, spec)
	}
	all := append(append([]hfmin.Spec(nil), specs...), fixtures...)
	want := make([]outcome, len(all))
	failed := 0
	for i, spec := range all {
		want[i] = minimizeOutcome(spec)
		if want[i].err != "" {
			failed++
		}
	}
	if registry < 400 || failed < 3 {
		t.Fatalf("%d distinct registry specs, %d minimizations failed; want at least 400 and 3", registry, failed)
	}
	t.Logf("%d distinct registry specs, %d random specs and %d fixtures: %d minimizations failed",
		registry, len(specs)-registry, len(fixtures), failed)

	check := func(order string, i int, got outcome) {
		t.Helper()
		if got.err != want[i].err {
			t.Fatalf("%s: input %d: error %q, want %q", order, i, got.err, want[i].err)
		}
		if !reflect.DeepEqual(got.res, want[i].res) {
			t.Fatalf("%s: input %d: result differs from the forward pass's:\n got %+v\nwant %+v", order, i, got.res, want[i].res)
		}
	}
	for i := len(all) - 1; i >= 0; i-- {
		check("reverse", i, minimizeOutcome(all[i]))
	}
	for i := range specs {
		if i%10 == 0 {
			for j := range fixtures {
				check("interleaved", len(specs)+j, minimizeOutcome(fixtures[j]))
			}
		}
		check("interleaved", i, minimizeOutcome(specs[i]))
	}

	const workers = 4
	got := make([][]outcome, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]outcome, len(all))
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine starts at its own offset, so different specs
			// run at once.
			for k := range all {
				i := (k + w*len(all)/workers) % len(all)
				got[w][i] = minimizeOutcome(all[i])
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for i := range all {
			check(fmt.Sprintf("goroutine %d", w), i, got[w][i])
		}
	}
}
