package search

import (
	"math"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/local"
	"repro/internal/memo"
)

// TestSearchDeterminism checks the wave expansion's concurrency contract:
// the chosen plan and its cost are bit-identical at every worker count.
func TestSearchDeterminism(t *testing.T) {
	for _, name := range []string{"diffeq", "gcd", "ewf"} {
		b, ok := bench.Lookup(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		g := b.Build()
		opt := Options{Waves: 2, Beam: 3, Budget: 32}
		var keys []string
		var costs []float64
		for _, workers := range []int{1, 4} {
			opt.Workers = workers
			r, err := Run(g, opt)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			keys = append(keys, r.Best.Plan.Key())
			costs = append(costs, r.Best.Score.Cost)
		}
		if keys[0] != keys[1] {
			t.Errorf("%s: best plan differs across worker counts: %q vs %q", name, keys[0], keys[1])
		}
		if costs[0] != costs[1] {
			t.Errorf("%s: best cost differs across worker counts: %v vs %v", name, costs[0], costs[1])
		}
	}
}

// TestSearchSynthDeterminism repeats the contract with gate-level scoring
// on: per-run memo caches at different hit states must not change the
// chosen plan.
func TestSearchSynthDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis-backed search is slow")
	}
	b, _ := bench.Lookup("diffeq")
	g := b.Build()
	var keys []string
	var costs []float64
	for _, workers := range []int{1, 4} {
		min, err := memo.New("")
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(g, Options{Workers: workers, Waves: 1, Beam: 2, Budget: 16, Synthesize: true, Minimizer: min})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		keys = append(keys, r.Best.Plan.Key())
		costs = append(costs, r.Best.Score.Cost)
	}
	if keys[0] != keys[1] || costs[0] != costs[1] {
		t.Errorf("synth search differs across worker counts: %q/%v vs %q/%v", keys[0], costs[0], keys[1], costs[1])
	}
}

// TestSearchNeverWorseThanSeeds is the acceptance property: because the
// fixed ablation grid seeds the frontier, the search result can never
// score worse than the best exploration-sweep variant. Checked with full
// gate-level scoring on every registry benchmark.
func TestSearchNeverWorseThanSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis-backed search is slow")
	}
	min, err := memo.New("")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bench.All() {
		r, err := Run(b.Build(), Options{Waves: 1, Beam: 2, Budget: 16, Synthesize: true, Minimizer: min})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		seedBest := math.Inf(1)
		for _, st := range r.Seeds {
			if st.Score.Cost < seedBest {
				seedBest = st.Score.Cost
			}
		}
		if r.Best.Score.Cost > seedBest {
			t.Errorf("%s: search cost %v worse than best ablation %v", b.Name, r.Best.Score.Cost, seedBest)
		}
	}
}

// TestSearchGenCorpus runs the property over random designs: the search
// completes and never scores worse than its best seed. Seeds whose
// topology the extractor does not support are skipped, matching the
// repo's other fuzz harnesses.
func TestSearchGenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus search is slow")
	}
	used := 0
	for seed := int64(1); seed <= 40 && used < 8; seed++ {
		spec := gen.New(seed, gen.DefaultConfig())
		g, err := spec.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		probe, _ := Run(g, Options{Workers: 1, Waves: -1, Seeds: []Plan{DefaultPlan()}})
		if e := probe.Seeds[0].Score.RunError; strings.Contains(e, "unsupported topology") || strings.Contains(e, "primer events") {
			continue
		}
		used++
		r, err := Run(g, Options{Waves: 2, Beam: 2, Budget: 24})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		seedBest := math.Inf(1)
		for _, st := range r.Seeds {
			if st.Score.Cost < seedBest {
				seedBest = st.Score.Cost
			}
		}
		if r.Best.Score.Cost > seedBest {
			t.Errorf("seed %d: search cost %v worse than best seed %v", seed, r.Best.Score.Cost, seedBest)
		}
	}
}

// TestPlanKeyNormalization checks that default-valued per-controller
// entries never distinguish plans: the search's visited set must treat
// "full pipeline via explicit entry" and "full pipeline via missing entry"
// as one state.
func TestPlanKeyNormalization(t *testing.T) {
	p := DefaultPlan()
	q := p.withLT("FU1", local.FullConfig())
	if p.Key() != q.Key() {
		t.Errorf("explicit full LT config changed the key: %q vs %q", p.Key(), q.Key())
	}
	q = p.withRung("FU1", -1)
	if p.Key() != q.Key() {
		t.Errorf("auto rung entry changed the key: %q vs %q", p.Key(), q.Key())
	}
	q = p.withLT("FU1", local.Config{LT1: true})
	if p.Key() == q.Key() {
		t.Error("distinct LT configs share a key")
	}
	r := p.withRung("FU1", 2)
	if r.Key() == p.Key() || r.Key() == q.Key() {
		t.Error("pinned rung did not distinguish the key")
	}
	if p.Name() != "all-GT+LT" {
		t.Errorf("tag lost: %q", p.Name())
	}
	if q.Tag != "" && q.Key() == p.Key() {
		t.Error("derived plan must differ or drop tag")
	}
}
