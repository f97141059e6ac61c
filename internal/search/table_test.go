package search

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/diffeq"
	"repro/internal/gen"
)

// sweep scores the standard ablation grid on DIFFEQ as a zero-wave search.
func sweep(t *testing.T) []State {
	t.Helper()
	res, err := Run(diffeq.Build(diffeq.DefaultParams()), Options{Workers: 1, Waves: -1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Seeds
}

func TestSweepDiffeq(t *testing.T) {
	seeds := sweep(t)
	if len(seeds) != len(StandardPlans()) {
		t.Fatalf("seeds = %d", len(seeds))
	}
	table := FormatTable(seeds)
	t.Logf("\n%s", table)
	byName := map[string]Score{}
	for _, st := range seeds {
		if st.Score.RunError != "" {
			t.Fatalf("%s: %s", st.Plan.Name(), st.Score.RunError)
		}
		byName[st.Plan.Name()] = st.Score
	}
	// The ablations tell the paper's story: GT5 drives channel reduction,
	// GT1 drives performance, LT drives controller size.
	if byName["no-GT5"].Channels <= byName["all-GT"].Channels {
		t.Errorf("removing GT5 should cost channels: %d vs %d",
			byName["no-GT5"].Channels, byName["all-GT"].Channels)
	}
	// GT5 deliberately trades concurrency for wires (§3.5: added constraint
	// arcs may delay operations), so performance claims compare the
	// GT5-free points: GT1–GT4 must beat the baseline, and dropping GT1
	// from them must cost performance.
	if byName["no-GT5"].Makespan >= byName["baseline"].Makespan {
		t.Errorf("GT1-GT4 should beat the baseline: %.1f vs %.1f",
			byName["no-GT5"].Makespan, byName["baseline"].Makespan)
	}
	if byName["no-GT1"].Makespan <= byName["no-GT5"].Makespan {
		t.Errorf("removing GT1 should cost performance: %.1f vs %.1f",
			byName["no-GT1"].Makespan, byName["no-GT5"].Makespan)
	}
	if byName["all-GT+LT"].States >= byName["all-GT"].States {
		t.Errorf("LT should shrink controllers: %d vs %d",
			byName["all-GT+LT"].States, byName["all-GT"].States)
	}
	if byName["baseline"].Channels <= byName["all-GT"].Channels {
		t.Error("baseline should have more channels than the optimized flow")
	}
	if !strings.Contains(table, "all-GT+LT") {
		t.Error("table missing variants")
	}
}

func TestBestAndPareto(t *testing.T) {
	seeds := sweep(t)
	best, ok := Best(seeds, func(s Score) float64 { return float64(s.Channels) })
	if !ok {
		t.Fatal("no best")
	}
	if best.Score.Channels > 5 {
		t.Errorf("best channel count = %d, want <= 5", best.Score.Channels)
	}
	pareto := Pareto(seeds)
	if len(pareto) == 0 {
		t.Fatal("empty Pareto front")
	}
	// The fully optimized variants must be on the front.
	names := map[string]bool{}
	for _, st := range pareto {
		names[st.Plan.Name()] = true
	}
	if !names["all-GT"] && !names["all-GT+LT"] {
		t.Errorf("optimized flow missing from Pareto front: %v", names)
	}
}

// TestBestSkipsFailedScores is the regression for the sweep scoring bug:
// a variant whose run or synthesis failed carries zeroed metrics
// (makespan 0, literals 0) that used to sort as a spurious optimum. Failed
// scores of every flavor must lose to any fully scored variant, and a
// sweep with no survivors must report none — while its table still
// prints every row.
func TestBestSkipsFailedScores(t *testing.T) {
	state := func(name string, sc Score) State { return State{Plan: Plan{Tag: name}, Score: sc} }
	good := state("good", Score{Makespan: 120, Literals: 80, Simulated: true})
	failedRun := state("run-err", Score{RunError: "boom"})
	failedSynth := state("synth-err", Score{Simulated: true, SynthError: "boom"})
	unsimulated := state("no-sim", Score{})
	states := []State{failedRun, failedSynth, unsimulated, good}
	for _, metric := range []func(Score) float64{
		func(s Score) float64 { return s.Makespan },
		func(s Score) float64 { return float64(s.Literals) },
	} {
		best, ok := Best(states, metric)
		if !ok {
			t.Fatal("no best found")
		}
		if best.Plan.Name() != "good" {
			t.Errorf("failed variant won: %s", best.Plan.Name())
		}
	}
	failed := []State{failedRun, failedSynth, unsimulated}
	if _, ok := Best(failed, func(s Score) float64 { return s.Makespan }); ok {
		t.Error("Best reported a winner among failed scores")
	}
	if front := Pareto(failed); len(front) != 0 {
		t.Errorf("Pareto front of failed scores = %d states, want none", len(front))
	}
	table := FormatTable(failed)
	for _, want := range []string{"run-err      ERROR: boom", "synth-err", "SYNTH ERROR: boom", "no-sim"} {
		if !strings.Contains(table, want) {
			t.Errorf("table of failed scores lacks %q:\n%s", want, table)
		}
	}
}

// TestSweepTableWhenEverySeedFails: gen seed 1's topology defeats the
// extractor under every seed plan, so Run reports that every plan failed
// — and the sweep table must still print all eight rows as ERROR rows,
// with no winner and an empty Pareto front.
func TestSweepTableWhenEverySeedFails(t *testing.T) {
	g, err := gen.New(1, gen.DefaultConfig()).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{Workers: 1, Waves: -1, Synthesize: true})
	if err == nil || !strings.Contains(err.Error(), "every candidate plan failed") {
		t.Fatalf("Run err = %v, want every plan failed", err)
	}
	table := FormatTable(res.Seeds)
	for _, p := range StandardPlans() {
		if !strings.Contains(table, fmt.Sprintf("%-12s ERROR: ", p.Tag)) {
			t.Errorf("table lacks the ERROR row of %s:\n%s", p.Tag, table)
		}
	}
	if _, ok := Best(res.Seeds, func(s Score) float64 { return s.Makespan }); ok {
		t.Error("Best reported a winner among failed seeds")
	}
	if front := Pareto(res.Seeds); len(front) != 0 {
		t.Errorf("Pareto front of failed seeds = %d states, want none", len(front))
	}
}
