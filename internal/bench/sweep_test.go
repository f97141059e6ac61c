package bench

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// silentRun names one simulation of a generated design: its gen seed,
// optimization level and simulator ("controller" or "gate").
type silentRun struct {
	seed  int64
	level core.Level
	sim   string
}

// knownSilent lists the runs of the gen sweep that end with wrong
// registers and no error or violation, with the delay seeds on which
// they do. Each has a FOUND line in CHANGES.md. The list may only
// shrink: an entry that stops being silent on exactly its delay seeds
// fails TestGenCorpusClosesOrFails until it is updated.
var knownSilent = map[silentRun][]int64{
	{78, core.OptimizedGT, "controller"}:    {0, 1, 2},
	{193, core.OptimizedGT, "controller"}:   {0, 1, 2},
	{13, core.OptimizedGTLT, "controller"}:  {0, 1, 2},
	{193, core.OptimizedGTLT, "controller"}: {0, 1, 2},
	{193, core.OptimizedGTLT, "gate"}:       {0, 1, 2},
	{6, core.OptimizedGTLT, "gate"}:         {0, 1, 2},
	{36, core.OptimizedGTLT, "gate"}:        {0, 1, 2},
	{127, core.OptimizedGTLT, "gate"}:       {0, 1, 2},
	{141, core.OptimizedGTLT, "gate"}:       {0, 1, 2},
	{70, core.OptimizedGTLT, "gate"}:        {1},
}

// TestGenCorpusClosesOrFails sweeps gen seeds 0–199 at GT and GT+LT,
// each at delay seeds 0–2, through the controller-level simulator and
// through gate-level synthesis and the gate-level simulator. Every run
// must close (the registers of gen.Spec.Regs equal gen.Spec.Reference)
// or fail loudly: a pipeline or synthesis error, a simulator error or a
// reported violation. A design the extractor refuses fails loudly. The
// runs that end silently wrong today are knownSilent, exactly.
func TestGenCorpusClosesOrFails(t *testing.T) {
	if testing.Short() {
		t.Skip("gate-level synthesis of 200 generated designs is slow")
	}
	const seeds, delays = 200, 3
	outcomes := make([]sweepOutcome, seeds)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			outcomes[seed] = sweepSeed(t, seed, delays)
		}()
	}
	wg.Wait()

	got := map[silentRun][]int64{}
	var total sweepOutcome
	for _, o := range outcomes {
		for _, run := range o.silent {
			got[run.silentRun] = append(got[run.silentRun], run.delay)
		}
		total.refused += o.refused
		total.closed += o.closed
		total.loud += o.loud
	}
	t.Logf("%d pipeline runs refused, %d simulations closed, %d failed loudly, %d known silent",
		total.refused, total.closed, total.loud, len(knownSilent))
	for run, ds := range got {
		if want, ok := knownSilent[run]; !ok || !slices.Equal(ds, want) {
			t.Errorf("gen %d %s %s: silently wrong registers at delay seeds %v, known %v",
				run.seed, run.level, run.sim, ds, want)
		}
	}
	for run, want := range knownSilent {
		if _, ok := got[run]; !ok {
			t.Errorf("gen %d %s %s: known silent at delay seeds %v, now closes or fails loudly: shrink knownSilent",
				run.seed, run.level, run.sim, want)
		}
	}
}

// delayRun is one silently wrong simulation at one delay seed.
type delayRun struct {
	silentRun
	delay int64
}

// sweepOutcome tallies one seed's sweep: pipeline runs refused with an
// error, simulations that closed or failed loudly, and the silently
// wrong ones in level, simulator and delay-seed order.
type sweepOutcome struct {
	refused, closed, loud int
	silent                []delayRun
}

// sweepSeed runs gen seed at GT and GT+LT through both simulators.
func sweepSeed(t *testing.T, seed, delays int64) sweepOutcome {
	var o sweepOutcome
	spec := gen.New(seed, gen.DefaultConfig())
	want, err := spec.Reference()
	if err != nil {
		t.Errorf("gen %d: reference: %v", seed, err)
		return o
	}
	// judge files one simulation that ran: loud on a violation, silent
	// on wrong registers, closed otherwise.
	judge := func(run silentRun, d int64, regs map[string]float64, violations []string) {
		switch {
		case len(violations) > 0:
			o.loud++
		case slices.ContainsFunc(spec.Regs(), func(r string) bool { return regs[r] != want[r] }):
			o.silent = append(o.silent, delayRun{run, d})
		default:
			o.closed++
		}
	}
	for _, level := range []core.Level{core.OptimizedGT, core.OptimizedGTLT} {
		g, err := spec.Build()
		if err != nil {
			t.Errorf("gen %d: build: %v", seed, err)
			return o
		}
		opt := core.DefaultOptions()
		opt.Level = level
		s, err := core.Run(g, opt)
		if err != nil {
			o.refused++
			continue
		}
		for d := int64(0); d < delays; d++ {
			res, err := s.Simulate(d)
			if err != nil {
				o.loud++
				continue
			}
			judge(silentRun{seed, level, "controller"}, d, res.Regs, res.Violations)
		}
		results, err := s.SynthesizeLogic()
		if err != nil {
			o.loud++
			continue
		}
		for d := int64(0); d < delays; d++ {
			res, err := s.GateSimulate(results, d)
			if err != nil {
				o.loud++
				continue
			}
			judge(silentRun{seed, level, "gate"}, d, res.Regs, res.Violations)
		}
	}
	return o
}
