package bench

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/cdfg"
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

// sweepLevels are the optimization levels both sweeps run.
var sweepLevels = []core.Level{core.OptimizedGT, core.OptimizedGTLT}

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
	outcomes := make([][]sweepOutcome, seeds)
	sweepParallel(seeds, func(i int) {
		seed := int64(i)
		spec := gen.New(seed, gen.DefaultConfig())
		ref, err := spec.Reference()
		if err != nil {
			t.Errorf("gen %d: reference: %v", seed, err)
			return
		}
		want := map[string]float64{}
		for _, r := range spec.Regs() {
			want[r] = ref[r]
		}
		for _, level := range sweepLevels {
			opt := core.DefaultOptions()
			opt.Level = level
			o, err := sweepDesign(spec.Build, want, opt, delays)
			if err != nil {
				t.Errorf("gen %d: build: %v", seed, err)
				return
			}
			outcomes[seed] = append(outcomes[seed], o)
		}
	})

	got := map[silentRun][]int64{}
	var total sweepOutcome
	for seed, levels := range outcomes {
		for i, o := range levels {
			for _, s := range o.silent {
				run := silentRun{int64(seed), sweepLevels[i], s.sim}
				got[run] = append(got[run], s.delay)
			}
			total.add(o)
		}
	}
	t.Logf("%d pipeline runs refused, %d simulations closed, %d failed loudly, %d known silent",
		total.refused, total.closed, total.loud, len(knownSilent))
	compareSilent(t, got, knownSilent, "knownSilent", func(run silentRun) string {
		return fmt.Sprintf("gen %d %s %s", run.seed, run.level, run.sim)
	})
}

// maskRun names one simulation of a registry design under a GT skip
// mask: the design, the skipped GTs as digits in ascending order ("" for
// none, "25" for GT2 and GT5), the optimization level and the simulator.
type maskRun struct {
	design string
	skip   string
	level  core.Level
	sim    string
}

// knownSilentMasks lists the runs of the skip-mask matrix that end with
// wrong registers and no error or violation, with the delay seeds on
// which they do. Every one skips GT2 and keeps GT5 (the "GT5 without
// GT2" FOUND line in CHANGES.md). The list may only shrink, as
// knownSilent does.
var knownSilentMasks = map[maskRun][]int64{
	{"ar", "12", core.OptimizedGT, "controller"}:         {0, 1, 2},
	{"ar", "12", core.OptimizedGT, "gate"}:               {0, 1, 2},
	{"ar", "12", core.OptimizedGTLT, "controller"}:       {0, 1, 2},
	{"ar", "12", core.OptimizedGTLT, "gate"}:             {0, 1, 2},
	{"ar", "123", core.OptimizedGT, "controller"}:        {0, 1, 2},
	{"ar", "123", core.OptimizedGT, "gate"}:              {0, 1, 2},
	{"ar", "123", core.OptimizedGTLT, "controller"}:      {0, 1, 2},
	{"ar", "123", core.OptimizedGTLT, "gate"}:            {0, 1, 2},
	{"ar", "1234", core.OptimizedGT, "controller"}:       {0, 1, 2},
	{"ar", "1234", core.OptimizedGTLT, "controller"}:     {0, 1, 2},
	{"ar", "124", core.OptimizedGT, "controller"}:        {0, 1, 2},
	{"ar", "124", core.OptimizedGT, "gate"}:              {0, 1, 2},
	{"ar", "124", core.OptimizedGTLT, "controller"}:      {0, 1, 2},
	{"ar", "124", core.OptimizedGTLT, "gate"}:            {0, 1, 2},
	{"diffeq", "12", core.OptimizedGT, "controller"}:     {0, 1, 2},
	{"diffeq", "12", core.OptimizedGT, "gate"}:           {0, 1, 2},
	{"diffeq", "12", core.OptimizedGTLT, "controller"}:   {0, 1, 2},
	{"diffeq", "12", core.OptimizedGTLT, "gate"}:         {0, 1, 2},
	{"diffeq", "123", core.OptimizedGT, "controller"}:    {0, 1, 2},
	{"diffeq", "123", core.OptimizedGTLT, "controller"}:  {0, 1, 2},
	{"diffeq", "1234", core.OptimizedGT, "controller"}:   {0, 1, 2},
	{"diffeq", "1234", core.OptimizedGTLT, "controller"}: {0, 1, 2},
	{"diffeq", "124", core.OptimizedGT, "controller"}:    {0, 1, 2},
	{"diffeq", "124", core.OptimizedGT, "gate"}:          {0, 1, 2},
	{"diffeq", "124", core.OptimizedGTLT, "controller"}:  {0, 1, 2},
	{"diffeq", "124", core.OptimizedGTLT, "gate"}:        {0, 1, 2},
	{"diffeq", "23", core.OptimizedGT, "controller"}:     {0, 1, 2},
	{"diffeq", "23", core.OptimizedGTLT, "controller"}:   {0, 1, 2},
	{"diffeq", "234", core.OptimizedGT, "controller"}:    {0, 1, 2},
	{"diffeq", "234", core.OptimizedGTLT, "controller"}:  {0, 1, 2},
	{"ewf", "12", core.OptimizedGT, "controller"}:        {0, 1, 2},
	{"ewf", "12", core.OptimizedGTLT, "controller"}:      {0, 1, 2},
	{"ewf", "123", core.OptimizedGT, "controller"}:       {0, 1, 2},
	{"ewf", "123", core.OptimizedGT, "gate"}:             {0, 1, 2},
	{"ewf", "123", core.OptimizedGTLT, "controller"}:     {0, 1, 2},
	{"ewf", "123", core.OptimizedGTLT, "gate"}:           {0, 1, 2},
	{"ewf", "1234", core.OptimizedGT, "controller"}:      {0, 1, 2},
	{"ewf", "1234", core.OptimizedGT, "gate"}:            {0, 1, 2},
	{"ewf", "1234", core.OptimizedGTLT, "controller"}:    {0, 1, 2},
	{"ewf", "1234", core.OptimizedGTLT, "gate"}:          {0, 1, 2},
	{"ewf", "124", core.OptimizedGT, "controller"}:       {0, 1, 2},
	{"ewf", "124", core.OptimizedGTLT, "controller"}:     {0, 1, 2},
	{"fir", "123", core.OptimizedGT, "controller"}:       {0, 1, 2},
	{"fir", "123", core.OptimizedGT, "gate"}:             {0, 1, 2},
	{"fir", "123", core.OptimizedGTLT, "controller"}:     {0, 1, 2},
	{"fir", "123", core.OptimizedGTLT, "gate"}:           {0, 1, 2},
	{"fir", "1234", core.OptimizedGT, "controller"}:      {0, 1, 2},
	{"fir", "1234", core.OptimizedGT, "gate"}:            {0, 1, 2},
	{"fir", "1234", core.OptimizedGTLT, "controller"}:    {0, 1, 2},
	{"fir", "1234", core.OptimizedGTLT, "gate"}:          {0, 1, 2},
	{"fir", "2", core.OptimizedGT, "controller"}:         {0, 1, 2},
	{"fir", "2", core.OptimizedGT, "gate"}:               {0, 1, 2},
	{"fir", "2", core.OptimizedGTLT, "controller"}:       {0, 1, 2},
	{"fir", "2", core.OptimizedGTLT, "gate"}:             {0, 1, 2},
	{"fir", "23", core.OptimizedGT, "controller"}:        {0, 1, 2},
	{"fir", "23", core.OptimizedGT, "gate"}:              {0, 1, 2},
	{"fir", "23", core.OptimizedGTLT, "controller"}:      {0, 1, 2},
	{"fir", "23", core.OptimizedGTLT, "gate"}:            {0, 1, 2},
	{"fir", "234", core.OptimizedGT, "controller"}:       {0, 1, 2},
	{"fir", "234", core.OptimizedGT, "gate"}:             {0, 1, 2},
	{"fir", "24", core.OptimizedGT, "controller"}:        {0, 1, 2},
	{"fir", "24", core.OptimizedGT, "gate"}:              {0, 1, 2},
	{"fir", "24", core.OptimizedGTLT, "controller"}:      {0, 1, 2},
	{"fir", "24", core.OptimizedGTLT, "gate"}:            {0, 1, 2},
	{"gcd", "12", core.OptimizedGT, "controller"}:        {0, 1, 2},
	{"gcd", "12", core.OptimizedGT, "gate"}:              {0, 1, 2},
	{"gcd", "12", core.OptimizedGTLT, "controller"}:      {0, 1, 2},
	{"gcd", "12", core.OptimizedGTLT, "gate"}:            {0, 1, 2},
	{"gcd", "123", core.OptimizedGT, "controller"}:       {0, 1, 2},
	{"gcd", "123", core.OptimizedGT, "gate"}:             {0, 1, 2},
	{"gcd", "123", core.OptimizedGTLT, "controller"}:     {0, 1, 2},
	{"gcd", "123", core.OptimizedGTLT, "gate"}:           {0, 1, 2},
	{"gcd", "1234", core.OptimizedGT, "controller"}:      {0, 1, 2},
	{"gcd", "1234", core.OptimizedGT, "gate"}:            {0, 1, 2},
	{"gcd", "1234", core.OptimizedGTLT, "controller"}:    {0, 1, 2},
	{"gcd", "1234", core.OptimizedGTLT, "gate"}:          {0, 1, 2},
	{"gcd", "124", core.OptimizedGT, "controller"}:       {0, 1, 2},
	{"gcd", "124", core.OptimizedGT, "gate"}:             {0, 1, 2},
	{"gcd", "124", core.OptimizedGTLT, "controller"}:     {0, 1, 2},
	{"gcd", "124", core.OptimizedGTLT, "gate"}:           {0, 1, 2},
	{"gcd", "2", core.OptimizedGT, "controller"}:         {0, 1, 2},
	{"gcd", "2", core.OptimizedGT, "gate"}:               {0, 1, 2},
	{"gcd", "2", core.OptimizedGTLT, "controller"}:       {0, 1, 2},
	{"gcd", "2", core.OptimizedGTLT, "gate"}:             {0, 1, 2},
	{"gcd", "23", core.OptimizedGT, "controller"}:        {0, 1, 2},
	{"gcd", "23", core.OptimizedGT, "gate"}:              {0, 1, 2},
	{"gcd", "234", core.OptimizedGT, "controller"}:       {0, 1, 2},
	{"gcd", "234", core.OptimizedGT, "gate"}:             {0, 1, 2},
	{"gcd", "24", core.OptimizedGT, "controller"}:        {0, 1, 2},
	{"gcd", "24", core.OptimizedGT, "gate"}:              {0, 1, 2},
	{"gcd", "24", core.OptimizedGTLT, "controller"}:      {0, 1, 2},
	{"gcd", "24", core.OptimizedGTLT, "gate"}:            {0, 1, 2},
}

// TestRegistrySkipMasksCloseOrFail runs every registry design under all
// 32 combinations of skipped GTs, at GT and GT+LT, each at delay seeds
// 0–2, through the controller-level simulator and through gate-level
// synthesis and the gate-level simulator. As in the gen sweep, every run
// must close (the registers of Benchmark.Want) or fail loudly, and the
// runs that end silently wrong today are knownSilentMasks, exactly.
func TestRegistrySkipMasksCloseOrFail(t *testing.T) {
	if testing.Short() {
		t.Skip("gate-level synthesis of 320 registry configurations is slow")
	}
	const masks, delays = 32, 3
	type config struct {
		b     *Benchmark
		want  map[string]float64
		mask  int    // bit i-1 skips GTi
		skip  string // the mask as maskRun names it
		level core.Level
	}
	var configs []config
	for _, b := range All() {
		want := b.Want()
		for mask := 0; mask < masks; mask++ {
			skip := ""
			for gt := 1; gt <= 5; gt++ {
				if mask&(1<<(gt-1)) != 0 {
					skip += strconv.Itoa(gt)
				}
			}
			for _, level := range sweepLevels {
				configs = append(configs, config{b, want, mask, skip, level})
			}
		}
	}
	outcomes := make([]sweepOutcome, len(configs))
	sweepParallel(len(configs), func(i int) {
		c := configs[i]
		opt := core.DefaultOptions()
		opt.Level = c.level
		tr := &opt.Transform
		for gt, skip := range []*bool{&tr.SkipGT1, &tr.SkipGT2, &tr.SkipGT3, &tr.SkipGT4, &tr.SkipGT5} {
			*skip = c.mask&(1<<gt) != 0
		}
		build := func() (*cdfg.Graph, error) { return c.b.Build(), nil }
		outcomes[i], _ = sweepDesign(build, c.want, opt, delays)
	})

	got := map[maskRun][]int64{}
	var total sweepOutcome
	failing, silentConfigs, silentSims := 0, 0, 0
	for i, o := range outcomes {
		c := configs[i]
		for _, s := range o.silent {
			run := maskRun{c.b.Name, c.skip, c.level, s.sim}
			got[run] = append(got[run], s.delay)
		}
		total.add(o)
		if o.refused > 0 || len(o.silent) > 0 {
			failing++
		}
		if len(o.silent) > 0 {
			silentConfigs++
			silentSims += len(o.silent)
		}
	}
	t.Logf("%d configurations: %d failing, %d refused, %d with silent runs (%d silent simulations); %d simulations closed, %d failed loudly",
		len(configs), failing, total.refused, silentConfigs, silentSims, total.closed, total.loud)
	compareSilent(t, got, knownSilentMasks, "knownSilentMasks", func(run maskRun) string {
		return fmt.Sprintf("%s skip %q %s %s", run.design, run.skip, run.level, run.sim)
	})
}

// compareSilent requires the silent runs a sweep found, each with the
// delay seeds on which it was silent, to equal known, the list named
// list, exactly.
func compareSilent[K comparable](t *testing.T, got, known map[K][]int64, list string, name func(K) string) {
	t.Helper()
	for run, ds := range got {
		if want, ok := known[run]; !ok || !slices.Equal(ds, want) {
			t.Errorf("%s: silently wrong registers at delay seeds %v, known %v", name(run), ds, want)
		}
	}
	for run, want := range known {
		if _, ok := got[run]; !ok {
			t.Errorf("%s: known silent at delay seeds %v, now closes or fails loudly: shrink %s", name(run), want, list)
		}
	}
}

// sweepParallel calls f(0), …, f(n-1) on two workers and waits for them.
func sweepParallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			f(i)
		}()
	}
	wg.Wait()
}

// silentSim is one silently wrong simulation: its simulator and delay
// seed.
type silentSim struct {
	sim   string
	delay int64
}

// sweepOutcome tallies one design's runs under one set of options:
// pipeline runs refused with an error, simulations that closed or failed
// loudly, and the silently wrong ones in simulator and delay-seed order.
type sweepOutcome struct {
	refused, closed, loud int
	silent                []silentSim
}

// add adds o's tallies to s, leaving its silent runs.
func (s *sweepOutcome) add(o sweepOutcome) {
	s.refused += o.refused
	s.closed += o.closed
	s.loud += o.loud
}

// sweepDesign runs the design build makes under opt through the
// controller-level simulator, and through gate-level synthesis and the
// gate-level simulator, at delay seeds 0 to delays-1. Each simulation
// that ran is judged against want, the registers it must end with. It
// returns build's error, if any.
func sweepDesign(build func() (*cdfg.Graph, error), want map[string]float64, opt core.Options, delays int64) (sweepOutcome, error) {
	var o sweepOutcome
	// judge files one simulation that ran: loud on a violation, silent
	// on wrong registers, closed otherwise.
	judge := func(sim string, d int64, regs map[string]float64, violations []string) {
		switch {
		case len(violations) > 0:
			o.loud++
		case wrongRegs(regs, want):
			o.silent = append(o.silent, silentSim{sim, d})
		default:
			o.closed++
		}
	}
	g, err := build()
	if err != nil {
		return o, err
	}
	s, err := core.Run(g, opt)
	if err != nil {
		o.refused++
		return o, nil
	}
	for d := int64(0); d < delays; d++ {
		res, err := s.Simulate(d)
		if err != nil {
			o.loud++
			continue
		}
		judge("controller", d, res.Regs, res.Violations)
	}
	results, err := s.SynthesizeLogic()
	if err != nil {
		o.loud++
		return o, nil
	}
	for d := int64(0); d < delays; d++ {
		res, err := s.GateSimulate(results, d)
		if err != nil {
			o.loud++
			continue
		}
		judge("gate", d, res.Regs, res.Violations)
	}
	return o, nil
}

// wrongRegs reports whether some register of want ends with another
// value in regs.
func wrongRegs(regs, want map[string]float64) bool {
	for r, w := range want {
		if regs[r] != w {
			return true
		}
	}
	return false
}
