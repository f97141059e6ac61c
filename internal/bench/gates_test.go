package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/timing"
)

// TestGateClosureRegistry runs the deepest verification level — the
// minimized two-level covers with state feedback driving the behavioural
// datapath — over every registered benchmark under several randomized
// delay assignments, and checks the golden registers. FIR and AR are the
// regression anchors: both used to mismatch at this level (a dropped
// return-to-zero wait let a re-raised request see the previous handshake's
// stale acknowledgment, and terminal states had no hold requirement in
// the minimization spec).
func TestGateClosureRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("gate-level closure is slow")
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			s, err := core.Run(b.Build(), core.DefaultOptions())
			if err != nil {
				t.Fatalf("core.Run: %v", err)
			}
			results, err := s.SynthesizeLogic()
			if err != nil {
				t.Fatalf("SynthesizeLogic: %v", err)
			}
			want := b.Want()
			for seed := int64(0); seed < 5; seed++ {
				res, err := s.GateSimulate(results, seed)
				if err != nil {
					t.Fatalf("seed %d: GateSimulate: %v", seed, err)
				}
				if len(res.Violations) > 0 {
					t.Fatalf("seed %d: violations: %v", seed, res.Violations)
				}
				for reg, w := range want {
					if res.Regs[reg] != w {
						t.Errorf("seed %d: %s = %v, want %v", seed, reg, res.Regs[reg], w)
					}
				}
			}
		})
	}
}

var update = flag.Bool("update", false, "rewrite testdata/sim_traces.txt")

// TestSimulatorTraces pins the output of all three simulators, byte for
// byte, against testdata/sim_traces.txt: one line per run, naming the
// design, level, simulator and delay seed, then the events (firings for
// the token simulator), the finish time at full precision, the sorted
// registers, and the violation count with the first violation, or the
// run's error. It covers every registry design at the unoptimized, GT
// and GT+LT levels at delay seeds 0–2, and gen seeds 1–40 at GT+LT at
// delay seed 0 (the seed a gate-level check of a generated design uses),
// pipeline errors included. The file records outcomes as they are,
// wrong registers included: a change to a simulator that is meant to
// keep its behaviour must leave every line alone. Regenerate with
// -args -update only for an intended change of simulated behaviour.
func TestSimulatorTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("gate-level simulation of every design is slow")
	}
	type run struct {
		name  string
		build func() (*cdfg.Graph, error)
		level core.Level
		seeds int64
	}
	var runs []run
	for _, b := range All() {
		b := b
		for _, level := range []core.Level{core.Unoptimized, core.OptimizedGT, core.OptimizedGTLT} {
			runs = append(runs, run{b.Name, func() (*cdfg.Graph, error) { return b.Build(), nil }, level, 3})
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		spec := gen.New(seed, gen.DefaultConfig())
		runs = append(runs, run{fmt.Sprintf("gen-%d", seed), spec.Build, core.OptimizedGTLT, 1})
	}
	lines := make([]string, len(runs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i, r := range runs {
		i, r := i, r
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			lines[i] = simulatorTraces(r.name, r.build, r.level, r.seeds)
		}()
	}
	wg.Wait()
	got := strings.Join(lines, "")
	golden := filepath.Join("testdata", "sim_traces.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden: %v (run with -args -update to regenerate)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d trace lines, golden %s has %d", len(gotLines), golden, len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("trace differs from %s:\n got %s\nwant %s", golden, gotLines[i], wantLines[i])
		}
	}
}

// simulatorTraces runs one design at one level through the token,
// controller-level and gate-level simulators at delay seeds 0..seeds-1
// and renders one line per run.
func simulatorTraces(name string, build func() (*cdfg.Graph, error), level core.Level, seeds int64) string {
	var b strings.Builder
	prefix := fmt.Sprintf("%s %s", name, level)
	g, err := build()
	if err != nil {
		fmt.Fprintf(&b, "%s: build error: %v\n", prefix, err)
		return b.String()
	}
	opt := core.DefaultOptions()
	opt.Level = level
	s, err := core.Run(g, opt)
	if err != nil {
		fmt.Fprintf(&b, "%s: pipeline error: %v\n", prefix, err)
		return b.String()
	}
	for seed := int64(0); seed < seeds; seed++ {
		res, err := sim.NewTokenSim(s.Graph, sim.FromModel(timing.DefaultModel(), seed)).Run()
		if err != nil {
			fmt.Fprintf(&b, "%s token %d: error: %v\n", prefix, seed, err)
			continue
		}
		var first string
		if len(res.Violations) > 0 {
			first = fmt.Sprintf("t=%v %s", res.Violations[0].Time, res.Violations[0].Msg)
		}
		fmt.Fprintf(&b, "%s token %d: %d firings, finish %v, %s, %s\n", prefix, seed,
			res.Firings, res.FinishTime, traceRegs(res.Regs), traceViolations(len(res.Violations), first))
	}
	for seed := int64(0); seed < seeds; seed++ {
		res, err := s.Simulate(seed)
		if err != nil {
			fmt.Fprintf(&b, "%s controller %d: error: %v\n", prefix, seed, err)
			continue
		}
		fmt.Fprintf(&b, "%s controller %d: %d events, finish %v, %s, %s\n", prefix, seed,
			res.Events, res.FinishTime, traceRegs(res.Regs), traceViolations(len(res.Violations), firstOf(res.Violations)))
	}
	results, err := s.SynthesizeLogic()
	if err != nil {
		fmt.Fprintf(&b, "%s gate: synthesis error: %v\n", prefix, err)
		return b.String()
	}
	for seed := int64(0); seed < seeds; seed++ {
		res, err := s.GateSimulate(results, seed)
		if err != nil {
			fmt.Fprintf(&b, "%s gate %d: error: %v\n", prefix, seed, err)
			continue
		}
		fmt.Fprintf(&b, "%s gate %d: %d events, finish %v, %s, %s\n", prefix, seed,
			res.Events, res.FinishTime, traceRegs(res.Regs), traceViolations(len(res.Violations), firstOf(res.Violations)))
	}
	return b.String()
}

// traceRegs renders a register file sorted by name.
func traceRegs(regs map[string]float64) string {
	names := make([]string, 0, len(regs))
	for r := range regs {
		names = append(names, r)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, r := range names {
		parts[i] = fmt.Sprintf("%s=%v", r, regs[r])
	}
	return "regs [" + strings.Join(parts, " ") + "]"
}

// traceViolations renders a violation count and the first violation.
func traceViolations(n int, first string) string {
	if n == 0 {
		return "0 violations"
	}
	return fmt.Sprintf("%d violations, first %q", n, first)
}

func firstOf(violations []string) string {
	if len(violations) == 0 {
		return ""
	}
	return violations[0]
}
