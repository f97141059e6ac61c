package sim

import (
	"fmt"

	"repro/internal/bm"
	"repro/internal/cdfg"
	"repro/internal/synth"
)

// LogicSystem simulates the synthesized gate-level controllers — the
// minimized two-level covers with state feedback — driving the behavioural
// datapath. It is the deepest verification level: the CDFG has been
// transformed, extracted, locally optimized, encoded and minimized, and
// the resulting logic must still compute the program.
type LogicSystem struct {
	G          *cdfg.Graph
	Evaluators map[string]*synth.Evaluator
	Machines   map[string]*bm.Machine // for the level-input (condition) lists
	Shared     map[string]map[string][]string
	Primers    map[string]bm.Edge
	Delays     MachineDelays
	MaxEvents  int
}

// LogicResult reports a gate-level simulation.
type LogicResult = MachineResult

type lsRun struct {
	sys *LogicSystem
	dp  *datapath
	// condRx maps a register to the controllers sampling it as a level.
	condRx    map[string][]string
	stateHops map[string]int
}

// Run executes the system to quiescence.
func (sys *LogicSystem) Run() (*LogicResult, error) {
	if sys.MaxEvents == 0 {
		sys.MaxEvents = 500000
	}
	r := &lsRun{sys: sys, condRx: map[string][]string{}, stateHops: map[string]int{}}
	inputs := map[string][]string{}
	for fu, ev := range sys.Evaluators {
		inputs[fu] = ev.Inputs
	}
	for _, fu := range sortedKeys(sys.Evaluators) {
		for _, lvl := range sys.Machines[fu].Levels {
			r.condRx[lvl] = append(r.condRx[lvl], fu)
		}
	}
	// A falling request draws Delays.AckFall (see datapath.fall).
	r.dp = newDatapath(sys.G, inputs, sys.Shared, sys.Delays, sys.Delays.AckFall, func(fu, sig string, e bm.Edge, t float64) {
		r.setInput(fu, sig, e == bm.Rise, t)
	})
	// Condition levels follow the written register, and must reach their
	// samplers before the latch acknowledgment does (the register output
	// is bundled ahead of the ack): propagate synchronously.
	r.dp.latched = func(dst string, t float64) {
		for _, rx := range r.condRx[dst] {
			r.setInput(rx, dst, r.dp.regs[dst] != 0, t)
		}
	}
	// Reset: condition levels reflect initial register values before the
	// primed and start wires rise.
	for _, reg := range sortedKeys(r.condRx) {
		for _, fu := range r.condRx[reg] {
			r.dp.at(0, func(t float64) { r.setInput(fu, reg, r.dp.regs[reg] != 0, t) })
		}
	}
	r.dp.reset(sys.Primers)
	res, ok := r.dp.run(sys.MaxEvents)
	if !ok {
		return res, fmt.Errorf("sim: gate-level system exceeded %d events at t=%.1f", sys.MaxEvents, r.dp.now)
	}
	return res, nil
}

// setInput drives one input level of one controller, propagates the
// resulting output changes, and schedules the state-feedback commit.
func (r *lsRun) setInput(fu, signal string, level bool, t float64) {
	changes, next := r.sys.Evaluators[fu].Set(signal, level)
	r.emit(fu, changes)
	r.feedback(fu, next, t)
}

// feedback schedules a pending state change (the Y-variable delay). When
// the commit lands, the logic is re-evaluated and further changes cascade.
func (r *lsRun) feedback(fu string, next uint64, t float64) {
	ev := r.sys.Evaluators[fu]
	if next == ev.State() {
		return
	}
	r.stateHops[fu]++
	if r.stateHops[fu] > r.sys.MaxEvents {
		r.dp.violate("t=%.2f %s: state feedback oscillates", t, fu)
		return
	}
	fb := r.sys.Delays.Feedback
	if fb == nil {
		fb = r.sys.Delays.Ctrl
	}
	r.dp.after(fb(), func(t float64) {
		changes, follow := ev.Commit(next)
		r.emit(fu, changes)
		r.feedback(fu, follow, t)
	})
}

// emit routes controller output level changes, in signal order, to the
// datapath or to receiving controllers, expanding LT5-shared signals.
func (r *lsRun) emit(fu string, changes map[string]bool) {
	for _, sig := range sortedKeys(changes) {
		e := bm.Fall
		if changes[sig] {
			e = bm.Rise
		}
		for _, s := range r.dp.signals(fu, sig) {
			r.dp.respond(fu, s, e, r.dp.now)
		}
	}
}
