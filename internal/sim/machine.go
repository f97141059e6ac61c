package sim

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/bm"
	"repro/internal/cdfg"
)

// MachineDelays parameterizes the controller-level simulation. The
// acknowledgment-removal transform (LT4) is justified by the bundling
// assumptions muxDelay < fuDelay and wsDelay < wrDelay, which the model
// enforces structurally.
type MachineDelays struct {
	Ctrl func() float64 // controller output emission delay
	Wire func() float64 // global wire propagation
	Mux  func() float64 // input/register mux switching → ack
	FU   func() float64 // functional unit compute → ack
	Wr   func() float64 // register latch → ack
	// AckFall is the return-to-zero delay of every datapath
	// acknowledgment: the done-detector resets much faster than it
	// computes, which is exactly the slack the LT4 transform's timing
	// assumption consumes.
	AckFall func() float64
	// Feedback is the state-variable settle delay of the gate-level
	// controllers; fundamental-mode operation requires it to undercut
	// every environment response.
	Feedback func() float64
}

// DefaultMachineDelays returns a randomized delay model honoring the
// bundling constraints, including the LT1 relative-timing assumption that
// a done event announced in parallel with latching reaches its receiver no
// earlier than the latch completes (controller + wire delay exceeds the
// register latch delay).
func DefaultMachineDelays(seed int64) MachineDelays {
	r := rand.New(rand.NewSource(seed))
	u := func(lo, hi float64) func() float64 {
		return func() float64 { return lo + r.Float64()*(hi-lo) }
	}
	return MachineDelays{
		Ctrl:     u(0.2, 1),
		Wire:     u(5.2, 8), // ≥ max latch delay: the LT1 move-up assumption
		Mux:      u(0.5, 2),
		FU:       u(6, 12),
		Wr:       u(3, 5),
		AckFall:  u(0.2, 0.6),
		Feedback: u(0.05, 0.15),
	}
}

// MachineSystem simulates the extracted controllers plus a behavioural
// datapath: functional units with input muxes, registers with input muxes,
// transition-signaling wires between controllers and a four-phase (or
// LT4-reduced) local handshake.
type MachineSystem struct {
	G        *cdfg.Graph
	Machines map[string]*bm.Machine
	// Shared maps a surviving control signal to the signals folded into it
	// by LT5, per controller.
	Shared map[string]map[string][]string
	// Primers are wires primed once at reset (wire → edge); they realize
	// the pre-enabled backward constraints of loop parallelism.
	Primers map[string]bm.Edge
	Delays  MachineDelays
	// MaxEvents bounds the simulation.
	MaxEvents int
}

// MachineResult reports a controller-level or gate-level simulation.
type MachineResult struct {
	Regs       map[string]float64
	FinishTime float64
	Finished   bool
	Events     int
	Violations []string
}

// ctrlState is the runtime state of one controller.
type ctrlState struct {
	fu    string
	m     *bm.Machine
	state bm.StateID
	// events records every edge observed per input signal; consumed is the
	// per-signal consumption pointer. A specific-edge wait skips past
	// unobserved opposite edges (LT4 drops return-to-zero waits, so the
	// falling phases of retained acks pass unobserved).
	events   map[string][]bm.Edge
	consumed map[string]int
}

// findMatch returns the index of the next unconsumed event of the signal
// matching the wanted edge, or -1.
func (cs *ctrlState) findMatch(sig string, want bm.Edge) int {
	evs := cs.events[sig]
	for i := cs.consumed[sig]; i < len(evs); i++ {
		if want == bm.Toggle || evs[i] == want || evs[i] == bm.Toggle {
			return i
		}
		// A non-matching edge may only be skipped when the machine does
		// not specify it anywhere pending; for alternating handshake acks
		// this is exactly the dropped return-to-zero phase.
	}
	return -1
}

type msRun struct {
	sys   *MachineSystem
	dp    *datapath
	ctrls map[string]*ctrlState
}

// Run executes the controller system to quiescence. Quiescence counts as
// finished; callers check the register values.
func (sys *MachineSystem) Run() (*MachineResult, error) {
	if sys.MaxEvents == 0 {
		sys.MaxEvents = 500000
	}
	r := &msRun{sys: sys, ctrls: map[string]*ctrlState{}}
	inputs := map[string][]string{}
	for fu, m := range sys.Machines {
		r.ctrls[fu] = &ctrlState{fu: fu, m: m, state: m.Init,
			events: map[string][]bm.Edge{}, consumed: map[string]int{}}
		inputs[fu] = m.Inputs
	}
	// A falling request draws the rising delay (see datapath.fall).
	r.dp = newDatapath(sys.G, inputs, sys.Shared, sys.Delays, nil, func(fu, sig string, e bm.Edge, t float64) {
		cs := r.ctrls[fu]
		cs.events[sig] = append(cs.events[sig], e)
		r.advance(cs, t)
	})
	r.dp.reset(sys.Primers)
	res, ok := r.dp.run(sys.MaxEvents)
	if !ok {
		return res, fmt.Errorf("sim: controller system exceeded %d events at t=%.1f; states:\n%s", sys.MaxEvents, r.dp.now, r.DescribeState())
	}
	return res, nil
}

// advance fires every enabled transition of the controller.
func (r *msRun) advance(cs *ctrlState, t float64) {
	for {
		fired := false
		for _, tr := range cs.m.OutTransitions(cs.state) {
			if !r.enabled(cs, tr) {
				continue
			}
			r.fire(cs, tr, t)
			fired = true
			break
		}
		if !fired {
			return
		}
	}
}

func (r *msRun) enabled(cs *ctrlState, tr *bm.Transition) bool {
	for _, e := range tr.In {
		if cs.findMatch(e.Signal, e.Edge) < 0 {
			return false
		}
	}
	for _, c := range tr.Cond {
		if (r.dp.regs[c.Signal] != 0) != c.Value {
			return false
		}
	}
	return true
}

func (r *msRun) fire(cs *ctrlState, tr *bm.Transition, t float64) {
	for _, e := range tr.In {
		idx := cs.findMatch(e.Signal, e.Edge)
		if idx < 0 {
			r.dp.violate("t=%.2f %s: fired without matching %s%s", t, cs.fu, e.Signal, e.Edge)
			continue
		}
		cs.consumed[e.Signal] = idx + 1
	}
	cs.state = tr.To
	// Emit outputs after the controller delay, expanding LT5-shared
	// signals.
	for _, e := range tr.Out {
		for _, sig := range r.dp.signals(cs.fu, e.Signal) {
			r.dp.after(r.sys.Delays.Ctrl(), func(t float64) { r.dp.respond(cs.fu, sig, e.Edge, t) })
		}
	}
}

// DescribeState renders the controllers' current states (for debugging
// stuck systems).
func (r *msRun) DescribeState() string {
	var b strings.Builder
	for _, fu := range sortedKeys(r.ctrls) {
		fmt.Fprintf(&b, "%s @ s%d\n", fu, r.ctrls[fu].state)
	}
	return b.String()
}
