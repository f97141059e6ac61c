package sim

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bm"
	"repro/internal/cdfg"
)

// queue is the discrete-event kernel of every simulator in this package:
// events run in time order, and events due at one time in the order they
// were scheduled.
type queue struct {
	heap   eventHeap
	seq    int
	now    float64
	events int // events run so far
}

type event struct {
	time float64
	seq  int
	fn   func(t float64)
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// at schedules fn at time t.
func (q *queue) at(t float64, fn func(t float64)) {
	heap.Push(&q.heap, event{time: t, seq: q.seq, fn: fn})
	q.seq++
}

// after schedules fn dt after the current time.
func (q *queue) after(dt float64, fn func(t float64)) { q.at(q.now+dt, fn) }

// run executes events until none is left. Before each event it asks
// over whether the run has exceeded its bound, and stops with false if
// so.
func (q *queue) run(over func() bool) bool {
	for len(q.heap) > 0 {
		if over() {
			return false
		}
		ev := heap.Pop(&q.heap).(event)
		q.now = ev.time
		ev.fn(ev.time)
		q.events++
	}
	return true
}

// fuState is the runtime state of one functional unit's datapath.
type fuState struct {
	portA, portB string // selected source registers
	out          float64
	outValid     bool
}

// datapath is the behavioural datapath that the controller-level and the
// gate-level models both drive: per unit an operand mux on each input
// port and a result, per register an input mux and a latch, and the
// global wires between controllers. A controller output reaches it
// through respond; wire events and acknowledgments come back through
// deliver.
type datapath struct {
	queue
	delays MachineDelays
	// fall draws the response delay of a falling datapath request; nil
	// draws the rising request's delay. This is the one behavioural
	// difference between the two controller models, and each keeps its
	// own rule. The gate-level logic reads acknowledgments as levels, so
	// it is correct only under LT4's timing assumption that a done
	// detector resets much faster than it computes, and it draws
	// Delays.AckFall. The controller-level machines consume edges as
	// events and skip a return-to-zero edge they no longer wait for, so
	// they are checked under a reset as slow as the operation. Either
	// model under the other's rule simulates differently: with the
	// controller-level rule, gen seed 6 closes at gate level, which moves
	// perfbench's sample of generated designs.
	fall func() float64
	// inputs lists each controller's input signals; wireRx lists the
	// controllers receiving each global wire, in sorted order.
	inputs map[string][]string
	wireRx map[string][]string
	// shared maps a surviving control signal to the signals folded into
	// it by LT5, per controller.
	shared map[string]map[string][]string
	fus    map[string]*fuState
	// regSel is each register's selected input: "fu:<unit>" or
	// "reg:<src>".
	regSel     map[string]string
	regs       map[string]float64
	violations []string
	// deliver hands controller fu an input event on sig.
	deliver func(fu, sig string, e bm.Edge, t float64)
	// latched, when set, observes every register latch.
	latched func(dst string, t float64)
}

func newDatapath(g *cdfg.Graph, inputs map[string][]string, shared map[string]map[string][]string,
	d MachineDelays, fall func() float64, deliver func(fu, sig string, e bm.Edge, t float64)) *datapath {
	dp := &datapath{
		delays:  d,
		fall:    fall,
		inputs:  inputs,
		wireRx:  map[string][]string{},
		shared:  shared,
		fus:     map[string]*fuState{},
		regSel:  map[string]string{},
		regs:    map[string]float64{},
		deliver: deliver,
	}
	for k, v := range g.Init {
		dp.regs[k] = v
	}
	// Iterate all maps in sorted order: delays are drawn from a shared
	// seeded PRNG in scheduling order, so map-iteration order would make
	// runs with the same seed diverge across processes.
	for _, fu := range sortedKeys(inputs) {
		dp.fus[fu] = &fuState{}
		for _, in := range inputs[fu] {
			if bm.IsWire(in) {
				dp.wireRx[in] = append(dp.wireRx[in], fu)
			}
		}
	}
	return dp
}

// reset schedules the environment at t=0: the primed wires (which
// realize the pre-enabled backward constraints of loop parallelism),
// then every controller's start inputs.
func (dp *datapath) reset(primers map[string]bm.Edge) {
	for _, wire := range sortedKeys(primers) {
		for _, fu := range dp.wireRx[wire] {
			dp.at(0, func(t float64) { dp.deliver(fu, wire, primers[wire], t) })
		}
	}
	for _, fu := range sortedKeys(dp.inputs) {
		for _, in := range dp.inputs[fu] {
			if strings.HasPrefix(in, "start") {
				dp.at(0, func(t float64) { dp.deliver(fu, in, bm.Rise, t) })
			}
		}
	}
}

// run executes the system to quiescence and reports it. It stops with
// false once more than maxEvents events have run.
func (dp *datapath) run(maxEvents int) (*MachineResult, bool) {
	ok := dp.queue.run(func() bool { return dp.events > maxEvents })
	res := &MachineResult{Regs: map[string]float64{}, Events: dp.events, Violations: dp.violations}
	if !ok {
		return res, false
	}
	for k, v := range dp.regs {
		res.Regs[k] = v
	}
	res.FinishTime = dp.now
	res.Finished = true
	return res, true
}

func (dp *datapath) violate(format string, args ...interface{}) {
	dp.violations = append(dp.violations, fmt.Sprintf(format, args...))
}

// signals returns sig and the signals LT5 folded into it at controller
// fu.
func (dp *datapath) signals(fu, sig string) []string {
	return append([]string{sig}, dp.shared[fu][sig]...)
}

// respond routes controller fu's output event on sig, emitted now: a
// global wire reaches its receiving controllers, and a datapath request
// acts and is acknowledged.
func (dp *datapath) respond(fu, sig string, e bm.Edge, t float64) {
	d := dp.delays
	unit := dp.fus[fu]
	switch {
	case bm.IsWire(sig):
		for _, rx := range dp.wireRx[sig] {
			dp.after(d.Wire(), func(t float64) { dp.deliver(rx, sig, e, t) })
		}
	case strings.HasPrefix(sig, "selA_"):
		dp.request(fu, sig, e, d.Mux, func(float64) { unit.portA = sig[5:] })
	case strings.HasPrefix(sig, "selB_"):
		dp.request(fu, sig, e, d.Mux, func(float64) { unit.portB = sig[5:] })
	case strings.HasPrefix(sig, "go_"):
		dp.request(fu, sig, e, d.FU, func(t float64) {
			unit.out = dp.compute(fu, sig[3:], t)
			unit.outValid = true
		})
	case strings.HasPrefix(sig, "ws_"):
		rest := sig[3:]
		dp.request(fu, sig, e, d.Mux, func(float64) {
			if i := strings.Index(rest, "_"); i >= 0 {
				// ws_<dst>_<src>: register-to-register move path.
				dp.regSel[rest[:i]] = "reg:" + rest[i+1:]
			} else {
				dp.regSel[rest] = "fu:" + fu
			}
		})
	case strings.HasPrefix(sig, "wr_"):
		dp.request(fu, sig, e, d.Wr, func(t float64) { dp.latch(sig[3:], t) })
	case strings.HasPrefix(sig, "fin"):
		// Environment completion; nothing to do.
	default:
		dp.violate("t=%.2f %s: unknown output %s", t, fu, sig)
	}
}

// request answers a datapath request from controller fu: after its
// delay, a rising request acts, and either edge is acknowledged on
// sig_a.
func (dp *datapath) request(fu, sig string, e bm.Edge, delay func() float64, act func(t float64)) {
	if e != bm.Rise && dp.fall != nil {
		delay = dp.fall
	}
	dp.after(delay(), func(t float64) {
		if e == bm.Rise {
			act(t)
		}
		// LT4 may have removed the acknowledgment: deliver it only to a
		// controller that still listens.
		ack := sig + "_a"
		for _, in := range dp.inputs[fu] {
			if in == ack {
				dp.deliver(fu, ack, e, t)
				return
			}
		}
	})
}

// compute evaluates the operation named by a go_ line of unit fu on its
// selected ports.
func (dp *datapath) compute(fu, name string, t float64) float64 {
	unit := dp.fus[fu]
	op, known := cdfg.OpNamed(name)
	switch {
	case unit.portA == "" || (unit.portB == "" && op != cdfg.OpMov):
		dp.violate("t=%.2f %s: %s with unselected ports (%q,%q)", t, fu, name, unit.portA, unit.portB)
		return 0
	case !known:
		dp.violate("t=%.2f %s: unknown op %s", t, fu, name)
		return 0
	}
	return op.Eval(dp.regs[unit.portA], dp.regs[unit.portB])
}

// latch writes register dst from its selected input.
func (dp *datapath) latch(dst string, t float64) {
	sel := dp.regSel[dst]
	switch {
	case strings.HasPrefix(sel, "fu:"):
		src := dp.fus[sel[3:]]
		if !src.outValid {
			dp.violate("t=%.2f latch %s from idle unit %s", t, dst, sel)
			return
		}
		dp.regs[dst] = src.out
	case strings.HasPrefix(sel, "reg:"):
		dp.regs[dst] = dp.regs[sel[4:]]
	default:
		dp.violate("t=%.2f latch %s with unselected register mux", t, dst)
		return
	}
	if dp.latched != nil {
		dp.latched(dst, t)
	}
}

// sortedKeys returns the map's keys in sorted order, for deterministic
// iteration wherever scheduling draws delays from the shared PRNG.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
