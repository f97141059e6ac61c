// Package local implements the paper's local transformations (§5) on
// extracted burst-mode controllers: LT1 move-up, LT2 move-down, LT3 mux
// pre-selection, LT4 acknowledgment removal, LT5 signal sharing. They
// optimize the controller–datapath protocol for speed and area after the
// global interaction is fixed.
//
// Several transforms rest on local timing assumptions (the paper's
// user-supplied timing information); every assumption taken is recorded in
// the returned report.
package local

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bm"
	"repro/internal/obs"
)

// Report records the local transformations applied to one machine.
type Report struct {
	Machine     string
	Moves       []string
	Assumptions []string
	SharedWires map[string][]string // surviving signal → signals folded into it
}

func (r *Report) note(format string, args ...interface{}) {
	r.Moves = append(r.Moves, fmt.Sprintf(format, args...))
}

func (r *Report) assume(format string, args ...interface{}) {
	r.Assumptions = append(r.Assumptions, fmt.Sprintf(format, args...))
}

// Config selects which local transforms run on a machine, and in which
// order, so a rewrite search can toggle each decision independently. LT2's
// reset move-down is inherent in the merged reset burst that LT4 produces,
// so it rides the LT4 toggle rather than having one of its own; likewise
// the return-to-zero wait restoration is a correctness repair for LT4, not
// an independent choice.
type Config struct {
	LT1 bool // move done events up to the latch
	LT3 bool // mux pre-selection
	LT4 bool // acknowledgment removal (with merge + return-to-zero repair)
	LT5 bool // signal sharing
	// PreselectFirst reorders the pipeline to run LT3 before LT1. The
	// default order (LT1 first) lets pre-selection see the merged bursts.
	PreselectFirst bool
}

// FullConfig enables every local transform in the default order.
func FullConfig() Config { return Config{LT1: true, LT3: true, LT4: true, LT5: true} }

// Key renders the config as a compact stable string ("1345" for the full
// default order, "-" for none, a leading "3<" when LT3 is reordered first).
func (c Config) Key() string {
	var b strings.Builder
	if c.PreselectFirst {
		b.WriteString("3<")
	}
	for _, t := range []struct {
		on bool
		s  string
	}{{c.LT1, "1"}, {c.LT3, "3"}, {c.LT4, "4"}, {c.LT5, "5"}} {
		if t.on {
			b.WriteString(t.s)
		}
	}
	if b.Len() == 0 {
		return "-"
	}
	return b.String()
}

// Optimize applies the full local pipeline to the machine in place:
// LT4 (acknowledgment removal), LT2 (reset move-down is inherent in the
// merged reset burst), LT1 (move done events up to the latch), merge of
// trigger-less transitions, LT3 (mux pre-selection), LT5 (signal sharing).
//
// Each LT runs under an obs span (stage "lt1".."lt5", unit = machine
// name; the triggerless merge carries the reset move-down, so it reports
// as "lt2"), and the per-machine state/transition/input sizes before and
// after the whole pipeline land in lt/<machine>/... gauges — the raw
// material of the paper's Figure 12 rows.
func Optimize(m *bm.Machine) (*Report, error) {
	return OptimizeWith(m, FullConfig())
}

// OptimizeWith runs the subset of local transforms cfg selects, in the
// order it specifies. FullConfig reproduces Optimize exactly; the machine
// is validated afterwards regardless of which transforms ran.
func OptimizeWith(m *bm.Machine, cfg Config) (*Report, error) {
	all := obs.Start("lt", m.Name)
	obs.Set("lt/"+m.Name+"/states_before", int64(m.NumStates()))
	obs.Set("lt/"+m.Name+"/transitions_before", int64(m.NumTransitions()))
	obs.Set("lt/"+m.Name+"/inputs_before", int64(len(m.Inputs)))
	rep := &Report{Machine: m.Name, SharedWires: map[string][]string{}}
	stage := func(name string, f func()) {
		sp := obs.Start(name, m.Name)
		f()
		sp.End()
	}
	lt1 := func() {
		if cfg.LT1 {
			stage("lt1", func() { MoveUpDones(m, rep); MergeTriggerless(m, rep) })
		}
	}
	lt3 := func() {
		if cfg.LT3 {
			stage("lt3", func() { Preselect(m, rep) })
		}
	}
	if cfg.LT4 {
		stage("lt4", func() { RemoveAcks(m, rep) })
		stage("lt2", func() { MergeTriggerless(m, rep) })
	}
	if cfg.PreselectFirst {
		lt3()
	}
	lt1()
	if cfg.LT4 {
		// The repair runs after the merges above expose any reset/re-raise
		// adjacency; it is part of LT4's soundness, never toggled alone.
		stage("lt4", func() { RestoreRZWaits(m, rep) })
	}
	if !cfg.PreselectFirst {
		lt3()
	}
	if cfg.LT5 {
		stage("lt5", func() { ShareSignals(m, rep) })
	}
	err := m.Validate()
	if err != nil {
		err = fmt.Errorf("local: machine %s invalid after optimization: %w", m.Name, err)
	}
	obs.Set("lt/"+m.Name+"/states_after", int64(m.NumStates()))
	obs.Set("lt/"+m.Name+"/transitions_after", int64(m.NumTransitions()))
	obs.Set("lt/"+m.Name+"/inputs_after", int64(len(m.Inputs)))
	obs.Add("lt/moves", int64(len(rep.Moves)))
	obs.Add("lt/assumptions", int64(len(rep.Assumptions)))
	all.EndErr(err)
	if err != nil {
		return rep, err
	}
	return rep, nil
}

// isAck reports whether a signal is a datapath acknowledgment wire.
func isAck(sig string) bool { return strings.HasSuffix(sig, "_a") }

// hasInput reports whether the machine lists sig as an input.
func hasInput(m *bm.Machine, sig string) bool {
	for _, in := range m.Inputs {
		if in == sig {
			return true
		}
	}
	return false
}

// keepAck reports whether the default LT4 policy retains an
// acknowledgment: only the operation-completion (go) and latch-completion
// (wr) acks carry load-bearing delays.
func keepAck(sig string) bool {
	return strings.HasPrefix(sig, "go_") || strings.HasPrefix(sig, "wr_")
}

// RemoveAcks applies LT4: mux-select and register-mux acknowledgments are
// deleted outright, and the falling (return-to-zero) phases of the
// remaining acks are no longer waited on. Both deletions are justified by
// local timing assumptions, which are recorded.
func RemoveAcks(m *bm.Machine, rep *Report) {
	removed := map[string]bool{}
	for _, t := range m.Transitions {
		var kept []bm.Event
		for _, e := range t.In {
			if isAck(e.Signal) && !keepAck(e.Signal) {
				removed[e.Signal] = true
				continue
			}
			if isAck(e.Signal) && e.Edge == bm.Fall {
				removed[e.Signal+" (falling phase)"] = true
				continue
			}
			kept = append(kept, e)
		}
		t.In = kept
	}
	var names []string
	for s := range removed {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		rep.note("LT4: removed acknowledgment wait %s", s)
		rep.assume("LT4: %s settles before the controller depends on it", s)
	}
	// Drop fully-removed ack signals from the input list.
	var inputs []string
	for _, sig := range m.Inputs {
		if isAck(sig) && !keepAck(sig) {
			continue
		}
		inputs = append(inputs, sig)
	}
	m.Inputs = inputs
	// The retained acks now have unobserved falling phases: mark them free
	// wherever they are not consumed, so polarity checking and synthesis
	// treat the level as unknown there.
	for _, sig := range m.Inputs {
		if !isAck(sig) || !keepAck(sig) {
			continue
		}
		for _, t := range m.Transitions {
			if !t.HasInput(sig) {
				t.Free = append(t.Free, sig)
			}
		}
	}
}

// MergeTriggerless folds transitions whose in-burst became empty into
// their predecessors (outputs concatenate), provided no signal would rise
// and fall in the same burst. When the merge is blocked because the
// predecessor resets a line this transition re-raises (consecutive
// operations sharing a request wire), the dropped return-to-zero
// acknowledgment is restored as the trigger: the re-raise must wait for
// the previous handshake to complete.
func MergeTriggerless(m *bm.Machine, rep *Report) {
	for {
		merged := false
		for i, t := range m.Transitions {
			if len(t.In) != 0 || len(t.Cond) != 0 {
				continue
			}
			preds := m.InTransitions(t.From)
			if len(preds) == 0 {
				continue
			}
			if len(m.OutTransitions(t.From)) != 1 {
				continue // a sibling branch also leaves this state
			}
			ok := true
			for _, p := range preds {
				if p == t || burstConflict(p.Out, t.Out) {
					ok = false
					break
				}
			}
			if !ok {
				if repairWithRZ(m, t, preds, rep) {
					merged = true
					break
				}
				continue
			}
			for _, p := range preds {
				p.Out = append(p.Out, t.Out...)
				p.To = t.To
			}
			m.Transitions = append(m.Transitions[:i], m.Transitions[i+1:]...)
			rep.note("merged trigger-less transition into %d predecessor(s)", len(preds))
			merged = true
			break
		}
		if !merged {
			return
		}
	}
}

// repairWithRZ gives a stuck trigger-less transition the falling
// acknowledgment of a request line its predecessor resets and it
// re-raises: the handshake's return-to-zero becomes the trigger again.
func repairWithRZ(m *bm.Machine, t *bm.Transition, preds []*bm.Transition, rep *Report) bool {
	added := false
	for _, e := range t.Out {
		if e.Edge != bm.Rise || isAck(e.Signal) {
			continue
		}
		resetByPred := false
		for _, p := range preds {
			for _, pe := range p.Out {
				if pe.Signal == e.Signal && pe.Edge == bm.Fall {
					resetByPred = true
				}
			}
		}
		if !resetByPred {
			continue
		}
		ack := e.Signal + "_a"
		if t.HasInput(ack) {
			continue
		}
		t.In = append(t.In, bm.Event{Signal: ack, Edge: bm.Fall})
		m.AddInput(ack)
		// Only the falling phase is observed; the rise passes freely.
		for _, other := range m.Transitions {
			if !other.HasInput(ack) {
				other.Free = append(other.Free, ack)
			}
		}
		rep.note("restored return-to-zero wait %s- before re-raising %s", ack, e.Signal)
		added = true
	}
	return added
}

// RestoreRZWaits re-adds the return-to-zero acknowledgment wait wherever
// a transition re-raises a retained request right after a predecessor
// reset it. LT4 drops the falling ack phases on the assumption that the
// handshake settles before the controller depends on it; that assumption
// fails when the reset and the re-raise are back-to-back transitions: if
// the re-raise's own trigger is already satisfied on entry, the gate-level
// controller can observe the previous handshake's acknowledgment still
// high and treat the next wait as complete, latching a stale result. The
// restored wait is the same rule repairWithRZ applies to stuck merges,
// here applied to every transition after merging exposes the adjacency.
func RestoreRZWaits(m *bm.Machine, rep *Report) {
	for _, t := range m.Transitions {
		if t.From == m.Init {
			// The initial state is entered at reset with every ack low; a
			// falling wait there could never be satisfied on that entry.
			// Loop-back re-raises out of the initial state are triggered by
			// fresh completion wires whose latency dwarfs the ack fall.
			continue
		}
		for _, e := range t.Out {
			if e.Edge != bm.Rise || isAck(e.Signal) || !keepAck(e.Signal) {
				continue
			}
			ack := e.Signal + "_a"
			if !hasInput(m, ack) || t.HasInput(ack) {
				continue
			}
			// Every entry path must have just reset the request: on a path
			// where the handshake never ran the ack is low and the falling
			// wait could never be satisfied.
			preds := m.InTransitions(t.From)
			resetByAll := len(preds) > 0
			for _, p := range preds {
				resetByThis := false
				if p != t {
					for _, pe := range p.Out {
						if pe.Signal == e.Signal && pe.Edge == bm.Fall {
							resetByThis = true
						}
					}
				}
				if !resetByThis {
					resetByAll = false
				}
			}
			if !resetByAll {
				continue
			}
			t.In = append(t.In, bm.Event{Signal: ack, Edge: bm.Fall})
			var free []string
			for _, f := range t.Free {
				if f != ack {
					free = append(free, f)
				}
			}
			t.Free = free
			rep.note("LT4: kept return-to-zero wait %s- before re-raising %s", ack, e.Signal)
			rep.assume("LT4: %s falling phase is observed where %s is immediately re-raised", ack, e.Signal)
		}
	}
}

// burstConflict reports whether appending b to a would put two events of
// one signal in a single burst.
func burstConflict(a, b []bm.Event) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Signal == y.Signal {
				return true
			}
		}
	}
	return false
}

// MoveUpDones applies LT1 to global done events: each wire output event
// moves from its fragment's final transition up to the transition that
// issues the register latch (the result is announced in parallel with
// latching, as in the paper's A1M+ example). The move walks one transition
// at a time and stops at conditional branches or burst conflicts.
func MoveUpDones(m *bm.Machine, rep *Report) {
	for {
		moved := false
		for _, t := range m.Transitions {
			if len(t.Cond) > 0 {
				continue
			}
			var wires, rest []bm.Event
			for _, e := range t.Out {
				if bm.IsWire(e.Signal) {
					wires = append(wires, e)
				} else {
					rest = append(rest, e)
				}
			}
			if len(wires) == 0 {
				continue
			}
			if hostsLatch(t) {
				continue // already at the latch transition
			}
			preds := m.InTransitions(t.From)
			if len(preds) != 1 || preds[0] == t {
				continue
			}
			p := preds[0]
			if len(p.Cond) > 0 || !hostsLatch(p) || burstConflict(p.Out, wires) {
				continue
			}
			p.Out = append(p.Out, wires...)
			t.Out = rest
			for _, w := range wires {
				rep.note("LT1: moved done %s up to latch transition", w)
				rep.assume("LT1: %s may be announced in parallel with latching", w)
			}
			moved = true
		}
		if !moved {
			return
		}
	}
}

// hostsLatch reports whether a transition issues a register latch (wr+).
func hostsLatch(t *bm.Transition) bool {
	for _, e := range t.Out {
		if strings.HasPrefix(e.Signal, "wr_") && !isAck(e.Signal) && e.Edge == bm.Rise {
			return true
		}
	}
	return false
}

// Preselect applies LT3: a fragment's input-mux select rises move from its
// first working transition up into the preceding transition (typically the
// previous fragment's reset burst), so the muxes for the next operation
// are selected while the current one finishes.
func Preselect(m *bm.Machine, rep *Report) {
	// Snapshot move candidates before mutating, so moved selections never
	// cascade further up in the same pass.
	type move struct {
		t    *bm.Transition
		sels []bm.Event
		rest []bm.Event
	}
	var moves []move
	for _, t := range m.Transitions {
		var sels, rest []bm.Event
		for _, e := range t.Out {
			if e.Edge == bm.Rise && (strings.HasPrefix(e.Signal, "selA_") || strings.HasPrefix(e.Signal, "selB_")) {
				sels = append(sels, e)
			} else {
				rest = append(rest, e)
			}
		}
		if len(sels) == 0 || len(t.Cond) > 0 {
			continue
		}
		// The fragment must not start at the initial state: nothing
		// precedes the first activation to carry the selection.
		if t.From == m.Init {
			continue
		}
		moves = append(moves, move{t: t, sels: sels, rest: rest})
	}
	for _, mv := range moves {
		preds := m.InTransitions(mv.t.From)
		if len(preds) == 0 {
			continue
		}
		ok := true
		for _, p := range preds {
			if p == mv.t || burstConflict(p.Out, mv.sels) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, p := range preds {
			p.Out = append(p.Out, mv.sels...)
		}
		mv.t.Out = mv.rest
		for _, s := range mv.sels {
			rep.note("LT3: pre-selected %s one transition early", s)
			rep.assume("LT3: datapath tolerates early mux selection of %s", s.Signal)
		}
	}
}

// ShareSignals applies LT5: output signals with identical occurrence
// patterns (same transitions, same edges) merge into one forked wire.
func ShareSignals(m *bm.Machine, rep *Report) {
	// Occurrence signature per output signal.
	sig := map[string]string{}
	for _, out := range m.Outputs {
		var occ []string
		for i, t := range m.Transitions {
			for _, e := range t.Out {
				if e.Signal == out {
					occ = append(occ, fmt.Sprintf("%d%s", i, e.Edge))
				}
			}
		}
		sig[out] = strings.Join(occ, ",")
	}
	groups := map[string][]string{}
	for _, out := range m.Outputs {
		if bm.IsWire(out) {
			continue // global wires stay distinct
		}
		groups[sig[out]] = append(groups[sig[out]], out)
	}
	// Merge the groups in the order of their kept wires, so the report
	// lists its moves in one order on every run.
	var shared [][]string
	for _, g := range groups {
		if len(g) >= 2 {
			sort.Strings(g)
			shared = append(shared, g)
		}
	}
	sort.Slice(shared, func(i, j int) bool { return shared[i][0] < shared[j][0] })
	replace := map[string]string{}
	for _, g := range shared {
		keep := g[0]
		for _, other := range g[1:] {
			replace[other] = keep
			rep.SharedWires[keep] = append(rep.SharedWires[keep], other)
			rep.note("LT5: %s shares the %s wire", other, keep)
		}
	}
	if len(replace) == 0 {
		return
	}
	for _, t := range m.Transitions {
		var out []bm.Event
		seen := map[string]bool{}
		for _, e := range t.Out {
			if to, ok := replace[e.Signal]; ok {
				e.Signal = to
			}
			key := e.Signal + e.Edge.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, e)
		}
		t.Out = out
	}
	var outputs []string
	for _, o := range m.Outputs {
		if _, gone := replace[o]; !gone {
			outputs = append(outputs, o)
		}
	}
	m.Outputs = outputs
}

// MoveDown applies LT2 generically: it moves an output event from
// transition t to its unique successor, provided no conflict arises. It
// returns whether the move happened.
func MoveDown(m *bm.Machine, t *bm.Transition, signal string, rep *Report) bool {
	var ev *bm.Event
	var rest []bm.Event
	for i := range t.Out {
		if t.Out[i].Signal == signal {
			e := t.Out[i]
			ev = &e
		} else {
			rest = append(rest, t.Out[i])
		}
	}
	if ev == nil {
		return false
	}
	succs := m.OutTransitions(t.To)
	if len(succs) != 1 || succs[0] == t {
		return false
	}
	s := succs[0]
	if burstConflict(s.Out, []bm.Event{*ev}) || s.HasInput(signal) {
		return false
	}
	t.Out = rest
	s.Out = append(s.Out, *ev)
	rep.note("LT2: moved %s%s down one transition", ev.Signal, ev.Edge)
	return true
}
