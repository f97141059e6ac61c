// Package synth implements burst-mode logic synthesis: it turns an
// extended burst-mode machine into per-signal two-level hazard-free logic
// and reports product and literal counts, standing in for the MINIMALIST
// and 3D synthesizers used in the paper's Figure 13.
//
// The pipeline: phase concretization (toggle edges become concrete rises
// and falls by tracking wire phase, splitting states whose phases differ
// across visits), state encoding (minimal-width binary with conflict
// repair, one-hot fallback), function specification (each output and state
// bit becomes a hazard-free transition specification over inputs plus
// state bits), and exact hazard-free two-level minimization.
package synth

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bm"
)

// CState is one concrete state: a machine state plus the tracked phase
// levels of toggling signals.
type CState struct {
	ID     int
	Orig   bm.StateID
	Levels map[string]int // nominal signal levels: 0, 1, or -1 unknown
}

// CTrans is a concrete transition: all edges are Rise or Fall.
type CTrans struct {
	From, To int
	In, Out  []bm.Event
	Cond     []bm.Cond
	Free     []string
}

// Concrete is a phase-resolved machine.
type Concrete struct {
	Name    string
	Inputs  []string // including sampled levels
	Outputs []string
	States  []*CState
	Trans   []*CTrans
	Init    int
}

// initState is the ID of every concretized machine's initial state.
const initState = 0

// signals returns the input and output lists of m's concretized machine,
// as fresh slices: the inputs are m's inputs followed by its sampled
// levels, the outputs are m's outputs.
func signals(m *bm.Machine) (inputs, outputs []string) {
	return append(append([]string{}, m.Inputs...), m.Levels...), append([]string{}, m.Outputs...)
}

// Concretize resolves toggle edges by exploring (state, phase) pairs.
// Transient states (whose only triggers are sampled conditions) are folded
// into their predecessors. The nominal level of every signal is tracked
// through the exploration; directed don't-cares do not erase phase
// knowledge (early arrival changes timing, not event parity).
func Concretize(m *bm.Machine) (*Concrete, error) {
	c := &Concrete{Name: m.Name}
	c.Inputs, c.Outputs = signals(m)
	// Phase-tracked signals: those with any toggle edge.
	tracked := map[string]bool{}
	for _, t := range m.Transitions {
		for _, e := range append(append([]bm.Event{}, t.In...), t.Out...) {
			if e.Edge == bm.Toggle {
				tracked[e.Signal] = true
			}
		}
	}
	// Acknowledgment inputs follow their request outputs with a delay:
	// their nominal level tracks the request line even when a phase is
	// unobserved (LT4 drops return-to-zero waits).
	ackOf := map[string]string{} // request signal → its ack input
	for _, in := range m.Inputs {
		if strings.HasSuffix(in, "_a") {
			ackOf[strings.TrimSuffix(in, "_a")] = in
		}
	}
	type key struct {
		s     bm.StateID
		phase string
	}
	sigKey := func(levels map[string]int) string {
		var parts []string
		var names []string
		for s := range tracked {
			names = append(names, s)
		}
		sort.Strings(names)
		for _, s := range names {
			parts = append(parts, fmt.Sprintf("%s=%d", s, levels[s]))
		}
		return strings.Join(parts, ",")
	}

	index := map[key]int{}
	var queue []int
	newState := func(orig bm.StateID, levels map[string]int) int {
		k := key{s: orig, phase: sigKey(levels)}
		if id, ok := index[k]; ok {
			return id
		}
		cp := map[string]int{}
		for sig, v := range levels {
			cp[sig] = v
		}
		cs := &CState{ID: len(c.States), Orig: orig, Levels: cp}
		c.States = append(c.States, cs)
		index[k] = cs.ID
		queue = append(queue, cs.ID)
		return cs.ID
	}

	initLevels := map[string]int{}
	for _, s := range append(append([]string{}, m.Inputs...), m.Outputs...) {
		initLevels[s] = 0
	}
	for _, s := range m.InitialHigh {
		initLevels[s] = 1
	}
	// The initial state is the first one created, so its ID is initState,
	// and foldTransient never renumbers states.
	c.Init = newState(m.Init, initLevels)

	resolve := func(e bm.Event, levels map[string]int) (bm.Event, error) {
		switch e.Edge {
		case bm.Toggle:
			switch levels[e.Signal] {
			case 0:
				return bm.Event{Signal: e.Signal, Edge: bm.Rise}, nil
			case 1:
				return bm.Event{Signal: e.Signal, Edge: bm.Fall}, nil
			default:
				return e, fmt.Errorf("synth: cannot resolve toggle of %s: phase unknown", e.Signal)
			}
		default:
			return e, nil
		}
	}

	apply := func(levels map[string]int, evs []bm.Event, outs bool) {
		for _, e := range evs {
			v := 0
			if e.Edge == bm.Rise {
				v = 1
			}
			levels[e.Signal] = v
			if outs {
				// The datapath acknowledgment follows the request.
				if ack, ok := ackOf[e.Signal]; ok {
					levels[ack] = v
				}
			}
		}
	}

	guard := 0
	for len(queue) > 0 {
		guard++
		if guard > 10000 {
			return nil, fmt.Errorf("synth: phase explosion concretizing %s", m.Name)
		}
		id := queue[0]
		queue = queue[1:]
		cs := c.States[id]
		for _, t := range m.OutTransitions(cs.Orig) {
			levels := map[string]int{}
			for k, v := range cs.Levels {
				levels[k] = v
			}
			var in, out []bm.Event
			ok := true
			for _, e := range t.In {
				re, err := resolve(e, levels)
				if err != nil {
					return nil, err
				}
				in = append(in, re)
				apply(levels, []bm.Event{re}, false)
				_ = ok
			}
			for _, e := range t.Out {
				re, err := resolve(e, levels)
				if err != nil {
					return nil, err
				}
				out = append(out, re)
				apply(levels, []bm.Event{re}, true)
			}
			to := newState(t.To, levels)
			c.Trans = append(c.Trans, &CTrans{
				From: id, To: to, In: in, Out: out,
				Cond: append([]bm.Cond{}, t.Cond...),
				Free: append([]string{}, t.Free...),
			})
		}
	}
	c.foldTransient()
	return c, nil
}

// foldTransient merges states whose outgoing transitions all have empty
// in-bursts (pure conditional examinations) into their predecessors: the
// predecessor transition splits per condition branch.
func (c *Concrete) foldTransient() {
	for {
		target := -1
		for _, cs := range c.States {
			if cs.ID == c.Init {
				continue
			}
			outs := c.outTrans(cs.ID)
			if len(outs) == 0 {
				continue
			}
			all := true
			for _, t := range outs {
				if len(t.In) != 0 || len(t.Cond) == 0 {
					all = false
					break
				}
			}
			if all {
				target = cs.ID
				break
			}
		}
		if target < 0 {
			return
		}
		outs := c.outTrans(target)
		ins := c.inTrans(target)
		if len(ins) == 0 {
			return // unreachable; leave as-is
		}
		var next []*CTrans
		for _, t := range c.Trans {
			if t.To != target {
				if t.From != target {
					next = append(next, t)
				}
				continue
			}
			// Split the predecessor per branch. Opposite edges of one
			// signal cancel (a reset immediately followed by a re-select
			// nets to the signal staying put).
			for _, o := range outs {
				nt := &CTrans{
					From: t.From,
					To:   o.To,
					In:   append([]bm.Event{}, t.In...),
					Out:  cancelOpposites(append(append([]bm.Event{}, t.Out...), o.Out...)),
					Cond: append(append([]bm.Cond{}, t.Cond...), o.Cond...),
					Free: append(append([]string{}, t.Free...), o.Free...),
				}
				next = append(next, nt)
			}
		}
		c.Trans = next
	}
}

// cancelOpposites removes pairs of opposite edges on the same signal (net
// zero) and deduplicates repeated identical edges.
func cancelOpposites(evs []bm.Event) []bm.Event {
	count := map[string][]bm.Event{}
	var order []string
	for _, e := range evs {
		if _, ok := count[e.Signal]; !ok {
			order = append(order, e.Signal)
		}
		count[e.Signal] = append(count[e.Signal], e)
	}
	var out []bm.Event
	for _, sig := range order {
		es := count[sig]
		switch {
		case len(es) == 1:
			out = append(out, es[0])
		case len(es) == 2 && es[0].Edge != es[1].Edge:
			// Opposite pair cancels.
		default:
			// Identical duplicates collapse to one.
			out = append(out, es[0])
		}
	}
	return out
}

func (c *Concrete) outTrans(id int) []*CTrans {
	var out []*CTrans
	for _, t := range c.Trans {
		if t.From == id {
			out = append(out, t)
		}
	}
	return out
}

func (c *Concrete) inTrans(id int) []*CTrans {
	var out []*CTrans
	for _, t := range c.Trans {
		if t.To == id {
			out = append(out, t)
		}
	}
	return out
}

// ReachableStates returns the state IDs reachable from Init after folding.
func (c *Concrete) ReachableStates() []int {
	seen := map[int]bool{c.Init: true}
	queue := []int{c.Init}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, t := range c.outTrans(s) {
			if !seen[t.To] {
				seen[t.To] = true
				queue = append(queue, t.To)
			}
		}
	}
	var out []int
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}
