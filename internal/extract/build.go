package extract

import (
	"fmt"
	"sort"

	"repro/internal/bm"
	"repro/internal/cdfg"
)

// ctrl builds one controller machine by walking the schedule structure.
type ctrl struct {
	ex   *extractor
	fu   string
	m    *bm.Machine
	cur  bm.StateID
	last *bm.Transition // most recently emitted transition
	// pendingOuts holds outputs of fragments without waits of their own:
	// they attach to every transition entering the fragment's start state
	// (resolved at the end of the build, so loop re-entries get them too).
	pendingOuts     map[bm.StateID][]bm.Event
	foreignLoopDone bool
}

func (ex *extractor) buildController(fu string) (*bm.Machine, error) {
	m := bm.NewMachine(fu)
	c := &ctrl{ex: ex, fu: fu, m: m, pendingOuts: map[bm.StateID][]bm.Event{}}
	c.cur = m.NewState("init")
	m.Init = c.cur
	if err := c.emitBlock(ex.g.Blocks[0]); err != nil {
		return nil, err
	}
	if len(m.Transitions) == 0 {
		return nil, fmt.Errorf("unit has no work")
	}
	// Resolve deferred fragment outputs.
	for _, t := range m.Transitions {
		if outs, ok := c.pendingOuts[t.To]; ok {
			t.Out = append(t.Out, outs...)
		}
	}
	if outs, ok := c.pendingOuts[m.Init]; ok && len(m.InTransitions(m.Init)) == 0 {
		return nil, fmt.Errorf("fragment outputs %v have no carrying transition", outs)
	}
	return m, nil
}

// emitBlock walks a block's items in program order emitting this unit's
// fragments.
func (c *ctrl) emitBlock(b *cdfg.Block) error {
	g := c.ex.g
	ids := append([]cdfg.NodeID(nil), b.Nodes...)
	sort.Slice(ids, func(i, j int) bool { return g.Node(ids[i]).Order < g.Node(ids[j]).Order })
	for _, id := range ids {
		n := g.Node(id)
		relevant := false
		switch n.Kind {
		case cdfg.KindOp, cdfg.KindAssign:
			relevant = n.FU == c.fu
		case cdfg.KindLoop, cdfg.KindIf:
			sub := blockOfRoot(g, id)
			relevant = sub != nil && (n.FU == c.fu || c.involves(sub))
		}
		if !relevant {
			continue
		}
		if c.foreignLoopDone {
			return fmt.Errorf("work scheduled after a loop owned by another unit: unsupported topology")
		}
		switch n.Kind {
		case cdfg.KindOp, cdfg.KindAssign:
			if err := c.emitFragment(n); err != nil {
				return err
			}
		case cdfg.KindLoop:
			sub := blockOfRoot(g, id)
			if n.FU == c.fu {
				if err := c.emitOwnedLoop(n, sub); err != nil {
					return err
				}
			} else {
				if err := c.emitForeignLoop(n, sub); err != nil {
					return err
				}
			}
		case cdfg.KindIf:
			sub := blockOfRoot(g, id)
			if err := c.emitIf(n, sub); err != nil {
				return err
			}
		}
	}
	return nil
}

func blockOfRoot(g *cdfg.Graph, root cdfg.NodeID) *cdfg.Block {
	for _, b := range g.Blocks {
		if b.Kind != cdfg.BlockTop && b.Root == root {
			return b
		}
	}
	return nil
}

func (c *ctrl) involves(b *cdfg.Block) bool {
	g := c.ex.g
	for _, id := range b.Nodes {
		n := g.Node(id)
		if n.FU == c.fu {
			return true
		}
		if n.Kind == cdfg.KindLoop || n.Kind == cdfg.KindIf {
			if sub := blockOfRoot(g, id); sub != nil && c.involves(sub) {
				return true
			}
		}
	}
	return false
}

// emitWaitGroups emits the leading wait transitions of a fragment,
// returning the in-burst for the fragment's first working transition (the
// last wait group, or nil if there are no waits).
func (c *ctrl) emitWaitGroups(n *cdfg.Node) []bm.Event {
	groups := c.ex.waitEvents(c.ex.waitsFor(n))
	if len(groups) == 0 {
		return nil
	}
	for _, grp := range groups[:len(groups)-1] {
		c.declareInputs(grp)
		next := c.m.NewState("")
		c.last = c.m.AddTransition(&bm.Transition{
			From: c.cur, To: next, In: grp, Label: n.Label() + " wait",
		})
		c.cur = next
	}
	last := groups[len(groups)-1]
	c.declareInputs(last)
	return last
}

func (c *ctrl) declareInputs(evs []bm.Event) {
	for _, e := range evs {
		c.m.AddInput(e.Signal)
	}
}

func (c *ctrl) declareOutputs(evs []bm.Event) {
	for _, e := range evs {
		c.m.AddOutput(e.Signal)
	}
}

// step emits one transition advancing the chain.
func (c *ctrl) step(in, out []bm.Event, label string) *bm.Transition {
	c.declareInputs(in)
	c.declareOutputs(out)
	next := c.m.NewState("")
	t := c.m.AddTransition(&bm.Transition{From: c.cur, To: next, In: in, Out: out, Label: label})
	c.cur = next
	c.last = t
	return t
}

func ev(sig string, e bm.Edge) bm.Event { return bm.Event{Signal: sig, Edge: e} }

// stage is one candidate transition of a fragment before normalization.
type stage struct {
	in, out []bm.Event
	label   string
}

// emitFragment expands one Op/Assign node into its micro-operation
// transitions (§4.2, Figure 11):
//
//	(i)   wait for requests, set input muxes
//	(ii)  perform the operation (moves latch in parallel)
//	(iii) set the destination register mux
//	(iv)  latch the result
//	(v)   reset local signals
//	(vi)  send done events
//
// Stages with an empty trigger merge their outputs into the previous
// stage; a fragment with no waits attaches its first outputs to every
// transition entering its start state.
func (c *ctrl) emitFragment(n *cdfg.Node) error {
	waitIn := c.emitWaitGroups(n)
	dones := c.ex.donesFor(n, cdfg.OutAlways)

	var selReq, selAck []string // input mux selects (op statements)
	var movReq, movAck []string // register-mux selects for moves
	var goReq, goAck []string   // operation go lines
	var wsReq, wsAck []string   // destination register mux (FU result)
	var wrReq, wrAck []string   // register latch lines
	var movWrReq, movWrAck []string
	for _, st := range n.Stmts {
		if st.Op == cdfg.OpMov {
			r := fmt.Sprintf("ws_%s_%s", st.Dst, st.Src1)
			movReq, movAck = append(movReq, r), append(movAck, r+"_a")
			w := "wr_" + st.Dst
			movWrReq, movWrAck = append(movWrReq, w), append(movWrAck, w+"_a")
			continue
		}
		selReq = append(selReq, "selA_"+st.Src1)
		selAck = append(selAck, "selA_"+st.Src1+"_a")
		if st.Src2 != "" {
			selReq = append(selReq, "selB_"+st.Src2)
			selAck = append(selAck, "selB_"+st.Src2+"_a")
		}
		gq := "go_" + st.Op.Name()
		goReq, goAck = append(goReq, gq), append(goAck, gq+"_a")
		wsReq, wsAck = append(wsReq, "ws_"+st.Dst), append(wsAck, "ws_"+st.Dst+"_a")
		wrReq, wrAck = append(wrReq, "wr_"+st.Dst), append(wrAck, "wr_"+st.Dst+"_a")
	}

	label := n.Label()
	stages := []stage{
		{in: waitIn, out: rises(concat(selReq, movReq)), label: label + " (i)"},
		{in: rises(concat(selAck, movAck)), out: rises(concat(goReq, movWrReq)), label: label + " (ii)"},
		{in: rises(concat(goAck, movWrAck)), out: rises(wsReq), label: label + " (iii)"},
		{in: rises(wsAck), out: rises(wrReq), label: label + " (iv)"},
		{in: rises(wrAck), out: falls(concat(selReq, movReq, goReq, wsReq, wrReq, movWrReq)), label: label + " (v)"},
		{in: falls(concat(selAck, movAck, goAck, wsAck, wrAck, movWrAck)), out: dones, label: label + " (vi)"},
	}
	// Normalize: merge trigger-less stages into their predecessor.
	norm := []stage{stages[0]}
	for _, s := range stages[1:] {
		if len(s.in) == 0 {
			norm[len(norm)-1].out = append(norm[len(norm)-1].out, s.out...)
			continue
		}
		norm = append(norm, s)
	}
	for i, s := range norm {
		if i == 0 && len(s.in) == 0 {
			// No waits: outputs ride every transition entering this state.
			c.declareOutputs(s.out)
			c.pendingOuts[c.cur] = append(c.pendingOuts[c.cur], s.out...)
			continue
		}
		c.step(s.in, s.out, s.label)
	}
	return nil
}

func rises(sigs []string) []bm.Event {
	out := make([]bm.Event, 0, len(sigs))
	for _, s := range sigs {
		out = append(out, ev(s, bm.Rise))
	}
	return out
}

func falls(sigs []string) []bm.Event {
	out := make([]bm.Event, 0, len(sigs))
	for _, s := range sigs {
		out = append(out, ev(s, bm.Fall))
	}
	return out
}

func concat(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// emitOwnedLoop emits the loop structure for the controller that owns the
// LOOP/ENDLOOP nodes: an entry decision, the body, and the loop-top
// (ENDLOOP synchronization + repeat examination), both conditional on the
// loop variable.
func (c *ctrl) emitOwnedLoop(root *cdfg.Node, sub *cdfg.Block) error {
	m := c.m
	m.AddLevel(root.Cond)
	c.ex.res.CondInputs[c.fu] = append(c.ex.res.CondInputs[c.fu], root.Cond)
	trueOut := c.ex.donesFor(root, cdfg.OutTrue)
	falseOut := c.ex.donesFor(root, cdfg.OutFalse)
	c.declareOutputs(trueOut)
	c.declareOutputs(falseOut)

	entryIn := c.emitWaitGroups(root)
	bodyStart := m.NewState("loop-body")
	exit := m.NewState("loop-exit")

	enter := m.AddTransition(&bm.Transition{
		From: c.cur, To: bodyStart, In: entryIn,
		Cond: []bm.Cond{{Signal: root.Cond, Value: true}},
		Out:  append([]bm.Event{}, trueOut...), Label: "LOOP enter",
	})
	m.AddTransition(&bm.Transition{
		From: c.cur, To: exit, In: entryIn,
		Cond: []bm.Cond{{Signal: root.Cond, Value: false}},
		Out:  append([]bm.Event{}, falseOut...), Label: "LOOP skip",
	})
	c.cur = bodyStart
	c.last = enter
	if err := c.emitBlock(sub); err != nil {
		return err
	}
	// Loop top: ENDLOOP waits plus the repeat examination.
	endNode := c.ex.g.Node(sub.End)
	topIn := c.emitWaitGroups(endNode)
	m.AddTransition(&bm.Transition{
		From: c.cur, To: bodyStart, In: topIn,
		Cond: []bm.Cond{{Signal: root.Cond, Value: true}},
		Out:  append([]bm.Event{}, trueOut...), Label: "LOOP repeat",
	})
	m.AddTransition(&bm.Transition{
		From: c.cur, To: exit, In: topIn,
		Cond: []bm.Cond{{Signal: root.Cond, Value: false}},
		Out:  append([]bm.Event{}, falseOut...), Label: "LOOP exit",
	})
	c.cur = exit
	c.last = nil // post-loop fragments must carry their own waits
	return nil
}

// emitForeignLoop emits the body fragments of a loop owned by another
// controller: a plain cycle re-armed each iteration by incoming ready
// events.
func (c *ctrl) emitForeignLoop(root *cdfg.Node, sub *cdfg.Block) error {
	head := c.cur
	before := len(c.m.Transitions)
	if err := c.emitBlock(sub); err != nil {
		return err
	}
	if len(c.m.Transitions) == before {
		return nil
	}
	// Retarget the final transition back to the loop head.
	for _, t := range c.m.Transitions[before:] {
		if t.To == c.cur {
			t.To = head
		}
	}
	c.cur = head
	c.last = nil
	c.foreignLoopDone = true
	return nil
}

// emitIf emits a conditional fragment. The body must belong entirely to
// this controller (the one sampling the condition).
func (c *ctrl) emitIf(root *cdfg.Node, sub *cdfg.Block) error {
	if root.FU != c.fu {
		return fmt.Errorf("conditional owned by %s involves unit %s: unsupported topology", root.FU, c.fu)
	}
	for _, id := range sub.Nodes {
		n := c.ex.g.Node(id)
		if n.FU != c.fu && (n.Kind == cdfg.KindOp || n.Kind == cdfg.KindAssign) {
			return fmt.Errorf("if body contains node of unit %s: unsupported topology", n.FU)
		}
	}
	m := c.m
	m.AddLevel(root.Cond)
	c.ex.res.CondInputs[c.fu] = append(c.ex.res.CondInputs[c.fu], root.Cond)
	trueOut := c.ex.donesFor(root, cdfg.OutTrue)
	falseOut := c.ex.donesFor(root, cdfg.OutFalse)
	endNode := c.ex.g.Node(sub.End)
	endDones := c.ex.donesFor(endNode, cdfg.OutAlways)
	c.declareOutputs(trueOut)
	c.declareOutputs(falseOut)
	c.declareOutputs(endDones)

	condIn := c.emitWaitGroups(root)
	bodyStart := m.NewState("if-body")
	after := m.NewState("if-after")
	taken := m.AddTransition(&bm.Transition{
		From: c.cur, To: bodyStart, In: condIn,
		Cond: []bm.Cond{{Signal: root.Cond, Value: true}},
		Out:  append([]bm.Event{}, trueOut...), Label: "IF taken",
	})
	m.AddTransition(&bm.Transition{
		From: c.cur, To: after, In: condIn,
		Cond: []bm.Cond{{Signal: root.Cond, Value: false}},
		Out:  append(append([]bm.Event{}, falseOut...), endDones...), Label: "IF skipped",
	})
	c.cur = bodyStart
	c.last = taken
	if err := c.emitBlock(sub); err != nil {
		return err
	}
	// Close the taken path: ENDIF dones ride the last body transition,
	// which is retargeted to the join state.
	joined := false
	for _, t := range m.Transitions {
		if t.To == c.cur && t != taken {
			t.To = after
			t.Out = append(t.Out, endDones...)
			joined = true
		}
	}
	if !joined {
		// Empty taken body: the taken transition joins directly.
		taken.To = after
		taken.Out = append(taken.Out, endDones...)
	}
	c.cur = after
	c.last = nil
	return nil
}
