package transform

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/cdfg"
	"repro/internal/obs"
)

// Channel is one physical communication wire of the target architecture: a
// single-transition "ready" signal from a sender controller, forked to one
// or more receiver controllers (a multi-way channel when more than one).
// Several constraint arcs may share the wire after multiplexing; their
// events become alternating phases.
type Channel struct {
	ID        int
	Sender    string
	Receivers []string // sorted functional unit names
	Arcs      []*cdfg.Arc
}

// Multiway reports whether the channel has more than one receiver.
func (c *Channel) Multiway() bool { return len(c.Receivers) > 1 }

func (c *Channel) receiverKey() string { return strings.Join(c.Receivers, ",") }

func (c *Channel) String() string {
	return fmt.Sprintf("ch%d %s→{%s} (%d arcs)", c.ID, c.Sender, c.receiverKey(), len(c.Arcs))
}

// Plan maps the graph's inter-unit constraint arcs onto communication
// channels. GT5 (§3.5) shrinks the channel count by multiplexing (GT5.1),
// concurrency reduction (GT5.2) and symmetrization (GT5.3).
type Plan struct {
	G        *cdfg.Graph
	Channels []*Channel
	Env      []*cdfg.Arc // arcs to/from the environment (START/END)
	Report   *Report
	nextID   int
}

// BuildChannels creates the initial channel plan: one channel per
// inter-functional-unit constraint arc.
func BuildChannels(g *cdfg.Graph) *Plan {
	p := &Plan{G: g, Report: &Report{Name: "GT5 channel-elimination"}}
	for _, a := range g.Arcs() {
		from, to := g.Node(a.From), g.Node(a.To)
		if from.FU == "" || to.FU == "" {
			p.Env = append(p.Env, a)
			continue
		}
		if from.FU == to.FU {
			continue
		}
		p.Channels = append(p.Channels, &Channel{
			ID:        p.nextID,
			Sender:    from.FU,
			Receivers: []string{to.FU},
			Arcs:      []*cdfg.Arc{a},
		})
		p.nextID++
	}
	return p
}

// Count returns the number of inter-controller channels.
func (p *Plan) Count() int { return len(p.Channels) }

// MultiwayCount returns the number of multi-way channels.
func (p *Plan) MultiwayCount() int {
	n := 0
	for _, c := range p.Channels {
		if c.Multiway() {
			n++
		}
	}
	return n
}

// ChannelOf returns the channel carrying arc id, or nil.
func (p *Plan) ChannelOf(id cdfg.ArcID) *Channel {
	for _, c := range p.Channels {
		for _, a := range c.Arcs {
			if a.ID == id {
				return c
			}
		}
	}
	return nil
}

// mergeMove is one channel merge, possibly preceded by symmetrization arc
// additions (given as node pairs so the move replays on any graph copy).
type mergeMove struct {
	i, j int
	adds [][2]cdfg.NodeID
}

// searchBudget caps the merge-sequence search.
const searchBudget = 40000

// Eliminate applies the GT5 pipeline: an exact (budgeted) search over
// channel-merge sequences — each merge is a multiplex, a multi-way fork
// formation, or a symmetrization followed by a multiplex — then a
// concurrency-reduction (GT5.2) post-pass. The best sequence (fewest final
// channels, then fewest added arcs) is replayed onto the plan's graph.
func (p *Plan) Eliminate() *Report {
	moves := p.searchBestMerges()
	for _, mv := range moves {
		p.applyMove(mv)
	}
	for p.reduceConcurrency() {
	}
	return p.Report
}

// searchState is a scratch copy of the plan used during search. A state
// reached by a merge that added no arc shares its parent's graph and
// reachability: such a merge changes only the channel structs, and no
// state ever changes a graph it did not clone.
type searchState struct {
	g     *cdfg.Graph
	reach *cdfg.Reach // of g; nil until first needed
	chans []*Channel
}

func (p *Plan) snapshot() *searchState {
	return (&searchState{g: p.G, chans: p.Channels}).child(true)
}

// child copies the state for one merge: the channel structs always, the
// graph only when the merge adds arcs. A merge that adds none leaves the
// graph unchanged, so the copy shares the graph and its reachability.
func (st *searchState) child(addsArcs bool) *searchState {
	n := &searchState{g: st.g, reach: st.reach}
	if addsArcs {
		n.g, n.reach = st.g.Clone(), nil
	}
	for _, c := range st.chans {
		cc := &Channel{ID: c.ID, Sender: c.Sender, Receivers: append([]string(nil), c.Receivers...)}
		for _, a := range c.Arcs {
			if ex := n.g.Arc(a.ID); ex != nil {
				cc.Arcs = append(cc.Arcs, ex)
			}
		}
		n.chans = append(n.chans, cc)
	}
	return n
}

// signature returns a key that two states share exactly when they have
// the same multiset of channels, each carrying the same multiset of
// (from, to) arcs: each channel is its arc count and its sorted arc
// endpoints as uvarints, a prefix-free encoding, and the channels are
// concatenated in sorted order.
func (st *searchState) signature() string {
	parts := make([]string, len(st.chans))
	var ends [][2]cdfg.NodeID
	for i, c := range st.chans {
		ends = ends[:0]
		for _, a := range c.Arcs {
			ends = append(ends, [2]cdfg.NodeID{a.From, a.To})
		}
		slices.SortFunc(ends, func(x, y [2]cdfg.NodeID) int {
			return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
		})
		b := binary.AppendUvarint(nil, uint64(len(ends)))
		for _, e := range ends {
			b = binary.AppendUvarint(b, uint64(e[0]))
			b = binary.AppendUvarint(b, uint64(e[1]))
		}
		parts[i] = string(b)
	}
	slices.Sort(parts)
	return strings.Join(parts, "")
}

func (p *Plan) searchBestMerges() []mergeMove {
	start := p.snapshot()
	bestCount := len(start.chans)
	bestAdds := 0
	var best []mergeMove
	visited := map[string]bool{}
	steps := 0
	clones := 1 // the graphs of the search's states, start snapshot included

	var dfs func(st *searchState, moves []mergeMove, adds int)
	dfs = func(st *searchState, moves []mergeMove, adds int) {
		if steps > searchBudget {
			return
		}
		steps++
		sig := st.signature()
		if visited[sig] {
			return
		}
		visited[sig] = true
		if len(st.chans) < bestCount || (len(st.chans) == bestCount && adds < bestAdds) {
			bestCount = len(st.chans)
			bestAdds = adds
			best = append(best[:0:0], moves...)
		}
		if st.reach == nil {
			st.reach = cdfg.NewReach(st.g)
		}
		for i := 0; i < len(st.chans); i++ {
			for j := i + 1; j < len(st.chans); j++ {
				additions, ok := mergePlan(st.g, st.reach, st.chans[i], st.chans[j])
				if !ok {
					continue
				}
				next := st.child(len(additions) > 0)
				if len(additions) > 0 {
					clones++
				}
				applyMergeTo(next, i, j, additions)
				dfs(next, append(append([]mergeMove(nil), moves...), mergeMove{i: i, j: j, adds: additions}), adds+len(additions))
				if steps > searchBudget {
					return
				}
			}
		}
	}
	dfs(start, nil, 0)
	obs.Add("gt5/states", int64(len(visited)))
	obs.Add("gt5/graph-clones", int64(clones))
	return best
}

// mergePlan decides whether two channels can share one wire, computing any
// symmetrization additions needed. Requirements:
//
//   - same sender unit;
//   - every source node has an arc to every receiver unit of the union
//     (missing pairs are filled with safe added arcs: same loop context, no
//     cycle, plain destination nodes);
//   - after additions, the production events of arcs from distinct source
//     nodes are totally ordered (statically known alternating phases).
func mergePlan(g *cdfg.Graph, reach *cdfg.Reach, c1, c2 *Channel) ([][2]cdfg.NodeID, bool) {
	if c1.Sender != c2.Sender {
		return nil, false
	}
	all := append(append([]*cdfg.Arc{}, c1.Arcs...), c2.Arcs...)
	type srcFU struct {
		src cdfg.NodeID
		fu  string
	}
	recvs := map[string]bool{}
	srcs := map[cdfg.NodeID]bool{}
	covered := map[srcFU]bool{}
	for _, a := range all {
		fu := g.Node(a.To).FU
		recvs[fu] = true
		srcs[a.From] = true
		covered[srcFU{a.From, fu}] = true
	}
	var adds [][2]cdfg.NodeID
	work := g
	workReach := reach
	for s := range srcs {
		if boundaryNode(g.Node(s)) {
			// Loop/if boundary nodes fire at special rates; arcs from them
			// exist only where the generator placed them.
			for fu := range recvs {
				if !covered[srcFU{s, fu}] {
					return nil, false
				}
			}
			continue
		}
		for fu := range recvs {
			if covered[srcFU{s, fu}] {
				continue
			}
			d, ok := additionTarget(work, workReach, all, s, fu)
			if !ok {
				return nil, false
			}
			adds = append(adds, [2]cdfg.NodeID{s, d})
			// Apply to a scratch copy so later checks see the new arc.
			if work == g {
				work = g.Clone()
			}
			work.AddArc(&cdfg.Arc{From: s, To: d, Kind: cdfg.ArcControl, Note: "sym"})
			workReach = cdfg.NewReach(work)
			covered[srcFU{s, fu}] = true
		}
	}
	// Total ordering of events across distinct source nodes, on the graph
	// including additions.
	finalArcs := append([]*cdfg.Arc{}, all...)
	if work != g {
		for _, ad := range adds {
			finalArcs = append(finalArcs, work.FindArc(ad[0], ad[1]))
		}
		// Re-resolve original arcs in the scratch graph.
		for i, a := range all {
			finalArcs[i] = work.Arc(a.ID)
		}
	}
	for i := 0; i < len(finalArcs); i++ {
		for j := i + 1; j < len(finalArcs); j++ {
			if finalArcs[i].From == finalArcs[j].From {
				continue
			}
			if !workReach.EventsTotallyOrdered(finalArcs[i], finalArcs[j]) {
				return nil, false
			}
		}
	}
	sort.Slice(adds, func(i, j int) bool {
		if adds[i][0] != adds[j][0] {
			return adds[i][0] < adds[j][0]
		}
		return adds[i][1] < adds[j][1]
	})
	return adds, true
}

func boundaryNode(n *cdfg.Node) bool {
	switch n.Kind {
	case cdfg.KindLoop, cdfg.KindEndLoop, cdfg.KindIf, cdfg.KindEndIf:
		return true
	}
	return false
}

// additionTarget picks a destination node in unit fu for a symmetrization
// arc from s: an existing channel destination in that unit with matching
// loop context that does not create a cycle.
func additionTarget(g *cdfg.Graph, reach *cdfg.Reach, arcs []*cdfg.Arc, s cdfg.NodeID, fu string) (cdfg.NodeID, bool) {
	seen := map[cdfg.NodeID]bool{}
	for _, a := range arcs {
		d := a.To
		if seen[d] {
			continue
		}
		seen[d] = true
		dn := g.Node(d)
		if dn == nil || dn.FU != fu || boundaryNode(dn) {
			continue
		}
		if !reach.SameLoopContext(s, d) {
			continue
		}
		if reach.WouldCycle(s, d) {
			continue
		}
		return d, true
	}
	return 0, false
}

// applyMergeTo performs a merge (with additions) on a search state.
func applyMergeTo(st *searchState, i, j int, adds [][2]cdfg.NodeID) {
	for _, ad := range adds {
		a := &cdfg.Arc{From: ad[0], To: ad[1], Kind: cdfg.ArcControl, Note: "sym"}
		st.g.AddArc(a)
		st.chans[i].Arcs = append(st.chans[i].Arcs, a)
	}
	mergeChannelStructs(st.g, st.chans[i], st.chans[j])
	st.chans = append(st.chans[:j], st.chans[j+1:]...)
}

// applyMove replays a search move on the real plan.
func (p *Plan) applyMove(mv mergeMove) {
	for _, ad := range mv.adds {
		a := &cdfg.Arc{From: ad[0], To: ad[1], Kind: cdfg.ArcControl, Note: "sym"}
		p.G.AddArc(a)
		p.Report.add(p.G, a)
		p.Report.note("symmetrize (GT5.3): add (%s → %s)", p.G.Node(ad[0]).Label(), p.G.Node(ad[1]).Label())
		p.Channels[mv.i].Arcs = append(p.Channels[mv.i].Arcs, a)
	}
	a, b := p.Channels[mv.i], p.Channels[mv.j]
	p.Report.note("merge (GT5.1/5.3): %s + %s", a, b)
	mergeChannelStructs(p.G, a, b)
	p.Channels = append(p.Channels[:mv.j], p.Channels[mv.j+1:]...)
}

func mergeChannelStructs(g *cdfg.Graph, a, b *Channel) {
	a.Arcs = append(a.Arcs, b.Arcs...)
	set := map[string]bool{}
	for _, arc := range a.Arcs {
		set[g.Node(arc.To).FU] = true
	}
	a.Receivers = a.Receivers[:0]
	for r := range set {
		a.Receivers = append(a.Receivers, r)
	}
	sort.Strings(a.Receivers)
}

// reduceConcurrency applies GT5.2: a single-arc channel X→Z is eliminated
// by routing the constraint through an existing hub: an existing arc a→b
// (channel X→Y) plus a new arc b→c that multiplexes into an existing
// channel Y→Z. Returns whether a channel was eliminated.
func (p *Plan) reduceConcurrency() bool {
	reach := cdfg.NewReach(p.G)
	for ci, ch := range p.Channels {
		if len(ch.Arcs) != 1 || ch.Multiway() {
			continue
		}
		victim := ch.Arcs[0]
		if !removalSafe(p.G, victim) {
			continue
		}
		a, c := victim.From, victim.To
		if boundaryNode(p.G.Node(a)) || boundaryNode(p.G.Node(c)) {
			continue
		}
		for _, hubArc := range p.G.Out(a) {
			if hubArc.ID == victim.ID {
				continue
			}
			b := hubArc.To
			bn := p.G.Node(b)
			if bn.FU == "" || bn.FU == ch.Sender || bn.FU == p.G.Node(c).FU || boundaryNode(bn) {
				continue
			}
			if p.ChannelOf(hubArc.ID) == nil {
				continue // hub leg must ride an existing channel
			}
			if !reach.SameLoopContext(b, c) || reach.WouldCycle(b, c) {
				continue
			}
			target := p.findChannel(bn.FU, p.G.Node(c).FU)
			if target == nil {
				continue
			}
			newArc := &cdfg.Arc{From: b, To: c, Kind: cdfg.ArcControl, Note: "hub"}
			p.G.AddArc(newArc)
			tmpReach := cdfg.NewReach(p.G)
			ok := true
			for _, ex := range target.Arcs {
				if ex.From != newArc.From && !tmpReach.EventsTotallyOrdered(ex, newArc) {
					ok = false
					break
				}
			}
			if !ok {
				p.G.RemoveArc(newArc.ID)
				continue
			}
			p.Report.note("concurrency reduction (GT5.2): (%s→%s) via hub %s",
				p.G.Node(a).Label(), p.G.Node(c).Label(), p.G.Node(b).Label())
			p.Report.add(p.G, newArc)
			p.Report.remove(p.G, victim)
			p.G.RemoveArc(victim.ID)
			target.Arcs = append(target.Arcs, newArc)
			p.Channels = append(p.Channels[:ci], p.Channels[ci+1:]...)
			return true
		}
	}
	return false
}

// findChannel returns a channel from sender to exactly the single receiver
// fu, or nil.
func (p *Plan) findChannel(sender, fu string) *Channel {
	for _, c := range p.Channels {
		if c.Sender == sender && len(c.Receivers) == 1 && c.Receivers[0] == fu {
			return c
		}
	}
	return nil
}

// DOT renders the channel plan as a Graphviz graph in the style of the
// paper's Figure 5: one box per controller, one edge per channel (bold for
// multi-way channels), labeled with the carried events.
func (p *Plan) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph channels {\n  rankdir=LR;\n  node [shape=box];\n")
	for _, fu := range p.G.FUs {
		fmt.Fprintf(&b, "  %q;\n", fu)
	}
	for _, c := range p.Channels {
		style := "solid"
		if c.Multiway() {
			style = "bold"
		}
		label := fmt.Sprintf("ch%d (%d events)", c.ID, len(c.Arcs))
		for _, rx := range c.Receivers {
			fmt.Fprintf(&b, "  %q -> %q [style=%s, label=%q];\n", c.Sender, rx, style, label)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Describe renders the channel plan like the paper's Figure 5.
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d channels (%d multi-way), %d environment arcs\n", p.Count(), p.MultiwayCount(), len(p.Env))
	for _, c := range p.Channels {
		fmt.Fprintf(&b, "  %s\n", c)
		for _, a := range c.Arcs {
			fmt.Fprintf(&b, "    %s\n", describeArc(p.G, a))
		}
	}
	return b.String()
}
