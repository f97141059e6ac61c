package cdfg

import "slices"

// Reach answers precedence queries over a CDFG. Because loops execute
// repeatedly and the loop-parallelism transform lets two consecutive
// iterations overlap, queries are posed on a two-copy unrolling of the
// graph: copy 0 is "some iteration i", copy 1 is "iteration i+1". Regular
// arcs appear within each copy; loop repeat arcs (ENDLOOP→LOOP) and
// backward arcs cross from copy 0 to copy 1.
//
// Every constraint arc (x,y) guarantees "if y fires, x fired earlier", so
// precedence paths may use arcs of any branch. The exception is arcs in
// the alternative firing groups of an ENDIF node (then/else): the node can
// fire through the other group without the arc's source ever firing, so
// such arcs only participate when the query itself concerns that group.
type Reach struct {
	g     *Graph
	ids   []NodeID
	index map[NodeID]int
	adj   [][]edgeRec
}

type edgeRec struct {
	to  int
	arc *Arc
}

// NewReach builds the reachability structure for g.
func NewReach(g *Graph) *Reach {
	r := &Reach{g: g, index: map[NodeID]int{}}
	for _, n := range g.Nodes() {
		r.index[n.ID] = len(r.ids)
		r.ids = append(r.ids, n.ID)
	}
	n := len(r.ids)
	r.adj = make([][]edgeRec, 2*n)
	for _, a := range g.Arcs() {
		fi, ti := r.index[a.From], r.index[a.To]
		if r.crossesIteration(a) {
			r.adj[fi] = append(r.adj[fi], edgeRec{to: ti + n, arc: a}) // copy 0 → copy 1 only
		} else {
			r.adj[fi] = append(r.adj[fi], edgeRec{to: ti, arc: a})
			r.adj[fi+n] = append(r.adj[fi+n], edgeRec{to: ti + n, arc: a})
		}
	}
	return r
}

// RemoveArc drops arc a's edge records, for a graph from which a was
// removed, in place of a NewReach of the edited graph. NewReach files
// each node's records in arc-ID order, and dropping a record keeps the
// others' order, so the index equals the one NewReach would build.
func (r *Reach) RemoveArc(a *Arc) {
	fi := r.index[a.From]
	drop := func(e edgeRec) bool { return e.arc.ID == a.ID }
	r.adj[fi] = slices.DeleteFunc(r.adj[fi], drop)
	if !r.crossesIteration(a) {
		n := len(r.ids)
		r.adj[fi+n] = slices.DeleteFunc(r.adj[fi+n], drop)
	}
}

// crossesIteration reports whether the arc represents an iteration-crossing
// dependency: a backward arc, or a loop repeat arc (ENDLOOP→LOOP).
func (r *Reach) crossesIteration(a *Arc) bool {
	return a.Kind == ArcBackward || a.Group == GroupRepeat
}

// conditionalGroup reports whether the arc belongs to an ENDIF alternative
// group, whose precedence guarantee only holds for firings via that group.
func conditionalGroup(a *Arc) bool {
	return a.Group == GroupThen || a.Group == GroupElse
}

// path reports whether vertex v is reachable from vertex u, excluding arc
// skip (pass nil to exclude nothing) and any edge rejected by allow (nil
// allows everything).
func (r *Reach) path(u, v int, skip *Arc, allow func(*Arc) bool) bool {
	if u == v {
		return true
	}
	seen := make([]bool, len(r.adj))
	stack := []int{u}
	seen[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range r.adj[x] {
			if skip != nil && e.arc.ID == skip.ID {
				continue
			}
			if allow != nil && !allow(e.arc) {
				continue
			}
			if e.to == v {
				return true
			}
			if !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	return false
}

// precedenceAllow returns the edge filter for precedence queries: arcs in
// ENDIF alternative groups are excluded unless they share the query arc's
// destination and group.
func precedenceAllow(query *Arc) func(*Arc) bool {
	return func(e *Arc) bool {
		if !conditionalGroup(e) {
			return true
		}
		return query != nil && e.To == query.To && e.Group == query.Group
	}
}

// Precedes reports whether node x must fire before node y within the same
// iteration (a constraint path from x to y using within-iteration arcs).
func (r *Reach) Precedes(x, y NodeID) bool {
	if x == y {
		return false
	}
	return r.path(r.index[x], r.index[y], nil, precedenceAllow(nil))
}

// PrecedesCross reports whether node x's firing in iteration i must precede
// node y's firing in iteration i+1.
func (r *Reach) PrecedesCross(x, y NodeID) bool {
	n := len(r.ids)
	return r.path(r.index[x], r.index[y]+n, nil, precedenceAllow(nil))
}

// Dominated reports whether arc a is implied by the remaining constraints:
// a path from its source to its destination (in the appropriate iteration
// copy) that does not use a itself. Dominated arcs can be removed by GT2
// without changing the precedence order.
func (r *Reach) Dominated(a *Arc) bool {
	n := len(r.ids)
	fi, ti := r.index[a.From], r.index[a.To]
	if r.crossesIteration(a) {
		return r.path(fi, ti+n, a, precedenceAllow(a))
	}
	return r.path(fi, ti, a, precedenceAllow(a))
}

// WouldDominate reports whether a hypothetical arc from x to y (crossing
// iterations when cross is true) is already implied by existing
// constraints. Transforms use it to avoid adding redundant arcs.
func (r *Reach) WouldDominate(x, y NodeID, cross bool) bool {
	n := len(r.ids)
	if cross {
		return r.path(r.index[x], r.index[y]+n, nil, precedenceAllow(nil))
	}
	return r.path(r.index[x], r.index[y], nil, precedenceAllow(nil))
}

// NonConcurrent reports whether two arcs can never be simultaneously active
// (carrying an unconsumed token), accounting for the two-iteration overlap
// window permitted after loop parallelism. Arc e is active from the firing
// of its source until the firing of its destination.
//
// e1 and e2 are never concurrent when one is fully consumed before the
// other is produced in the same iteration, and the same holds across the
// one-iteration overlap in both directions.
func (r *Reach) NonConcurrent(a, b *Arc) bool {
	n := len(r.ids)
	allow := precedenceAllow(nil)
	ordered := func(first, second *Arc) bool {
		// first's consumption precedes second's production, within an
		// iteration and across the permitted overlap window.
		tFirst, fSecond := r.index[first.To], r.index[second.From]
		if !r.path(tFirst, fSecond, nil, allow) {
			return false
		}
		if !r.FiresRepeatedly(first.From) {
			return true // first is produced only once: no next-iteration token
		}
		// Across the overlap: second (iteration i) consumed before first
		// (iteration i+1) produced.
		tSecond, fFirst := r.index[second.To], r.index[first.From]
		return r.path(tSecond, fFirst+n, nil, allow)
	}
	return ordered(a, b) || ordered(b, a)
}

// WouldCycle reports whether adding an arc x→y would create a precedence
// cycle within an iteration (y already precedes or equals x).
func (r *Reach) WouldCycle(x, y NodeID) bool {
	if x == y {
		return true
	}
	return r.path(r.index[y], r.index[x], nil, nil)
}

// FiresRepeatedly reports whether a node fires more than once in an
// execution: it is inside a loop, or is itself a loop boundary node.
func (r *Reach) FiresRepeatedly(id NodeID) bool {
	n := r.g.Node(id)
	if n.Kind == KindLoop || n.Kind == KindEndLoop {
		return true
	}
	b := n.Block
	for b >= 0 {
		if r.g.Blocks[b].Kind == BlockLoop {
			return true
		}
		b = r.g.Blocks[b].Parent
	}
	return false
}

// EventsTotallyOrdered reports whether the production events of two arcs
// are totally ordered in every execution — the requirement for the arcs to
// share one transition-signaling wire with statically known alternating
// phases. Events from the same source node are one event (trivially
// ordered); otherwise the sources must be strictly interleaved: within an
// iteration one always precedes the other, and across the permitted
// iteration overlap the later one precedes the earlier one's next firing.
// Sources firing only once need just a one-directional ordering.
func (r *Reach) EventsTotallyOrdered(a, b *Arc) bool {
	s1, s2 := a.From, b.From
	if s1 == s2 {
		return true
	}
	rep1, rep2 := r.FiresRepeatedly(s1), r.FiresRepeatedly(s2)
	switch {
	case !rep1 && !rep2:
		return r.Precedes(s1, s2) || r.Precedes(s2, s1)
	case !rep1:
		// The single event must precede the whole repeated sequence.
		return r.Precedes(s1, s2)
	case !rep2:
		return r.Precedes(s2, s1)
	default:
		if r.Precedes(s1, s2) && r.PrecedesCross(s2, s1) {
			return true
		}
		return r.Precedes(s2, s1) && r.PrecedesCross(s1, s2)
	}
}

// SameLoopContext reports whether two nodes fire under identical loop
// nesting (the chains of enclosing loop blocks coincide). Arcs added by
// channel transforms must connect same-context nodes so token production
// and consumption rates match.
func (r *Reach) SameLoopContext(x, y NodeID) bool {
	cx, cy := r.loopChainOf(x), r.loopChainOf(y)
	if len(cx) != len(cy) {
		return false
	}
	for i := range cx {
		if cx[i] != cy[i] {
			return false
		}
	}
	return true
}

func (r *Reach) loopChainOf(id NodeID) []int {
	var out []int
	b := r.g.Node(id).Block
	for b >= 0 {
		blk := r.g.Blocks[b]
		if blk.Kind == BlockLoop {
			out = append([]int{blk.ID}, out...)
		}
		b = blk.Parent
	}
	return out
}
