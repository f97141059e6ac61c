package cdfg

import "fmt"

// BlockDesc renders a human-readable description of block b for
// diagnostics: the top-level block is named as such, loop and if blocks
// carry their condition register (the construct a user wrote), so error
// messages from Validate can point at source constructs instead of bare
// block numbers. Frontends lean on this to turn structural failures into
// source-level diagnostics.
func (g *Graph) BlockDesc(b int) string {
	if b < 0 || b >= len(g.Blocks) {
		return fmt.Sprintf("block %d (unknown)", b)
	}
	blk := g.Blocks[b]
	switch blk.Kind {
	case BlockTop:
		return "top-level block"
	case BlockLoop, BlockIf:
		kind := "loop"
		if blk.Kind == BlockIf {
			kind = "if"
		}
		cond := ""
		if root := g.Node(blk.Root); root != nil && root.Cond != "" {
			cond = fmt.Sprintf(" (%s %s)", kind, root.Cond)
		}
		return fmt.Sprintf("%s block %d%s", kind, blk.ID, cond)
	default:
		return fmt.Sprintf("block %d", b)
	}
}

// Validate checks the structural well-formedness of the CDFG:
//
//   - every arc's endpoints exist;
//   - arcs never cross block boundaries except at block roots/ends;
//   - every LOOP has exactly one repeat in-arc and at least one enter
//     in-arc; every IF end has then and else groups;
//   - operation nodes have statements, control nodes have conditions where
//     required;
//   - node firing is well-defined (no node without in-arcs except START).
//
// Error messages carry the enclosing block's description (BlockDesc) so
// callers that map nodes back to source constructs — the text frontend in
// particular — can report which loop or conditional a failure sits in.
func (g *Graph) Validate() error {
	// One pass over the arcs also records, per destination node, whether
	// it has in-arcs and how many of them are repeat and enter arcs, so the
	// node and loop checks below never scan the arcs again.
	in := make(map[NodeID]inArcs, len(g.nodes))
	for _, a := range g.Arcs() {
		from, to := g.Node(a.From), g.Node(a.To)
		if from == nil || to == nil {
			return fmt.Errorf("cdfg: arc %d has missing endpoint", a.ID)
		}
		if err := g.checkBlockCrossing(a, from, to); err != nil {
			return err
		}
		e := in[a.To]
		e.any = true
		switch a.Group {
		case GroupRepeat:
			e.repeat++
		case GroupEnter:
			e.enter++
		}
		in[a.To] = e
	}
	for _, n := range g.Nodes() {
		switch n.Kind {
		case KindOp, KindAssign:
			if len(n.Stmts) == 0 {
				return fmt.Errorf("cdfg: node %d (%s) in %s has no statements", n.ID, n.Kind, g.BlockDesc(n.Block))
			}
			if n.FU == "" {
				return fmt.Errorf("cdfg: node %d (%s) in %s not bound to a functional unit", n.ID, n.Label(), g.BlockDesc(n.Block))
			}
		case KindLoop, KindIf:
			if n.Cond == "" {
				return fmt.Errorf("cdfg: node %d (%s) in %s has no condition register", n.ID, n.Kind, g.BlockDesc(n.Block))
			}
		}
		if n.Kind != KindStart && !in[n.ID].any {
			return fmt.Errorf("cdfg: node %d (%s) in %s has no incoming arcs", n.ID, n.Label(), g.BlockDesc(n.Block))
		}
	}
	for _, b := range g.Blocks {
		if b.Kind == BlockLoop {
			e := in[b.Root]
			if e.repeat != 1 {
				return fmt.Errorf("cdfg: %s has %d repeat arcs, want 1", g.BlockDesc(b.ID), e.repeat)
			}
			if e.enter == 0 {
				return fmt.Errorf("cdfg: %s has no enter arcs", g.BlockDesc(b.ID))
			}
		}
	}
	return nil
}

// inArcs summarizes a node's in-arcs for Validate.
type inArcs struct {
	any           bool
	repeat, enter int
}

// checkBlockCrossing enforces the block-structure rule: an arc between
// different blocks must be anchored at a block root or end on the side of
// the deeper block.
func (g *Graph) checkBlockCrossing(a *Arc, from, to *Node) error {
	if from.Block == to.Block {
		return nil
	}
	// Arcs may connect a block's root/end (living in the parent) with body
	// nodes, and vice versa.
	if g.isBoundaryOf(from.ID, to.Block) || g.isBoundaryOf(to.ID, from.Block) {
		return nil
	}
	return fmt.Errorf("cdfg: arc %d (n%d→n%d, %s) crosses from %s into %s",
		a.ID, a.From, a.To, a.Kind, g.BlockDesc(from.Block), g.BlockDesc(to.Block))
}

// isBoundaryOf reports whether node id is the root or end of block b or of
// any ancestor of b.
func (g *Graph) isBoundaryOf(id NodeID, b int) bool {
	for b >= 0 {
		blk := g.Blocks[b]
		if blk.Root == id || blk.End == id {
			return true
		}
		b = blk.Parent
	}
	return false
}
