package codec

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/cdfg"
)

// The CDFG delta format: a versioned, strictly-validated edit-op list a
// client applies to a previously submitted design instead of re-sending
// the whole document. It is the wire format of PATCH /v1/jobs/{id} and
// `asyncsynth patch`, and the input to the incremental engine's
// dirty-region analysis (internal/stage.Classify) — which is why the ops
// are small and structured rather than a generic JSON merge: the engine
// must be able to tell a single-FU retype from a control-structure edit.

// KindDelta is the document kind discriminator of a CDFG delta.
const KindDelta = "cdfg-delta"

// Delta op names. Each op edits one node or arc; ApplyDelta applies them
// in order against a clone of the base graph and re-validates the result.
const (
	// OpAddNode inserts a new node (the "node" field, a full NodeDoc with
	// an unused ID) and appends it to its block's node list.
	OpAddNode = "add_node"
	// OpRemoveNode deletes node "id", its incident arcs and its
	// block-list entry. The graph's START/END and any block's loop
	// context nodes cannot be removed.
	OpRemoveNode = "remove_node"
	// OpRetypeNode replaces the statement list ("stmts", for op/assign
	// nodes) or the condition register ("cond", for loop/if nodes) of
	// node "id".
	OpRetypeNode = "retype_node"
	// OpAddArc inserts a new constraint arc (the "arc" field, a full
	// ArcDoc with an unused ID).
	OpAddArc = "add_arc"
	// OpRemoveArc deletes arc "id".
	OpRemoveArc = "remove_arc"
	// OpRewireArc re-targets arc "id": "from" and/or "to" name the new
	// endpoints.
	OpRewireArc = "rewire_arc"
	// OpRetime moves node "id" to scheduling step "order".
	OpRetime = "retime"
)

// DeltaDoc is the JSON form of an edit-op list.
type DeltaDoc struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	// Base optionally names the design the delta was authored against;
	// when set, ApplyDelta rejects a mismatching graph.
	Base string    `json:"base,omitempty"`
	Ops  []DeltaOp `json:"ops"`
}

// DeltaOp is one edit. Op selects the operation; exactly the fields that
// operation needs must be present (pointer fields distinguish absent from
// zero), and any extra field is a validation error — a malformed delta is
// rejected whole, never half-applied.
type DeltaOp struct {
	Op string `json:"op"`
	// Node is the inserted node (add_node only).
	Node *NodeDoc `json:"node,omitempty"`
	// Arc is the inserted arc (add_arc only).
	Arc *ArcDoc `json:"arc,omitempty"`
	// ID targets an existing node (remove_node, retype_node, retime) or
	// arc (remove_arc, rewire_arc).
	ID *int `json:"id,omitempty"`
	// Stmts is the replacement statement list (retype_node on op/assign).
	Stmts []StmtDoc `json:"stmts,omitempty"`
	// Cond is the replacement condition register (retype_node on loop/if).
	Cond *string `json:"cond,omitempty"`
	// From and To are the new endpoints (rewire_arc; either may be
	// omitted to keep that endpoint).
	From *int `json:"from,omitempty"`
	To   *int `json:"to,omitempty"`
	// Order is the new scheduling step (retime).
	Order *int `json:"order,omitempty"`
}

// DecodeDelta parses and validates a delta document: strict JSON (unknown
// fields and trailing data rejected), version/kind checks, at least one
// op, and per-op field discipline — each op must carry exactly the fields
// its operation uses. Every failure is a typed *Error locating the
// offending op.
func DecodeDelta(data []byte) (*DeltaDoc, error) {
	var doc DeltaDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, errAt("", "invalid JSON: %v", err)
	}
	if dec.More() {
		return nil, errAt("", "trailing data after document")
	}
	if doc.Version != Version {
		return nil, errAt("version", "unsupported version %d (want %d)", doc.Version, Version)
	}
	if doc.Kind != KindDelta {
		return nil, errAt("kind", "unexpected kind %q (want %q)", doc.Kind, KindDelta)
	}
	if len(doc.Ops) == 0 {
		return nil, errAt("ops", "empty delta (need at least one op)")
	}
	for i := range doc.Ops {
		if err := validateOpFields(&doc.Ops[i], fmt.Sprintf("ops[%d]", i)); err != nil {
			return nil, err
		}
	}
	return &doc, nil
}

// opFields describes which DeltaOp fields an operation requires; every
// field not listed as required or optional must be absent.
type opFields struct {
	needNode, needArc, needID, needStmtsOrCond, needOrder bool
	allowFromTo                                           bool
}

var opFieldTable = map[string]opFields{
	OpAddNode:    {needNode: true},
	OpRemoveNode: {needID: true},
	OpRetypeNode: {needID: true, needStmtsOrCond: true},
	OpAddArc:     {needArc: true},
	OpRemoveArc:  {needID: true},
	OpRewireArc:  {needID: true, allowFromTo: true},
	OpRetime:     {needID: true, needOrder: true},
}

func validateOpFields(op *DeltaOp, path string) error {
	spec, ok := opFieldTable[op.Op]
	if !ok {
		return errAt(path+".op", "unknown delta op %q", op.Op)
	}
	check := func(name string, present, wanted bool) error {
		switch {
		case wanted && !present:
			return errAt(path+"."+name, "%s requires %q", op.Op, name)
		case !wanted && present:
			return errAt(path+"."+name, "%s does not take %q", op.Op, name)
		}
		return nil
	}
	for _, c := range []struct {
		name            string
		present, wanted bool
	}{
		{"node", op.Node != nil, spec.needNode},
		{"arc", op.Arc != nil, spec.needArc},
		{"id", op.ID != nil, spec.needID},
		{"order", op.Order != nil, spec.needOrder},
	} {
		if err := check(c.name, c.present, c.wanted); err != nil {
			return err
		}
	}
	if spec.needStmtsOrCond {
		if len(op.Stmts) == 0 && op.Cond == nil {
			return errAt(path, "%s requires \"stmts\" or \"cond\"", op.Op)
		}
		if len(op.Stmts) > 0 && op.Cond != nil {
			return errAt(path, "%s takes \"stmts\" or \"cond\", not both", op.Op)
		}
	} else {
		if len(op.Stmts) > 0 {
			return errAt(path+".stmts", "%s does not take \"stmts\"", op.Op)
		}
		if op.Cond != nil {
			return errAt(path+".cond", "%s does not take \"cond\"", op.Op)
		}
	}
	if spec.allowFromTo {
		if op.From == nil && op.To == nil {
			return errAt(path, "%s requires \"from\" and/or \"to\"", op.Op)
		}
	} else {
		if op.From != nil {
			return errAt(path+".from", "%s does not take \"from\"", op.Op)
		}
		if op.To != nil {
			return errAt(path+".to", "%s does not take \"to\"", op.Op)
		}
	}
	return nil
}

// decodeStmts validates and converts a replacement statement list with
// the same rules DecodeGraph applies to node statements.
func decodeStmts(stmts []StmtDoc, path string) ([]cdfg.Stmt, error) {
	var out []cdfg.Stmt
	for j, sd := range stmts {
		op := cdfg.Op(sd.Op)
		if !op.Valid() {
			return nil, errAt(fmt.Sprintf("%s[%d].op", path, j), "unknown operation %q", sd.Op)
		}
		if sd.Dst == "" || sd.Src1 == "" {
			return nil, errAt(fmt.Sprintf("%s[%d]", path, j), "statement needs dst and src1")
		}
		out = append(out, cdfg.Stmt{Dst: sd.Dst, Op: op, Src1: sd.Src1, Src2: sd.Src2})
	}
	return out, nil
}

// ApplyDelta applies a decoded delta to g and returns the edited graph;
// g itself is never mutated (the edit happens on a clone). The result is
// re-validated with the same structural rules DecodeGraph enforces, so a
// delta can never produce a graph the pipeline would reject at
// submission. Failures are typed *Error values locating the offending op.
func ApplyDelta(g *cdfg.Graph, d *DeltaDoc) (*cdfg.Graph, error) {
	if d.Base != "" && d.Base != g.Name {
		return nil, errAt("base", "delta targets design %q, graph is %q", d.Base, g.Name)
	}
	ng := g.Clone()
	for i := range d.Ops {
		if err := applyOp(ng, &d.Ops[i], fmt.Sprintf("ops[%d]", i)); err != nil {
			return nil, err
		}
	}
	if err := ng.Validate(); err != nil {
		return nil, errAt("", "edited graph invalid: %v", err)
	}
	return ng, nil
}

func applyOp(g *cdfg.Graph, op *DeltaOp, path string) error {
	if err := validateOpFields(op, path); err != nil {
		return err
	}
	switch op.Op {
	case OpAddNode:
		nd := op.Node
		kind, ok := nodeKindVals[nd.Kind]
		if !ok {
			return errAt(path+".node.kind", "unknown node kind %q", nd.Kind)
		}
		if nd.ID < 0 {
			return errAt(path+".node.id", "negative node ID %d", nd.ID)
		}
		if g.Node(cdfg.NodeID(nd.ID)) != nil {
			return errAt(path+".node.id", "node %d already exists", nd.ID)
		}
		if nd.Block < 0 || nd.Block >= len(g.Blocks) {
			return errAt(path+".node.block", "block %d out of range [0,%d)", nd.Block, len(g.Blocks))
		}
		stmts, err := decodeStmts(nd.Stmts, path+".node.stmts")
		if err != nil {
			return err
		}
		n := &cdfg.Node{ID: cdfg.NodeID(nd.ID), Kind: kind, FU: nd.FU, Cond: nd.Cond, Block: nd.Block, Order: nd.Order, Stmts: stmts}
		if err := g.RestoreNode(n); err != nil {
			return errAt(path+".node.id", "%v", err)
		}
		// RestoreNode leaves block membership to the caller (the graph
		// codec restores lists verbatim); an added node joins its block.
		g.Blocks[nd.Block].Nodes = append(g.Blocks[nd.Block].Nodes, n.ID)
		return nil

	case OpRemoveNode:
		id := cdfg.NodeID(*op.ID)
		if g.Node(id) == nil {
			return errAt(path+".id", "no node %d", *op.ID)
		}
		if id == g.Start || id == g.End {
			return errAt(path+".id", "cannot remove the graph's START/END node %d", *op.ID)
		}
		for _, b := range g.Blocks {
			if b.Kind != cdfg.BlockTop && (b.Root == id || b.End == id) {
				return errAt(path+".id", "node %d is block %d's loop context", *op.ID, b.ID)
			}
		}
		g.RemoveNode(id)
		return nil

	case OpRetypeNode:
		n := g.Node(cdfg.NodeID(*op.ID))
		if n == nil {
			return errAt(path+".id", "no node %d", *op.ID)
		}
		if len(op.Stmts) > 0 {
			if n.Kind != cdfg.KindOp && n.Kind != cdfg.KindAssign {
				return errAt(path+".stmts", "node %d is %s, not op/assign", *op.ID, nodeKindNames[n.Kind])
			}
			stmts, err := decodeStmts(op.Stmts, path+".stmts")
			if err != nil {
				return err
			}
			n.Stmts = stmts
			return nil
		}
		if n.Kind != cdfg.KindLoop && n.Kind != cdfg.KindIf {
			return errAt(path+".cond", "node %d is %s, not loop/if", *op.ID, nodeKindNames[n.Kind])
		}
		if *op.Cond == "" {
			return errAt(path+".cond", "empty condition register")
		}
		n.Cond = *op.Cond
		return nil

	case OpAddArc:
		ad := op.Arc
		kind, ok := arcKindVals[ad.Kind]
		if !ok {
			return errAt(path+".arc.kind", "unknown arc kind %q", ad.Kind)
		}
		group, ok := groupVals[ad.Group]
		if !ok {
			return errAt(path+".arc.group", "unknown firing group %q", ad.Group)
		}
		branch, ok := branchVals[ad.Branch]
		if !ok {
			return errAt(path+".arc.branch", "unknown branch %q", ad.Branch)
		}
		if ad.ID < 0 {
			return errAt(path+".arc.id", "negative arc ID %d", ad.ID)
		}
		if g.Arc(cdfg.ArcID(ad.ID)) != nil {
			return errAt(path+".arc.id", "arc %d already exists", ad.ID)
		}
		if g.Node(cdfg.NodeID(ad.From)) == nil {
			return errAt(path+".arc.from", "dangling node ID %d", ad.From)
		}
		if g.Node(cdfg.NodeID(ad.To)) == nil {
			return errAt(path+".arc.to", "dangling node ID %d", ad.To)
		}
		a := &cdfg.Arc{
			ID: cdfg.ArcID(ad.ID), From: cdfg.NodeID(ad.From), To: cdfg.NodeID(ad.To),
			Kind: kind, Group: group, Branch: branch, Note: ad.Note,
		}
		if err := g.RestoreArc(a); err != nil {
			return errAt(path+".arc.id", "%v", err)
		}
		return nil

	case OpRemoveArc:
		id := cdfg.ArcID(*op.ID)
		if g.Arc(id) == nil {
			return errAt(path+".id", "no arc %d", *op.ID)
		}
		g.RemoveArc(id)
		return nil

	case OpRewireArc:
		a := g.Arc(cdfg.ArcID(*op.ID))
		if a == nil {
			return errAt(path+".id", "no arc %d", *op.ID)
		}
		if op.From != nil {
			if g.Node(cdfg.NodeID(*op.From)) == nil {
				return errAt(path+".from", "dangling node ID %d", *op.From)
			}
			a.From = cdfg.NodeID(*op.From)
		}
		if op.To != nil {
			if g.Node(cdfg.NodeID(*op.To)) == nil {
				return errAt(path+".to", "dangling node ID %d", *op.To)
			}
			a.To = cdfg.NodeID(*op.To)
		}
		return nil

	case OpRetime:
		n := g.Node(cdfg.NodeID(*op.ID))
		if n == nil {
			return errAt(path+".id", "no node %d", *op.ID)
		}
		n.Order = *op.Order
		return nil
	}
	return errAt(path+".op", "unknown delta op %q", op.Op) // unreachable after validateOpFields
}
