// Package codec is the versioned JSON interchange layer of the synthesis
// service: it serializes scheduled CDFGs (cdfg.Graph — blocks, nodes,
// constraint arcs, loop contexts, functional-unit and register bindings)
// for submission to the job server, and synthesis outcomes
// (core.Synthesis plus gate-level results — per-FU AFSMs, structural
// Verilog netlists and the paper's Figure 12/13 metrics) for retrieval,
// so external clients can submit workloads the repo has never seen and
// read back everything the CLI would have printed.
//
// # Format
//
// Every document carries a `version` (the package's Version constant; the
// decoder rejects anything else) and a `kind` discriminator ("cdfg" or
// "synthesis"). Graph documents list blocks, nodes and arcs explicitly,
// with all enums as strings (node kinds, arc kinds, firing groups,
// emission branches, RTL ops) and all IDs preserved exactly — a decoded
// graph is reconstructed through the cdfg restore seam with the original
// node/arc/block IDs, so EncodeGraph(DecodeGraph(x)) == x byte for byte.
// Encoding is deterministic: nodes and arcs are sorted by ID, name sets
// sorted lexicographically, and maps marshal with sorted keys.
//
// # Validation
//
// DecodeGraph is strict: unknown fields, malformed JSON, out-of-range
// references (dangling node IDs in arcs or block lists, bad loop
// contexts), invalid enum strings and inconsistent block structure all
// return a typed *Error naming the offending location — never a panic.
// Structural rules (arcs crossing block boundaries, loops without repeat
// arcs, nodes without in-arcs) are enforced by reusing cdfg.Validate on
// the reconstructed graph, so the codec accepts exactly the graphs the
// pipeline itself considers well-formed.
package codec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/cdfg"
)

// Version is the interchange format version; documents with any other
// version are rejected so incompatible clients fail loudly.
const Version = 1

// Document kinds.
const (
	KindGraph     = "cdfg"
	KindSynthesis = "synthesis"
)

// Error is a decoding or validation failure, locating the problem by a
// JSON-path-like string (e.g. "arcs[3].kind"). All non-panicking decode
// failures surface as *Error so clients and the HTTP layer can
// distinguish malformed submissions from server faults.
type Error struct {
	Path string // location within the document ("" = whole body)
	Msg  string
}

func (e *Error) Error() string {
	if e.Path == "" {
		return "codec: " + e.Msg
	}
	return "codec: " + e.Path + ": " + e.Msg
}

func errAt(path, format string, args ...interface{}) *Error {
	return &Error{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// GraphDoc is the JSON form of a scheduled CDFG.
type GraphDoc struct {
	Version int                `json:"version"`
	Kind    string             `json:"kind"`
	Name    string             `json:"name"`
	FUs     []string           `json:"fus"`
	Consts  []string           `json:"consts,omitempty"`
	Init    map[string]float64 `json:"init,omitempty"`
	Start   int                `json:"start"`
	End     int                `json:"end"`
	Blocks  []BlockDoc         `json:"blocks"`
	Nodes   []NodeDoc          `json:"nodes"`
	Arcs    []ArcDoc           `json:"arcs"`
}

// BlockDoc is one block-structured region (top level, loop body or if
// body). Root and End are meaningful for loop/if blocks only.
type BlockDoc struct {
	ID     int    `json:"id"`
	Kind   string `json:"kind"`
	Root   int    `json:"root"`
	End    int    `json:"end"`
	Parent int    `json:"parent"`
	Nodes  []int  `json:"nodes,omitempty"`
}

// StmtDoc is one RTL statement.
type StmtDoc struct {
	Dst  string `json:"dst"`
	Op   string `json:"op"`
	Src1 string `json:"src1"`
	Src2 string `json:"src2,omitempty"`
}

// NodeDoc is one CDFG node.
type NodeDoc struct {
	ID    int       `json:"id"`
	Kind  string    `json:"kind"`
	FU    string    `json:"fu,omitempty"`
	Stmts []StmtDoc `json:"stmts,omitempty"`
	Cond  string    `json:"cond,omitempty"`
	Block int       `json:"block"`
	Order int       `json:"order"`
}

// ArcDoc is one constraint arc.
type ArcDoc struct {
	ID     int    `json:"id"`
	From   int    `json:"from"`
	To     int    `json:"to"`
	Kind   string `json:"kind"`
	Group  string `json:"group,omitempty"`  // omitted = "all"
	Branch string `json:"branch,omitempty"` // omitted = "always"
	Note   string `json:"note,omitempty"`
}

// Enum tables. Encoding uses the forward maps; decoding the inverses.
var (
	nodeKindNames = map[cdfg.NodeKind]string{
		cdfg.KindStart: "start", cdfg.KindEnd: "end",
		cdfg.KindLoop: "loop", cdfg.KindEndLoop: "endloop",
		cdfg.KindIf: "if", cdfg.KindEndIf: "endif",
		cdfg.KindOp: "op", cdfg.KindAssign: "assign",
	}
	blockKindNames = map[cdfg.BlockKind]string{
		cdfg.BlockTop: "top", cdfg.BlockLoop: "loop", cdfg.BlockIf: "if",
	}
	arcKindNames = map[cdfg.ArcKind]string{
		cdfg.ArcControl: "control", cdfg.ArcSched: "sched", cdfg.ArcData: "data",
		cdfg.ArcRegAlloc: "reg", cdfg.ArcBackward: "backward",
	}
	groupNames = map[cdfg.InGroup]string{
		cdfg.GroupAll: "", cdfg.GroupEnter: "enter", cdfg.GroupRepeat: "repeat",
		cdfg.GroupThen: "then", cdfg.GroupElse: "else",
	}
	branchNames = map[cdfg.OutBranch]string{
		cdfg.OutAlways: "", cdfg.OutTrue: "true", cdfg.OutFalse: "false",
	}

	nodeKindVals  = invert(nodeKindNames)
	blockKindVals = invert(blockKindNames)
	arcKindVals   = invert(arcKindNames)
	groupVals     = invert(groupNames)
	branchVals    = invert(branchNames)
)

func invert[K comparable](m map[K]string) map[string]K {
	out := make(map[string]K, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// EncodeGraph renders g as an indented, deterministic interchange
// document: nodes and arcs sorted by ID, consts sorted, map keys sorted
// by encoding/json. The graph is validated first so only well-formed
// documents ever leave the process.
func EncodeGraph(g *cdfg.Graph) ([]byte, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("codec: encode: %w", err)
	}
	return marshalIndent(graphDoc(g))
}

// graphDoc builds the document EncodeGraph renders.
func graphDoc(g *cdfg.Graph) GraphDoc {
	doc := GraphDoc{
		Version: Version,
		Kind:    KindGraph,
		Name:    g.Name,
		FUs:     append([]string{}, g.FUs...),
		Start:   int(g.Start),
		End:     int(g.End),
	}
	for c, ok := range g.Consts {
		if ok {
			doc.Consts = append(doc.Consts, c)
		}
	}
	sort.Strings(doc.Consts)
	if len(g.Init) > 0 {
		doc.Init = make(map[string]float64, len(g.Init))
		for k, v := range g.Init {
			doc.Init[k] = v
		}
	}
	for _, b := range g.Blocks {
		bd := BlockDoc{ID: b.ID, Kind: blockKindNames[b.Kind], Root: int(b.Root), End: int(b.End), Parent: b.Parent}
		for _, id := range b.Nodes {
			bd.Nodes = append(bd.Nodes, int(id))
		}
		doc.Blocks = append(doc.Blocks, bd)
	}
	for _, n := range g.Nodes() {
		nd := NodeDoc{ID: int(n.ID), Kind: nodeKindNames[n.Kind], FU: n.FU, Cond: n.Cond, Block: n.Block, Order: n.Order}
		for _, s := range n.Stmts {
			nd.Stmts = append(nd.Stmts, StmtDoc{Dst: s.Dst, Op: string(s.Op), Src1: s.Src1, Src2: s.Src2})
		}
		doc.Nodes = append(doc.Nodes, nd)
	}
	for _, a := range g.Arcs() {
		doc.Arcs = append(doc.Arcs, ArcDoc{
			ID: int(a.ID), From: int(a.From), To: int(a.To),
			Kind: arcKindNames[a.Kind], Group: groupNames[a.Group],
			Branch: branchNames[a.Branch], Note: a.Note,
		})
	}
	return doc
}

// DecodeGraph parses and validates an interchange document and
// reconstructs the cdfg.Graph with its original IDs. Every failure is a
// typed *Error; malformed input can never panic the decoder.
func DecodeGraph(data []byte) (*cdfg.Graph, error) {
	var doc GraphDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, errAt("", "invalid JSON: %v", err)
	}
	// Reject trailing garbage after the document.
	if dec.More() {
		return nil, errAt("", "trailing data after document")
	}
	if doc.Version != Version {
		return nil, errAt("version", "unsupported version %d (want %d)", doc.Version, Version)
	}
	if doc.Kind != KindGraph {
		return nil, errAt("kind", "unexpected kind %q (want %q)", doc.Kind, KindGraph)
	}
	if doc.Name == "" {
		return nil, errAt("name", "missing graph name")
	}
	if len(doc.FUs) == 0 {
		return nil, errAt("fus", "no functional units")
	}
	if len(doc.Blocks) == 0 {
		return nil, errAt("blocks", "no blocks (need at least the top block)")
	}

	g := cdfg.NewEmptyGraph(doc.Name, doc.FUs)
	for _, c := range doc.Consts {
		g.Consts[c] = true
	}
	if len(doc.Init) > 0 {
		g.Init = make(map[string]float64, len(doc.Init))
		for k, v := range doc.Init {
			g.Init[k] = v
		}
	}

	nodeIDs := map[int]bool{}
	for i, nd := range doc.Nodes {
		path := fmt.Sprintf("nodes[%d]", i)
		kind, ok := nodeKindVals[nd.Kind]
		if !ok {
			return nil, errAt(path+".kind", "unknown node kind %q", nd.Kind)
		}
		if nd.ID < 0 {
			return nil, errAt(path+".id", "negative node ID %d", nd.ID)
		}
		if nd.Block < 0 || nd.Block >= len(doc.Blocks) {
			return nil, errAt(path+".block", "block %d out of range [0,%d)", nd.Block, len(doc.Blocks))
		}
		n := &cdfg.Node{ID: cdfg.NodeID(nd.ID), Kind: kind, FU: nd.FU, Cond: nd.Cond, Block: nd.Block, Order: nd.Order}
		for j, sd := range nd.Stmts {
			op := cdfg.Op(sd.Op)
			if !op.Valid() {
				return nil, errAt(fmt.Sprintf("%s.stmts[%d].op", path, j), "unknown operation %q", sd.Op)
			}
			if sd.Dst == "" || sd.Src1 == "" {
				return nil, errAt(fmt.Sprintf("%s.stmts[%d]", path, j), "statement needs dst and src1")
			}
			n.Stmts = append(n.Stmts, cdfg.Stmt{Dst: sd.Dst, Op: op, Src1: sd.Src1, Src2: sd.Src2})
		}
		if err := g.RestoreNode(n); err != nil {
			return nil, errAt(path+".id", "%v", err)
		}
		nodeIDs[nd.ID] = true
	}

	for i, bd := range doc.Blocks {
		path := fmt.Sprintf("blocks[%d]", i)
		kind, ok := blockKindVals[bd.Kind]
		if !ok {
			return nil, errAt(path+".kind", "unknown block kind %q", bd.Kind)
		}
		if bd.Parent >= len(doc.Blocks) || (bd.Parent < 0 && bd.Parent != -1) {
			return nil, errAt(path+".parent", "parent block %d out of range", bd.Parent)
		}
		if kind != cdfg.BlockTop {
			if !nodeIDs[bd.Root] {
				return nil, errAt(path+".root", "loop context references missing node %d", bd.Root)
			}
			if !nodeIDs[bd.End] {
				return nil, errAt(path+".end", "loop context references missing node %d", bd.End)
			}
		}
		b := &cdfg.Block{ID: bd.ID, Kind: kind, Root: cdfg.NodeID(bd.Root), End: cdfg.NodeID(bd.End), Parent: bd.Parent}
		for j, id := range bd.Nodes {
			if !nodeIDs[id] {
				return nil, errAt(fmt.Sprintf("%s.nodes[%d]", path, j), "dangling node ID %d", id)
			}
			if g.Node(cdfg.NodeID(id)).Block != bd.ID {
				return nil, errAt(fmt.Sprintf("%s.nodes[%d]", path, j), "node %d belongs to block %d, listed in %d",
					id, g.Node(cdfg.NodeID(id)).Block, bd.ID)
			}
			b.Nodes = append(b.Nodes, cdfg.NodeID(id))
		}
		if err := g.RestoreBlock(b); err != nil {
			return nil, errAt(path+".id", "%v", err)
		}
	}

	for i, ad := range doc.Arcs {
		path := fmt.Sprintf("arcs[%d]", i)
		kind, ok := arcKindVals[ad.Kind]
		if !ok {
			return nil, errAt(path+".kind", "unknown arc kind %q", ad.Kind)
		}
		group, ok := groupVals[ad.Group]
		if !ok {
			return nil, errAt(path+".group", "unknown firing group %q", ad.Group)
		}
		branch, ok := branchVals[ad.Branch]
		if !ok {
			return nil, errAt(path+".branch", "unknown branch %q", ad.Branch)
		}
		if !nodeIDs[ad.From] {
			return nil, errAt(path+".from", "dangling node ID %d", ad.From)
		}
		if !nodeIDs[ad.To] {
			return nil, errAt(path+".to", "dangling node ID %d", ad.To)
		}
		a := &cdfg.Arc{
			ID: cdfg.ArcID(ad.ID), From: cdfg.NodeID(ad.From), To: cdfg.NodeID(ad.To),
			Kind: kind, Group: group, Branch: branch, Note: ad.Note,
		}
		if err := g.RestoreArc(a); err != nil {
			return nil, errAt(path+".id", "%v", err)
		}
	}

	if !nodeIDs[doc.Start] {
		return nil, errAt("start", "dangling node ID %d", doc.Start)
	}
	if !nodeIDs[doc.End] {
		return nil, errAt("end", "dangling node ID %d", doc.End)
	}
	g.Start = cdfg.NodeID(doc.Start)
	g.End = cdfg.NodeID(doc.End)
	if g.Node(g.Start).Kind != cdfg.KindStart {
		return nil, errAt("start", "node %d is not a START node", doc.Start)
	}
	if g.Node(g.End).Kind != cdfg.KindEnd {
		return nil, errAt("end", "node %d is not an END node", doc.End)
	}

	// Structural validation: the same rules the pipeline enforces.
	if err := g.Validate(); err != nil {
		return nil, errAt("", "%v", err)
	}
	return g, nil
}

// marshalIndent renders a document as json.MarshalIndent(v, "", "  ")
// does, with a trailing newline, matching the golden-fixture convention.
func marshalIndent(v interface{}) ([]byte, error) {
	compact, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("codec: marshal: %w", err)
	}
	out := appendIndent(make([]byte, 0, 2*len(compact)+1), compact)
	return append(out, '\n'), nil
}
