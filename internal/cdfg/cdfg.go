// Package cdfg implements scheduled, resource-bound Control-Data Flow
// Graphs in the form used by Theobald & Nowick (DAC 2001) for asynchronous
// distributed control synthesis.
//
// A CDFG is block-structured: the nodes between LOOP/ENDLOOP and IF/ENDIF
// pairs form blocks, and constraint arcs never cross block boundaries (they
// enter and exit at the block root). Operation nodes are bound to functional
// units; explicit constraint arcs encode control flow, per-unit scheduling,
// data dependencies and register allocation (anti-dependencies). A node may
// fire when all its predecessor arcs carry tokens; backward arcs (added by
// the loop-parallelism transform) are pre-enabled on loop entry.
package cdfg

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a node within a Graph.
type NodeID int

// ArcID identifies an arc within a Graph.
type ArcID int

// NodeKind classifies CDFG nodes.
type NodeKind int

// Node kinds per the paper: START/END delimit the program, LOOP/ENDLOOP and
// IF/ENDIF delimit blocks, Op nodes use their functional unit, Assign nodes
// only move register values.
const (
	KindStart NodeKind = iota
	KindEnd
	KindLoop
	KindEndLoop
	KindIf
	KindEndIf
	KindOp
	KindAssign
)

func (k NodeKind) String() string {
	switch k {
	case KindStart:
		return "START"
	case KindEnd:
		return "END"
	case KindLoop:
		return "LOOP"
	case KindEndLoop:
		return "ENDLOOP"
	case KindIf:
		return "IF"
	case KindEndIf:
		return "ENDIF"
	case KindOp:
		return "OP"
	case KindAssign:
		return "ASSIGN"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Op is an RTL operation mnemonic.
type Op string

// Supported RTL operations. OpMov is a pure register move (an assignment
// node, which does not use its functional unit).
const (
	OpAdd Op = "+"
	OpSub Op = "-"
	OpMul Op = "*"
	OpLT  Op = "<"
	OpGT  Op = ">"
	OpEQ  Op = "=="
	OpMod Op = "%"
	OpMov Op = "mov"
)

// opTable is the operator table: each operation's name in controller
// signals and its arithmetic. Every simulator evaluates through it, and
// extraction names the go lines from it. The sequential interpreter in
// internal/frontend keeps its own arithmetic: it is the reference the
// simulators are checked against.
var opTable = map[Op]struct {
	name string
	eval func(a, b float64) float64
}{
	OpAdd: {"add", func(a, b float64) float64 { return a + b }},
	OpSub: {"sub", func(a, b float64) float64 { return a - b }},
	OpMul: {"mul", func(a, b float64) float64 { return a * b }},
	OpLT:  {"lt", func(a, b float64) float64 { return b2f(a < b) }},
	OpGT:  {"gt", func(a, b float64) float64 { return b2f(a > b) }},
	OpEQ:  {"eq", func(a, b float64) float64 { return b2f(a == b) }},
	OpMod: {"mod", func(a, b float64) float64 {
		if int64(b) == 0 {
			return 0
		}
		return float64(int64(a) % int64(b))
	}},
	OpMov: {"mov", func(a, _ float64) float64 { return a }},
}

// Valid reports whether op is a supported operation.
func (op Op) Valid() bool {
	_, ok := opTable[op]
	return ok
}

// Name returns the operation's name in controller signals: a unit
// performs it on request line go_<Name>. An unknown operation is "op".
func (op Op) Name() string {
	if d, ok := opTable[op]; ok {
		return d.name
	}
	return "op"
}

// OpNamed returns the operation whose Name is name.
func OpNamed(name string) (Op, bool) {
	for op, d := range opTable {
		if d.name == name {
			return op, true
		}
	}
	return "", false
}

// Eval applies the operation to operands a and b (OpMov ignores b).
// Comparisons yield 1 or 0, and x % 0 is 0. Eval panics on an unknown
// operation.
func (op Op) Eval(a, b float64) float64 {
	d, ok := opTable[op]
	if !ok {
		panic(fmt.Sprintf("cdfg: unknown op %q", op))
	}
	return d.eval(a, b)
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// Stmt is a single RTL statement Dst := Src1 Op Src2 (or Dst := Src1 for
// OpMov).
type Stmt struct {
	Dst  string
	Op   Op
	Src1 string
	Src2 string
}

// Reads returns the registers read by the statement.
func (s Stmt) Reads() []string {
	if s.Op == OpMov || s.Src2 == "" {
		return []string{s.Src1}
	}
	return []string{s.Src1, s.Src2}
}

func (s Stmt) String() string {
	if s.Op == OpMov {
		return fmt.Sprintf("%s:=%s", s.Dst, s.Src1)
	}
	return fmt.Sprintf("%s:=%s%s%s", s.Dst, s.Src1, s.Op, s.Src2)
}

// InGroup classifies a node's incoming arcs into alternative firing groups.
// A node fires when every GroupAll in-arc has a token and, if the node has
// any alternative-group in-arcs, all arcs of at least one alternative group
// have tokens.
type InGroup int

// Incoming arc groups. GroupEnter/GroupRepeat are the alternative entry
// paths of a LOOP node; GroupThen/GroupElse are the alternative join paths
// of an ENDIF node.
const (
	GroupAll InGroup = iota
	GroupEnter
	GroupRepeat
	GroupThen
	GroupElse
)

// OutBranch classifies a node's outgoing arcs. Branch-capable nodes (LOOP,
// IF) emit tokens only on the arcs matching the condition outcome.
type OutBranch int

// Outgoing arc branches.
const (
	OutAlways OutBranch = iota
	OutTrue
	OutFalse
)

// ArcKind classifies constraint arcs per the paper's taxonomy.
type ArcKind int

// Arc kinds. ArcBackward arcs are added by the loop-parallelism transform
// and are pre-enabled on loop entry.
const (
	ArcControl ArcKind = iota
	ArcSched
	ArcData
	ArcRegAlloc
	ArcBackward
)

func (k ArcKind) String() string {
	switch k {
	case ArcControl:
		return "control"
	case ArcSched:
		return "sched"
	case ArcData:
		return "data"
	case ArcRegAlloc:
		return "reg"
	case ArcBackward:
		return "backward"
	default:
		return fmt.Sprintf("ArcKind(%d)", int(k))
	}
}

// Node is a CDFG node. Stmts holds one statement for Op/Assign nodes and
// several after assignment merging (GT4). Cond names the condition register
// of LOOP and IF nodes.
type Node struct {
	ID    NodeID
	Kind  NodeKind
	FU    string
	Stmts []Stmt
	Cond  string
	Block int // block this node belongs to (its body for Loop/If roots' parents)
	Order int // program order used for scheduling and dependency generation
}

// Label returns a human-readable node label.
func (n *Node) Label() string {
	switch n.Kind {
	case KindOp, KindAssign:
		parts := make([]string, len(n.Stmts))
		for i, s := range n.Stmts {
			parts[i] = s.String()
		}
		return strings.Join(parts, "; ")
	case KindLoop:
		return "LOOP " + n.Cond
	case KindIf:
		return "IF " + n.Cond
	default:
		return n.Kind.String()
	}
}

// UsesFU reports whether the node occupies its functional unit's datapath
// (assignment nodes and pure control nodes do not).
func (n *Node) UsesFU() bool {
	if n.Kind != KindOp {
		return false
	}
	for _, s := range n.Stmts {
		if s.Op != OpMov {
			return true
		}
	}
	return false
}

// Writes returns the registers written by the node.
func (n *Node) Writes() []string {
	var out []string
	for _, s := range n.Stmts {
		out = append(out, s.Dst)
	}
	return out
}

// Reads returns the registers read by the node (including the condition
// register of LOOP/IF nodes).
func (n *Node) Reads() []string {
	var out []string
	for _, s := range n.Stmts {
		out = append(out, s.Reads()...)
	}
	if n.Cond != "" {
		out = append(out, n.Cond)
	}
	return out
}

// Arc is a constraint arc. Inter-functional-unit arcs become communication
// channels (single "ready" wires) in the target architecture.
type Arc struct {
	ID     ArcID
	From   NodeID
	To     NodeID
	Kind   ArcKind
	Group  InGroup   // firing group at the destination
	Branch OutBranch // emission branch at the source
	Note   string    // e.g. the register responsible for the dependency
}

// BlockKind classifies blocks.
type BlockKind int

// Block kinds.
const (
	BlockTop BlockKind = iota
	BlockLoop
	BlockIf
)

// Block is a block-structured region: the top level, a loop body, or an if
// body.
type Block struct {
	ID     int
	Kind   BlockKind
	Root   NodeID // LOOP or IF node (unset for top)
	End    NodeID // ENDLOOP or ENDIF node (unset for top)
	Parent int    // parent block ID (-1 for top)
	Nodes  []NodeID
}

// Graph is a scheduled, resource-bound CDFG.
type Graph struct {
	Name   string
	nodes  map[NodeID]*Node
	arcs   map[ArcID]*Arc
	nextN  NodeID
	nextA  ArcID
	Blocks []*Block
	FUs    []string
	Start  NodeID
	End    NodeID
	// Consts lists registers treated as constants (never written, no
	// register-allocation arcs needed).
	Consts map[string]bool
	// Init holds initial register values for simulation.
	Init map[string]float64
}

// NewGraph creates an empty CDFG with START and END nodes and a top-level
// block.
func NewGraph(name string, fus []string) *Graph {
	g := &Graph{
		Name:   name,
		nodes:  map[NodeID]*Node{},
		arcs:   map[ArcID]*Arc{},
		FUs:    append([]string(nil), fus...),
		Consts: map[string]bool{},
	}
	g.Blocks = []*Block{{ID: 0, Kind: BlockTop, Parent: -1}}
	g.Start = g.AddNode(&Node{Kind: KindStart, Block: 0})
	g.End = g.AddNode(&Node{Kind: KindEnd, Block: 0})
	return g
}

// AddNode inserts a node and returns its ID. The caller sets Kind, FU,
// Stmts, Cond and Block; Order defaults to insertion order.
func (g *Graph) AddNode(n *Node) NodeID {
	id := g.nextN
	g.nextN++
	n.ID = id
	if n.Order == 0 {
		n.Order = int(id)
	}
	g.nodes[id] = n
	if n.Block >= 0 && n.Block < len(g.Blocks) {
		g.Blocks[n.Block].Nodes = append(g.Blocks[n.Block].Nodes, id)
	}
	return id
}

// AddBlock creates a new block and returns its ID.
func (g *Graph) AddBlock(kind BlockKind, parent int) int {
	b := &Block{ID: len(g.Blocks), Kind: kind, Parent: parent}
	g.Blocks = append(g.Blocks, b)
	return b.ID
}

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id NodeID) *Node { return g.nodes[id] }

// Arc returns the arc with the given ID, or nil.
func (g *Graph) Arc(id ArcID) *Arc { return g.arcs[id] }

// AddArc inserts an arc and returns its ID. Duplicate arcs (same endpoints
// and group) are coalesced: the existing arc is returned and its note
// extended.
func (g *Graph) AddArc(a *Arc) ArcID {
	for _, e := range g.arcs {
		if e.From == a.From && e.To == a.To && e.Group == a.Group && e.Branch == a.Branch {
			if a.Note != "" && !strings.Contains(e.Note, a.Note) {
				if e.Note != "" {
					e.Note += ","
				}
				e.Note += a.Note
			}
			return e.ID
		}
	}
	id := g.nextA
	g.nextA++
	a.ID = id
	g.arcs[id] = a
	return id
}

// RemoveArc deletes an arc.
func (g *Graph) RemoveArc(id ArcID) { delete(g.arcs, id) }

// RemoveNode deletes a node, its incident arcs, and its block-list entry.
func (g *Graph) RemoveNode(id NodeID) {
	for _, a := range g.Arcs() {
		if a.From == id || a.To == id {
			g.RemoveArc(a.ID)
		}
	}
	n := g.nodes[id]
	if n != nil && n.Block >= 0 && n.Block < len(g.Blocks) {
		blk := g.Blocks[n.Block]
		for i, x := range blk.Nodes {
			if x == id {
				blk.Nodes = append(blk.Nodes[:i], blk.Nodes[i+1:]...)
				break
			}
		}
	}
	delete(g.nodes, id)
}

// Nodes returns all nodes sorted by ID.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Arcs returns all arcs sorted by ID.
func (g *Graph) Arcs() []*Arc {
	out := make([]*Arc, 0, len(g.arcs))
	for _, a := range g.arcs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// In returns the incoming arcs of node id sorted by arc ID.
func (g *Graph) In(id NodeID) []*Arc {
	var out []*Arc
	for _, a := range g.arcs {
		if a.To == id {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Out returns the outgoing arcs of node id sorted by arc ID.
func (g *Graph) Out(id NodeID) []*Arc {
	var out []*Arc
	for _, a := range g.arcs {
		if a.From == id {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FindArc returns the arc from → to, or nil.
func (g *Graph) FindArc(from, to NodeID) *Arc {
	for _, a := range g.arcs {
		if a.From == from && a.To == to {
			return a
		}
	}
	return nil
}

// FUNodes returns the nodes bound to the given functional unit across the
// whole graph, in program order. LOOP/ENDLOOP and IF/ENDIF nodes appear in
// the schedule of the unit they are bound to.
func (g *Graph) FUNodes(fu string) []*Node {
	var out []*Node
	for _, n := range g.nodes {
		if n.FU == fu {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

// BlockNodes returns the nodes of block b in program order (excluding the
// root and end nodes of b itself, which belong to the parent for scheduling
// but are recorded on the block).
func (g *Graph) BlockNodes(b int) []*Node {
	blk := g.Blocks[b]
	var out []*Node
	for _, id := range blk.Nodes {
		out = append(out, g.nodes[id])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

// LoopOf returns the innermost enclosing loop block of block b, or nil.
func (g *Graph) LoopOf(b int) *Block {
	for b >= 0 {
		blk := g.Blocks[b]
		if blk.Kind == BlockLoop {
			return blk
		}
		b = blk.Parent
	}
	return nil
}

// Clone returns a deep copy of the graph. Transforms operate on clones so
// the optimization pipeline can compare stages.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		Name:   g.Name,
		nodes:  make(map[NodeID]*Node, len(g.nodes)),
		arcs:   make(map[ArcID]*Arc, len(g.arcs)),
		nextN:  g.nextN,
		nextA:  g.nextA,
		FUs:    append([]string(nil), g.FUs...),
		Start:  g.Start,
		End:    g.End,
		Consts: make(map[string]bool, len(g.Consts)),
	}
	for k, v := range g.Consts {
		ng.Consts[k] = v
	}
	if g.Init != nil {
		ng.Init = make(map[string]float64, len(g.Init))
		for k, v := range g.Init {
			ng.Init[k] = v
		}
	}
	for id, n := range g.nodes {
		cp := *n
		cp.Stmts = append([]Stmt(nil), n.Stmts...)
		ng.nodes[id] = &cp
	}
	for id, a := range g.arcs {
		cp := *a
		ng.arcs[id] = &cp
	}
	for _, b := range g.Blocks {
		cb := *b
		cb.Nodes = append([]NodeID(nil), b.Nodes...)
		ng.Blocks = append(ng.Blocks, &cb)
	}
	return ng
}

// InterFUArcs returns the arcs whose endpoints are bound to different
// functional units; these are the arcs realized as communication channels.
// Arcs incident to START/END (unbound nodes) are included when env is true:
// they become channels to the environment.
func (g *Graph) InterFUArcs(env bool) []*Arc {
	var out []*Arc
	for _, a := range g.Arcs() {
		from, to := g.nodes[a.From], g.nodes[a.To]
		if from.FU == "" || to.FU == "" {
			if env {
				out = append(out, a)
			}
			continue
		}
		if from.FU != to.FU {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// String renders a compact textual description of the graph.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cdfg %s (%d nodes, %d arcs)\n", g.Name, len(g.nodes), len(g.arcs))
	for _, n := range g.Nodes() {
		fu := n.FU
		if fu == "" {
			fu = "-"
		}
		fmt.Fprintf(&b, "  n%d [%s] %s\n", n.ID, fu, n.Label())
	}
	for _, a := range g.Arcs() {
		fmt.Fprintf(&b, "  a%d n%d -> n%d (%s)\n", a.ID, a.From, a.To, a.Kind)
	}
	return b.String()
}
