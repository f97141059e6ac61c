// Package sim executes CDFGs and extracted controller systems.
//
// The token simulator in this file implements the paper's reference firing
// semantics: an operation node may fire when all its predecessor constraint
// arcs carry tokens (backward arcs are pre-enabled on loop entry). Nodes
// take arbitrary positive amounts of time, so the simulator doubles as a
// correctness oracle: running the same graph under many random delay
// assignments must always produce the reference register values, must never
// queue two pending events on one arc (the single-transition wire safety
// requirement of §2.2), and must never exhibit a register read/write race.
package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cdfg"
)

// Delays supplies execution latencies. Op returns the latency of firing a
// node; Wire returns the propagation delay of an arc. Both must be
// positive.
type Delays struct {
	Op   func(n *cdfg.Node) float64
	Wire func(a *cdfg.Arc) float64
}

// FixedDelays returns a delay model with uniform latencies: opDelay per
// node firing and wireDelay per arc.
func FixedDelays(opDelay, wireDelay float64) Delays {
	return Delays{
		Op:   func(*cdfg.Node) float64 { return opDelay },
		Wire: func(*cdfg.Arc) float64 { return wireDelay },
	}
}

// PerFUDelays returns a delay model with per-functional-unit node latencies
// (falling back to def) and fixed wire delay.
func PerFUDelays(fu map[string]float64, def, wire float64) Delays {
	return Delays{
		Op: func(n *cdfg.Node) float64 {
			if d, ok := fu[n.FU]; ok && n.UsesFU() {
				return d
			}
			return def
		},
		Wire: func(*cdfg.Arc) float64 { return wire },
	}
}

// RandomDelays returns a delay model drawing each firing latency uniformly
// from [min,max) with the given seed; wire delays are drawn from
// [wmin,wmax). Distinct firings of the same node get fresh draws.
func RandomDelays(seed int64, min, max, wmin, wmax float64) Delays {
	r := rand.New(rand.NewSource(seed))
	return Delays{
		Op:   func(*cdfg.Node) float64 { return min + r.Float64()*(max-min) },
		Wire: func(*cdfg.Arc) float64 { return wmin + r.Float64()*(wmax-wmin) },
	}
}

// Violation records a detected safety violation during simulation.
type Violation struct {
	Time float64
	Msg  string
}

// Result summarizes a token simulation run.
type Result struct {
	Regs        map[string]float64
	FinishTime  float64 // time at which END fired
	Firings     int
	LoopIters   map[cdfg.NodeID]int // iterations per LOOP node
	Violations  []Violation
	MaxOccupied map[cdfg.ArcID]int // peak pending tokens per arc
	Finished    bool
	// Trace records every arc token production (when CollectTrace is set).
	Trace []ArcFiring
}

// ArcFiring is one token production on an arc.
type ArcFiring struct {
	Arc  cdfg.ArcID
	From cdfg.NodeID
	Time float64
}

// TokenSim executes a CDFG under the token firing semantics.
type TokenSim struct {
	g      *cdfg.Graph
	delays Delays
	// MaxFirings bounds execution to catch runaway loops (default 100000).
	MaxFirings int
	// CheckRaces enables register read/write race detection.
	CheckRaces bool
	// CollectTrace records arc token productions in Result.Trace.
	CollectTrace bool
}

// NewTokenSim creates a simulator for g with the given delay model.
func NewTokenSim(g *cdfg.Graph, d Delays) *TokenSim {
	return &TokenSim{g: g, delays: d, MaxFirings: 100000, CheckRaces: true}
}

type regAccess struct {
	start, end float64
	write      bool
	node       cdfg.NodeID
}

// Run executes the graph to completion (END fired and no events pending) or
// until MaxFirings is exceeded.
func (s *TokenSim) Run() (*Result, error) {
	g := s.g
	res := &Result{
		Regs:        map[string]float64{},
		LoopIters:   map[cdfg.NodeID]int{},
		MaxOccupied: map[cdfg.ArcID]int{},
	}
	for k, v := range g.Init {
		res.Regs[k] = v
	}
	tokens := map[cdfg.ArcID]int{}
	busyUntil := map[cdfg.NodeID]float64{}
	accesses := map[string][]regAccess{}
	var q queue
	var arrive func(a *cdfg.Arc) func(t float64)

	violate := func(t float64, format string, args ...interface{}) {
		res.Violations = append(res.Violations, Violation{Time: t, Msg: fmt.Sprintf(format, args...)})
	}

	// ready reports whether node n can fire given current tokens, and
	// returns the satisfied alternative group (or GroupAll when the node
	// has none).
	ready := func(n *cdfg.Node) (cdfg.InGroup, bool) {
		in := g.In(n.ID)
		groups := map[cdfg.InGroup][]*cdfg.Arc{}
		for _, a := range in {
			groups[a.Group] = append(groups[a.Group], a)
		}
		for _, a := range groups[cdfg.GroupAll] {
			if tokens[a.ID] == 0 {
				return 0, false
			}
		}
		alt := []cdfg.InGroup{cdfg.GroupEnter, cdfg.GroupRepeat, cdfg.GroupThen, cdfg.GroupElse}
		hasAlt := false
		for _, grp := range alt {
			if len(groups[grp]) == 0 {
				continue
			}
			hasAlt = true
			all := true
			for _, a := range groups[grp] {
				if tokens[a.ID] == 0 {
					all = false
					break
				}
			}
			if all {
				return grp, true
			}
		}
		if hasAlt {
			return 0, false
		}
		return cdfg.GroupAll, true
	}

	// fire executes node n at time t, consuming the satisfied group.
	var fire func(n *cdfg.Node, grp cdfg.InGroup, t float64)
	fire = func(n *cdfg.Node, grp cdfg.InGroup, t float64) {
		res.Firings++
		for _, a := range g.In(n.ID) {
			if a.Group == cdfg.GroupAll || a.Group == grp {
				if tokens[a.ID] > 0 {
					tokens[a.ID]--
				}
			}
		}
		d := s.delays.Op(n)
		if d <= 0 {
			d = 1e-9
		}
		done := t + d
		busyUntil[n.ID] = done

		branch := cdfg.OutAlways
		switch n.Kind {
		case cdfg.KindLoop, cdfg.KindIf:
			cond := res.Regs[n.Cond]
			if s.CheckRaces {
				accesses[n.Cond] = append(accesses[n.Cond], regAccess{start: t, end: t, node: n.ID})
			}
			if cond != 0 {
				branch = cdfg.OutTrue
			} else {
				branch = cdfg.OutFalse
			}
			if n.Kind == cdfg.KindLoop && branch == cdfg.OutTrue {
				res.LoopIters[n.ID]++
			}
			// Entering a loop from outside pre-enables its backward arcs.
			if n.Kind == cdfg.KindLoop && grp == cdfg.GroupEnter && branch == cdfg.OutTrue {
				for _, a := range g.Arcs() {
					if a.Kind == cdfg.ArcBackward && s.arcInLoopOf(n.ID, a) {
						tokens[a.ID]++
						if tokens[a.ID] > res.MaxOccupied[a.ID] {
							res.MaxOccupied[a.ID] = tokens[a.ID]
						}
					}
				}
			}
		case cdfg.KindOp, cdfg.KindAssign:
			// Read sources at fire time, write destinations at completion.
			vals := make([]float64, len(n.Stmts))
			for i, st := range n.Stmts {
				for _, r := range st.Reads() {
					if s.CheckRaces {
						accesses[r] = append(accesses[r], regAccess{start: t, end: t, node: n.ID})
					}
				}
				vals[i] = st.Op.Eval(res.Regs[st.Src1], res.Regs[st.Src2])
			}
			for i, st := range n.Stmts {
				res.Regs[st.Dst] = vals[i]
				if s.CheckRaces {
					accesses[st.Dst] = append(accesses[st.Dst], regAccess{start: t, end: done, write: true, node: n.ID})
				}
			}
		case cdfg.KindEnd:
			res.Finished = true
			res.FinishTime = done
		}

		if s.CollectTrace {
			for _, a := range g.Out(n.ID) {
				emit := a.Branch == cdfg.OutAlways || a.Branch == branch
				if a.Kind == cdfg.ArcBackward {
					emit = branch != cdfg.OutFalse
				}
				if emit {
					res.Trace = append(res.Trace, ArcFiring{Arc: a.ID, From: n.ID, Time: done})
				}
			}
		}
		for _, a := range g.Out(n.ID) {
			if a.Kind == cdfg.ArcBackward {
				// Backward arcs deliver their token like regular arcs; only
				// pre-enabling at loop entry is special.
				if branch != cdfg.OutFalse {
					q.at(done+s.wireDelay(a), arrive(a))
				}
				continue
			}
			if a.Branch == cdfg.OutAlways || a.Branch == branch {
				q.at(done+s.wireDelay(a), arrive(a))
			}
		}
	}

	// try fires node n at time t while it is enabled: several arcs may
	// have arrived at the same instant. A node is a sequential resource:
	// if it is still busy, the firing is deferred so register reads
	// happen at the true firing time.
	var try func(n *cdfg.Node, t float64)
	try = func(n *cdfg.Node, t float64) {
		for {
			grp, ok := ready(n)
			if !ok {
				break
			}
			if bu := busyUntil[n.ID]; bu > t {
				q.at(bu, func(t float64) { try(n, t) })
				break
			}
			fire(n, grp, t)
			if n.Kind == cdfg.KindEnd || n.Kind == cdfg.KindStart {
				break
			}
		}
	}
	// arrive delivers a token on arc a.
	arrive = func(a *cdfg.Arc) func(t float64) {
		return func(t float64) {
			tokens[a.ID]++
			if tokens[a.ID] > res.MaxOccupied[a.ID] {
				res.MaxOccupied[a.ID] = tokens[a.ID]
			}
			if tokens[a.ID] > 1 {
				violate(t, "wire safety: arc %d (n%d→n%d) has %d pending tokens", a.ID, a.From, a.To, tokens[a.ID])
			}
			try(g.Node(a.To), t)
		}
	}

	// Kick off START.
	fire(g.Node(g.Start), cdfg.GroupAll, 0)
	if !q.run(func() bool { return res.Firings > s.MaxFirings }) {
		return res, fmt.Errorf("sim: exceeded %d firings (runaway loop?)", s.MaxFirings)
	}

	if s.CheckRaces {
		s.detectRaces(accesses, res)
	}
	return res, nil
}

func (s *TokenSim) wireDelay(a *cdfg.Arc) float64 {
	d := s.delays.Wire(a)
	if d <= 0 {
		d = 1e-9
	}
	return d
}

// arcInLoopOf reports whether arc a is a backward arc of the loop rooted at
// loopRoot: both endpoints inside that loop's body (transitively).
func (s *TokenSim) arcInLoopOf(loopRoot cdfg.NodeID, a *cdfg.Arc) bool {
	var blk *cdfg.Block
	for _, b := range s.g.Blocks {
		if b.Kind == cdfg.BlockLoop && b.Root == loopRoot {
			blk = b
			break
		}
	}
	if blk == nil {
		return false
	}
	return s.nodeInBlock(a.From, blk.ID) && s.nodeInBlock(a.To, blk.ID)
}

func (s *TokenSim) nodeInBlock(id cdfg.NodeID, block int) bool {
	b := s.g.Node(id).Block
	for b >= 0 {
		if b == block {
			return true
		}
		b = s.g.Blocks[b].Parent
	}
	return false
}

// detectRaces flags overlapping register accesses that are not causally
// ordered: a read strictly inside another node's write window, or two
// overlapping write windows.
func (s *TokenSim) detectRaces(accesses map[string][]regAccess, res *Result) {
	var regs []string
	for r := range accesses {
		regs = append(regs, r)
	}
	sort.Strings(regs)
	for _, r := range regs {
		acc := accesses[r]
		for i, w := range acc {
			if !w.write {
				continue
			}
			for j, o := range acc {
				if i == j || o.node == w.node {
					continue
				}
				if o.write {
					if o.start < w.end && w.start < o.end && i < j {
						res.Violations = append(res.Violations, Violation{
							Time: w.start,
							Msg:  fmt.Sprintf("race: overlapping writes to %s by n%d and n%d", r, w.node, o.node),
						})
					}
				} else if o.start > w.start && o.start < w.end {
					res.Violations = append(res.Violations, Violation{
						Time: o.start,
						Msg:  fmt.Sprintf("race: n%d reads %s during write by n%d", o.node, r, w.node),
					})
				}
			}
		}
	}
}
