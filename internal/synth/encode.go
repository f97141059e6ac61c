package synth

import (
	"math/bits"
	"slices"
)

// encoder gives a concretized machine's states the binary codes the
// encoding ladder tries. What does not depend on the width is built once
// per controller: the state graph's neighbour lists, its BFS order, its
// odd-cycle check and the sequential codes. Only the hypercube search
// runs at each width.
type encoder struct {
	c     *Concrete
	reach []int
	// nbrs[s] lists the states that share a transition with state s, in
	// ascending order: the search must try codes in the same order on
	// every run, or rejected encodings would pose run-dependent
	// minimization specs.
	nbrs [][]int
	// order is the BFS order from init, then the reachable states the
	// BFS did not see: each state is assigned close to an assigned
	// neighbour.
	order []int
	// odd reports an odd cycle. A hypercube is bipartite: an edge flips
	// one bit, and with it the parity of the code's ones. So an edge
	// between two states of equal BFS parity closes an odd cycle, and no
	// width has a distance-1 embedding. Concretize creates every state by
	// exploring from init, so the BFS sees every edge.
	odd bool
	seq map[int]uint64 // sequentialEncoding's codes, made on first use

	// The search's scratch, indexed by state ID: each state's code and
	// whether it has one, the codes in use as a bitset, and the anchors of
	// every state on the search's path.
	code     []uint64
	assigned []bool
	used     []uint64
	anchors  []uint64
	budget   int
}

func newEncoder(c *Concrete, reach []int) *encoder {
	n := len(c.States)
	e := &encoder{c: c, reach: reach, nbrs: make([][]int, n), code: make([]uint64, n), assigned: make([]bool, n)}
	for _, t := range c.Trans {
		if t.From != t.To {
			e.nbrs[t.From] = append(e.nbrs[t.From], t.To)
			e.nbrs[t.To] = append(e.nbrs[t.To], t.From)
		}
	}
	for s, ns := range e.nbrs {
		slices.Sort(ns)
		e.nbrs[s] = slices.Compact(ns)
	}
	parity := make([]int8, n) // 0 unseen, 1 at even BFS depth, 2 at odd
	parity[c.Init] = 1
	e.order = append(make([]int, 0, len(reach)), c.Init)
	for i := 0; i < len(e.order) && !e.odd; i++ {
		s := e.order[i]
		for _, m := range e.nbrs[s] {
			if parity[m] == 0 {
				parity[m] = 3 - parity[s]
				e.order = append(e.order, m)
			} else if parity[m] == parity[s] {
				e.odd = true
				break
			}
		}
	}
	for _, s := range reach {
		if parity[s] == 0 {
			e.order = append(e.order, s)
		}
	}
	return e
}

// codes returns the codes the ladder tries at a width: the hypercube
// embedding's, or the sequential ones when it finds none. It never
// returns nil.
func (e *encoder) codes(width int) map[int]uint64 {
	if enc := e.hypercube(width); enc != nil {
		return enc
	}
	if e.seq == nil {
		e.seq = sequentialEncoding(e.c, e.reach)
	}
	return e.seq
}

// hypercube searches for a state encoding in which every transition has
// Hamming distance 1: the machine's state graph is embedded into the
// width-dimensional hypercube. Distance-1 transitions make the settle
// cubes exactly the two endpoint codes, so no foreign state code is ever
// crossed — the classic critical-race-free property, obtained
// structurally. Returns nil when no embedding is found within the budget.
func (e *encoder) hypercube(width int) map[int]uint64 {
	if width >= 30 || e.odd {
		return nil
	}
	clear(e.assigned)
	words := (1<<width + 63) / 64
	if cap(e.used) < words {
		e.used = make([]uint64, words)
	}
	e.used = e.used[:words]
	clear(e.used)
	e.budget = 200000
	if !e.assign(0, width) {
		return nil
	}
	enc := make(map[int]uint64, len(e.order))
	for _, s := range e.order {
		enc[s] = e.code[s]
	}
	return enc
}

// assign gives order[i:] codes, depth first: the first state code 0, a
// state with assigned neighbours a code at distance 1 from each of them,
// tried by flipping each bit of the first one's in turn, and any other
// state the lowest free code.
func (e *encoder) assign(i, width int) bool {
	if e.budget <= 0 {
		return false
	}
	e.budget--
	if i == len(e.order) {
		return true
	}
	s := e.order[i]
	base := len(e.anchors)
	for _, m := range e.nbrs[s] {
		if e.assigned[m] {
			e.anchors = append(e.anchors, e.code[m])
		}
	}
	// A deeper call appends beyond these and truncates back to its own
	// base, so they stay as they are while this call runs.
	anchors := e.anchors[base:]
	var count uint64
	switch {
	case len(anchors) > 0:
		count = uint64(width)
	case i == 0:
		count = 1
	default:
		count = 1 << uint(width) // disconnected state: any free code
	}
	for k := uint64(0); k < count; k++ {
		code := k
		if len(anchors) > 0 {
			code = anchors[0] ^ 1<<k
		}
		if e.used[code/64]&(1<<(code%64)) != 0 || !adjacentToAll(code, anchors) {
			continue
		}
		e.code[s], e.assigned[s] = code, true
		e.used[code/64] |= 1 << (code % 64)
		if e.assign(i+1, width) {
			e.anchors = e.anchors[:base]
			return true
		}
		e.assigned[s] = false
		e.used[code/64] &^= 1 << (code % 64)
	}
	e.anchors = e.anchors[:base]
	return false
}

// adjacentToAll reports whether code is at Hamming distance 1 from every
// anchor.
func adjacentToAll(code uint64, anchors []uint64) bool {
	for _, a := range anchors {
		if bits.OnesCount64(code^a) != 1 {
			return false
		}
	}
	return true
}
