package synth

import "sort"

// hypercubeEncode searches for a state encoding in which every transition
// has Hamming distance 1: the machine's state graph is embedded into the
// `bits`-dimensional hypercube. Distance-1 transitions make the settle
// cubes exactly the two endpoint codes, so no foreign state code is ever
// crossed — the classic critical-race-free property, obtained
// structurally. Returns nil when no embedding is found within the budget.
func hypercubeEncode(c *Concrete, reach []int, bits int) map[int]uint64 {
	if bits >= 30 {
		return nil
	}
	// Adjacency between distinct states.
	adj := map[int]map[int]bool{}
	link := func(a, b int) {
		if a == b {
			return
		}
		if adj[a] == nil {
			adj[a] = map[int]bool{}
		}
		if adj[b] == nil {
			adj[b] = map[int]bool{}
		}
		adj[a][b] = true
		adj[b][a] = true
	}
	for _, t := range c.Trans {
		link(t.From, t.To)
	}
	// Neighbours in ascending order: the search below must try codes in
	// the same order on every run, or rejected encodings would pose
	// run-dependent minimization specs.
	nbrs := map[int][]int{}
	for s, ns := range adj {
		for n := range ns {
			nbrs[s] = append(nbrs[s], n)
		}
		sort.Ints(nbrs[s])
	}
	// BFS order from init keeps each state close to an assigned neighbor.
	// A hypercube is bipartite: an edge flips one bit, and with it the
	// parity of the code's ones. So an edge between two states of equal
	// BFS parity closes an odd cycle, no width has a distance-1
	// embedding, and the search below could only burn its budget.
	// Concretize creates every state by exploring from init, so the BFS
	// sees every edge.
	var order []int
	parity := map[int]bool{c.Init: false}
	queue := []int{c.Init}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		order = append(order, s)
		for _, n := range nbrs[s] {
			p, seen := parity[n]
			if !seen {
				parity[n] = !parity[s]
				queue = append(queue, n)
			} else if p == parity[s] {
				return nil
			}
		}
	}
	for _, s := range reach {
		if _, seen := parity[s]; !seen {
			order = append(order, s)
		}
	}

	enc := map[int]uint64{}
	used := map[uint64]bool{}
	budget := 200000
	var assign func(i int) bool
	assign = func(i int) bool {
		if budget <= 0 {
			return false
		}
		budget--
		if i == len(order) {
			return true
		}
		s := order[i]
		// Candidate codes: distance 1 from every already-assigned
		// neighbor.
		var candidates []uint64
		var anchors []uint64
		for _, n := range nbrs[s] {
			if code, ok := enc[n]; ok {
				anchors = append(anchors, code)
			}
		}
		switch len(anchors) {
		case 0:
			if i == 0 {
				candidates = []uint64{0}
			} else {
				// Disconnected state: any free code.
				for code := uint64(0); code < 1<<uint(bits); code++ {
					candidates = append(candidates, code)
				}
			}
		default:
			for b := 0; b < bits; b++ {
				candidates = append(candidates, anchors[0]^(1<<uint(b)))
			}
		}
		for _, code := range candidates {
			if used[code] {
				continue
			}
			ok := true
			for _, a := range anchors {
				if hamming(code, a) != 1 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			enc[s] = code
			used[code] = true
			if assign(i + 1) {
				return true
			}
			delete(enc, s)
			delete(used, code)
		}
		return false
	}
	if !assign(0) {
		return nil
	}
	return enc
}

func hamming(a, b uint64) int {
	x := a ^ b
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
