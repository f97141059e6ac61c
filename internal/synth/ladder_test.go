package synth_test

import (
	"context"
	"maps"
	"sort"
	"testing"

	"repro/internal/logic"
	"repro/internal/synth"
)

// TestEqualCodesSameOutcome checks the lemma that lets the encoding
// ladder skip a width: when a width's codes equal the previous width's,
// every code is below 2^(w-1), the added state bit is 0 throughout, and
// the wider attempt fails whenever the narrower one failed. On every
// registry controller and the controllers of gen seeds 0–59, at the
// strict-binary, strict-feedback and lenient binary rungs, it makes the
// attempt at every width the ladder reaches, skipping none. Wherever two
// neighbouring widths have equal codes, the wider attempt must fail when
// the narrower one failed, and succeed when it succeeded unless the
// wider one has more than logic.MaxVars variables.
func TestEqualCodesSameOutcome(t *testing.T) {
	ctrls := append(registryControllers(t), genControllers(0, 60)...)
	pairs, failing, changed := 0, 0, 0
	for _, ctl := range ctrls {
		c, err := synth.Concretize(ctl.m)
		if err != nil {
			t.Fatalf("%s: %v", ctl.name, err)
		}
		reach := c.ReachableStates()
		_, codes := synth.Encoder(c, reach)
		for _, rung := range []int{0, 2, 3} {
			var prev map[int]uint64
			var prevErr error
			for i, bits := range synth.RungWidths(c, reach, rung) {
				enc := codes(bits)
				_, err := synth.SynthesizeWidth(context.Background(), c, reach, enc, bits, rung)
				if i > 0 && !maps.Equal(enc, prev) {
					changed++
				} else if i > 0 {
					pairs++
					vars := len(c.Inputs) + bits
					if rung == 2 {
						vars += len(c.Outputs)
					}
					switch {
					case prevErr != nil:
						failing++
						if err == nil {
							t.Errorf("%s %s: %d bits succeed with the codes that failed at %d bits: %v", ctl.name, synth.RungName(rung), bits, bits-1, prevErr)
						}
					case err != nil && vars <= logic.MaxVars:
						t.Errorf("%s %s: %d bits fail with the codes that succeeded at %d bits: %v", ctl.name, synth.RungName(rung), bits, bits-1, err)
					}
				}
				prev, prevErr = enc, err
			}
		}
	}
	t.Logf("%d controllers: %d width pairs with equal codes, %d of them failing; %d pairs with different codes", len(ctrls), pairs, failing, changed)
	if pairs < 1000 {
		t.Errorf("only %d width pairs with equal codes; want at least 1000", pairs)
	}
}

// referenceHypercubeEncode is the hypercube encoder as it was when it
// built its adjacency, neighbour lists and BFS order in maps at every
// width: the oracle for TestEncoderMatchesReference.
func referenceHypercubeEncode(c *synth.Concrete, reach []int, bits int) map[int]uint64 {
	if bits >= 30 {
		return nil
	}
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
	nbrs := map[int][]int{}
	for s, ns := range adj {
		for n := range ns {
			nbrs[s] = append(nbrs[s], n)
		}
		sort.Ints(nbrs[s])
	}
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
				if x := code ^ a; x == 0 || x&(x-1) != 0 {
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

// referenceSequentialEncoding is the BFS-ordered Gray sequence the
// ladder falls back on when the hypercube encoder finds no codes.
func referenceSequentialEncoding(c *synth.Concrete, reach []int) map[int]uint64 {
	order := []int{}
	seen := map[int]bool{c.Init: true}
	queue := []int{c.Init}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		order = append(order, s)
		for _, t := range c.Trans {
			if t.From == s && !seen[t.To] {
				seen[t.To] = true
				queue = append(queue, t.To)
			}
		}
	}
	for _, s := range reach {
		if !seen[s] {
			order = append(order, s)
		}
	}
	enc := map[int]uint64{}
	for i, s := range order {
		enc[s] = uint64(i) ^ (uint64(i) >> 1)
	}
	return enc
}

// TestEncoderMatchesReference requires the encoder to give a controller,
// at every width the encoding ladder tries, the map-based reference's
// codes: the hypercube encoder's, nil included, and the codes the ladder
// tries, the sequential ones standing in for nil. The corpus is every
// registry controller, the controllers of gen seeds 0–199 and
// TestHypercubeEncodeOddCycles' state graphs.
func TestEncoderMatchesReference(t *testing.T) {
	type machine struct {
		name  string
		c     *synth.Concrete
		reach []int
	}
	var corpus []machine
	for _, ctl := range append(registryControllers(t), genControllers(0, 200)...) {
		c, err := synth.Concretize(ctl.m)
		if err != nil {
			t.Fatalf("%s: %v", ctl.name, err)
		}
		corpus = append(corpus, machine{ctl.name, c, c.ReachableStates()})
	}
	for _, g := range synth.CycleGraphs() {
		corpus = append(corpus, machine{g.Name, g.C, g.Reach})
	}
	widths, fallbacks := 0, 0
	for _, m := range corpus {
		hypercube, codes := synth.Encoder(m.c, m.reach)
		for _, bits := range synth.RungWidths(m.c, m.reach, 0) {
			widths++
			want := referenceHypercubeEncode(m.c, m.reach, bits)
			if got := hypercube(bits); (got == nil) != (want == nil) || !maps.Equal(got, want) {
				t.Errorf("%s, %d bits: hypercube codes %v, want %v", m.name, bits, got, want)
			}
			if want == nil {
				fallbacks++
				want = referenceSequentialEncoding(m.c, m.reach)
			}
			if got := codes(bits); !maps.Equal(got, want) {
				t.Errorf("%s, %d bits: codes %v, want %v", m.name, bits, got, want)
			}
		}
	}
	t.Logf("%d machines, %d widths compared, %d of them on the sequential fallback", len(corpus), widths, fallbacks)
	if fallbacks == 0 || fallbacks == widths {
		t.Errorf("%d of %d widths on the sequential fallback; want some and not all", fallbacks, widths)
	}
}
