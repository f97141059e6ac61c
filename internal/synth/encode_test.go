package synth

import (
	"math/bits"
	"testing"
)

// graphMachine returns a concrete machine over states 0..n-1 whose
// transitions are the given state pairs, with its reachable states.
func graphMachine(n int, edges [][2]int) (*Concrete, []int) {
	c := &Concrete{Init: initState}
	reach := make([]int, n)
	for s := range reach {
		c.States = append(c.States, &CState{ID: s})
		reach[s] = s
	}
	for _, e := range edges {
		c.Trans = append(c.Trans, &CTrans{From: e[0], To: e[1]})
	}
	return c, reach
}

// cycleCases are state graphs with and without an odd cycle.
var cycleCases = []struct {
	name  string
	n     int
	edges [][2]int
	odd   bool
}{
	{"triangle", 3, [][2]int{{0, 1}, {1, 2}, {2, 0}}, true},
	{"5-cycle with a tail", 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {4, 5}}, true},
	{"path", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, false},
	{"even cycle", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, false},
	{"6-cycle", 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}, false},
}

// TestHypercubeEncodeOddCycles checks that a state graph with an odd
// cycle gets no distance-1 encoding at any width the encoding ladder
// tries, and that a path and an even cycle get one at every width from
// the narrowest: distinct codes, every transition one bit apart.
func TestHypercubeEncodeOddCycles(t *testing.T) {
	for _, tc := range cycleCases {
		c, reach := graphMachine(tc.n, tc.edges)
		minBits := 1
		for 1<<minBits < tc.n {
			minBits++
		}
		e := newEncoder(c, reach)
		for width := minBits; width <= 16; width++ {
			enc := e.hypercube(width)
			if tc.odd {
				if enc != nil {
					t.Errorf("%s, %d bits: got encoding %v, want none", tc.name, width, enc)
				}
				continue
			}
			if enc == nil {
				t.Errorf("%s, %d bits: no encoding", tc.name, width)
				continue
			}
			used := map[uint64]bool{}
			for _, s := range reach {
				code, ok := enc[s]
				if !ok || code >= 1<<uint(width) || used[code] {
					t.Errorf("%s, %d bits: state %d has code %d (assigned %v), want a distinct %d-bit code", tc.name, width, s, code, ok, width)
				}
				used[code] = true
			}
			for _, e := range tc.edges {
				if d := bits.OnesCount64(enc[e[0]] ^ enc[e[1]]); d != 1 {
					t.Errorf("%s, %d bits: transition %d→%d spans distance %d", tc.name, width, e[0], e[1], d)
				}
			}
		}
	}
}
