package synth

import "context"

// Test hooks for the external test package synth_test, whose tests build
// controllers through core, which imports this package.

// RungWidths returns the widths at which rung of the encoding ladder
// tries a binary encoding of c, whose reachable states are reach,
// narrowest first. It is empty for a one-hot rung, and for an
// output-feedback rung too wide to minimize exactly.
func RungWidths(c *Concrete, reach []int, rung int) []int {
	a := encodingLadder[rung]
	minBits := 1
	for (1 << minBits) < len(reach) {
		minBits++
	}
	if a.oneHot || a.feedback && len(c.Inputs)+len(c.Outputs)+minBits+4 > 26 {
		return nil
	}
	var widths []int
	for bits := minBits; bits <= minBits+4 && bits <= 16; bits++ {
		widths = append(widths, bits)
	}
	return widths
}

// Encoder exposes the encoder of c's states: hypercube returns the
// hypercube encoder's codes at a width, nil when it finds none, and codes
// the codes the encoding ladder tries there, the sequential ones when
// hypercube finds none.
func Encoder(c *Concrete, reach []int) (hypercube, codes func(bits int) map[int]uint64) {
	e := newEncoder(c, reach)
	return e.hypercube, e.codes
}

// SynthesizeWidth makes rung's binary encoding attempt of c at one width
// with the codes enc, at one worker and uncached, whether or not the
// ladder would make it.
func SynthesizeWidth(ctx context.Context, c *Concrete, reach []int, enc map[int]uint64, bits, rung int) (*Result, error) {
	a := encodingLadder[rung]
	return synthesizeWith(ctx, c, reach, enc, bits, false, a.strict, a.feedback, 1, nil)
}

// CycleGraph is one of TestHypercubeEncodeOddCycles' state graphs.
type CycleGraph struct {
	Name  string
	C     *Concrete
	Reach []int
}

// CycleGraphs returns TestHypercubeEncodeOddCycles' state graphs.
func CycleGraphs() []CycleGraph {
	var out []CycleGraph
	for _, tc := range cycleCases {
		c, reach := graphMachine(tc.n, tc.edges)
		out = append(out, CycleGraph{tc.name, c, reach})
	}
	return out
}
