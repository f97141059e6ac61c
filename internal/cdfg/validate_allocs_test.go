package cdfg_test

import (
	"testing"

	"repro/internal/bench"
)

// TestValidateAllocs bounds the allocations of Validate on EWF, the
// largest registry graph. Validate makes one pass over the arcs and one
// over the nodes; a check that asked the arc map for each node's in-arcs
// (Graph.In sorts a fresh slice per call) would be quadratic in the graph
// and allocate per node.
func TestValidateAllocs(t *testing.T) {
	b, ok := bench.Lookup("ewf")
	if !ok {
		t.Fatal("no ewf benchmark")
	}
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	const ceiling = 16
	n := testing.AllocsPerRun(20, func() { _ = g.Validate() })
	if n > ceiling {
		t.Errorf("Validate on ewf: %.0f allocations, want at most %d", n, ceiling)
	}
	t.Logf("Validate on ewf: %.0f allocations", n)
}
