package cdfg_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/gen"
	"repro/internal/transform"
)

// removable mirrors GT2's structural rule: the loop repeat arc and the
// last arc of a firing group stay.
func removable(g *cdfg.Graph, a *cdfg.Arc) bool {
	if a.Group == cdfg.GroupRepeat {
		return false
	}
	in := g.In(a.To)
	if len(in) <= 1 {
		return false
	}
	if a.Group == cdfg.GroupAll {
		return true
	}
	for _, e := range in {
		if e.ID != a.ID && e.Group == a.Group {
			return true
		}
	}
	return false
}

// sameReach fails unless got and want answer alike Dominated for every
// arc of g and Precedes and PrecedesCross for every pair of its nodes.
func sameReach(t *testing.T, name string, g *cdfg.Graph, got, want *cdfg.Reach) {
	t.Helper()
	for _, a := range g.Arcs() {
		if got.Dominated(a) != want.Dominated(a) {
			t.Fatalf("%s: Dominated(arc %d) = %v, a rebuilt index says %v", name, a.ID, got.Dominated(a), want.Dominated(a))
		}
	}
	nodes := g.Nodes()
	for _, x := range nodes {
		for _, y := range nodes {
			if got.Precedes(x.ID, y.ID) != want.Precedes(x.ID, y.ID) {
				t.Fatalf("%s: Precedes(%d, %d) = %v, a rebuilt index says %v", name, x.ID, y.ID, got.Precedes(x.ID, y.ID), want.Precedes(x.ID, y.ID))
			}
			if got.PrecedesCross(x.ID, y.ID) != want.PrecedesCross(x.ID, y.ID) {
				t.Fatalf("%s: PrecedesCross(%d, %d) = %v, a rebuilt index says %v", name, x.ID, y.ID, got.PrecedesCross(x.ID, y.ID), want.PrecedesCross(x.ID, y.ID))
			}
		}
	}
}

// TestReachRemoveArcMatchesRebuild checks Reach.RemoveArc on every
// registry design and gen seeds 0–59 after GT1:
//   - Removing each arc GT2's structural rule allows in turn, dominated
//     or not, from one index kept up to date with RemoveArc, that index
//     must answer every Dominated, Precedes and PrecedesCross query as
//     NewReach of the edited graph does. A dominated arc's removal
//     changes no precedence, so only the others show a stale record.
//   - RemoveDominated, which calls RemoveArc, must leave the arcs that
//     GT2's loop leaves when it rebuilds the index after each removal.
func TestReachRemoveArcMatchesRebuild(t *testing.T) {
	type design struct {
		name string
		g    *cdfg.Graph
	}
	var designs []design
	for _, b := range bench.All() {
		designs = append(designs, design{b.Name, b.Build()})
	}
	for seed := int64(0); seed < 60; seed++ {
		designs = append(designs, design{fmt.Sprintf("gen-%d", seed), gen.Graph(seed)})
	}
	ids := func(g *cdfg.Graph) []cdfg.ArcID {
		var out []cdfg.ArcID
		for _, a := range g.Arcs() {
			out = append(out, a.ID)
		}
		return out
	}
	removed, dominated := 0, 0
	for _, d := range designs {
		if _, err := transform.LoopParallelism(d.g); err != nil {
			t.Fatalf("%s: GT1: %v", d.name, err)
		}

		g := d.g.Clone()
		reach := cdfg.NewReach(g)
		for _, a := range g.Arcs() {
			if !removable(g, a) {
				continue
			}
			g.RemoveArc(a.ID)
			reach.RemoveArc(a)
			removed++
			sameReach(t, fmt.Sprintf("%s without arc %d", d.name, a.ID), g, reach, cdfg.NewReach(g))
		}

		want := d.g.Clone()
		for changed := true; changed; {
			changed = false
			reach := cdfg.NewReach(want)
			for _, a := range want.Arcs() {
				if removable(want, a) && reach.Dominated(a) {
					want.RemoveArc(a.ID)
					reach = cdfg.NewReach(want)
					dominated++
					changed = true
				}
			}
		}
		got := d.g.Clone()
		if _, err := transform.RemoveDominated(got); err != nil {
			t.Fatalf("%s: GT2: %v", d.name, err)
		}
		if !slices.Equal(ids(got), ids(want)) {
			t.Fatalf("%s: RemoveDominated leaves arcs %v, the rebuilding loop %v", d.name, ids(got), ids(want))
		}
	}
	t.Logf("%d designs: %d removable arcs removed in turn, %d dominated ones removed by GT2", len(designs), removed, dominated)
	if removed < 600 || dominated < 500 {
		t.Fatalf("%d removable and %d dominated arcs removed over %d designs; want at least 600 and 500", removed, dominated, len(designs))
	}
}
