package stage

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/codec"
)

// warmAllocCeiling bounds the allocations of one warm served pass over
// the five registry designs. The pass takes about 2,800 since the stage
// values carry the key material of the stages after them and each
// netlist is rendered once per result; it took about 8,600 before, and
// leaving out any one of the three cuts (the netlist memo, the carried
// machine bytes, the carried extract key) gives 4,600–4,900.
const warmAllocCeiling = 4000

// TestWarmServedAllocs counts what a served job allocates once every
// stage is a cache hit: Engine.Run and EncodeSynthesis, over the five
// registry designs at -j 1. A warm run that re-renders a netlist,
// re-encodes a machine or re-hashes a transformed graph exceeds the
// ceiling.
func TestWarmServedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under the race detector")
	}
	opt := testOptions(t)
	opt.Parallelism = 1
	var graphs []*cdfg.Graph
	for _, b := range bench.All() {
		graphs = append(graphs, b.Build())
	}
	e := New(nil)
	pass := func() {
		for _, g := range graphs {
			s, results, err := e.Run(context.Background(), g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := codec.EncodeSynthesis(s, results); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	cold := e.Stats()
	allocs := testing.AllocsPerRun(10, pass)
	if st := e.Stats(); st.Misses() != cold.Misses() {
		t.Fatalf("warm passes recomputed %d stages", st.Misses()-cold.Misses())
	}
	t.Logf("%.0f allocations per warm pass", allocs)
	if allocs > warmAllocCeiling {
		t.Errorf("a warm served pass over the registry allocates %.0f objects, ceiling %d", allocs, warmAllocCeiling)
	}
}
