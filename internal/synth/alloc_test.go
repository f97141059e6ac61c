package synth_test

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/memo"
)

// Ceilings on one cold pass over the five registry designs, about 10%
// above what it takes since each minimization takes its working memory
// from pooled scratch and builds its results at their final size: about
// 94,000 objects and 9.0 MB. It took about 155,000 objects and 16.5 MB
// before, about 193,000 and 20.8 MB before the encoding ladder tried each
// distinct encoding once, and about 238,000 and 33.4 MB before specs were
// built canonical.
const (
	coldAllocCeiling = 103_000
	coldByteCeiling  = 9_900_000
)

// TestColdSynthAllocs counts what a cold synthesis allocates: core.Run
// and SynthesizeLogic of every registry design at -j 1, each through a
// fresh in-memory memo store, as asyncsynth -j 1 synthdoc runs them. It
// bounds both the objects and the bytes of one pass.
func TestColdSynthAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under the race detector")
	}
	pass := func() {
		for _, b := range bench.All() {
			g := b.Build() // core.Run transforms the graph in place
			opt := core.DefaultOptions()
			opt.Parallelism = 1
			store, _ := memo.NewStore("") // in memory: never errors
			opt.Minimizer = memo.OnStore(store)
			s, err := core.Run(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.SynthesizeLogic(); err != nil {
				t.Fatal(err)
			}
		}
	}
	const runs = 5
	allocs := testing.AllocsPerRun(runs, pass)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.0f allocations, %d bytes per cold pass", allocs, bytes)
	if allocs > coldAllocCeiling {
		t.Errorf("a cold pass over the registry allocates %.0f objects, ceiling %d", allocs, coldAllocCeiling)
	}
	if bytes > coldByteCeiling {
		t.Errorf("a cold pass over the registry allocates %d bytes, ceiling %d", bytes, coldByteCeiling)
	}
}
