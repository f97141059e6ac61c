package stage

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/diffeq"
	"repro/internal/memo"
)

// coreBytes runs the uncached pipeline and returns the canonical
// synthesized document.
func coreBytes(t *testing.T, g *cdfg.Graph, opt core.Options) []byte {
	t.Helper()
	s, err := core.Run(g, opt)
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	results, err := s.SynthesizeLogic()
	if err != nil {
		t.Fatalf("SynthesizeLogic: %v", err)
	}
	data, err := codec.EncodeSynthesis(s, results)
	if err != nil {
		t.Fatalf("EncodeSynthesis: %v", err)
	}
	return data
}

// engineBytes runs the stage engine and returns the canonical document.
func engineBytes(t *testing.T, e *Engine, g *cdfg.Graph, opt core.Options) []byte {
	t.Helper()
	s, results, err := e.Run(context.Background(), g, opt)
	if err != nil {
		t.Fatalf("engine.Run: %v", err)
	}
	data, err := codec.EncodeSynthesis(s, results)
	if err != nil {
		t.Fatalf("EncodeSynthesis: %v", err)
	}
	return data
}

// testOptions returns the default options with a fresh memory-only hfmin
// cache, which both paths share so differences can only come from the
// stage layer itself.
func testOptions(t *testing.T) core.Options {
	t.Helper()
	opt := core.DefaultOptions()
	min, err := memo.New("")
	if err != nil {
		t.Fatal(err)
	}
	opt.Minimizer = min
	return opt
}

// TestEngineMatchesCore asserts that the stage engine's output is
// byte-identical to the uncached core pipeline on every registered
// benchmark, cold and warm, and that the warm run hits every stage.
func TestEngineMatchesCore(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			opt := testOptions(t)
			want := coreBytes(t, b.Build(), opt)

			e := New(nil)
			cold := engineBytes(t, e, b.Build(), opt)
			if !bytes.Equal(cold, want) {
				t.Fatal("cold engine run differs from core pipeline")
			}
			st := e.Stats()
			if st.Hits() != 0 || st.Misses() == 0 {
				t.Fatalf("cold run stats: %+v", st)
			}

			warm := engineBytes(t, e, b.Build(), opt)
			if !bytes.Equal(warm, want) {
				t.Fatal("warm engine run differs from core pipeline")
			}
			w := e.Stats()
			if w.Misses() != st.Misses() {
				t.Fatalf("warm run recomputed %d stages", w.Misses()-st.Misses())
			}
			if w.Hits() != st.Misses() {
				t.Fatalf("warm run hit %d of %d stages", w.Hits(), st.Misses())
			}
		})
	}
}

// TestEngineDiskTier asserts that a fresh engine over the same store
// directory replays every registry design's per-controller stages from
// disk, byte-identical to core. A decoded lt payload whose value lost
// its machine's bytes would miss every synth key here.
func TestEngineDiskTier(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			dir := t.TempDir()
			opt := testOptions(t)
			g := b.Build()
			want := coreBytes(t, g.Clone(), opt)

			store, err := memo.NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			e := New(store)
			if got := engineBytes(t, e, g, opt); !bytes.Equal(got, want) {
				t.Fatal("cold engine run differs from core pipeline")
			}

			store2, err := memo.NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			e2 := New(store2)
			if got := engineBytes(t, e2, g, opt); !bytes.Equal(got, want) {
				t.Fatal("disk-tier engine run differs from core pipeline")
			}
			st := e2.Stats()
			// GT and extract stay memory-only, so they recompute; every LT
			// and synth stage must come from disk.
			if st.LTMisses != 0 || st.SynthMisses != 0 {
				t.Fatalf("disk-tier run recomputed controllers: %+v", st)
			}
			if ds := store2.Stats(); ds.DiskHits == 0 {
				t.Fatalf("disk-tier run recorded no disk hits: %+v", ds)
			}
		})
	}
}

// TestEngineOpSwapLocality covers the flagship incremental scenario: an
// operation swap on one functional unit changes the graph fingerprint
// (GT and extraction recompute) but leaves every other functional
// unit's extracted controller byte-identical, so at most the edited
// unit's LT and synthesis stages recompute while the rest replay from
// cache — and the result still matches a cold full run of the edited
// design.
func TestEngineOpSwapLocality(t *testing.T) {
	opt := testOptions(t)
	g := diffeq.Build(diffeq.DefaultParams())

	e := New(nil)
	engineBytes(t, e, g, opt)
	base := e.Stats()

	edited := g.Clone()
	if !swapOneOp(edited) {
		t.Fatal("no swappable +/- operation found in diffeq")
	}
	want := coreBytes(t, edited.Clone(), opt)
	got := engineBytes(t, e, edited, opt)
	if !bytes.Equal(got, want) {
		t.Fatal("incremental run on edited design differs from cold full run")
	}
	st := e.Stats()
	if st.GTMisses != base.GTMisses+1 {
		t.Fatalf("edited graph did not recompute GT: %+v", st)
	}
	if st.LTMisses > base.LTMisses+1 || st.SynthMisses > base.SynthMisses+1 {
		t.Fatalf("op swap recomputed more than the edited controller: base %+v now %+v", base, st)
	}
	if st.LTHits <= base.LTHits || st.SynthHits <= base.SynthHits {
		t.Fatalf("op swap did not replay controllers from cache: %+v", st)
	}
}

// swapOneOp flips the first + to - (or - to +) on an FU-bound operation
// node, the minimal single-FU edit.
func swapOneOp(g *cdfg.Graph) bool {
	for _, n := range g.Nodes() {
		if n.Kind != cdfg.KindOp || n.FU == "" {
			continue
		}
		for i := range n.Stmts {
			switch n.Stmts[i].Op {
			case cdfg.OpAdd:
				n.Stmts[i].Op = cdfg.OpSub
				return true
			case cdfg.OpSub:
				n.Stmts[i].Op = cdfg.OpAdd
				return true
			}
		}
	}
	return false
}

// TestEngineNeverMutatesInput asserts Run leaves the caller's graph
// untouched (core.RunCtx mutates in place; the engine must not).
func TestEngineNeverMutatesInput(t *testing.T) {
	opt := testOptions(t)
	g := diffeq.Build(diffeq.DefaultParams())
	before := hashGraph(g)
	engineBytes(t, New(nil), g, opt)
	if !bytes.Equal(before, hashGraph(g)) {
		t.Fatal("engine.Run mutated the input graph")
	}
}
