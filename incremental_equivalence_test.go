// Equivalence tests for the incremental stage engine: warm re-runs after
// CDFG delta edits must be a pure performance transform. Every patched
// design — each registry benchmark under a hand-written single-FU edit,
// and generated designs under randomized edit sequences — must synthesize
// to a document bit-identical to a cold full pipeline run, while the
// engine demonstrably skips the stages the edit did not reach.
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/memo"
	"repro/internal/stage"
)

// tryColdSynthesis runs the plain (non-incremental) pipeline and returns
// the encoded synthesis document, the byte-level ground truth.
func tryColdSynthesis(g *cdfg.Graph) ([]byte, error) {
	s, err := core.Run(g.Clone(), core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	results, err := s.SynthesizeLogic()
	if err != nil {
		return nil, err
	}
	return codec.EncodeSynthesis(s, results)
}

func coldSynthesis(t *testing.T, g *cdfg.Graph) []byte {
	t.Helper()
	doc, err := tryColdSynthesis(g)
	if err != nil {
		t.Fatalf("cold pipeline run: %v", err)
	}
	return doc
}

// engineSynthesis runs the same pipeline through the stage engine.
func engineSynthesis(t *testing.T, e *stage.Engine, g *cdfg.Graph) []byte {
	t.Helper()
	s, results, err := e.Run(context.Background(), g, core.DefaultOptions())
	if err != nil {
		t.Fatalf("engine.Run: %v", err)
	}
	doc, err := codec.EncodeSynthesis(s, results)
	if err != nil {
		t.Fatalf("EncodeSynthesis: %v", err)
	}
	return doc
}

// swappable collects FU-bound single-statement add/sub nodes, the ops a
// shape-preserving retype delta can flip.
func swappable(g *cdfg.Graph) []*cdfg.Node {
	var out []*cdfg.Node
	for _, n := range g.Nodes() {
		if n.Kind == cdfg.KindOp && n.FU != "" && len(n.Stmts) == 1 &&
			(n.Stmts[0].Op == cdfg.OpAdd || n.Stmts[0].Op == cdfg.OpSub) {
			out = append(out, n)
		}
	}
	return out
}

// swapDelta builds the retype delta flipping n's statement between + and -.
func swapDelta(n *cdfg.Node) *codec.DeltaDoc {
	s := n.Stmts[0]
	op := "-"
	if s.Op == cdfg.OpSub {
		op = "+"
	}
	id := int(n.ID)
	return &codec.DeltaDoc{
		Version: codec.Version,
		Kind:    codec.KindDelta,
		Ops: []codec.DeltaOp{{
			Op:    codec.OpRetypeNode,
			ID:    &id,
			Stmts: []codec.StmtDoc{{Dst: s.Dst, Op: op, Src1: s.Src1, Src2: s.Src2}},
		}},
	}
}

// TestIncrementalBenchmarkEdits applies a hand-written single-FU op swap
// to every registry benchmark and asserts the warm incremental re-run is
// byte-identical to a cold pipeline run on the edited design, with the
// unedited controllers served from cache on multi-FU designs.
func TestIncrementalBenchmarkEdits(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			g := b.Build()
			nodes := swappable(g)
			if len(nodes) == 0 {
				t.Skipf("%s has no swappable FU-bound op", b.Name)
			}

			e := stage.New(nil)
			if got, want := engineSynthesis(t, e, g), coldSynthesis(t, g); !bytes.Equal(got, want) {
				t.Fatal("cold engine run differs from the plain pipeline")
			}
			base := e.Stats()

			d := swapDelta(nodes[0])
			edited, err := codec.ApplyDelta(g, d)
			if err != nil {
				t.Fatalf("ApplyDelta: %v", err)
			}
			dirty := stage.Classify(g, d)
			if dirty.Global {
				t.Fatalf("op swap on %s classified global", nodes[0].FU)
			}

			got := engineSynthesis(t, e, edited)
			if want := coldSynthesis(t, edited); !bytes.Equal(got, want) {
				t.Error("incremental re-run differs from a cold run on the edited design")
			}
			st := e.Stats()
			// The edit reaches at most its own FU's local-transform and
			// synthesis stages; everything else must be a cache hit.
			if st.LTMisses > base.LTMisses+1 || st.SynthMisses > base.SynthMisses+1 {
				t.Errorf("edit invalidated more than one controller: %+v -> %+v", base, st)
			}
			if len(g.FUs) > 1 && st.SynthHits == base.SynthHits {
				t.Errorf("no controller served from cache on a %d-FU design: %+v -> %+v",
					len(g.FUs), base, st)
			}
		})
	}
}

// TestIncrementalGenCorpus drives randomized edit sequences over generated
// designs: after every edit in the sequence the warm engine output must be
// byte-identical to a cold pipeline run on the current design. Seeds the
// extractor rejects are skipped — the corpus is the synthesizable subset
// of the generator's range.
func TestIncrementalGenCorpus(t *testing.T) {
	target, edits := 4, 3
	if testing.Short() {
		target, edits = 2, 2
	}
	exercised := 0
	for seed := int64(1); exercised < target && seed <= 200; seed++ {
		start := gen.Graph(seed)
		want, err := tryColdSynthesis(start)
		if err != nil {
			continue
		}
		if len(swappable(start)) == 0 {
			continue
		}
		exercised++
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			g := start
			e := stage.New(nil)
			if got := engineSynthesis(t, e, g); !bytes.Equal(got, want) {
				t.Fatal("cold engine run differs from the plain pipeline")
			}

			rng := rand.New(rand.NewSource(seed * 7919))
			for i := 0; i < edits; i++ {
				nodes := swappable(g)
				d := swapDelta(nodes[rng.Intn(len(nodes))])
				edited, err := codec.ApplyDelta(g, d)
				if err != nil {
					t.Fatalf("edit %d: ApplyDelta: %v", i, err)
				}
				if dirty := stage.Classify(g, d); dirty.Global {
					t.Fatalf("edit %d classified global", i)
				}
				got := engineSynthesis(t, e, edited)
				if want := coldSynthesis(t, edited); !bytes.Equal(got, want) {
					t.Fatalf("edit %d: incremental output differs from a cold run", i)
				}
				g = edited
			}
			if e.Stats().Hits() == 0 {
				t.Error("edit sequence never hit the stage cache")
			}
		})
	}
	if exercised < target {
		t.Fatalf("only %d of %d generated designs were synthesizable", exercised, target)
	}
}

// TestIncrementalDiskWarmStart covers the cross-process path a daemon
// restart on the same -cache-dir takes: a second engine over the same
// store directory re-runs an edited design entirely from disk-tier stage
// records plus the one recompute.
func TestIncrementalDiskWarmStart(t *testing.T) {
	dir := t.TempDir()
	b, ok := bench.Lookup("diffeq")
	if !ok {
		t.Fatal("diffeq missing from registry")
	}
	g := b.Build()
	store1, err := memo.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	engineSynthesis(t, stage.New(store1), g)

	nodes := swappable(g)
	edited, err := codec.ApplyDelta(g, swapDelta(nodes[0]))
	if err != nil {
		t.Fatal(err)
	}
	store2, err := memo.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := stage.New(store2)
	got := engineSynthesis(t, e2, edited)
	if want := coldSynthesis(t, edited); !bytes.Equal(got, want) {
		t.Error("disk-warm incremental run differs from a cold run")
	}
	if st := e2.Stats(); st.SynthHits == 0 {
		t.Errorf("no controller filled from the disk tier: %+v", st)
	}
}
