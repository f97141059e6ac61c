// Command incrbench is the incremental-synthesis smoke check run by
// scripts/verify.sh. It synthesizes a registry benchmark cold through
// the stage engine, applies a single-FU operation-swap delta, re-runs
// warm, and verifies the acceptance contract of the incremental engine:
//
//   - the warm output is byte-identical to a cold full pipeline run on
//     the edited design, and
//   - the warm run skipped at least one cached stage (hit counters > 0),
//     with at most one controller recomputed.
//
// It prints a one-line JSON record with the cold and warm wall times and
// the stage counters; perfbench's serve-edit workload measures warm
// edits.
//
// Usage:
//
//	go run ./scripts/incrbench [-bench name]
//
// The exit status is the verdict: 0 when the contract holds, 1 otherwise.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/stage"
)

var benchName = flag.String("bench", "diffeq", "registry benchmark to edit")

func main() { os.Exit(run()) }

func run() int {
	flag.Parse()
	b, ok := bench.Lookup(*benchName)
	if !ok {
		fmt.Fprintf(os.Stderr, "incrbench: unknown benchmark %q\n", *benchName)
		return 1
	}
	g := b.Build()
	e := stage.New(nil)

	coldStart := time.Now()
	if _, err := runEngine(e, g); err != nil {
		fmt.Fprintf(os.Stderr, "incrbench: cold run: %v\n", err)
		return 1
	}
	cold := time.Since(coldStart)
	base := e.Stats()

	edited, fu, err := swapOneOp(g)
	if err != nil {
		fmt.Fprintf(os.Stderr, "incrbench: %v\n", err)
		return 1
	}
	warmStart := time.Now()
	warmDoc, err := runEngine(e, edited)
	if err != nil {
		fmt.Fprintf(os.Stderr, "incrbench: warm run: %v\n", err)
		return 1
	}
	warm := time.Since(warmStart)
	st := e.Stats()

	// Ground truth: a cold full pipeline run on the edited design.
	ref, err := runEngine(stage.New(nil), edited)
	if err != nil {
		fmt.Fprintf(os.Stderr, "incrbench: reference run: %v\n", err)
		return 1
	}

	hits := st.Hits() - base.Hits()
	report := map[string]any{
		"bench":            b.Name,
		"edited_fu":        fu,
		"cold_ms":          cold.Milliseconds(),
		"warm_ms":          warm.Milliseconds(),
		"stage_hits":       hits,
		"stage_misses":     st.Misses() - base.Misses(),
		"lt_recomputed":    st.LTMisses - base.LTMisses,
		"synth_recomputed": st.SynthMisses - base.SynthMisses,
	}
	out, _ := json.Marshal(report)
	fmt.Println(string(out))

	ok = true
	if !bytes.Equal(warmDoc, ref) {
		fmt.Fprintln(os.Stderr, "incrbench: FAIL: warm output differs from a cold run on the edited design")
		ok = false
	}
	if hits == 0 {
		fmt.Fprintln(os.Stderr, "incrbench: FAIL: the warm run skipped no stages")
		ok = false
	}
	if st.SynthMisses-base.SynthMisses > 1 || st.LTMisses-base.LTMisses > 1 {
		fmt.Fprintln(os.Stderr, "incrbench: FAIL: a single-FU edit recomputed more than one controller")
		ok = false
	}
	if !ok {
		return 1
	}
	return 0
}

// runEngine synthesizes g through e and returns the encoded document.
func runEngine(e *stage.Engine, g *cdfg.Graph) ([]byte, error) {
	s, results, err := e.Run(context.Background(), g, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return codec.EncodeSynthesis(s, results)
}

// swapOneOp applies a delta flipping the first FU-bound addition or
// subtraction, returning the edited graph and the touched unit.
func swapOneOp(g *cdfg.Graph) (*cdfg.Graph, string, error) {
	for _, n := range g.Nodes() {
		if n.Kind != cdfg.KindOp || n.FU == "" || len(n.Stmts) != 1 {
			continue
		}
		s := n.Stmts[0]
		if s.Op != cdfg.OpAdd && s.Op != cdfg.OpSub {
			continue
		}
		op := "-"
		if s.Op == cdfg.OpSub {
			op = "+"
		}
		id := int(n.ID)
		d := &codec.DeltaDoc{
			Version: codec.Version,
			Kind:    codec.KindDelta,
			Ops: []codec.DeltaOp{{
				Op:    codec.OpRetypeNode,
				ID:    &id,
				Stmts: []codec.StmtDoc{{Dst: s.Dst, Op: op, Src1: s.Src1, Src2: s.Src2}},
			}},
		}
		if dirty := stage.Classify(g, d); dirty.Global {
			return nil, "", fmt.Errorf("op swap on node %d classified global", n.ID)
		}
		edited, err := codec.ApplyDelta(g, d)
		if err != nil {
			return nil, "", fmt.Errorf("applying delta: %w", err)
		}
		return edited, n.FU, nil
	}
	return nil, "", fmt.Errorf("no swappable FU-bound op in the design")
}
