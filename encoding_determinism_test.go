// Determinism test for the state encoder: at -j 1 the synthesis flow must
// pose the same hazard-free minimizations in the same order on every run,
// rejected encoding-ladder rungs included, so memo contents and hfmin
// call counts are a function of the design alone.
package repro_test

import (
	"crypto/sha256"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hfmin"
	"repro/internal/logic"
	"repro/internal/memo"
)

// specRecorder is a synth.Minimizer that records the memo key of every
// spec the pipeline poses, in order, and solves it directly.
type specRecorder struct {
	keys [][sha256.Size]byte
}

func (r *specRecorder) Minimize(spec hfmin.Spec) (hfmin.Result, error) {
	r.keys = append(r.keys, memo.Key(spec, logic.SolverBB))
	return hfmin.Minimize(spec)
}

// TestEncodingPosesSameSpecs synthesizes generated designs whose
// controllers take the hypercube encoder through rejected codes (gen
// seeds 12 and 19) several times in one process, sequentially, and
// requires one ordered list of posed specs. Map iteration order differs
// from range to range, so an encoder that ranges over a map tries codes
// in a different order from run to run.
func TestEncodingPosesSameSpecs(t *testing.T) {
	const runs = 6
	for _, seed := range []int64{12, 19} {
		var first [][sha256.Size]byte
		for run := 0; run < runs; run++ {
			rec := &specRecorder{}
			opt := core.DefaultOptions()
			opt.Parallelism = 1
			opt.Minimizer = rec
			s, err := core.Run(gen.Graph(seed), opt)
			if err != nil {
				t.Fatalf("seed %d: core.Run: %v", seed, err)
			}
			if _, err := s.SynthesizeLogic(); err != nil {
				t.Fatalf("seed %d: SynthesizeLogic: %v", seed, err)
			}
			if run == 0 {
				first = rec.keys
				continue
			}
			if !reflect.DeepEqual(rec.keys, first) {
				t.Fatalf("seed %d: run %d posed %d specs in a different order from run 0 (%d specs)",
					seed, run, len(rec.keys), len(first))
			}
		}
		if len(first) == 0 {
			t.Fatalf("seed %d posed no specs", seed)
		}
	}
}
