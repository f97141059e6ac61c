package codec

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// TestGoldenSynthesis pins the synthesis document of every registry
// benchmark (sequential, default covering solver, no memo layer) to a
// golden file. The byte-identity oracles elsewhere compare two paths of
// the same build; this one compares against the output of an earlier
// version, so a change that reorders dhf-primes and thereby flips a
// covering tie-break to a different cover of equal cost fails here.
// Regenerate with -update only for an intended change of synthesized
// logic.
func TestGoldenSynthesis(t *testing.T) {
	for _, b := range bench.All() {
		t.Run(b.Name, func(t *testing.T) {
			opt := core.DefaultOptions()
			opt.Parallelism = 1
			s, err := core.Run(b.Build(), opt)
			if err != nil {
				t.Fatal(err)
			}
			results, err := s.SynthesizeLogic()
			if err != nil {
				t.Fatal(err)
			}
			enc, err := EncodeSynthesis(s, results)
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "synth", b.Name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, enc, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("golden: %v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(enc, want) {
				t.Fatalf("synthesis document of %s diverged from golden %s (run with -update only if the logic change is intended)", b.Name, golden)
			}
		})
	}
}
