package codec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/synth"
)

// TestIndentMatchesStdlib compares appendIndent with json.Indent on the
// json.Marshal output of a seeded random corpus. The corpus's strings
// (values and keys) mix quotes, backslashes, runs of backslashes before a
// quote or at the end, control bytes, <>&, U+2028/U+2029, invalid UTF-8
// and JSON punctuation; its shapes include empty and nested arrays and
// objects and null. Each kind has a count floor, so a change to the
// generator cannot quietly drop one.
func TestIndentMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	seen := map[string]int{}
	for i := 0; i < 3000; i++ {
		v := randJSON(r, 0, seen)
		src, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.NewBufferString("dst:")
		if err := json.Indent(want, src, "", "  "); err != nil {
			t.Fatal(err)
		}
		if got := appendIndent([]byte("dst:"), src); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("value %d: indent differs from json.Indent\nsrc:  %s\ngot:  %q\nwant: %q", i, src, got, want.Bytes())
		}
	}
	floors := map[string]int{
		"quote": 400, "backslash": 400, "backslashes before quote": 300,
		"trailing backslash": 50, "control byte": 600, "html": 400,
		"line separator": 300, "invalid utf-8": 400, "punctuation": 700,
		"empty string": 200, "empty array": 60, "empty object": 70,
		"nested array": 140, "nested object": 150, "null": 300,
	}
	t.Logf("corpus kinds: %v", seen)
	for kind, floor := range floors {
		if seen[kind] < floor {
			t.Errorf("corpus has %d values of kind %q, want at least %d", seen[kind], kind, floor)
		}
	}
}

// stringPieces are concatenated into the corpus's random strings.
var stringPieces = []string{
	`"`, `\`, `\\"`, `\\\"`, "\x00", "\x01", "\x1f", "\n", "\t", "\x7f",
	"<", ">", "&", "\u2028", "\u2029", "\xff", "\xc3", "\xed\xa0\x80",
	"{", "}", "[", "]", ",", ":", " ", "a", "net", "é", "日本",
}

// randString concatenates up to six random pieces and counts the kinds
// of string the result is.
func randString(r *rand.Rand, seen map[string]int) string {
	var b strings.Builder
	for n := r.Intn(7); n > 0; n-- {
		b.WriteString(stringPieces[r.Intn(len(stringPieces))])
	}
	s := b.String()
	for kind, hit := range map[string]bool{
		"quote":                    strings.Contains(s, `"`),
		"backslash":                strings.Contains(s, `\`),
		"backslashes before quote": strings.Contains(s, `\\"`),
		"trailing backslash":       strings.HasSuffix(s, `\`),
		"control byte":             strings.ContainsFunc(s, func(c rune) bool { return c < 0x20 }),
		"html":                     strings.ContainsAny(s, "<>&"),
		"line separator":           strings.ContainsAny(s, "\u2028\u2029"),
		"invalid utf-8":            !utf8.ValidString(s),
		"punctuation":              strings.ContainsAny(s, "{}[],:"),
		"empty string":             s == "",
	} {
		if hit {
			seen[kind]++
		}
	}
	return s
}

// randJSON returns a random value for json.Marshal, at most four levels
// deep.
func randJSON(r *rand.Rand, depth int, seen map[string]int) interface{} {
	kind := r.Intn(8)
	if depth >= 4 && kind >= 6 {
		kind = r.Intn(6)
	}
	switch kind {
	case 0:
		seen["null"]++
		return nil
	case 1:
		return r.Intn(2) == 1
	case 2:
		nums := []float64{0, -1, 3.5, 1e21, 1.5e-7, math.Copysign(0, -1), 123456789, r.NormFloat64() * 1e6}
		return nums[r.Intn(len(nums))]
	case 3, 4, 5:
		return randString(r, seen)
	case 6:
		arr := make([]interface{}, r.Intn(5))
		if len(arr) == 0 {
			seen["empty array"]++
		}
		if depth > 0 {
			seen["nested array"]++
		}
		for i := range arr {
			arr[i] = randJSON(r, depth+1, seen)
		}
		return arr
	default:
		obj := map[string]interface{}{}
		for n := r.Intn(5); n > 0; n-- {
			obj[randString(r, seen)] = randJSON(r, depth+1, seen)
		}
		if len(obj) == 0 {
			seen["empty object"]++
		}
		if depth > 0 {
			seen["nested object"]++
		}
		return obj
	}
}

// FuzzIndent compares appendIndent with json.Indent on any valid JSON
// input, compacted first: the indenter takes compact, valid JSON. The
// seed corpus is the golden documents.
func FuzzIndent(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	synthGoldens, err := filepath.Glob(filepath.Join("testdata", "synth", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(goldens) == 0 || len(synthGoldens) == 0 {
		f.Fatal("no golden documents to seed the corpus")
	}
	for _, path := range append(goldens, synthGoldens...) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return
		}
		var compact, want bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&want, compact.Bytes(), "", "  "); err != nil {
			t.Fatal(err)
		}
		if got := appendIndent(nil, compact.Bytes()); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("indent differs from json.Indent\nsrc:  %q\ngot:  %q\nwant: %q", compact.Bytes(), got, want.Bytes())
		}
	})
}

// TestEncodersMatchMarshalIndent pins EncodeSynthesis, with and without
// gate-level results, and EncodeGraph to json.MarshalIndent of the same
// documents, on every registry design and gen seeds 0–39 (seeds the
// pipeline rejects are skipped, and counted against a floor).
func TestEncodersMatchMarshalIndent(t *testing.T) {
	type design struct {
		name string
		g    *cdfg.Graph
	}
	var designs []design
	for _, b := range bench.All() {
		designs = append(designs, design{b.Name, b.Build()})
	}
	for seed := int64(0); seed < 40; seed++ {
		designs = append(designs, design{fmt.Sprintf("gen-%d", seed), gen.Graph(seed)})
	}
	reference := func(t *testing.T, doc interface{}) []byte {
		t.Helper()
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(out, '\n')
	}
	synthesized := 0
	for _, d := range designs {
		enc, err := EncodeGraph(d.g)
		if err != nil {
			t.Fatalf("%s: EncodeGraph: %v", d.name, err)
		}
		if want := reference(t, graphDoc(d.g)); !bytes.Equal(enc, want) {
			t.Errorf("%s: EncodeGraph differs from json.MarshalIndent", d.name)
		}
		opt := core.DefaultOptions()
		opt.Parallelism = 1
		s, err := core.Run(d.g, opt)
		if err != nil {
			continue
		}
		outcomes := []map[string]*synth.Result{nil}
		if results, err := s.SynthesizeLogic(); err == nil {
			outcomes = append(outcomes, results)
			synthesized++
		}
		for _, res := range outcomes {
			enc, err := EncodeSynthesis(s, res)
			if err != nil {
				t.Fatalf("%s: EncodeSynthesis: %v", d.name, err)
			}
			if want := reference(t, synthesisDoc(s, res)); !bytes.Equal(enc, want) {
				t.Errorf("%s: EncodeSynthesis (results: %v) differs from json.MarshalIndent", d.name, res != nil)
			}
		}
	}
	t.Logf("%d of %d designs synthesized", synthesized, len(designs))
	if synthesized < 30 {
		t.Errorf("only %d of %d designs synthesized, want at least 30", synthesized, len(designs))
	}
}
