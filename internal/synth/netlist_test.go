package synth_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/bm"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/synth"
)

// concretizedVerilog is the netlist renderer as it was when it
// concretized the machine again to read its signal lists and initial
// state, and sanitized a name for every literal: the oracle for
// TestVerilogMatchesConcretizedRenderer.
func concretizedVerilog(m *bm.Machine, res *synth.Result) (string, error) {
	c, err := synth.Concretize(m)
	if err != nil {
		return "", err
	}
	vars := append([]string{}, c.Inputs...)
	if res.OutputFeedback {
		vars = append(vars, c.Outputs...)
	}
	for b := 0; b < res.StateBits; b++ {
		vars = append(vars, fmt.Sprintf("Y%d", b))
	}
	var b strings.Builder
	san := strings.NewReplacer("-", "_", "+", "p", "*", "m", "<", "lt", ">", "gt", "=", "eq", ";", "_", " ", "_", ":", "_").Replace

	inputs := append([]string{}, c.Inputs...)
	outputs := append([]string{}, c.Outputs...)
	sort.Strings(outputs)

	fmt.Fprintf(&b, "// Synthesized from burst-mode controller %s\n", m.Name)
	fmt.Fprintf(&b, "// %d states, %d state bits%s, %d products, %d literals\n",
		res.States, res.StateBits, map[bool]string{true: " (one-hot)", false: ""}[res.OneHot],
		res.Products, res.Literals)
	fmt.Fprintf(&b, "module %s (\n", san(m.Name))
	for _, in := range inputs {
		fmt.Fprintf(&b, "  input  wire %s,\n", san(in))
	}
	for i, out := range outputs {
		comma := ","
		if i == len(outputs)-1 {
			comma = ""
		}
		fmt.Fprintf(&b, "  output wire %s%s\n", san(out), comma)
	}
	b.WriteString(");\n\n")

	init := res.Encoding[c.Init]
	for bit := 0; bit < res.StateBits; bit++ {
		fmt.Fprintf(&b, "  wire Y%d;        // state bit (reset %d)\n", bit, (init>>uint(bit))&1)
	}
	b.WriteString("\n")

	expr := func(cv logic.Cover) string {
		if cv.Len() == 0 {
			return "1'b0"
		}
		var terms []string
		for _, cube := range cv.Cubes {
			var lits []string
			for i := 0; i < cube.N(); i++ {
				switch cube.Get(i) {
				case logic.One:
					lits = append(lits, san(vars[i]))
				case logic.Zero:
					lits = append(lits, "~"+san(vars[i]))
				}
			}
			if len(lits) == 0 {
				return "1'b1"
			}
			terms = append(terms, strings.Join(lits, " & "))
		}
		return strings.Join(terms, "\n             | ")
	}

	fns := append([]synth.FuncResult{}, res.Functions...)
	sort.Slice(fns, func(i, j int) bool { return fns[i].Name < fns[j].Name })
	for _, f := range fns {
		tag := ""
		if !f.HazardFree {
			tag = "  // WARNING: not hazard-free"
		}
		fmt.Fprintf(&b, "  assign %s =%s\n               %s;\n\n", san(f.Name), tag, expr(f.Cover))
	}
	b.WriteString("endmodule\n")
	return b.String(), nil
}

// TestVerilogMatchesConcretizedRenderer renders every registry
// controller at every forced encoding rung that succeeds and requires
// the bytes of the concretizing renderer. The golden synthesis documents
// pin only the rungs the registry accepts; forcing every rung adds
// binary and lenient netlists. No registry controller has a
// strict-feedback netlist, so gen seed 24 joins the corpus: its FU0 is
// the one controller of gen seeds 0–39 that has one.
func TestVerilogMatchesConcretizedRenderer(t *testing.T) {
	kinds := map[string]int{}
	for _, c := range append(registryControllers(t), controllers(t, "gen24", gen.Graph(24))...) {
		for rung := 0; rung < synth.NumRungs(); rung++ {
			res, err := synth.SynthesizeRung(context.Background(), c.m, 1, nil, logic.SolverBB, rung)
			if err != nil {
				continue
			}
			want, err := concretizedVerilog(c.m, res)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, synth.RungName(rung), err)
			}
			if got := synth.Verilog(c.m, res); got != want {
				t.Fatalf("%s %s: netlist differs from the concretizing renderer:\n got %s\nwant %s", c.name, synth.RungName(rung), got, want)
			}
			switch {
			case res.OutputFeedback:
				kinds["feedback"]++
			case res.OneHot:
				kinds["one-hot"]++
			default:
				kinds["binary"]++
			}
			if res.NonHazardFree > 0 {
				kinds["not hazard-free"]++
			}
		}
	}
	t.Logf("netlists compared: %v", kinds)
	for _, k := range []string{"binary", "one-hot", "feedback", "not hazard-free"} {
		if kinds[k] == 0 {
			t.Errorf("no %s netlist compared", k)
		}
	}
}

// TestVerilogRendersOnce requires, for every registry controller, that
// a second Verilog call on one result allocates nothing, that the kept
// netlist equals the render of a fresh copy of the result
// (DecodeResult(EncodeResult(r))), and that eight goroutines making the
// first call on a result at once all get the one string it keeps.
func TestVerilogRendersOnce(t *testing.T) {
	for _, c := range registryControllers(t) {
		res, err := synth.SynthesizeRung(context.Background(), c.m, 1, nil, logic.SolverBB, -1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		first := synth.Verilog(c.m, res)
		if n := testing.AllocsPerRun(10, func() { synth.Verilog(c.m, res) }); n != 0 {
			t.Errorf("%s: a second Verilog call allocates %.0f objects", c.name, n)
		}
		if got := synth.Verilog(c.m, fresh(t, res)); got != first {
			t.Errorf("%s: kept netlist differs from a fresh render:\n got %s\nwant %s", c.name, first, got)
		}

		shared := fresh(t, res)
		start := make(chan struct{})
		got := make([]string, 8)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[i] = synth.Verilog(c.m, shared)
			}()
		}
		close(start)
		wg.Wait()
		for i, s := range got {
			if s != first || unsafe.StringData(s) != unsafe.StringData(got[0]) {
				t.Errorf("%s: goroutine %d got a netlist of its own", c.name, i)
			}
		}
	}
}

// fresh returns a copy of r that has rendered nothing.
func fresh(t *testing.T, r *synth.Result) *synth.Result {
	t.Helper()
	data, err := synth.EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	out, err := synth.DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
