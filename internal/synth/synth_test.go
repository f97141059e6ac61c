package synth

import (
	"strings"
	"testing"

	"repro/internal/bm"
	"repro/internal/diffeq"
	"repro/internal/extract"
	"repro/internal/hfmin"
	"repro/internal/local"
	"repro/internal/logic"
	"repro/internal/transform"
)

func handshakeMachine() *bm.Machine {
	m := bm.NewMachine("hs")
	m.AddInput("req")
	m.AddOutput("ack")
	s0, s1 := m.NewState(""), m.NewState("")
	m.Init = s0
	m.AddTransition(&bm.Transition{From: s0, To: s1, In: []bm.Event{{Signal: "req", Edge: bm.Rise}}, Out: []bm.Event{{Signal: "ack", Edge: bm.Rise}}})
	m.AddTransition(&bm.Transition{From: s1, To: s0, In: []bm.Event{{Signal: "req", Edge: bm.Fall}}, Out: []bm.Event{{Signal: "ack", Edge: bm.Fall}}})
	return m
}

func TestConcretizeHandshake(t *testing.T) {
	c, err := Concretize(handshakeMachine())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.States) != 2 || len(c.Trans) != 2 {
		t.Errorf("states=%d trans=%d, want 2/2", len(c.States), len(c.Trans))
	}
	for _, tr := range c.Trans {
		for _, e := range append(append([]bm.Event{}, tr.In...), tr.Out...) {
			if e.Edge == bm.Toggle {
				t.Errorf("unresolved toggle edge on %s", e.Signal)
			}
		}
	}
}

func TestConcretizeToggleSplitsStates(t *testing.T) {
	// One toggle wire consumed once per cycle: concretization must track
	// the phase, doubling the cycle.
	m := bm.NewMachine("tog")
	m.AddInput("w")
	m.AddOutput("x")
	s0, s1 := m.NewState(""), m.NewState("")
	m.Init = s0
	m.AddTransition(&bm.Transition{From: s0, To: s1, In: []bm.Event{{Signal: "w", Edge: bm.Toggle}}, Out: []bm.Event{{Signal: "x", Edge: bm.Rise}}})
	m.AddTransition(&bm.Transition{From: s1, To: s0, In: []bm.Event{{Signal: "x", Edge: bm.Toggle}}, Out: []bm.Event{{Signal: "x", Edge: bm.Fall}}})
	// Avoid nonsense: make the second trigger a fresh input instead.
	m = bm.NewMachine("tog")
	m.AddInput("w")
	m.AddInput("r")
	m.AddOutput("x")
	s0, s1 = m.NewState(""), m.NewState("")
	m.Init = s0
	m.AddTransition(&bm.Transition{From: s0, To: s1, In: []bm.Event{{Signal: "w", Edge: bm.Toggle}}, Out: []bm.Event{{Signal: "x", Edge: bm.Rise}}})
	m.AddTransition(&bm.Transition{From: s1, To: s0, In: []bm.Event{{Signal: "r", Edge: bm.Toggle}}, Out: []bm.Event{{Signal: "x", Edge: bm.Fall}}})
	c, err := Concretize(m)
	if err != nil {
		t.Fatal(err)
	}
	// w and r each toggle once per cycle: phases alternate, so the cycle
	// doubles: 4 concrete states.
	if len(c.States) != 4 {
		t.Errorf("concrete states = %d, want 4", len(c.States))
	}
}

func TestSynthesizeHandshake(t *testing.T) {
	res, err := Synthesize(handshakeMachine())
	if err != nil {
		t.Fatal(err)
	}
	if res.Products == 0 || res.Literals == 0 {
		t.Errorf("empty implementation: %+v", res)
	}
	// ack follows req: minimal logic should be tiny.
	if res.Products > 4 {
		t.Errorf("handshake needs %d products; expected <= 4", res.Products)
	}
	verifyCovers(t, res)
}

func verifyCovers(t *testing.T, res *Result) {
	t.Helper()
	for _, f := range res.Functions {
		if f.Products != f.Cover.Len() || f.Literals != f.Cover.Literals() {
			t.Errorf("%s: inconsistent counts", f.Name)
		}
	}
}

// synthesizeDiffeq runs the full flow to gate level for one experiment
// configuration.
func synthesizeDiffeq(t *testing.T, withLT bool) map[string]*Result {
	t.Helper()
	g := diffeq.Build(diffeq.DefaultParams())
	plan, _, err := transform.OptimizeGT(g, transform.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ex, err := extract.Extract(g, plan, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*Result{}
	for fu, m := range ex.Machines {
		if withLT {
			if _, err := local.Optimize(m); err != nil {
				t.Fatal(err)
			}
		}
		r, err := Synthesize(m)
		if err != nil {
			t.Fatalf("%s: %v\n%s", fu, err, m)
		}
		out[fu] = r
	}
	return out
}

// TestFig13Shape regenerates the gate-level comparison: every controller
// synthesizes to valid hazard-free two-level logic, totals land in the
// neighbourhood of the paper's Figure 13, and the fully optimized flow
// stays well under Yun's manual total.
func TestFig13Shape(t *testing.T) {
	results := synthesizeDiffeq(t, true)
	totalP, totalL := 0, 0
	for _, fu := range diffeq.FUs {
		r := results[fu]
		t.Logf("%s", r.Summary())
		totalP += r.Products
		totalL += r.Literals
		verifyCovers(t, r)
	}
	t.Logf("total: %d products, %d literals", totalP, totalL)
	yunP, yunL := diffeq.GateTotals(diffeq.PaperFig13Yun)
	if totalP <= 0 || totalL <= 0 {
		t.Fatal("empty synthesis")
	}
	// Shape: the same order of magnitude as the paper's numbers (73/244
	// automated, 93/307 Yun). Our absolute counts run higher because the
	// toggling ready wires force phase-tracking state (see EXPERIMENTS.md),
	// so the bound is a small factor, not parity.
	if totalP > 4*yunP {
		t.Errorf("total products %d far above Yun's %d", totalP, yunP)
	}
	if totalL > 4*yunL {
		t.Errorf("total literals %d far above Yun's %d", totalL, yunL)
	}
	// Per-controller ordering matches Figure 13: ALU2 > ALU1 > MUL1 > MUL2.
	order := []string{diffeq.ALU2, diffeq.ALU1, diffeq.MUL1, diffeq.MUL2}
	for i := 0; i+1 < len(order); i++ {
		if results[order[i]].Products <= results[order[i+1]].Products {
			t.Errorf("product ordering violated: %s (%d) <= %s (%d)",
				order[i], results[order[i]].Products, order[i+1], results[order[i+1]].Products)
		}
	}
	// Every function must be hazard-free (the attempt ladder prefers a
	// wider encoding over a glitchy plain cover).
	for fu, r := range results {
		if r.NonHazardFree != 0 {
			t.Errorf("%s has %d non-hazard-free functions", fu, r.NonHazardFree)
		}
	}
}

// The LT transforms must reduce gate-level cost, mirroring the paper's
// optimized-GT vs optimized-GT-and-LT comparison.
func TestLTReducesLogic(t *testing.T) {
	gtOnly := synthesizeDiffeq(t, false)
	gtLT := synthesizeDiffeq(t, true)
	pGT, pLT := 0, 0
	for _, fu := range diffeq.FUs {
		pGT += gtOnly[fu].Products
		pLT += gtLT[fu].Products
	}
	t.Logf("products: GT-only %d, GT+LT %d", pGT, pLT)
	if pLT >= pGT {
		t.Errorf("LT did not reduce products: %d >= %d", pLT, pGT)
	}
}

func TestHazardFreedomOfSynthesizedLogic(t *testing.T) {
	// Spot-check: re-verify every minimized cover against its analyzed
	// specification requirements via hfmin.Verify (already enforced inside
	// Minimize, but assert the public invariant products>0 → literals>0).
	results := synthesizeDiffeq(t, true)
	for fu, r := range results {
		for _, f := range r.Functions {
			if f.Products > 0 && f.Literals == 0 {
				t.Errorf("%s/%s: products without literals", fu, f.Name)
			}
		}
	}
	_ = hfmin.Spec{}
}

// TestLogicImplementsMachine checks the synthesized covers point-by-point
// against the concrete machines: outputs and next-state functions take the
// specified values at burst completion and remain stable after the state
// settles.
func TestLogicImplementsMachine(t *testing.T) {
	g := diffeq.Build(diffeq.DefaultParams())
	plan, _, err := transform.OptimizeGT(g, transform.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ex, err := extract.Extract(g, plan, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for fu, m := range ex.Machines {
		if _, err := local.Optimize(m); err != nil {
			t.Fatal(err)
		}
		r, err := Synthesize(m)
		if err != nil {
			t.Fatalf("%s: %v", fu, err)
		}
		if err := VerifyAgainstMachine(m, r); err != nil {
			t.Errorf("%s: %v", fu, err)
		}
	}
}

func TestVerilogNetlist(t *testing.T) {
	m := handshakeMachine()
	res, err := Synthesize(m)
	if err != nil {
		t.Fatal(err)
	}
	v := Verilog(m, res)
	for _, want := range []string{"module hs", "input  wire req", "output wire ack", "assign ack =", "endmodule"} {
		if !strings.Contains(v, want) {
			t.Errorf("netlist missing %q:\n%s", want, v)
		}
	}
	// Balanced structure: one assign per function.
	if got := strings.Count(v, "assign "); got != len(res.Functions) {
		t.Errorf("assigns = %d, want %d", got, len(res.Functions))
	}
}

func TestVerilogDiffeqControllers(t *testing.T) {
	results := synthesizeDiffeq(t, true)
	g := diffeq.Build(diffeq.DefaultParams())
	plan, _, err := transform.OptimizeGT(g, transform.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ex, err := extract.Extract(g, plan, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = results
	for fu, m := range ex.Machines {
		if _, err := local.Optimize(m); err != nil {
			t.Fatal(err)
		}
		r, err := Synthesize(m)
		if err != nil {
			t.Fatal(err)
		}
		v := Verilog(m, r)
		if !strings.Contains(v, "module "+fu) || !strings.Contains(v, "endmodule") {
			t.Errorf("%s: malformed netlist", fu)
		}
	}
}

func TestOneHotEncodingLimits(t *testing.T) {
	reach := make([]int, logic.MaxVars)
	for i := range reach {
		reach[i] = i * 3
	}
	enc, err := oneHotEncoding(reach)
	if err != nil {
		t.Fatalf("%d states must encode: %v", len(reach), err)
	}
	seen := map[uint64]bool{}
	for _, s := range reach {
		code := enc[s]
		if code == 0 || code&(code-1) != 0 {
			t.Errorf("state %d code %#x is not one-hot", s, code)
		}
		if seen[code] {
			t.Errorf("state %d reuses code %#x", s, code)
		}
		seen[code] = true
	}
	if _, err := oneHotEncoding(make([]int, logic.MaxVars+1)); err == nil {
		t.Errorf("%d states silently wrapped instead of erroring", logic.MaxVars+1)
	}
}
