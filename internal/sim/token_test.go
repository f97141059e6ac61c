package sim

import (
	"math"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/diffeq"
)

func mustRun(t *testing.T, g *cdfg.Graph, d Delays) *Result {
	t.Helper()
	s := NewTokenSim(g, d)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("simulation did not reach END")
	}
	return res
}

func checkAgainstReference(t *testing.T, res *Result, p diffeq.Params) {
	t.Helper()
	ref := diffeq.Reference(p)
	for _, r := range []string{"X", "Y", "U"} {
		if math.Abs(res.Regs[r]-ref[r]) > 1e-9 {
			t.Errorf("register %s = %v, reference %v", r, res.Regs[r], ref[r])
		}
	}
}

func TestDiffeqFixedDelays(t *testing.T) {
	p := diffeq.DefaultParams()
	g := diffeq.Build(p)
	res := mustRun(t, g, FixedDelays(10, 1))
	checkAgainstReference(t, res, p)
	if len(res.Violations) != 0 {
		t.Errorf("violations: %v", res.Violations)
	}
	loop := findLoop(t, g)
	if got := res.LoopIters[loop]; got != diffeq.Iterations(p) {
		t.Errorf("loop iterations = %d, want %d", got, diffeq.Iterations(p))
	}
}

func findLoop(t *testing.T, g *cdfg.Graph) cdfg.NodeID {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.Kind == cdfg.KindLoop {
			return n.ID
		}
	}
	t.Fatal("no LOOP node")
	return 0
}

// The central asynchrony property: any positive delay assignment yields the
// same final register values, with no wire-safety or race violations.
func TestDiffeqRandomDelaysDeterministic(t *testing.T) {
	p := diffeq.DefaultParams()
	for seed := int64(0); seed < 25; seed++ {
		g := diffeq.Build(p)
		res := mustRun(t, g, RandomDelays(seed, 1, 50, 0.1, 5))
		checkAgainstReference(t, res, p)
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: violations: %v", seed, res.Violations)
		}
	}
}

func TestDiffeqSkewedFUDelays(t *testing.T) {
	p := diffeq.DefaultParams()
	// Very slow multipliers against fast ALUs, then the reverse.
	for _, fu := range []map[string]float64{
		{"MUL1": 200, "MUL2": 180, "ALU1": 3, "ALU2": 2},
		{"MUL1": 2, "MUL2": 3, "ALU1": 150, "ALU2": 170},
	} {
		g := diffeq.Build(p)
		res := mustRun(t, g, PerFUDelays(fu, 5, 1))
		checkAgainstReference(t, res, p)
		if len(res.Violations) != 0 {
			t.Fatalf("delays %v: violations: %v", fu, res.Violations)
		}
	}
}

func TestDiffeqZeroIterations(t *testing.T) {
	// x0 >= a: the loop body never executes.
	p := diffeq.Params{X0: 2, Y0: 1, U0: 0, DX: 0.5, A: 1}
	g := diffeq.Build(p)
	res := mustRun(t, g, FixedDelays(10, 1))
	checkAgainstReference(t, res, p)
	if res.Regs["X"] != 2 || res.Regs["Y"] != 1 {
		t.Errorf("registers changed despite empty loop: X=%v Y=%v", res.Regs["X"], res.Regs["Y"])
	}
}

func TestDiffeqSingleIteration(t *testing.T) {
	p := diffeq.Params{X0: 0, Y0: 1, U0: 0.5, DX: 2, A: 1}
	g := diffeq.Build(p)
	res := mustRun(t, g, FixedDelays(10, 1))
	checkAgainstReference(t, res, p)
	if got := res.LoopIters[findLoop(t, g)]; got != 1 {
		t.Errorf("iterations = %d, want 1", got)
	}
}

func TestWireSafetyUnoptimized(t *testing.T) {
	// In the unoptimized CDFG every arc holds at most one token at a time.
	p := diffeq.DefaultParams()
	for seed := int64(100); seed < 110; seed++ {
		g := diffeq.Build(p)
		res := mustRun(t, g, RandomDelays(seed, 1, 40, 0.1, 3))
		for id, occ := range res.MaxOccupied {
			if occ > 1 {
				t.Errorf("seed %d: arc %d peaked at %d tokens", seed, id, occ)
			}
		}
	}
}

func TestIfProgramBothBranches(t *testing.T) {
	build := func(a, b float64) *cdfg.Graph {
		p := cdfg.NewProgram("max", "ALU")
		p.Init("a", a).Init("b", b).Init("m", 0)
		p.Op("ALU", "c", cdfg.OpGT, "a", "b")
		p.Assign("ALU", "m", "b")
		p.If("ALU", "c")
		p.Assign("ALU", "m", "a")
		p.EndIf()
		g, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// Taken branch: a > b, m = a.
	res := mustRun(t, build(7, 3), FixedDelays(5, 1))
	if res.Regs["m"] != 7 {
		t.Errorf("taken branch: m = %v, want 7", res.Regs["m"])
	}
	// Untaken: m = b.
	res = mustRun(t, build(2, 9), FixedDelays(5, 1))
	if res.Regs["m"] != 9 {
		t.Errorf("untaken branch: m = %v, want 9", res.Regs["m"])
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations: %v", res.Violations)
	}
}

func TestNestedLoopIfGCD(t *testing.T) {
	// GCD by repeated subtraction: demonstrates IF inside LOOP.
	build := func(a, b float64) *cdfg.Graph {
		p := cdfg.NewProgram("gcd", "ALU", "CMP")
		p.Init("a", a).Init("b", b)
		p.Op("CMP", "ne", cdfg.OpEQ, "a", "b") // ne = (a==b)
		p.Op("ALU", "run", cdfg.OpSub, "one", "ne")
		p.Init("one", 1).Const("one")
		p.Loop("ALU", "run")
		p.Op("CMP", "gt", cdfg.OpGT, "a", "b")
		p.If("ALU", "gt")
		p.Op("ALU", "a", cdfg.OpSub, "a", "b")
		p.EndIf()
		p.Op("CMP", "lt", cdfg.OpLT, "a", "b")
		p.If("ALU", "lt")
		p.Op("ALU", "b", cdfg.OpSub, "b", "a")
		p.EndIf()
		p.Op("CMP", "ne2", cdfg.OpEQ, "a", "b")
		p.Op("ALU", "run", cdfg.OpSub, "one", "ne2")
		p.EndLoop()
		g, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := []struct{ a, b, want float64 }{
		{12, 18, 6}, {7, 13, 1}, {9, 9, 9}, {25, 10, 5},
	}
	for _, tc := range cases {
		for seed := int64(0); seed < 5; seed++ {
			res := mustRun(t, build(tc.a, tc.b), RandomDelays(seed, 1, 20, 0.1, 2))
			if res.Regs["a"] != tc.want {
				t.Errorf("gcd(%v,%v) = %v, want %v", tc.a, tc.b, res.Regs["a"], tc.want)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("gcd(%v,%v) seed %d violations: %v", tc.a, tc.b, seed, res.Violations)
			}
		}
	}
}

func TestRunawayLoopDetected(t *testing.T) {
	p := cdfg.NewProgram("forever", "ALU")
	p.Init("c", 1)
	p.Loop("ALU", "c")
	p.Op("ALU", "x", cdfg.OpAdd, "x", "c")
	p.EndLoop()
	g, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := NewTokenSim(g, FixedDelays(1, 1))
	s.MaxFirings = 500
	if _, err := s.Run(); err == nil {
		t.Error("runaway loop not detected")
	}
}

// TestEvalStmt checks statement evaluation as the token simulator does
// it, through the operator table on cdfg.Op.
func TestEvalStmt(t *testing.T) {
	regs := map[string]float64{"a": 7, "b": 3}
	eval := func(st cdfg.Stmt) float64 { return st.Op.Eval(regs[st.Src1], regs[st.Src2]) }
	cases := []struct {
		op   cdfg.Op
		want float64
	}{
		{cdfg.OpAdd, 10}, {cdfg.OpSub, 4}, {cdfg.OpMul, 21},
		{cdfg.OpLT, 0}, {cdfg.OpGT, 1}, {cdfg.OpEQ, 0}, {cdfg.OpMod, 1},
	}
	for _, tc := range cases {
		got := eval(cdfg.Stmt{Dst: "d", Op: tc.op, Src1: "a", Src2: "b"})
		if got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.op, got, tc.want)
		}
		if op, ok := cdfg.OpNamed(tc.op.Name()); !ok || op != tc.op {
			t.Errorf("%s: OpNamed(%q) = %q, %v", tc.op, tc.op.Name(), op, ok)
		}
	}
	if got := eval(cdfg.Stmt{Dst: "d", Op: cdfg.OpMov, Src1: "a"}); got != 7 {
		t.Errorf("mov: got %v", got)
	}
	if got := eval(cdfg.Stmt{Dst: "d", Op: cdfg.OpMod, Src1: "a", Src2: "z"}); got != 0 {
		t.Errorf("mod by zero: got %v, want 0", got)
	}
}

// Doubly nested loops execute correctly under the token semantics.
func TestNestedLoopsExecute(t *testing.T) {
	build := func() *cdfg.Graph {
		p := cdfg.NewProgram("nested", "ALU")
		p.Const("one", "two", "zero")
		p.InitAll(map[string]float64{
			"one": 1, "two": 2, "zero": 0,
			"i": 0, "j": 0, "acc": 0, "outer": 0, "ri": 1, "rj": 1,
		})
		p.Loop("ALU", "ri")
		p.Assign("ALU", "j", "zero")
		p.Loop("ALU", "rj")
		p.Op("ALU", "acc", cdfg.OpAdd, "acc", "one")
		p.Op("ALU", "j", cdfg.OpAdd, "j", "one")
		p.Op("ALU", "rj", cdfg.OpLT, "j", "two")
		p.EndLoop()
		p.Op("ALU", "outer", cdfg.OpAdd, "outer", "one")
		p.Op("ALU", "i", cdfg.OpAdd, "i", "one")
		p.Op("ALU", "ri", cdfg.OpLT, "i", "two")
		p.Op("ALU", "rj", cdfg.OpLT, "zero", "two")
		p.EndLoop()
		g, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for seed := int64(0); seed < 6; seed++ {
		res := mustRun(t, build(), RandomDelays(seed, 1, 20, 0.1, 2))
		if res.Regs["acc"] != 4 || res.Regs["outer"] != 2 {
			t.Errorf("seed %d: acc=%v outer=%v, want 4/2", seed, res.Regs["acc"], res.Regs["outer"])
		}
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: %v", seed, res.Violations)
		}
	}
}
