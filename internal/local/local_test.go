package local

import (
	"strings"
	"testing"

	"repro/internal/bm"
	"repro/internal/diffeq"
	"repro/internal/extract"
	"repro/internal/transform"
)

// fragmentMachine builds a representative single-fragment controller with
// the full six-stage micro-operation expansion.
func fragmentMachine() *bm.Machine {
	m := bm.NewMachine("frag")
	for _, in := range []string{"w9_X", "selA_Y_a", "go_add_a", "ws_A_a", "wr_A_a"} {
		m.AddInput(in)
	}
	for _, out := range []string{"selA_Y", "go_add", "ws_A", "wr_A", "w5_Z"} {
		m.AddOutput(out)
	}
	s := make([]bm.StateID, 7)
	for i := range s {
		s[i] = m.NewState("")
	}
	m.Init = s[0]
	ev := func(sig string, e bm.Edge) bm.Event { return bm.Event{Signal: sig, Edge: e} }
	m.AddTransition(&bm.Transition{From: s[0], To: s[1], In: []bm.Event{ev("w9_X", bm.Toggle)}, Out: []bm.Event{ev("selA_Y", bm.Rise)}, Label: "(i)"})
	m.AddTransition(&bm.Transition{From: s[1], To: s[2], In: []bm.Event{ev("selA_Y_a", bm.Rise)}, Out: []bm.Event{ev("go_add", bm.Rise)}, Label: "(ii)"})
	m.AddTransition(&bm.Transition{From: s[2], To: s[3], In: []bm.Event{ev("go_add_a", bm.Rise)}, Out: []bm.Event{ev("ws_A", bm.Rise)}, Label: "(iii)"})
	m.AddTransition(&bm.Transition{From: s[3], To: s[4], In: []bm.Event{ev("ws_A_a", bm.Rise)}, Out: []bm.Event{ev("wr_A", bm.Rise)}, Label: "(iv)"})
	m.AddTransition(&bm.Transition{From: s[4], To: s[5], In: []bm.Event{ev("wr_A_a", bm.Rise)}, Out: []bm.Event{ev("selA_Y", bm.Fall), ev("go_add", bm.Fall), ev("ws_A", bm.Fall), ev("wr_A", bm.Fall)}, Label: "(v)"})
	m.AddTransition(&bm.Transition{From: s[5], To: s[0], In: []bm.Event{ev("selA_Y_a", bm.Fall), ev("go_add_a", bm.Fall), ev("ws_A_a", bm.Fall), ev("wr_A_a", bm.Fall)}, Out: []bm.Event{ev("w5_Z", bm.Toggle)}, Label: "(vi)"})
	return m
}

func TestRemoveAcksCollapsesStages(t *testing.T) {
	m := fragmentMachine()
	before := m.NumTransitions()
	rep := &Report{Machine: m.Name, SharedWires: map[string][]string{}}
	RemoveAcks(m, rep)
	MergeTriggerless(m, rep)
	if m.NumTransitions() >= before {
		t.Errorf("transitions %d not reduced from %d", m.NumTransitions(), before)
	}
	// Mux and register-mux ack waits must be gone.
	for _, tr := range m.Transitions {
		for _, e := range tr.In {
			if e.Signal == "selA_Y_a" || e.Signal == "ws_A_a" {
				t.Errorf("removed ack still waited on: %s", e.Signal)
			}
		}
	}
	if len(rep.Assumptions) == 0 {
		t.Error("LT4 must record timing assumptions")
	}
}

func TestMoveUpDones(t *testing.T) {
	m := fragmentMachine()
	rep := &Report{Machine: m.Name, SharedWires: map[string][]string{}}
	RemoveAcks(m, rep)
	MergeTriggerless(m, rep)
	MoveUpDones(m, rep)
	// The done event w5_Z must now ride the latch transition (the one
	// emitting wr_A+).
	found := false
	for _, tr := range m.Transitions {
		if tr.HasOutput("w5_Z") {
			if !hostsLatch(tr) {
				t.Errorf("done on non-latch transition: %s", tr)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("done event lost")
	}
}

func TestOptimizeFullPipeline(t *testing.T) {
	m := fragmentMachine()
	before := m.NumStates()
	rep, err := Optimize(m)
	if err != nil {
		t.Fatalf("%v\n%s", err, m)
	}
	if m.NumStates() >= before {
		t.Errorf("states %d not reduced from %d", m.NumStates(), before)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = rep
}

func TestShareSignals(t *testing.T) {
	// Two outputs with identical occurrence patterns must merge.
	m := bm.NewMachine("share")
	m.AddInput("a")
	m.AddOutput("x")
	m.AddOutput("y")
	s0, s1 := m.NewState(""), m.NewState("")
	m.Init = s0
	m.AddTransition(&bm.Transition{From: s0, To: s1, In: []bm.Event{{Signal: "a", Edge: bm.Rise}},
		Out: []bm.Event{{Signal: "x", Edge: bm.Rise}, {Signal: "y", Edge: bm.Rise}}})
	m.AddTransition(&bm.Transition{From: s1, To: s0, In: []bm.Event{{Signal: "a", Edge: bm.Fall}},
		Out: []bm.Event{{Signal: "x", Edge: bm.Fall}, {Signal: "y", Edge: bm.Fall}}})
	rep := &Report{Machine: m.Name, SharedWires: map[string][]string{}}
	ShareSignals(m, rep)
	if len(m.Outputs) != 1 {
		t.Fatalf("outputs = %v, want one shared wire", m.Outputs)
	}
	if got := rep.SharedWires["x"]; len(got) != 1 || got[0] != "y" {
		t.Errorf("shared map = %v", rep.SharedWires)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShareSignalsFixedOrder requires one Moves list from every run of
// LT5 on a machine with three share groups: the groups sit in a map, and
// the lt stage payload stores the moves under a key that does not see
// their order.
func TestShareSignalsFixedOrder(t *testing.T) {
	m := bm.NewMachine("groups")
	m.AddInput("a")
	m.AddInput("b")
	m.AddInput("c")
	for _, out := range []string{"p1", "p2", "q1", "q2", "q3", "r1", "r2"} {
		m.AddOutput(out)
	}
	s0, s1, s2, s3 := m.NewState(""), m.NewState(""), m.NewState(""), m.NewState("")
	m.Init = s0
	burst := func(e bm.Edge, sigs ...string) []bm.Event {
		var out []bm.Event
		for _, s := range sigs {
			out = append(out, bm.Event{Signal: s, Edge: e})
		}
		return out
	}
	m.AddTransition(&bm.Transition{From: s0, To: s1, In: burst(bm.Rise, "a"), Out: burst(bm.Rise, "p1", "p2")})
	m.AddTransition(&bm.Transition{From: s1, To: s2, In: burst(bm.Rise, "b"), Out: burst(bm.Rise, "q1", "q2", "q3")})
	m.AddTransition(&bm.Transition{From: s2, To: s3, In: burst(bm.Rise, "c"), Out: burst(bm.Rise, "r1", "r2")})
	m.AddTransition(&bm.Transition{From: s3, To: s0, In: burst(bm.Fall, "a", "b", "c"),
		Out: burst(bm.Fall, "p1", "p2", "q1", "q2", "q3", "r1", "r2")})

	var want []string
	for i := 0; i < 50; i++ {
		mm := m.Clone()
		rep := &Report{Machine: mm.Name, SharedWires: map[string][]string{}}
		ShareSignals(mm, rep)
		if len(mm.Outputs) != 3 {
			t.Fatalf("outputs = %v, want one wire per share group", mm.Outputs)
		}
		if i == 0 {
			want = rep.Moves
			continue
		}
		if strings.Join(rep.Moves, "\n") != strings.Join(want, "\n") {
			t.Fatalf("run %d moves:\n%s\nwant:\n%s", i, strings.Join(rep.Moves, "\n"), strings.Join(want, "\n"))
		}
	}
	if len(want) != 4 {
		t.Fatalf("moves = %q, want one per folded wire", want)
	}
}

func TestShareSignalsKeepsWiresDistinct(t *testing.T) {
	m := bm.NewMachine("wires")
	m.AddInput("a")
	m.AddOutput("w1_F")
	m.AddOutput("w2_F")
	s0, s1 := m.NewState(""), m.NewState("")
	m.Init = s0
	m.AddTransition(&bm.Transition{From: s0, To: s1, In: []bm.Event{{Signal: "a", Edge: bm.Rise}},
		Out: []bm.Event{{Signal: "w1_F", Edge: bm.Rise}, {Signal: "w2_F", Edge: bm.Rise}}})
	m.AddTransition(&bm.Transition{From: s1, To: s0, In: []bm.Event{{Signal: "a", Edge: bm.Fall}},
		Out: []bm.Event{{Signal: "w1_F", Edge: bm.Fall}, {Signal: "w2_F", Edge: bm.Fall}}})
	rep := &Report{Machine: m.Name, SharedWires: map[string][]string{}}
	ShareSignals(m, rep)
	if len(m.Outputs) != 2 {
		t.Errorf("global wires must never share: %v", m.Outputs)
	}
}

func TestMoveDown(t *testing.T) {
	m := fragmentMachine()
	rep := &Report{Machine: m.Name, SharedWires: map[string][]string{}}
	// Move the ws_A fall from stage (v) to stage (vi).
	var stage5 *bm.Transition
	for _, tr := range m.Transitions {
		if tr.Label == "(v)" {
			stage5 = tr
		}
	}
	if !MoveDown(m, stage5, "ws_A", rep) {
		t.Fatal("move-down refused")
	}
	if stage5.HasOutput("ws_A") {
		t.Error("ws_A still on stage (v)")
	}
	var stage6 *bm.Transition
	for _, tr := range m.Transitions {
		if tr.Label == "(vi)" {
			stage6 = tr
		}
	}
	if !stage6.HasOutput("ws_A") {
		t.Error("ws_A not moved to stage (vi)")
	}
}

func TestOptimizeDiffeqMachines(t *testing.T) {
	g := diffeq.Build(diffeq.DefaultParams())
	plan, _, err := transform.OptimizeGT(g, transform.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := extract.Extract(g, plan, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	totalBefore, totalAfter := 0, 0
	for fu, m := range res.Machines {
		before := m.NumStates()
		rep, err := Optimize(m)
		if err != nil {
			t.Fatalf("%s: %v", fu, err)
		}
		t.Logf("%s: %d → %d states, %d → ... transitions; %d assumptions",
			fu, before, m.NumStates(), m.NumTransitions(), len(rep.Assumptions))
		totalBefore += before
		totalAfter += m.NumStates()
	}
	// The paper's optimized-GT → optimized-GT-and-LT step shrinks the
	// machines by roughly half; require a substantial reduction.
	if totalAfter*3 > totalBefore*2 {
		t.Errorf("LT reduction too weak: %d → %d states", totalBefore, totalAfter)
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{Machine: "X", SharedWires: map[string][]string{}}
	rep.note("did %s", "thing")
	rep.assume("needs %s", "slack")
	if len(rep.Moves) != 1 || len(rep.Assumptions) != 1 {
		t.Error("report recording broken")
	}
	if !strings.Contains(rep.Moves[0], "thing") {
		t.Error("note formatting broken")
	}
}
