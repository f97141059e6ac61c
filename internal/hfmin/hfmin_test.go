package hfmin

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/logic"
)

func tr(start, end string, k Kind) Transition {
	return Transition{Start: logic.MustCube(start), End: logic.MustCube(end), Kind: k}
}

func TestAnalyzeStatic(t *testing.T) {
	spec := Spec{N: 2, Transitions: []Transition{
		tr("00", "01", Static1),
		tr("10", "11", Static0),
	}}
	res, err := Analyze(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Required) != 1 || res.Required[0].String() != "0-" {
		t.Errorf("required = %v, want [0-]", res.Required)
	}
	if res.OffSet.Len() != 1 || res.OffSet.Cubes[0].String() != "1-" {
		t.Errorf("off = %v", res.OffSet)
	}
	if len(res.Privileged) != 0 {
		t.Errorf("static transitions must not be privileged")
	}
}

func TestAnalyzeFall(t *testing.T) {
	// Falling transition from 00 to 11 (both inputs rise, f falls at 11).
	spec := Spec{N: 2, Transitions: []Transition{tr("00", "11", Fall)}}
	res, err := Analyze(spec)
	if err != nil {
		t.Fatal(err)
	}
	// ON = {0-, -0}, OFF = {11}, required = {0-, -0}, privileged needs 00.
	if len(res.Required) != 2 {
		t.Fatalf("required = %v", res.Required)
	}
	names := map[string]bool{}
	for _, r := range res.Required {
		names[r.String()] = true
	}
	if !names["0-"] || !names["-0"] {
		t.Errorf("required = %v, want {0-, -0}", res.Required)
	}
	if res.OffSet.Cubes[0].String() != "11" {
		t.Errorf("off = %v", res.OffSet)
	}
	if len(res.Privileged) != 1 || res.Privileged[0].Need.String() != "00" {
		t.Errorf("privileged = %+v", res.Privileged)
	}
}

func TestAnalyzeRise(t *testing.T) {
	spec := Spec{N: 2, Transitions: []Transition{tr("00", "11", Rise)}}
	res, err := Analyze(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Required) != 1 || res.Required[0].String() != "11" {
		t.Errorf("required = %v, want [11]", res.Required)
	}
	if res.OnSet.Len() != 1 || res.OnSet.Cubes[0].String() != "11" {
		t.Errorf("on = %v", res.OnSet)
	}
	if len(res.Privileged) != 1 || res.Privileged[0].Need.String() != "11" {
		t.Errorf("privileged = %+v", res.Privileged)
	}
}

func TestAnalyzeInconsistent(t *testing.T) {
	spec := Spec{N: 2, Transitions: []Transition{
		tr("0-", "0-", Static1),
		tr("00", "01", Static0),
	}}
	if _, err := Analyze(spec); err == nil {
		t.Error("overlapping ON/OFF must be rejected")
	}
}

func TestAnalyzeDegenerateDynamic(t *testing.T) {
	spec := Spec{N: 2, Transitions: []Transition{tr("00", "00", Fall)}}
	if _, err := Analyze(spec); err == nil {
		t.Error("dynamic transition with no changing variables must be rejected")
	}
}

func TestMinimizeSimple(t *testing.T) {
	// f = x0' over 2 vars, specified by two static transitions.
	spec := Spec{N: 2, Transitions: []Transition{
		tr("00", "01", Static1),
		tr("10", "11", Static0),
	}}
	res, err := Minimize(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Products() != 1 || res.Literals() != 1 {
		t.Errorf("products=%d literals=%d cover=%s", res.Products(), res.Literals(), res.Cover)
	}
	if err := Verify(res, res.Cover); err != nil {
		t.Error(err)
	}
}

// The canonical hazard example: f = ab + a'c with transition a: 1→0 while
// b=c=1. A non-hazard-free minimizer may produce {ab, a'c} which glitches;
// the hazard-free cover must include the consensus product bc.
func TestMinimizeNeedsConsensus(t *testing.T) {
	// Variables: a=0, b=1, c=2.
	spec := Spec{N: 3, Transitions: []Transition{
		// Static 1 regions establishing ab and a'c.
		tr("110", "111", Static1), // ab, c free-ish
		tr("001", "011", Static1), // a'c
		// The hazardous transition: from a=1,b=1,c=1 to a=0,b=1,c=1, f stays 1.
		tr("111", "011", Static1),
		// Off behaviour.
		tr("100", "101", Static0), // ab' with c: f=0 at 100,101
		tr("000", "010", Static0), // a'c': f=0
	}}
	res, err := Minimize(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(res, res.Cover); err != nil {
		t.Fatalf("cover %s: %v", res.Cover, err)
	}
	// The static 1→1 transition cube -11 must be inside a single product.
	found := false
	for _, p := range res.Cover.Cubes {
		if p.Contains(logic.MustCube("-11")) {
			found = true
		}
	}
	if !found {
		t.Errorf("cover %s lacks a product containing the consensus cube -11", res.Cover)
	}
}

func TestMinimizeFallTransitionHazardFree(t *testing.T) {
	// f falls when both inputs of a 2-input burst arrive.
	spec := Spec{N: 3, Transitions: []Transition{
		tr("00-", "11-", Fall),
	}}
	res, err := Minimize(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(res, res.Cover); err != nil {
		t.Fatalf("cover %s: %v", res.Cover, err)
	}
	// Both required cubes 0-- and -0- must appear (no single dhf implicant
	// contains both).
	if res.Products() != 2 {
		t.Errorf("products = %d (%s), want 2", res.Products(), res.Cover)
	}
}

func TestMinimizeRiseAvoidsIllegalIntersection(t *testing.T) {
	// Rising transition 00→11; another ON region 10- must not produce a
	// product that cuts across the transition cube without containing 11.
	spec := Spec{N: 2, Transitions: []Transition{
		tr("00", "11", Rise),
	}}
	res, err := Minimize(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(res, res.Cover); err != nil {
		t.Fatalf("%s: %v", res.Cover, err)
	}
}

func TestMinimizeEmptySpec(t *testing.T) {
	res, err := Minimize(Spec{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Products() != 0 {
		t.Errorf("empty spec should give empty cover, got %s", res.Cover)
	}
}

func TestMinimizePlainSmallerOrEqual(t *testing.T) {
	// The plain minimizer ignores hazard constraints so it can never need
	// more products than the hazard-free one.
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 30; iter++ {
		spec := randomSpec(r, 4, 3)
		hf, errHF := Minimize(spec)
		if errHF != nil {
			continue // random spec may be inconsistent or infeasible
		}
		plain, errP := MinimizePlain(spec)
		if errP != nil {
			t.Fatalf("plain failed where hazard-free succeeded: %v", errP)
		}
		if plain.Products() > hf.Products() {
			t.Errorf("iter %d: plain %d products > hazard-free %d", iter, plain.Products(), hf.Products())
		}
	}
}

// randomSpec builds a random consistent-ish spec from disjoint transition
// cubes (consistency is not guaranteed; callers skip errors).
func randomSpec(r *rand.Rand, n, k int) Spec {
	spec := Spec{N: n}
	for i := 0; i < k; i++ {
		start := logic.FullCube(n)
		for v := 0; v < n; v++ {
			if r.Intn(3) > 0 {
				if r.Intn(2) == 0 {
					start = start.With(v, logic.Zero)
				} else {
					start = start.With(v, logic.One)
				}
			}
		}
		end := start
		changed := false
		for v := 0; v < n; v++ {
			if start.Get(v) != logic.Dash && r.Intn(3) == 0 {
				if start.Get(v) == logic.Zero {
					end = end.With(v, logic.One)
				} else {
					end = end.With(v, logic.Zero)
				}
				changed = true
			}
		}
		kind := Kind(r.Intn(4))
		if !changed && (kind == Fall || kind == Rise) {
			kind = Static1
		}
		spec.Transitions = append(spec.Transitions, Transition{Start: start, End: end, Kind: kind})
	}
	return spec
}

func TestMinimizeRandomVerifies(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ok := 0
	for iter := 0; iter < 100; iter++ {
		spec := randomSpec(r, 5, 4)
		res, err := Minimize(spec)
		if err != nil {
			continue
		}
		if verr := Verify(res, res.Cover); verr != nil {
			t.Fatalf("iter %d: cover %s fails verification: %v", iter, res.Cover, verr)
		}
		ok++
	}
	if ok == 0 {
		t.Error("no random spec minimized successfully; generator too hostile")
	}
}

func TestTransitionCube(t *testing.T) {
	x := tr("00", "11", Fall)
	if c := x.Cube(); c.String() != "--" {
		t.Errorf("transition cube = %s", c)
	}
}

// TestCanonicalSorts: Canonical orders transitions by (kind, start, end)
// and is idempotent; the input spec is never mutated.
func TestCanonicalSorts(t *testing.T) {
	spec := Spec{N: 3, Transitions: []Transition{
		tr("1-0", "1-0", Static1),
		tr("011", "011", Static0),
		tr("10-", "11-", Rise),
		tr("00-", "00-", Static0),
	}}
	orig := append([]Transition(nil), spec.Transitions...)
	canon := spec.Canonical()
	for i := 1; i < len(canon.Transitions); i++ {
		if !transLess(canon.Transitions[i-1], canon.Transitions[i]) {
			t.Errorf("canonical transitions %d and %d out of order", i-1, i)
		}
	}
	again := canon.Canonical()
	for i := range canon.Transitions {
		if again.Transitions[i] != canon.Transitions[i] {
			t.Error("Canonical is not idempotent")
			break
		}
	}
	for i := range orig {
		if spec.Transitions[i] != orig[i] {
			t.Error("Canonical mutated its receiver")
			break
		}
	}
}

// TestMinimizeOrderIndependent: minimization results are bit-identical
// regardless of the order transitions were inserted in — the determinism
// property content-addressed memoization relies on (a cache hit keyed on
// the canonical spec must equal what the miss path would compute).
func TestMinimizeOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	compared := 0
	for iter := 0; iter < 120; iter++ {
		spec := randomSpec(r, 5, 4)
		shuffled := Spec{N: spec.N, Transitions: append([]Transition(nil), spec.Transitions...)}
		r.Shuffle(len(shuffled.Transitions), func(i, j int) {
			shuffled.Transitions[i], shuffled.Transitions[j] = shuffled.Transitions[j], shuffled.Transitions[i]
		})
		a, errA := Minimize(spec)
		b, errB := Minimize(shuffled)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("iter %d: original err %v, shuffled err %v", iter, errA, errB)
		}
		if errA != nil {
			if errA.Error() != errB.Error() {
				t.Errorf("iter %d: error %q differs from shuffled %q", iter, errA, errB)
			}
			continue
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("iter %d: shuffled spec minimized differently\n got %+v\nwant %+v", iter, b, a)
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("no feasible random specs; generator is broken")
	}
}
