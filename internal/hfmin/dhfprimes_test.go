package hfmin_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/hfmin"
	"repro/internal/logic"
)

// refDHFPrimes is the dhf-prime generation dhfPrimes replaced, kept as
// the oracle: the primes of the required cubes (the expansions of each
// against the OFF-set, filtered by refMaximal), then every legal cube of
// the shrink recursion, deduplicated by a seen map and filtered by
// refMaximal. It also reports the number of distinct shrinks the
// recursion visited, and whether one of them lies inside a legal prime,
// which dhfPrimes skips.
func refDHFPrimes(required []logic.Cube, off logic.Cover, priv []hfmin.Privileged) (primes []logic.Cube, shrinks int, pruned bool) {
	var exps []logic.Cube
	for _, r := range required {
		exps = append(exps, logic.PrimesContaining([]logic.Cube{r}, off)...)
	}
	all := refMaximal(exps)
	legalCube := func(p logic.Cube) bool {
		for _, pv := range priv {
			if p.Intersects(pv.Trans) && !p.Contains(pv.Need) {
				return false
			}
		}
		return true
	}
	var legal []logic.Cube
	for _, p := range all {
		if legalCube(p) {
			legal = append(legal, p)
		}
	}
	seen := map[[2]uint64]bool{}
	var out []logic.Cube
	var emit func(p logic.Cube, shrunk bool)
	emit = func(p logic.Cube, shrunk bool) {
		if p.IsEmpty() || seen[p.Key()] {
			return
		}
		seen[p.Key()] = true
		if shrunk {
			shrinks++
			for i := 0; !pruned && i < len(legal); i++ {
				pruned = legal[i].Contains(p)
			}
		}
		for _, pv := range priv {
			if p.Intersects(pv.Trans) && !p.Contains(pv.Need) {
				for vs := pv.Trans.BoundVars() &^ p.BoundVars(); vs != 0; vs &= vs - 1 {
					v := bits.TrailingZeros64(vs)
					flip := logic.Zero
					if pv.Trans.Get(v) == logic.Zero {
						flip = logic.One
					}
					emit(p.With(v, flip), true)
				}
				return
			}
		}
		out = append(out, p)
	}
	for _, p := range all {
		emit(p, false)
	}
	return refMaximal(out), shrinks, pruned
}

// refMaximal is the maximality filter dhfPrimes used before the
// containment index. It keeps the first occurrence of every cube not
// strictly contained in another cube of the list, in logic.Compare order:
// visiting the cubes by ascending literal count (a container has fewer
// literals), it tests each against every maximal cube found so far.
// Testing each cube against every other, as internal/logic's reference
// does, is too slow on the worst-case fixtures' lists.
func refMaximal(cubes []logic.Cube) []logic.Cube {
	order := make([]int, len(cubes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return cubes[order[i]].Literals() < cubes[order[j]].Literals()
	})
	keep := make([]bool, len(cubes))
	var maximal [][2]uint64 // Key masks: bit v of [0] allows v=0, of [1] v=1
	for _, i := range order {
		c := cubes[i].Key()
		contained := false
		for _, m := range maximal {
			if c[0]&^m[0] == 0 && c[1]&^m[1] == 0 {
				contained = true
				break
			}
		}
		if !contained {
			keep[i] = true
			maximal = append(maximal, c)
		}
	}
	var out []logic.Cube
	for i, c := range cubes {
		if keep[i] {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, logic.Compare)
	return out
}

func sameCubes(a, b []logic.Cube) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].N() != b[i].N() || a[i].Key() != b[i].Key() {
			return false
		}
	}
	return true
}

// checkDHFPrimes compares dhfPrimes with the reference on one spec and
// returns the reference's shrink count and whether pruning applied; ok is
// false for a spec with an analysis error or no required cube.
func checkDHFPrimes(t *testing.T, name string, spec hfmin.Spec) (shrinks int, pruned, ok bool) {
	t.Helper()
	res, err := hfmin.Analyze(spec)
	if err != nil || len(res.Required) == 0 {
		return 0, false, false
	}
	want, shrinks, pruned := refDHFPrimes(res.Required, res.OffSet, res.Privileged)
	if got := hfmin.DHFPrimes(res.Required, res.OffSet, res.Privileged); !sameCubes(got, want) {
		t.Fatalf("%s: dhf-primes differ from the reference (%d vs %d primes):\n got %v\nwant %v", name, len(got), len(want), got, want)
	}
	return shrinks, pruned, true
}

// disjointSpec draws a spec of up to k transitions over n variables
// whose transition cubes are pairwise disjoint, which makes it consistent
// (no ON cube meets an OFF cube). Each start binds a variable with
// probability 7/8 (a dash is a directed don't-care), and the end flips
// one to three bound variables.
func disjointSpec(r *rand.Rand, n, k int) hfmin.Spec {
	spec := hfmin.Spec{N: n}
	var cubes []logic.Cube
	for tries := 0; len(spec.Transitions) < k && tries < 20*k; tries++ {
		start := logic.FullCube(n)
		var bound []int
		for v := 0; v < n; v++ {
			if r.Intn(8) > 0 {
				start = start.With(v, logic.Val(r.Intn(2)))
				bound = append(bound, v)
			}
		}
		if len(bound) == 0 {
			continue
		}
		end := start
		for c := 1 + r.Intn(3); c > 0; c-- {
			v := bound[r.Intn(len(bound))]
			end = end.With(v, 1-start.Get(v))
		}
		tr := hfmin.Transition{Start: start, End: end, Kind: hfmin.Kind(r.Intn(4))}
		free := true
		for _, c := range cubes {
			if c.Intersects(tr.Cube()) {
				free = false
				break
			}
		}
		if free {
			cubes = append(cubes, tr.Cube())
			spec.Transitions = append(spec.Transitions, tr)
		}
	}
	return spec
}

// specRecorder is a synth.Minimizer that records every spec the
// synthesis pipeline poses.
type specRecorder struct {
	mu    sync.Mutex
	specs []hfmin.Spec
}

func (r *specRecorder) Minimize(spec hfmin.Spec) (hfmin.Result, error) {
	r.mu.Lock()
	r.specs = append(r.specs, spec)
	r.mu.Unlock()
	return hfmin.Minimize(spec)
}

// TestDHFPrimesMatchReference pins the dhf-prime list, element for element
// and in logic.Compare order, against the reference on seeded random
// specs, on both worst-case fixtures and on every spec the registry
// designs pose. The order sets the covering columns and so the chosen
// covers.
func TestDHFPrimesMatchReference(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(7))
		compared, withShrinks, pruned := 0, 0, 0
		for i := 0; i < 300; i++ {
			spec := disjointSpec(r, 6+r.Intn(7), 4+r.Intn(9))
			shrinks, prunes, ok := checkDHFPrimes(t, "random spec", spec)
			if !ok {
				continue
			}
			compared++
			if shrinks > 0 {
				withShrinks++
			}
			if prunes {
				pruned++
			}
		}
		t.Logf("%d specs compared, %d with shrinks, %d with shrinks inside a legal prime", compared, withShrinks, pruned)
		// Pruning must fire, and so must shrinks it leaves alone, or the
		// comparison would not exercise the pruning argument.
		if compared < 250 || withShrinks < 150 || pruned < 150 {
			t.Fatalf("%d specs compared, %d with shrinks, %d with shrinks inside a legal prime; want at least 250, 150, 150",
				compared, withShrinks, pruned)
		}
	})
	t.Run("fixtures", func(t *testing.T) {
		for _, name := range []string{"gcd_worst_spec.json", "fir_baseline_spec.json"} {
			data, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			spec, err := hfmin.UnmarshalSpec(data)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			shrinks, pruned, ok := checkDHFPrimes(t, name, spec)
			if !ok || !pruned {
				t.Fatalf("%s: analyzed %v, %d shrinks, pruning applied %v; want it to apply", name, ok, shrinks, pruned)
			}
			t.Logf("%s: %d shrinks", name, shrinks)
		}
	})
	t.Run("registry", func(t *testing.T) {
		seen := map[string]bool{}
		for _, b := range bench.All() {
			rec := &specRecorder{}
			opt := core.DefaultOptions()
			opt.Parallelism = 1
			opt.Minimizer = rec
			s, err := core.Run(b.Build(), opt)
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			if _, err := s.SynthesizeLogic(); err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			compared, pruned := 0, 0
			for i, spec := range rec.specs {
				key, err := hfmin.MarshalSpec(spec.Canonical(), "")
				if err != nil {
					t.Fatal(err)
				}
				if seen[string(key)] {
					continue
				}
				seen[string(key)] = true
				_, prunes, ok := checkDHFPrimes(t, fmt.Sprintf("%s spec %d", b.Name, i), spec)
				if ok {
					compared++
				}
				if prunes {
					pruned++
				}
			}
			if compared == 0 {
				t.Fatalf("%s: no spec compared", b.Name)
			}
			t.Logf("%s: %d specs posed, %d new ones compared, %d of them pruned", b.Name, len(rec.specs), compared, pruned)
		}
	})
}
