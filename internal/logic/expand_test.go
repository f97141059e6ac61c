package logic

import (
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestExpansionsNoOff(t *testing.T) {
	exps := PrimesContaining([]Cube{MustCube("010")}, NewCover(3))
	if len(exps) != 1 || !exps[0].IsFull() {
		t.Errorf("expansions with no off-set = %v, want universe", exps)
	}
}

func TestExpansionsBlocked(t *testing.T) {
	// Off-set 11-: seed 00- can expand var0 or var1 but not both.
	exps := PrimesContaining([]Cube{MustCube("00-")}, MustCover(3, "11-"))
	if len(exps) != 2 {
		t.Fatalf("got %d expansions (%v), want 2", len(exps), exps)
	}
	got := map[string]bool{}
	for _, e := range exps {
		got[e.String()] = true
	}
	if !got["0--"] || !got["-0-"] {
		t.Errorf("expansions = %v, want {0--, -0-}", got)
	}
}

func TestExpansionsSeedIntersectsOff(t *testing.T) {
	if exps := PrimesContaining([]Cube{MustCube("0--")}, MustCover(3, "01-")); exps != nil {
		t.Errorf("seed intersecting off-set must have no expansion, got %v", exps)
	}
}

func TestExpansionsEmptySeed(t *testing.T) {
	if exps := PrimesContaining([]Cube{EmptyCube(3)}, NewCover(3)); exps != nil {
		t.Errorf("empty seed: got %v", exps)
	}
}

func TestExpansionsAreMaximalAndDisjointFromOff(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(7)
		s := randomCube(rr, n)
		// Minterm-ify seed so it rarely intersects off.
		for i := 0; i < n; i++ {
			if s.Get(i) == Dash && rr.Intn(2) == 0 {
				s = s.With(i, Zero)
			}
		}
		off := randomCover(rr, n, 1+rr.Intn(3))
		if off.IntersectsCube(s) {
			return true // not a valid instance
		}
		exps := PrimesContaining([]Cube{s}, off)
		if len(exps) == 0 {
			return false // a non-intersecting seed always has itself as expansion
		}
		for _, e := range exps {
			if !e.Contains(s) {
				return false
			}
			if off.IntersectsCube(e) {
				return false
			}
			// Maximality: freeing any bound variable hits the off-set.
			for i := 0; i < n; i++ {
				if e.Get(i) != Dash {
					if !off.IntersectsCube(e.Free(i)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPrimesContaining(t *testing.T) {
	// f with off-set {11-}; primes of complement(off) are 0-- and -0-.
	primes := PrimesContaining([]Cube{MustCube("000"), MustCube("001")}, MustCover(3, "11-"))
	got := map[string]bool{}
	for _, p := range primes {
		got[p.String()] = true
	}
	if !got["0--"] || !got["-0-"] {
		t.Errorf("primes = %v, want 0-- and -0-", got)
	}
	if len(primes) != 2 {
		t.Errorf("got %d primes, want 2", len(primes))
	}
}

func TestMinimalHittingSets(t *testing.T) {
	rows := []uint64{0b011, 0b110} // {0,1}, {1,2}
	var x expander
	hs := x.minimalHittingSets(rows, 100)
	// Minimal hitting sets: {1}, {0,2}.
	if len(hs) != 2 {
		t.Fatalf("got %d hitting sets: %b", len(hs), hs)
	}
	sizes := map[int]int{}
	for _, h := range hs {
		sizes[bits.OnesCount64(h)]++
	}
	if sizes[1] != 1 || sizes[2] != 1 {
		t.Errorf("hitting set sizes = %v, want one of size 1 and one of size 2", sizes)
	}
}

// refExpansions and refMinimalHittingSets are the map-based enumerators
// the mask versions replaced, kept as the oracle. They visit the rows as
// the expander does, by ascending size with equal sizes in off-set order,
// so a truncated enumeration must keep the same prefix.
func refExpansions(seed Cube, off Cover) []Cube {
	if seed.IsEmpty() {
		return nil
	}
	n := seed.N()
	var boundVars []int
	for i := 0; i < n; i++ {
		if seed.Get(i) != Dash {
			boundVars = append(boundVars, i)
		}
	}
	free := seed
	for _, v := range boundVars {
		free = free.Free(v)
	}
	var rows [][]int
	for _, o := range off.Cubes {
		if !o.Intersects(free) {
			continue
		}
		var row []int
		for _, v := range boundVars {
			sv, ov := seed.Get(v), o.Get(v)
			if (sv == Zero && ov == One) || (sv == One && ov == Zero) {
				row = append(row, v)
			}
		}
		if len(row) == 0 {
			return nil
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return []Cube{FullCube(n)}
	}
	hs := refMinimalHittingSets(rows, MaxExpansions)
	out := make([]Cube, 0, len(hs))
	for _, keep := range hs {
		c := seed
		for _, v := range boundVars {
			if !keep[v] {
				c = c.Free(v)
			}
		}
		out = append(out, c)
	}
	return out
}

func refMinimalHittingSets(rows [][]int, limit int) []map[int]bool {
	sorted := append([][]int(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return len(sorted[i]) < len(sorted[j]) })

	var results []map[int]bool
	var rec func(idx int, chosen map[int]bool)
	rec = func(idx int, chosen map[int]bool) {
		if len(results) >= limit {
			return
		}
		for idx < len(sorted) {
			hit := false
			for _, v := range sorted[idx] {
				if chosen[v] {
					hit = true
					break
				}
			}
			if !hit {
				break
			}
			idx++
		}
		if idx == len(sorted) {
			for _, r := range results {
				if refSubset(r, chosen) {
					return
				}
			}
			cp := make(map[int]bool, len(chosen))
			for k, v := range chosen {
				if v {
					cp[k] = true
				}
			}
			var kept []map[int]bool
			for _, r := range results {
				if !refSubset(cp, r) {
					kept = append(kept, r)
				}
			}
			results = append(kept, cp)
			return
		}
		for _, v := range sorted[idx] {
			if chosen[v] {
				continue
			}
			chosen[v] = true
			rec(idx+1, chosen)
			delete(chosen, v)
			if len(results) >= limit {
				return
			}
		}
	}
	rec(0, map[int]bool{})
	return results
}

func refSubset(a, b map[int]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// refMaximal is the brute-force filter Maximal must agree with: first
// occurrences, minus every cube strictly contained in another, in Compare
// order.
func refMaximal(cubes []Cube) []Cube {
	seen := map[[2]uint64]bool{}
	var uniq []Cube
	for _, c := range cubes {
		if !seen[c.Key()] {
			seen[c.Key()] = true
			uniq = append(uniq, c)
		}
	}
	var out []Cube
	for i, p := range uniq {
		contained := false
		for j, q := range uniq {
			if i != j && q.Contains(p) && !p.Contains(q) {
				contained = true
				break
			}
		}
		if !contained {
			out = append(out, p)
		}
	}
	return sortedCubes(out)
}

// sortedCubes returns a copy of cubes in Compare order, nil for nil.
func sortedCubes(cubes []Cube) []Cube {
	out := slices.Clone(cubes)
	slices.SortFunc(out, Compare)
	return out
}

func sameCubes(a, b []Cube) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i].N() != b[i].N() || a[i].Key() != b[i].Key() {
			return false
		}
	}
	return true
}

// blockingInstance draws a seed over up to 64 variables and an off-set
// of up to 15 cubes. Each off cube conflicts with the seed on one to three
// of its bound variables (rows overlap when the seed binds few), and
// rarely on none, which makes the seed infeasible. Row widths are capped
// so the product of widths, which bounds the enumeration's leaves, stays
// at most 4096: the map-based reference is too slow for more.
func blockingInstance(rr *rand.Rand) (Cube, Cover) {
	n := 1 + rr.Intn(MaxVars)
	seed := FullCube(n)
	var bound []int
	for i := 0; i < n; i++ {
		if rr.Intn(10) < 7 {
			seed = seed.With(i, Val(rr.Intn(2)))
			bound = append(bound, i)
		}
	}
	off := NewCover(n)
	if len(bound) == 0 {
		return seed, off
	}
	leaves := 1
	for k := rr.Intn(16); k > 0; k-- {
		o := FullCube(n)
		for i := 0; i < n; i++ {
			if rr.Intn(16) == 0 {
				if v := seed.Get(i); v != Dash {
					o = o.With(i, v) // narrows o without widening its row
				} else {
					o = o.With(i, Val(rr.Intn(2)))
				}
			}
		}
		c := 1 + rr.Intn(3)
		if rr.Intn(32) == 0 {
			c = 0
		}
		for c > 1 && leaves*c > 4096 {
			c--
		}
		leaves *= max(c, 1)
		for ; c > 0; c-- {
			v := bound[rr.Intn(len(bound))]
			o = o.With(v, 1-seed.Get(v))
		}
		off.Add(o)
	}
	return seed, off
}

func TestExpansionsMatchReference(t *testing.T) {
	rr := rand.New(rand.NewSource(1))
	nonTrivial := 0
	for i := 0; i < 400; i++ {
		seed, off := blockingInstance(rr)
		got, want := PrimesContaining([]Cube{seed}, off), sortedCubes(refExpansions(seed, off))
		if !sameCubes(got, want) {
			t.Fatalf("instance %d: seed %s off %v:\n got %v\nwant %v", i, seed, off.Cubes, got, want)
		}
		if len(got) > 1 {
			nonTrivial++
		}
	}
	if nonTrivial < 100 {
		t.Fatalf("only %d of 400 instances had several expansions", nonTrivial)
	}
}

// TestExpansionsTruncatedPrefix compares the truncated enumeration: 13
// disjoint two-variable rows have 2^13 = 8192 minimal hitting sets, so
// both enumerators stop at MaxExpansions and must keep the same prefix,
// in the same order.
func TestExpansionsTruncatedPrefix(t *testing.T) {
	const rows = 13
	seed := FullCube(2 * rows)
	off := NewCover(2 * rows)
	for r := 0; r < rows; r++ {
		seed = seed.With(2*r, Zero).With(2*r+1, One)
		off.Add(FullCube(2*rows).With(2*r, One).With(2*r+1, Zero))
	}
	var x expander
	got, cut := x.expand(nil, seed, off)
	want := refExpansions(seed, off)
	if len(got) != MaxExpansions || !cut {
		t.Fatalf("got %d expansions, want the %d-expansion cap", len(got), MaxExpansions)
	}
	if !sameCubes(got, want) {
		t.Fatal("truncated expansion prefix differs from the reference")
	}
}

// withVariants returns seed followed by n variants of it, each with
// every bound variable of seed flipped with probability 1/4.
func withVariants(rr *rand.Rand, seed Cube, n int) []Cube {
	seeds := []Cube{seed}
	for ; n > 0; n-- {
		s := seed
		for v := 0; v < s.N(); v++ {
			if s.Get(v) != Dash && rr.Intn(4) == 0 {
				s = s.With(v, 1-s.Get(v))
			}
		}
		seeds = append(seeds, s)
	}
	return seeds
}

func TestPrimesContainingMatchesReference(t *testing.T) {
	rr := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		seed, off := blockingInstance(rr)
		seeds := withVariants(rr, seed, rr.Intn(4))
		var all []Cube
		for _, s := range seeds {
			all = append(all, refExpansions(s, off)...)
		}
		if got, want := PrimesContaining(seeds, off), refMaximal(all); !sameCubes(got, want) {
			t.Fatalf("instance %d: got %v, want %v", i, got, want)
		}
	}
}

// TestPrimesContainingTruncated: when an enumeration stops at
// MaxExpansions, its sets need not be minimal, and PrimesContaining must
// still drop every expansion that another one strictly contains. Seed a
// binds variables 0 to 42 and seed b the same but variable 0. The rows
// are a's {0,1}, then {1,2,3}, then disjoint rows of 4 to 9 variables,
// so sizes fix their order; b's first row is {1}. Both enumerations
// stop at MaxExpansions within the branch that keeps variable 1, taking
// the same variables of the later rows. So a's sets are b's plus
// variable 0, none minimal, and each of a's expansions lies strictly
// inside the b expansion made from the same later-row variables.
func TestPrimesContainingTruncated(t *testing.T) {
	rows := [][]int{{0, 1}, {1, 2, 3}}
	next := 4
	for size := 4; size <= 9; size++ {
		var row []int
		for ; len(row) < size; next++ {
			row = append(row, next)
		}
		rows = append(rows, row)
	}
	a := FullCube(next)
	for v := 0; v < next; v++ {
		a = a.With(v, Zero)
	}
	b := a.Free(0)
	off := NewCover(next)
	for _, row := range rows {
		o := FullCube(next)
		for _, v := range row {
			o = o.With(v, One)
		}
		off.Add(o)
	}
	var x expander
	expA, _ := x.expand(nil, a, off)
	expB, _ := x.expand(nil, b, off)
	if len(expA) != MaxExpansions || len(expB) != MaxExpansions {
		t.Fatalf("got %d and %d expansions, want both at the %d cap", len(expA), len(expB), MaxExpansions)
	}
	for i := range expA {
		if !expB[i].Contains(expA[i]) || expB[i].Equal(expA[i]) {
			t.Fatalf("expansion %d of a, %s, does not lie strictly inside b's, %s", i, expA[i], expB[i])
		}
	}
	if got := PrimesContaining([]Cube{a, b}, off); !sameCubes(got, sortedCubes(expB)) {
		t.Fatalf("got %d cubes, want b's %d expansions", len(got), len(expB))
	}
}

// TestPrimesIndependentOfInputOrder pins the canonical order: on random
// instances over up to 64 variables, PrimesContaining's result does not
// move, reflect.DeepEqual, when its seeds and its off-set cubes are
// shuffled, and Maximal's does not when its input is. Exact covering then
// sees one column order for one set of primes, whatever order the spec's
// cubes were derived in. No enumeration here stops at MaxExpansions.
func TestPrimesIndependentOfInputOrder(t *testing.T) {
	rr := rand.New(rand.NewSource(6))
	shuffled := func(cubes []Cube) []Cube {
		out := slices.Clone(cubes)
		rr.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	several := 0
	for i := 0; i < 200; i++ {
		seed, off := blockingInstance(rr)
		seeds := withVariants(rr, seed, 1+rr.Intn(4))
		want := PrimesContaining(seeds, off)
		if len(want) > 1 {
			several++
		}
		for k := 0; k < 4; k++ {
			o := Cover{N: off.N, Cubes: shuffled(off.Cubes)}
			if got := PrimesContaining(shuffled(seeds), o); !reflect.DeepEqual(got, want) {
				t.Fatalf("instance %d, shuffle %d: seeds %v off %v:\n got %v\nwant %v", i, k, seeds, off.Cubes, got, want)
			}
		}
	}
	for i := 0; i < 60; i++ {
		n := 1 + rr.Intn(MaxVars)
		cubes := nestedCubes(rr, n, 2+rr.Intn(300), i%4 == 0)
		want := Maximal(cubes)
		if len(want) > 1 {
			several++
		}
		for k := 0; k < 4; k++ {
			if got := Maximal(shuffled(cubes)); !reflect.DeepEqual(got, want) {
				t.Fatalf("Maximal instance %d, shuffle %d (%d variables, %d cubes):\n got %v\nwant %v", i, k, n, len(cubes), got, want)
			}
		}
	}
	if several < 150 {
		t.Fatalf("only %d of 260 instances had several primes or maximal cubes", several)
	}
}

func TestMaximalMatchesBruteForce(t *testing.T) {
	rr := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		n := 1 + rr.Intn(8)
		var cubes []Cube
		for k := rr.Intn(24); k > 0; k-- {
			if len(cubes) > 0 && rr.Intn(5) == 0 {
				cubes = append(cubes, cubes[rr.Intn(len(cubes))]) // repeat
				continue
			}
			cubes = append(cubes, randomCube(rr, n))
		}
		if got, want := Maximal(cubes), refMaximal(cubes); !sameCubes(got, want) {
			t.Fatalf("instance %d: Maximal(%v) = %v, want %v", i, cubes, got, want)
		}
	}
}

// nestedCubes draws count cubes over n variables with deep containment:
// sparse cubes (the first two bind variable n-1 to 0 and to 1, later ones
// to 0, to 1 or not at all), dense random cubes, subcubes of earlier cubes
// with one to three more variables bound, and repeats, shuffled; withFull
// adds the full cube once.
func nestedCubes(rr *rand.Rand, n, count int, withFull bool) []Cube {
	sparse := func(last Val) Cube {
		c := FullCube(n)
		for b := 2 + rr.Intn(4); b > 0; b-- {
			c = c.With(rr.Intn(n), Val(rr.Intn(2)))
		}
		if last != Dash {
			c = c.With(n-1, last)
		}
		return c
	}
	cubes := []Cube{sparse(Zero), sparse(One)}
	if withFull {
		cubes = append(cubes, FullCube(n))
	}
	for len(cubes) < count {
		switch k := rr.Intn(16); {
		case k < 2:
			cubes = append(cubes, cubes[rr.Intn(len(cubes))]) // repeat
		case k < 4:
			cubes = append(cubes, sparse(Val(rr.Intn(3)))) // 0, 1 or dash
		case k < 7:
			cubes = append(cubes, randomCube(rr, n))
		default:
			c := cubes[rr.Intn(len(cubes))]
			for b := 1 + rr.Intn(3); b > 0; b-- {
				if v := rr.Intn(n); c.Get(v) == Dash {
					c = c.With(v, Val(rr.Intn(2)))
				}
			}
			cubes = append(cubes, c)
		}
	}
	rr.Shuffle(len(cubes), func(i, j int) { cubes[i], cubes[j] = cubes[j], cubes[i] })
	return cubes
}

// TestMaximalFullArity extends TestMaximalMatchesBruteForce to the
// index's full range: most lists are over 64 variables, with the last one
// bound both ways, and hold several hundred cubes with nested containment
// and repeats; every fourth holds the full cube.
func TestMaximalFullArity(t *testing.T) {
	rr := rand.New(rand.NewSource(4))
	kept, dropped := 0, 0
	for i := 0; i < 60; i++ {
		n := MaxVars
		if i%3 == 2 {
			n = 1 + rr.Intn(MaxVars)
		}
		cubes := nestedCubes(rr, n, 200+rr.Intn(400), i%4 == 0)
		got, want := Maximal(cubes), refMaximal(cubes)
		if !sameCubes(got, want) {
			t.Fatalf("instance %d (%d variables, %d cubes): Maximal kept %d cubes, want %d:\n got %v\nwant %v",
				i, n, len(cubes), len(got), len(want), got, want)
		}
		kept += len(got)
		dropped += len(cubes) - len(got)
	}
	t.Logf("Maximal kept %d cubes and dropped %d", kept, dropped)
	if kept < 1000 || dropped < 1000 {
		t.Fatalf("Maximal kept %d cubes and dropped %d; want both at least 1000", kept, dropped)
	}
}

// TestCubeIndexMatchesScan checks CubeIndex.Contains against a scan of
// every added cube, after each Add, for the zero-value index and for
// tuned ones, at up to 64 variables.
func TestCubeIndexMatchesScan(t *testing.T) {
	rr := rand.New(rand.NewSource(5))
	hits, misses := 0, 0
	for i := 0; i < 60; i++ {
		n := MaxVars
		if i%3 == 2 {
			n = 1 + rr.Intn(MaxVars)
		}
		added := nestedCubes(rr, n, 2+rr.Intn(300), i%4 == 0)
		x := &CubeIndex{}
		if i%2 == 1 {
			x = NewCubeIndex(nestedCubes(rr, n, rr.Intn(300), false))
		}
		for k, c := range added {
			x.Add(c)
			for q := 0; q < 4; q++ {
				d := added[rr.Intn(k+1)]
				switch rr.Intn(4) {
				case 0: // a subcube of an added cube
					for v := 0; v < n; v++ {
						if d.Get(v) == Dash && rr.Intn(4) == 0 {
							d = d.With(v, Val(rr.Intn(2)))
						}
					}
				case 1: // a supercube of one
					for v := 0; v < n; v++ {
						if rr.Intn(8) == 0 {
							d = d.Free(v)
						}
					}
				case 2:
					d = randomCube(rr, n)
				}
				want := false
				for _, a := range added[:k+1] {
					if a.Contains(d) {
						want = true
						break
					}
				}
				if got := x.Contains(d); got != want {
					t.Fatalf("instance %d, after %d adds: Contains(%s) = %v, a scan says %v", i, k+1, d, got, want)
				}
				if want {
					hits++
				} else {
					misses++
				}
			}
		}
	}
	t.Logf("%d queries hit and %d missed", hits, misses)
	if hits < 5000 || misses < 5000 {
		t.Fatalf("%d queries hit and %d missed; want both at least 5000", hits, misses)
	}
}
