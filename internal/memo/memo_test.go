package memo

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/hfmin"
	"repro/internal/logic"
)

func tr(start, end string, k hfmin.Kind) hfmin.Transition {
	return hfmin.Transition{Start: logic.MustCube(start), End: logic.MustCube(end), Kind: k}
}

// simpleSpec is a small feasible spec (f = x0').
func simpleSpec() hfmin.Spec {
	return hfmin.Spec{N: 2, Transitions: []hfmin.Transition{
		tr("00", "01", hfmin.Static1),
		tr("10", "11", hfmin.Static0),
	}}
}

// infeasibleSpec has a required cube no dhf-prime can cover: the static-1
// cube -10 intersects the rise's privileged cube 1-- without containing its
// end subcube 11-, every expansion toward 11- hits the OFF-set (011), and
// shrinking away from the privileged cube loses -10 itself.
func infeasibleSpec() hfmin.Spec {
	return hfmin.Spec{N: 3, Transitions: []hfmin.Transition{
		tr("10-", "11-", hfmin.Rise),
		tr("-10", "-10", hfmin.Static1),
		tr("011", "011", hfmin.Static0),
	}}
}

func mustCache(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestKeyOrderIndependent: logically identical specs built in different
// transition orders hash to the same key; different problems do not.
func TestKeyOrderIndependent(t *testing.T) {
	a := simpleSpec()
	b := hfmin.Spec{N: 2, Transitions: []hfmin.Transition{a.Transitions[1], a.Transitions[0]}}
	if Key(a, logic.SolverBB) != Key(b, logic.SolverBB) {
		t.Error("reordered spec must produce the same key")
	}
	c := simpleSpec()
	c.Transitions[0].Kind = hfmin.Static0
	c.Transitions[1].Kind = hfmin.Static1
	if Key(a, logic.SolverBB) == Key(c, logic.SolverBB) {
		t.Error("different specs must produce different keys")
	}
}

// TestKeyGolden pins the key bytes of one spec under the covering mode.
// Entries persisted in a -cache-dir or held by fleet peers are found by
// these bytes, so a change to the salts, the hashed layout or the
// Solver's number must show up here rather than orphan every stored
// entry.
func TestKeyGolden(t *testing.T) {
	for solver, want := range map[logic.Solver]string{
		logic.SolverBB: "1d0c50241e8589d675e70a7dc90a2748e1f6b4ea1f6c57a55a545cb0f58f3fea",
	} {
		if got := hexKey(simpleSpec(), solver); got != want {
			t.Errorf("Key(simpleSpec, %v) = %s, want %s", solver, got, want)
		}
	}
}

// TestHitBitIdentical: a cache hit returns exactly the Result a direct
// hfmin call computes, and the counters record the hit.
func TestHitBitIdentical(t *testing.T) {
	c := mustCache(t, "")
	direct, derr := hfmin.Minimize(simpleSpec())
	if derr != nil {
		t.Fatal(derr)
	}
	first, err := c.Minimize(simpleSpec())
	if err != nil {
		t.Fatal(err)
	}
	// A differently-ordered construction of the same spec must hit.
	reordered := hfmin.Spec{N: 2, Transitions: []hfmin.Transition{
		simpleSpec().Transitions[1], simpleSpec().Transitions[0],
	}}
	second, err := c.Minimize(reordered)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []hfmin.Result{first, second} {
		if !reflect.DeepEqual(got, direct) {
			t.Errorf("cached result differs from direct computation:\n got %+v\nwant %+v", got, direct)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss and 1 hit", st)
	}
}

// TestInfeasibleCached: infeasibility verdicts are memoized with the
// original error text and errors.Is identity.
func TestInfeasibleCached(t *testing.T) {
	c := mustCache(t, "")
	_, err1 := c.Minimize(infeasibleSpec())
	if !errors.Is(err1, hfmin.ErrInfeasible) {
		t.Fatalf("expected infeasible spec, got %v", err1)
	}
	_, err2 := c.Minimize(infeasibleSpec())
	if !errors.Is(err2, hfmin.ErrInfeasible) || err2.Error() != err1.Error() {
		t.Errorf("cached error %q differs from computed %q", err2, err1)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestErrorsCachedInMemoryOnly: an error other than an infeasibility
// verdict (here a malformed spec) is cached in memory like a verdict, but
// never persisted; a fresh cache over the directory recomputes it.
func TestErrorsCachedInMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	bad := hfmin.Spec{N: 2, Transitions: []hfmin.Transition{tr("0-", "0-", hfmin.Static1), tr("00", "00", hfmin.Static0)}}
	c := mustCache(t, dir)
	_, err1 := c.Minimize(bad)
	if err1 == nil || errors.Is(err1, hfmin.ErrInfeasible) {
		t.Fatalf("inconsistent spec returned %v, want a non-verdict error", err1)
	}
	if _, err2 := c.Minimize(bad); err2 == nil || err2.Error() != err1.Error() {
		t.Fatalf("cached error %v differs from computed %v", err2, err1)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(files) != 0 {
		t.Fatalf("non-verdict error persisted as %v", files)
	}
	fresh := mustCache(t, dir)
	if _, err := fresh.Minimize(bad); err == nil || err.Error() != err1.Error() {
		t.Fatalf("recomputed error %v differs from %v", err, err1)
	}
	if st := fresh.Stats(); st.DiskHits != 0 || st.Misses != 1 {
		t.Errorf("stats = %+v, want a recompute", st)
	}
}

// TestSingleflightDedup: concurrent lookups of one key run the solver once;
// everyone gets the same result.
func TestSingleflightDedup(t *testing.T) {
	c := mustCache(t, "")
	const workers = 16
	results := make([]hfmin.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Minimize(simpleSpec())
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("worker %d got a different result", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 (singleflight)", st.Misses)
	}
	if st.Hits != workers-1 {
		t.Errorf("hits = %d, want %d", st.Hits, workers-1)
	}
}

// TestDiskRoundTrip: a second cache over the same directory serves the
// persisted result bit-identically, including infeasible outcomes.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	warmErr := func(c *Cache) (hfmin.Result, error, hfmin.Result, error) {
		ok, okErr := c.Minimize(simpleSpec())
		bad, badErr := c.Minimize(infeasibleSpec())
		return ok, okErr, bad, badErr
	}
	c1 := mustCache(t, dir)
	ok1, okErr1, bad1, badErr1 := warmErr(c1)
	if okErr1 != nil || !errors.Is(badErr1, hfmin.ErrInfeasible) {
		t.Fatalf("seed errors: %v / %v", okErr1, badErr1)
	}
	c2 := mustCache(t, dir)
	ok2, okErr2, bad2, badErr2 := warmErr(c2)
	if okErr2 != nil {
		t.Fatal(okErr2)
	}
	if !reflect.DeepEqual(ok1, ok2) {
		t.Errorf("disk-loaded result differs:\n got %+v\nwant %+v", ok2, ok1)
	}
	if !errors.Is(badErr2, hfmin.ErrInfeasible) || badErr2.Error() != badErr1.Error() {
		t.Errorf("disk-loaded error %q differs from %q", badErr2, badErr1)
	}
	if !reflect.DeepEqual(bad1, bad2) {
		t.Errorf("disk-loaded infeasible result differs:\n got %+v\nwant %+v", bad2, bad1)
	}
	st := c2.Stats()
	if st.DiskHits != 2 || st.Misses != 0 {
		t.Errorf("stats = %+v, want 2 disk hits and 0 misses", st)
	}
}

// TestCorruptAndStaleEntriesIgnored: damaged records and records written
// under a different version salt demote lookups to misses, never errors.
func TestCorruptAndStaleEntriesIgnored(t *testing.T) {
	dir := t.TempDir()
	c1 := mustCache(t, dir)
	want, err := c1.Minimize(simpleSpec())
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("expected one cache file, got %v (%v)", files, err)
	}
	for name, content := range map[string]string{
		"truncated":  "{\"salt\":",
		"not-json":   "hello",
		"wrong-salt": strings.Replace(mustRead(t, files[0]), Salt, "memo-v0/other", 1),
		"bad-cube":   strings.Replace(mustRead(t, files[0]), "\"n\":2", "\"n\":1", 1),
	} {
		if err := os.WriteFile(files[0], []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		c := mustCache(t, dir)
		got, err := c.Minimize(simpleSpec())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result differs after recompute", name)
		}
		if st := c.Stats(); st.DiskHits != 0 || st.Misses != 1 {
			t.Errorf("%s: stats = %+v, want a clean miss", name, st)
		}
	}
}

func mustRead(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestNilCachePassThrough: a nil *Cache is a working no-op minimizer.
func TestNilCachePassThrough(t *testing.T) {
	var c *Cache
	got, err := c.Minimize(simpleSpec())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := hfmin.Minimize(simpleSpec())
	if !reflect.DeepEqual(got, want) {
		t.Error("nil cache must behave like a direct call")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil cache stats = %+v", st)
	}
}

// TestRandomSpecsMemoEqualsDirect: property check over random small specs —
// the cache returns exactly what a direct call returns, on cold and warm
// paths, with disk persistence in the loop.
func TestRandomSpecsMemoEqualsDirect(t *testing.T) {
	dir := t.TempDir()
	cold := mustCache(t, dir)
	r := rand.New(rand.NewSource(7))
	specs := make([]hfmin.Spec, 40)
	for i := range specs {
		specs[i] = randomSpec(r, 4, 3)
	}
	warm := func(c *Cache) {
		for i, spec := range specs {
			direct, derr := hfmin.Minimize(spec)
			got, gerr := c.Minimize(spec)
			if (derr == nil) != (gerr == nil) {
				t.Fatalf("spec %d: direct err %v, memo err %v", i, derr, gerr)
			}
			if derr != nil {
				if derr.Error() != gerr.Error() {
					t.Errorf("spec %d: error %q, want %q", i, gerr, derr)
				}
				continue
			}
			if !reflect.DeepEqual(got, direct) {
				t.Errorf("spec %d: memoized result differs", i)
			}
		}
	}
	warm(cold)
	warm(cold)              // in-memory hits
	warm(mustCache(t, dir)) // disk hits
}

// randomSpec mirrors hfmin's test generator: random cubes, random kinds,
// not guaranteed consistent (invalid specs exercise the error path).
func randomSpec(r *rand.Rand, n, k int) hfmin.Spec {
	spec := hfmin.Spec{N: n}
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
		kind := hfmin.Kind(r.Intn(4))
		if !changed && (kind == hfmin.Fall || kind == hfmin.Rise) {
			kind = hfmin.Static1
		}
		spec.Transitions = append(spec.Transitions, hfmin.Transition{Start: start, End: end, Kind: kind})
	}
	return spec
}
