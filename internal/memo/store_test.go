package memo

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hfmin"
	"repro/internal/logic"
	"repro/internal/obs"
)

// textCodec serializes string values, the simplest useful BlobCodec.
type textCodec struct{}

func (textCodec) Encode(v any) ([]byte, bool) {
	s, ok := v.(string)
	if !ok {
		return nil, false
	}
	data, err := json.Marshal(s)
	if err != nil {
		return nil, false
	}
	return data, true
}

func (textCodec) Decode(data []byte) (any, bool) {
	var s string
	if json.Unmarshal(data, &s) != nil {
		return nil, false
	}
	return s, true
}

func blobKey(s string) [sha256.Size]byte { return sha256.Sum256([]byte(s)) }

// waitFor polls cond until it holds or the test deadline nears.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func hexKey(spec hfmin.Spec, solver logic.Solver) string {
	k := Key(spec, solver)
	return hex.EncodeToString(k[:])
}

// cacheOn returns a cache over a fresh store in dir, and the store, whose
// stage lookups and byte cap the tests drive.
func cacheOn(t *testing.T, dir string) (*Cache, *Store) {
	t.Helper()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return OnStore(s), s
}

// wrap puts a record payload in the store's envelope, as the disk tier
// carries it.
func wrap(payload string) string {
	data, err := json.Marshal(blobRec{Salt: StoreSalt, Data: json.RawMessage(payload)})
	if err != nil {
		panic(err)
	}
	return string(data)
}

// TestStoreMemoryTier covers the basic miss-then-hit protocol and the
// memory-only (nil codec) mode.
func TestStoreMemoryTier(t *testing.T) {
	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	compute := func(context.Context) (any, error) { calls++; return "value", nil }
	for i, wantSrc := range []Source{SourceComputed, SourceMemory} {
		v, src, err := s.Do(context.Background(), blobKey("k"), nil, compute)
		if err != nil || v.(string) != "value" || src != wantSrc {
			t.Fatalf("call %d: got (%v, %v, %v), want (value, %v, nil)", i, v, src, err, wantSrc)
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats %+v, want 1 miss 1 hit", st)
	}
}

// TestStoreDiskTier persists through the envelope and reloads in a fresh
// store; a corrupt or wrong-salt file is a miss, never an error.
func TestStoreDiskTier(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := blobKey("payload")
	if _, _, err := s1.Do(context.Background(), key, textCodec{}, func(context.Context) (any, error) {
		return "persisted", nil
	}); err != nil {
		t.Fatal(err)
	}

	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	v, src, err := s2.Do(context.Background(), key, textCodec{}, func(context.Context) (any, error) {
		t.Fatal("compute ran despite a disk record")
		return nil, nil
	})
	if err != nil || v.(string) != "persisted" || src != SourceDisk {
		t.Fatalf("got (%v, %v, %v), want (persisted, disk, nil)", v, src, err)
	}
	if st := s2.Stats(); st.DiskHits != 1 {
		t.Errorf("stats %+v, want 1 disk hit", st)
	}
}

// TestStoreErrorsNeverCached asserts a failed computation vacates the
// key: the next call recomputes instead of replaying the error.
func TestStoreErrorsNeverCached(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := blobKey("err")
	boom := errors.New("boom")
	if _, _, err := s.Do(context.Background(), key, textCodec{}, func(context.Context) (any, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	v, src, err := s.Do(context.Background(), key, textCodec{}, func(context.Context) (any, error) {
		return "recovered", nil
	})
	if err != nil || v.(string) != "recovered" || src != SourceComputed {
		t.Fatalf("got (%v, %v, %v), want (recovered, computed, nil)", v, src, err)
	}
}

// TestCancelledFillNeverCached: a solve cancelled mid-computation is
// neither kept in memory nor persisted to disk; the next lookup computes
// cleanly.
func TestCancelledFillNeverCached(t *testing.T) {
	dir := t.TempDir()
	c, _ := cacheOn(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.MinimizeCtx(ctx, simpleSpec()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve returned %v", err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		t.Fatalf("cancelled fill left %s on disk", filepath.Join(dir, f.Name()))
	}
	// The key was vacated: a fresh uncancelled lookup computes and caches.
	got, err := c.Minimize(simpleSpec())
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := hfmin.Minimize(simpleSpec())
	if !reflect.DeepEqual(got, direct) {
		t.Fatal("post-cancel result differs from direct solve")
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want the cancelled fill and the recompute as misses", st)
	}
	if files := jsonFiles(t, dir); len(files) != 1 {
		t.Fatalf("completed solve left %v on disk, want one record", files)
	}
}

// TestStoreSingleflight collapses concurrent lookups of one key onto one
// computation.
func TestStoreSingleflight(t *testing.T) {
	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := 0
	release := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			defer wg.Done()
			v, _, err := s.Do(context.Background(), blobKey("one"), nil, func(context.Context) (any, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				<-release
				return "shared", nil
			})
			if err != nil || v.(string) != "shared" {
				t.Errorf("got (%v, %v)", v, err)
			}
		}()
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return calls == 1 && s.Stats().DedupWaits == waiters-1
	})
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
}

// TestStoreNilSafety: a nil store computes every time and never panics.
func TestStoreNilSafety(t *testing.T) {
	var s *Store
	v, src, err := s.Do(context.Background(), blobKey("n"), textCodec{}, func(context.Context) (any, error) {
		return "direct", nil
	})
	if err != nil || v.(string) != "direct" || src != SourceComputed {
		t.Fatalf("got (%v, %v, %v)", v, src, err)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("nil store stats %+v", st)
	}
}

// TestSourceString covers the Source labels used in logs and tests.
func TestSourceString(t *testing.T) {
	for src, want := range map[Source]string{
		SourceComputed: "computed",
		SourceMemory:   "memory",
		SourceDisk:     "disk",
		Source(99):     fmt.Sprintf("source(%d)", 99),
	} {
		if got := src.String(); got != want {
			t.Errorf("Source(%d).String() = %q, want %q", int(src), got, want)
		}
	}
}

// countingCodec is textCodec counting its Encode calls.
type countingCodec struct{ encodes *atomic.Int64 }

func (c countingCodec) Encode(v any) ([]byte, bool) {
	c.encodes.Add(1)
	return textCodec{}.Encode(v)
}

func (c countingCodec) Decode(data []byte) (any, bool) { return textCodec{}.Decode(data) }

// jsonFiles lists the *.json records directly under dir.
func jsonFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestSharedStoreOneDirectory: a Cache and a stage-style codec over one
// store keep both kinds in its one directory, count each lookup under its
// own kind, and serve each back from disk to a restarted store.
func TestSharedStoreOneDirectory(t *testing.T) {
	reg := obs.NewMetrics()
	obs.SetMetrics(reg)
	defer obs.SetMetrics(nil)

	dir := t.TempDir()
	c, s := cacheOn(t, dir)
	want, err := c.Minimize(simpleSpec())
	if err != nil {
		t.Fatal(err)
	}
	bk := blobKey("stage")
	if _, _, err := s.Do(context.Background(), bk, textCodec{}, func(context.Context) (any, error) {
		return "stage payload", nil
	}); err != nil {
		t.Fatal(err)
	}
	if files := jsonFiles(t, dir); len(files) != 2 {
		t.Fatalf("store directory holds %v, want one hfmin record and one stage payload", files)
	}
	for name, got := range map[string]int64{
		"memo/misses": reg.Counter("memo/misses"),
		"blob/misses": reg.Counter("blob/misses"),
	} {
		if got != 1 {
			t.Errorf("%s = %d, want 1", name, got)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Errorf("cache stats %+v count the stage lookup", st)
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Errorf("store stats %+v count the hfmin lookup", st)
	}

	// A restart serves both kinds from the directory.
	rc, rs := cacheOn(t, dir)
	got, err := rc.Minimize(simpleSpec())
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("disk fill of the hfmin record = (%+v, %v)", got, err)
	}
	v, src, err := rs.Do(context.Background(), bk, textCodec{}, func(context.Context) (any, error) {
		t.Fatal("stage payload was not filled from disk")
		return nil, nil
	})
	if err != nil || v.(string) != "stage payload" || src != SourceDisk {
		t.Fatalf("disk fill of the stage payload = (%v, %v, %v)", v, src, err)
	}
	if rc.Stats().DiskHits != 1 || rs.Stats().DiskHits != 1 {
		t.Errorf("disk hits: cache %+v, store %+v; want one each", rc.Stats(), rs.Stats())
	}
}

// TestSharedStoreKindsNeverAlias: reading an hfmin key with a stage codec
// is a miss, never the record, in memory and on disk; so is reading a
// stage payload's key as an hfmin record.
func TestSharedStoreKindsNeverAlias(t *testing.T) {
	ctx := context.Background()
	direct, derr := hfmin.Minimize(simpleSpec())
	if derr != nil {
		t.Fatal(derr)
	}
	key := Key(simpleSpec(), logic.SolverBB)
	computed := func(context.Context) (any, error) { return "computed", nil }

	dir := t.TempDir()
	c, s := cacheOn(t, dir)
	if _, err := c.Minimize(simpleSpec()); err != nil {
		t.Fatal(err)
	}
	v, src, err := s.Do(ctx, key, textCodec{}, computed)
	if err != nil || v.(string) != "computed" || src != SourceComputed {
		t.Fatalf("stage read of an hfmin key in memory = (%v, %v, %v), want a miss", v, src, err)
	}
	if _, err := c.Minimize(simpleSpec()); err != nil || c.Stats().Hits != 1 {
		t.Fatalf("the stage read disturbed the record (err %v, stats %+v)", err, c.Stats())
	}
	_, fresh := cacheOn(t, dir)
	v, src, err = fresh.Do(ctx, key, textCodec{}, computed)
	if err != nil || v.(string) != "computed" || src != SourceComputed {
		t.Fatalf("stage read of an hfmin record on disk = (%v, %v, %v), want a miss", v, src, err)
	}

	// The reverse: a stage payload stored under what is an hfmin key.
	dir = t.TempDir()
	c, s = cacheOn(t, dir)
	if _, _, err := s.Do(ctx, key, textCodec{}, computed); err != nil {
		t.Fatal(err)
	}
	got, err := c.Minimize(simpleSpec())
	if err != nil || !reflect.DeepEqual(got, direct) {
		t.Fatalf("hfmin read of a stage key in memory = (%+v, %v), want a computed result", got, err)
	}
	c, _ = cacheOn(t, dir)
	got, err = c.Minimize(simpleSpec())
	if err != nil || !reflect.DeepEqual(got, direct) {
		t.Fatalf("hfmin read of a stage payload on disk = (%+v, %v), want a computed result", got, err)
	}
	if st := c.Stats(); st.DiskHits != 0 || st.Misses != 1 {
		t.Fatalf("stats %+v, want a clean miss", st)
	}
}

// TestMemoryOnlyStoreNeverEncodes: a store with no directory never
// encodes on fill. A disk store encodes once, for the disk, and writes
// the value's envelope.
func TestMemoryOnlyStoreNeverEncodes(t *testing.T) {
	var encodes atomic.Int64
	codec := countingCodec{&encodes}
	key := blobKey("lazy")
	compute := func(context.Context) (any, error) { return "value", nil }

	mem, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mem.Do(context.Background(), key, codec, compute); err != nil {
		t.Fatal(err)
	}
	if n := encodes.Load(); n != 0 {
		t.Fatalf("memory-only fill encoded %d times", n)
	}

	disk, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := disk.Do(context.Background(), key, codec, compute); err != nil {
		t.Fatal(err)
	}
	if n := encodes.Load(); n != 1 {
		t.Fatalf("disk fill encoded %d times, want once", n)
	}
	if written, want := mustRead(t, disk.path(key)), wrap(`"value"`); written != want {
		t.Fatalf("disk record %s, want %s", written, want)
	}
}

// TestSharedStoreConcurrent drives both kinds on one store from many
// goroutines at once (run it under -race): every lookup gets its own
// kind's value, and each kind's work is computed once.
func TestSharedStoreConcurrent(t *testing.T) {
	c, s := cacheOn(t, t.TempDir())
	want, err := hfmin.Minimize(simpleSpec())
	if err != nil {
		t.Fatal(err)
	}
	bk := blobKey("concurrent")
	const workers = 8
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			got, err := c.Minimize(simpleSpec())
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("hfmin lookup = (%+v, %v)", got, err)
			}
			v, _, err := s.Do(context.Background(), bk, textCodec{}, func(context.Context) (any, error) {
				return "blob", nil
			})
			if err != nil || v.(string) != "blob" {
				t.Errorf("stage lookup = (%v, %v)", v, err)
			}
		}()
	}
	wg.Wait()
	if c.Stats().Misses != 1 || s.Stats().Misses != 1 {
		t.Fatalf("misses: cache %+v, store %+v; want one computation per kind", c.Stats(), s.Stats())
	}
}
