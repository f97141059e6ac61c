package memo

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hfmin"
	"repro/internal/logic"
)

// fakeRemote is a scriptable Remote: entries maps hex keys to payloads,
// delay stalls every fetch, and stores records Store offers.
type fakeRemote struct {
	mu      sync.Mutex
	entries map[string][]byte
	delay   time.Duration
	fetches int
	stores  map[string][]byte
}

func newFakeRemote() *fakeRemote {
	return &fakeRemote{entries: map[string][]byte{}, stores: map[string][]byte{}}
}

func (f *fakeRemote) Fetch(ctx context.Context, key string) ([]byte, error) {
	f.mu.Lock()
	delay := f.delay
	f.fetches++
	data := f.entries[key]
	f.mu.Unlock()
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return data, nil
}

func (f *fakeRemote) Store(ctx context.Context, key string, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stores[key] = data
	return nil
}

func hexKey(spec hfmin.Spec, solver logic.Solver) string {
	k := Key(spec, solver)
	return hex.EncodeToString(k[:])
}

// cacheOn returns a cache over a fresh store in dir, and the store, whose
// remote tier, byte cap and Export the tests drive.
func cacheOn(t *testing.T, dir string) (*Cache, *Store) {
	t.Helper()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return OnStore(s), s
}

// wrap puts a record payload in the store's envelope, as the disk and
// remote tiers carry it.
func wrap(payload string) []byte {
	data, err := json.Marshal(blobRec{Salt: StoreSalt, Data: json.RawMessage(payload)})
	if err != nil {
		panic(err)
	}
	return data
}

// TestRemoteHitBitIdentical: a record exported by one store and fetched
// remotely by another yields exactly the Result a direct solve computes,
// counted as a remote hit, and is re-persisted to the second store's disk
// tier.
func TestRemoteHitBitIdentical(t *testing.T) {
	src, srcStore := cacheOn(t, t.TempDir())
	direct, err := src.Minimize(simpleSpec())
	if err != nil {
		t.Fatal(err)
	}
	key := hexKey(simpleSpec(), logic.SolverBB)
	rec, ok := srcStore.Export(key)
	if !ok {
		t.Fatal("source store could not export a solved entry")
	}

	remote := newFakeRemote()
	remote.entries[key] = rec
	dstDir := t.TempDir()
	dst, dstStore := cacheOn(t, dstDir)
	dstStore.SetRemote(remote, time.Second)
	got, err := dst.Minimize(simpleSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, direct) {
		t.Fatal("remote-filled result differs from direct solve")
	}
	st := dst.Stats()
	if st.RemoteHits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want exactly one remote hit and no computes", st)
	}
	// The fill was persisted locally: a fresh cache over the same dir
	// disk-hits without touching the remote.
	fresh := mustCache(t, dstDir)
	if _, err := fresh.Minimize(simpleSpec()); err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.DiskHits != 1 {
		t.Fatalf("remote fill was not persisted to disk (stats %+v)", st)
	}
}

// TestRemoteCorruptPayloadRejected: garbage, truncated, foreign-salt and
// wrong-arity remote payloads are all demoted to misses — the solve
// computes locally and the result is unaffected. So is a valid record
// without the envelope, as older versions wrote to disk and served to
// peers.
func TestRemoteCorruptPayloadRejected(t *testing.T) {
	direct, err := hfmin.Minimize(simpleSpec())
	if err != nil {
		t.Fatal(err)
	}
	valid, ok := func() ([]byte, bool) {
		c, s := cacheOn(t, "")
		if _, err := c.Minimize(simpleSpec()); err != nil {
			t.Fatal(err)
		}
		return s.Export(hexKey(simpleSpec(), logic.SolverBB))
	}()
	if !ok {
		t.Fatal("export failed")
	}
	var env blobRec
	if err := json.Unmarshal(valid, &env); err != nil {
		t.Fatal(err)
	}
	corruptions := map[string][]byte{
		"garbage":              []byte("not json at all"),
		"truncated":            valid[:len(valid)/2],
		"empty-object":         []byte("{}"),
		"foreign-store-salt":   []byte(strings.Replace(string(valid), StoreSalt, "blob-v0", 1)),
		"foreign-salt":         wrap(`{"salt":"memo-v0/other","n":2}`),
		"bad-mask":             wrap(`{"salt":"` + Salt + `","n":2,"cover":[{"z":18446744073709551615,"o":18446744073709551615}],"on":[{"z":1,"o":2}],"off":[{"z":2,"o":1}]}`),
		"flat-record":          env.Data,
		"stage-payload":        wrap(`"a stage payload"`),
		"trailing-after-valid": append(append([]byte{}, valid...), valid...),
	}
	for name, payload := range corruptions {
		t.Run(name, func(t *testing.T) {
			remote := newFakeRemote()
			remote.entries[hexKey(simpleSpec(), logic.SolverBB)] = payload
			c, s := cacheOn(t, "")
			s.SetRemote(remote, time.Second)
			got, err := c.Minimize(simpleSpec())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, direct) {
				t.Fatal("corrupt remote payload changed the result")
			}
			st := c.Stats()
			if st.RemoteCorrupt != 1 || st.RemoteHits != 0 || st.Misses != 1 {
				t.Fatalf("stats = %+v, want one rejected payload and one local compute", st)
			}
		})
	}
}

// TestRemoteTimeoutFallsThrough: a remote slower than the configured
// timeout never stalls the solve — the lookup falls through to local
// compute, counted as a remote error, and completes promptly.
func TestRemoteTimeoutFallsThrough(t *testing.T) {
	remote := newFakeRemote()
	remote.delay = 10 * time.Second
	c, s := cacheOn(t, "")
	s.SetRemote(remote, 50*time.Millisecond)
	start := time.Now()
	got, err := c.Minimize(simpleSpec())
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("slow remote stalled the solve for %v", elapsed)
	}
	direct, _ := hfmin.Minimize(simpleSpec())
	if !reflect.DeepEqual(got, direct) {
		t.Fatal("timed-out remote changed the result")
	}
	st := c.Stats()
	if st.RemoteErrors != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want one remote error and one local compute", st)
	}
}

// TestCancelledFillNeverCached: a solve cancelled mid-computation is
// neither kept in memory, nor persisted to disk, nor offered to the
// remote tier; the next lookup computes cleanly.
func TestCancelledFillNeverCached(t *testing.T) {
	dir := t.TempDir()
	remote := newFakeRemote()
	c, s := cacheOn(t, dir)
	s.SetRemote(remote, time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.MinimizeCtx(ctx, simpleSpec()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve returned %v", err)
	}
	if n := len(remote.stores); n != 0 {
		t.Fatalf("cancelled fill was offered to the remote tier (%d stores)", n)
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
	if len(remote.stores) != 1 {
		t.Fatal("completed solve was not offered to the remote tier")
	}
}

// TestRemoteInfeasibleRoundTrip: infeasibility verdicts travel the remote
// tier with errors.Is intact, like the disk layer.
func TestRemoteInfeasibleRoundTrip(t *testing.T) {
	src, srcStore := cacheOn(t, "")
	_, serr := src.Minimize(infeasibleSpec())
	if !errors.Is(serr, hfmin.ErrInfeasible) {
		t.Fatalf("infeasible spec solved: %v", serr)
	}
	key := hexKey(infeasibleSpec(), logic.SolverBB)
	rec, ok := srcStore.Export(key)
	if !ok {
		t.Fatal("infeasible verdict did not export")
	}
	remote := newFakeRemote()
	remote.entries[key] = rec
	dst, dstStore := cacheOn(t, "")
	dstStore.SetRemote(remote, time.Second)
	if _, err := dst.Minimize(infeasibleSpec()); !errors.Is(err, hfmin.ErrInfeasible) {
		t.Fatalf("remote-filled verdict = %v, want ErrInfeasible", err)
	}
	if st := dst.Stats(); st.RemoteHits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want a pure remote hit", st)
	}
}

// TestExportDomain pins Export's edges for hfmin records: bad hex, wrong
// length, unknown, in-flight and non-verdict-error keys all report
// ok=false; solved keys export from memory and, after restart, from disk.
func TestExportDomain(t *testing.T) {
	dir := t.TempDir()
	c, s := cacheOn(t, dir)
	if _, ok := s.Export("zz"); ok {
		t.Fatal("non-hex key exported")
	}
	if _, ok := s.Export("00ff"); ok {
		t.Fatal("short key exported")
	}
	var missing [sha256.Size]byte
	if _, ok := s.Export(hex.EncodeToString(missing[:])); ok {
		t.Fatal("unknown key exported")
	}

	// An in-flight solve does not export.
	gate, solved := make(chan struct{}), make(chan struct{})
	inflight := Key(widthSpec(3), logic.SolverBB)
	go func() {
		defer close(solved)
		s.do(context.Background(), &s.records, inflight, recordCodec{}, func(context.Context) (any, error) {
			<-gate
			return nil, context.Canceled // vacates the key: nothing is cached
		})
	}()
	waitFor(t, func() bool {
		sh := &s.shards[inflight[0]%numShards]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.m[inflight] != nil
	})
	if _, ok := s.Export(hex.EncodeToString(inflight[:])); ok {
		t.Fatal("in-flight key exported")
	}
	close(gate)
	<-solved

	// A malformed spec's error is cached in memory but never exported.
	bad := hfmin.Spec{N: 2, Transitions: []hfmin.Transition{tr("0-", "0-", hfmin.Static1), tr("00", "00", hfmin.Static0)}}
	if _, err := c.Minimize(bad); err == nil || errors.Is(err, hfmin.ErrInfeasible) {
		t.Fatalf("inconsistent spec returned %v, want a non-verdict error", err)
	}
	if _, ok := s.Export(hexKey(bad, logic.SolverBB)); ok {
		t.Fatal("a non-verdict error exported")
	}

	if _, err := c.Minimize(simpleSpec()); err != nil {
		t.Fatal(err)
	}
	key := hexKey(simpleSpec(), logic.SolverBB)
	if _, ok := s.Export(key); !ok {
		t.Fatal("solved key did not export from memory")
	}
	_, restarted := cacheOn(t, dir)
	if _, ok := restarted.Export(key); !ok {
		t.Fatal("solved key did not export from disk after restart")
	}
	var nilStore *Store
	if _, ok := nilStore.Export(key); ok {
		t.Fatal("nil store exported")
	}
}
