// Package memo is the content-addressed cache of the synthesis flow. One
// Store holds two kinds of cached work behind one memory→disk chain:
// hazard-free two-level minimizations (internal/hfmin), the stage that
// dominates pipeline wall time, and the incremental stage engine's
// per-stage payloads (internal/stage). The synthesis flow re-solves the
// same minimization problems over and over: the encoding ladder in
// internal/synth retries every function per attempt, and the
// design-space exploration sweep re-synthesizes controllers whose AFSMs
// are untouched by the ablated transform. Cache turns those repeats into
// hits; it is the hfmin key and record format over a Store.
//
// # Keys
//
// A problem is identified by the SHA-256 hash of the canonical form of its
// hfmin.Spec (transitions sorted by the total order on (kind, start, end)
// cube keys — see hfmin.Spec.Canonical) together with the covering mode's
// number (logic.SolverBB, the only mode; its number stays in the hashed
// layout so persisted keys keep their bytes), logic.SolverVersion and a
// package-version salt. Logically identical specs collide regardless of
// construction order; bumping Salt or logic.SolverVersion when minimizer
// or solver behaviour changes invalidates every previously persisted
// entry rather than silently replaying stale covers.
//
// # In-memory tier and deduplication
//
// The in-memory tier is a sharded map. Lookups for a key being computed by
// another goroutine block on that computation (singleflight semantics)
// instead of duplicating it, so the concurrent workers of
// par.NamedMap("hfmin", ...) solving the same spec pay it once. Cached
// values are shared with their slices aliased — callers must treat a
// returned Result as immutable, which the synthesis pipeline does.
//
// # Disk persistence
//
// With a cache directory configured (the -cache-dir flag), every solved
// problem is written as one JSON record named by its key hash, wrapped in
// the Store's salted envelope, and misses consult the directory before
// computing. Records from other salts, corrupt files and any read/decode
// error are silently treated as misses, so a stale or damaged cache can
// never change results — at worst it stops saving time. Infeasible
// outcomes (hfmin.ErrInfeasible) are cached and persisted too: the strict
// rungs of the encoding ladder rediscover them constantly. Other errors
// are cached in memory only, and a cancelled solve vacates its key.
//
// # Observability
//
// Each lookup outcome is published to the global obs registry under its
// kind's counter family — memo/* for hfmin records, blob/* for stage
// payloads: hits, misses, dedup-waits and disk-hits — and mirrored in
// Cache.Stats and Store.Stats for programmatic use. Because hfmin.Analyze
// canonicalizes internally, a cache hit is bit-identical to what the miss
// path would have computed; the memoized and unmemoized pipelines are
// asserted equal by TestMemoEquivalence at the repo root.
package memo

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"

	"repro/internal/hfmin"
	"repro/internal/logic"
)

// Salt versions the cache key space. Bump it whenever hfmin's observable
// behaviour changes (covers, tie-breaks, cost weights, ...), so persisted
// entries from older minimizers are ignored rather than replayed. The
// covering solvers version themselves through logic.SolverVersion, which
// Key folds in alongside this salt.
const Salt = "memo-v1/hfmin-v2"

// Cache memoizes hfmin.Minimize as hfmin records in a Store. The zero value is not usable; call New or OnStore.
// A nil *Cache is a valid pass-through that memoizes nothing.
type Cache struct {
	store *Store
}

// New returns a cache over a store of its own. A non-empty dir enables
// the persistent tier (the directory is created if needed); the empty
// string selects in-memory-only operation.
func New(dir string) (*Cache, error) {
	store, err := NewStore(dir)
	if err != nil {
		return nil, err
	}
	return OnStore(store), nil
}

// OnStore returns a cache that keeps its records in store, which the
// caller may share with other kinds — the daemon hands one store to both
// this cache and the stage engine, so one directory and one byte cap
// serve both. store must be non-nil.
func OnStore(store *Store) *Cache {
	return &Cache{store: store}
}

// Stats returns the lookup counters of the hfmin records in the cache's
// store (the memo/* family), whichever Cache posed them.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return c.store.records.stats()
}

// Minimize is hfmin.Minimize behind the cache. It satisfies
// synth.Minimizer.
func (c *Cache) Minimize(spec hfmin.Spec) (hfmin.Result, error) {
	return c.MinimizeCtx(context.Background(), spec)
}

// MinimizeCtx is Minimize with cooperative cancellation; it satisfies
// synth.MinimizerCtx. A solve's outcome (result, infeasibility verdict or
// other error) is the cached value. A lookup that dedup-waits on another
// goroutine's computation stops waiting when ctx ends (the computing job
// keeps its own context); a computation cancelled mid-solve is discarded
// and its key vacated, never cached, so concurrent jobs sharing the cache
// cannot observe one another's cancellations as results.
func (c *Cache) MinimizeCtx(ctx context.Context, spec hfmin.Spec) (hfmin.Result, error) {
	if c == nil {
		return hfmin.MinimizeCtx(ctx, spec)
	}
	// Sort once: the key and the solver's Analyze reuse the order.
	spec = spec.Canonical()
	v, _, err := c.store.do(ctx, &c.store.records, canonicalKey(spec, logic.SolverBB), recordCodec{}, func(ctx context.Context) (any, error) {
		res, err := hfmin.MinimizeCtx(ctx, spec)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		return &record{res: res, err: err}, nil
	})
	if err != nil {
		return hfmin.Result{}, err
	}
	r := v.(*record)
	return r.res, r.err
}

// Key returns the content-addressed cache key of (spec, solver): the
// SHA-256 hash of the version salt, logic.SolverVersion, the covering
// mode's number and the canonical transition list. Exported for tests and
// diagnostics.
func Key(spec hfmin.Spec, solver logic.Solver) [sha256.Size]byte {
	return canonicalKey(spec.Canonical(), solver)
}

// canonicalKey is Key for a spec already in canonical order. Words are
// staged in a stack buffer and hashed in blocks: a minimization costs
// only tens of microseconds, so per-word hash writes, or a heap buffer
// the size of the spec, were a visible share of a cold lookup.
func canonicalKey(canon hfmin.Spec, solver logic.Solver) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(Salt + "/" + logic.SolverVersion))
	var buf [512]byte
	n := 0
	put := func(v uint64) {
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
		binary.LittleEndian.PutUint64(buf[n:], v)
		n += 8
	}
	put(uint64(solver))
	put(uint64(canon.N))
	put(uint64(len(canon.Transitions)))
	for _, t := range canon.Transitions {
		put(uint64(t.Kind))
		z, o := t.Start.Raw()
		put(z)
		put(o)
		z, o = t.End.Raw()
		put(z)
		put(o)
	}
	h.Write(buf[:n])
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}
