// Package memo is a content-addressed, concurrency-safe memoization layer
// for hazard-free two-level minimization (internal/hfmin) — the stage PR 2's
// instrumentation showed consuming 94–99% of pipeline wall time. The
// synthesis flow re-solves the same minimization problems over and over:
// the encoding ladder in internal/synth retries every function per attempt,
// and the design-space exploration sweep re-synthesizes controllers whose
// AFSMs are untouched by the ablated transform. This package turns those
// repeats into cache hits.
//
// # Keys
//
// A problem is identified by the SHA-256 hash of the canonical form of its
// hfmin.Spec (transitions sorted by the total order on (kind, start, end)
// cube keys — see hfmin.Spec.Canonical) together with the covering backend
// (logic.Solver), logic.SolverVersion and a package-version salt. Logically
// identical specs collide regardless of construction order; bumping Salt or
// logic.SolverVersion when minimizer or solver behaviour changes
// invalidates every previously persisted entry rather than silently
// replaying stale covers. The backend is part of the key because inexact
// outcomes (budget-limited searches) may legitimately differ per backend.
//
// # In-memory cache and deduplication
//
// The in-memory cache is a sharded map. Lookups for a key being computed by
// another goroutine block on that computation (singleflight semantics)
// instead of duplicating it, so the concurrent workers of
// par.NamedMap("hfmin", ...) solving the same spec pay it once. Cached
// results are shared by value with their slices aliased — callers must
// treat a returned Result as immutable, which the synthesis pipeline does.
//
// # Disk persistence
//
// With a cache directory configured (the CLI's -cache-dir flag), every
// solved problem is written as one JSON record named by its key hash, and
// misses consult the directory before computing. Records from other salts,
// corrupt files and any read/decode error are silently treated as misses,
// so a stale or damaged cache can never change results — at worst it stops
// saving time. Infeasible outcomes (hfmin.ErrInfeasible) are cached and
// persisted too: the strict rungs of the encoding ladder rediscover them
// constantly.
//
// # Remote tier
//
// SetRemote attaches a pluggable fleet-shared tier (the Remote interface)
// behind memory and disk: a lookup that misses both consults the remote —
// bounded by a timeout so a slow or dead remote degrades to local compute —
// and freshly-solved results are offered back. Payloads use the same
// strictly-validated record format as the disk layer, so a corrupt or
// byzantine remote costs at most a recompute. asyncsynthd wires
// fleet.CacheClient here, making every node's hfmin solve warm the whole
// fleet.
//
// # Observability
//
// Each lookup outcome is published to the global obs registry — memo/hits,
// memo/misses, memo/dedup-waits, memo/disk-hits and the memo/remote/*
// family (hits, misses, errors, corrupt, stores) — and mirrored in
// Stats() for programmatic use. Because hfmin.Analyze canonicalizes
// internally, a cache hit is bit-identical to what the miss path would have
// computed; the memoized and unmemoized pipelines are asserted equal by
// TestMemoEquivalence at the repo root.
package memo

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hfmin"
	"repro/internal/logic"
	"repro/internal/obs"
)

// Salt versions the cache key space. Bump it whenever hfmin's observable
// behaviour changes (covers, tie-breaks, cost weights, ...), so persisted
// entries from older minimizers are ignored rather than replayed. The
// covering solvers version themselves through logic.SolverVersion, which
// Key folds in alongside this salt.
const Salt = "memo-v1/hfmin-v1"

// numShards bounds lock contention between concurrent hfmin workers; keys
// are SHA-256 hashes, so the first byte shards uniformly.
const numShards = 16

// Stats is a snapshot of the cache's lookup counters.
type Stats struct {
	Hits          int64 // served from the in-memory map
	Misses        int64 // computed (not found in memory, on disk or remotely)
	DedupWaits    int64 // blocked on another goroutine computing the same key
	DiskHits      int64 // loaded from the persistent cache directory
	RemoteHits    int64 // filled from the remote tier
	RemoteErrors  int64 // remote fetches that failed or timed out
	RemoteCorrupt int64 // remote payloads rejected by validation
}

// Cache memoizes hfmin.Minimize and hfmin.MinimizeHeuristic. The zero value
// is not usable; call New. A nil *Cache is a valid pass-through that
// memoizes nothing.
type Cache struct {
	dir           string       // persistent cache directory; empty = in-memory only
	solver        logic.Solver // covering backend for exact minimizations
	remote        Remote       // fleet-shared tier; nil = disabled
	remoteTimeout time.Duration
	cap           *dirCap // disk byte budget; nil = unbounded
	shards        [numShards]shard

	hits          atomic.Int64
	misses        atomic.Int64
	dedupWaits    atomic.Int64
	diskHits      atomic.Int64
	remoteHits    atomic.Int64
	remoteErrors  atomic.Int64
	remoteCorrupt atomic.Int64
}

type shard struct {
	mu sync.Mutex
	m  map[[sha256.Size]byte]*entry
}

// entry is one memoized computation. done is closed when res/err are
// final; waiters block on it (singleflight). aborted marks an entry whose
// computation was cancelled (context error) or panicked before a result
// existed: the entry has been removed from the map and waiters retry or
// solve themselves rather than inheriting the aborted job's error.
type entry struct {
	done    chan struct{}
	res     hfmin.Result
	err     error
	aborted bool
}

// New returns a cache. A non-empty dir enables the persistent layer (the
// directory is created if needed); the empty string selects in-memory-only
// operation.
func New(dir string) (*Cache, error) {
	return NewSolver(dir, logic.SolverBB)
}

// NewSolver is New with an explicit covering backend for the exact
// minimizations routed through the cache. The backend is fixed at
// construction because it is part of every cache key — entries computed by
// different backends are never shared (exact results would be identical,
// but budget-limited inexact ones may not be).
func NewSolver(dir string, solver logic.Solver) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("memo: cache dir: %w", err)
		}
	}
	c := &Cache{dir: dir, solver: solver}
	for i := range c.shards {
		c.shards[i].m = map[[sha256.Size]byte]*entry{}
	}
	return c, nil
}

// Solver returns the covering backend the cache was constructed with.
// Cached entries are keyed by it, so downstream cache keys (the stage
// engine's synth keys) must use this backend — not a caller-side flag —
// when a Cache is the pipeline's Minimizer.
func (c *Cache) Solver() logic.Solver {
	if c == nil {
		return logic.SolverBB
	}
	return c.solver
}

// Stats returns the current lookup counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		DedupWaits:    c.dedupWaits.Load(),
		DiskHits:      c.diskHits.Load(),
		RemoteHits:    c.remoteHits.Load(),
		RemoteErrors:  c.remoteErrors.Load(),
		RemoteCorrupt: c.remoteCorrupt.Load(),
	}
}

// Minimize is hfmin.Minimize behind the cache. It satisfies
// synth.Minimizer.
func (c *Cache) Minimize(spec hfmin.Spec) (hfmin.Result, error) {
	return c.MinimizeCtx(context.Background(), spec)
}

// MinimizeCtx is Minimize with cooperative cancellation; it satisfies
// synth.MinimizerCtx. A lookup that dedup-waits on another goroutine's
// computation stops waiting when ctx ends (the computing job keeps its
// own context); a computation cancelled mid-solve is discarded and its
// key vacated, never cached, so concurrent jobs sharing the cache cannot
// observe one another's cancellations as results.
func (c *Cache) MinimizeCtx(ctx context.Context, spec hfmin.Spec) (hfmin.Result, error) {
	if c == nil {
		return hfmin.MinimizeCtx(ctx, spec)
	}
	return c.get(ctx, spec, c.solver, func(ctx context.Context, s hfmin.Spec) (hfmin.Result, error) {
		return hfmin.MinimizeSolver(ctx, s, c.solver)
	})
}

// MinimizeHeuristic is hfmin.MinimizeHeuristic behind the cache; the
// exact/heuristic flag is part of the key, so the two solvers never share
// entries.
func (c *Cache) MinimizeHeuristic(spec hfmin.Spec) (hfmin.Result, error) {
	if c == nil {
		return hfmin.MinimizeHeuristic(spec)
	}
	return c.get(context.Background(), spec, logic.SolverGreedy, hfmin.MinimizeHeuristicCtx)
}

// Key returns the content-addressed cache key of (spec, solver): the
// SHA-256 hash of the version salt, logic.SolverVersion, the covering
// backend id and the canonical transition list. Exported for tests and
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

// get implements the lookup protocol: in-memory hit, singleflight wait,
// disk hit, or compute-and-fill. Computations that end in a context error
// (or panic) vacate their entry instead of filling it, so a cancelled job
// never poisons the key for other jobs; waiters on a vacated entry retry
// the lookup from scratch.
func (c *Cache) get(ctx context.Context, spec hfmin.Spec, solver logic.Solver, solve func(context.Context, hfmin.Spec) (hfmin.Result, error)) (hfmin.Result, error) {
	// Sort once: the key and the solver's Analyze reuse the order.
	spec = spec.Canonical()
	key := canonicalKey(spec, solver)
	sh := &c.shards[key[0]%numShards]
	for {
		sh.mu.Lock()
		if e, ok := sh.m[key]; ok {
			sh.mu.Unlock()
			select {
			case <-e.done:
			default:
				// Another worker is solving this exact problem right now;
				// block on its result instead of duplicating the work — but
				// only as long as our own context lives.
				c.dedupWaits.Add(1)
				obs.Add("memo/dedup-waits", 1)
				select {
				case <-e.done:
				case <-ctx.Done():
					return hfmin.Result{}, ctx.Err()
				}
			}
			if e.aborted {
				continue // the computing job was cancelled or panicked; retry
			}
			c.hits.Add(1)
			obs.Add("memo/hits", 1)
			return e.res, e.err
		}
		e := &entry{done: make(chan struct{})}
		sh.m[key] = e
		sh.mu.Unlock()

		abort := func() {
			sh.mu.Lock()
			delete(sh.m, key)
			sh.mu.Unlock()
			e.aborted = true
			close(e.done)
		}
		// The entry must be resolved even if the solver panics, or waiters
		// would block forever; the panic is re-raised for par's recovery
		// while the vacated key stays computable by the next caller.
		completed := false
		defer func() {
			if !completed {
				abort()
			}
		}()

		if res, err, ok := c.loadDisk(key); ok {
			c.diskHits.Add(1)
			obs.Add("memo/disk-hits", 1)
			e.res, e.err = res, err
			completed = true
			close(e.done)
			return e.res, e.err
		}

		// Memory and disk missed; ask the fleet before solving. A hit is
		// persisted locally too, so a node restart keeps it, and a slow,
		// dead or corrupt remote falls through to compute (remote.go).
		if res, err, ok := c.loadRemote(ctx, key); ok {
			e.res, e.err = res, err
			completed = true
			close(e.done)
			c.storeDisk(key, e.res, e.err)
			return e.res, e.err
		}

		c.misses.Add(1)
		obs.Add("memo/misses", 1)
		res, err := solve(ctx, spec)
		completed = true
		if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			abort()
			return res, err
		}
		e.res, e.err = res, err
		close(e.done)
		c.storeDisk(key, e.res, e.err)
		c.storeRemote(key, e.res, e.err)
		return e.res, e.err
	}
}
