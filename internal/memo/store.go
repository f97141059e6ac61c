package memo

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Store is the one content-addressed cache: a memory→disk chain with
// singleflight deduplication, strict validation and best-effort
// persistence, holding every kind of cached work under SHA-256 content
// keys. Cache keeps hfmin records in it; the incremental stage engine
// (internal/stage) keeps its stage results in it through Do — a
// transformed CDFG, an extracted controller after local transforms, a
// synthesized logic block. One store may serve both at once, in one
// directory with one byte cap.
//
// A kind chooses, via its BlobCodec, whether its values are serializable:
// a nil codec keeps them memory-only (useful for results holding live
// pointers, like transformed graphs), a non-nil codec enables the disk
// directory. A value is encoded when it is filled only if the store has
// a directory to take the bytes, and the bytes are dropped once
// written: the store keeps values, not encodings. Payloads on disk are
// wrapped in a salted envelope, and each kind's payload carries its own
// validation, so reading a key with another kind's codec is a miss,
// never a value.
//
// Errors are never cached: a compute that fails vacates its key, so a
// transient failure (cancellation, resource exhaustion) cannot poison
// the cache for later jobs. Cache caches minimization verdicts by making
// them values.
type Store struct {
	dir    string
	cap    *dirCap
	shards [numShards]shard

	records family // hfmin records: memo/*, Cache.Stats
	blobs   family // stage payloads: blob/*, Store.Stats
}

// StoreSalt versions the blob envelope. It is distinct from the hfmin
// record Salt, and it must be bumped whenever any cached stage payload's
// semantics change.
const StoreSalt = "blob-v1"

// numShards bounds lock contention between concurrent workers; keys are
// SHA-256 hashes, so the first byte shards uniformly.
const numShards = 16

// BlobCodec serializes one kind's values for the disk tier.
// Encode reports ok=false for values that should stay memory-only;
// Decode reports ok=false on any validation failure, which demotes the
// record to a miss. Encoded payloads must be valid JSON (they are
// embedded in the salted envelope as a raw message).
type BlobCodec interface {
	// Encode serializes a value; ok=false keeps it memory-only.
	Encode(v any) ([]byte, bool)
	// Decode strictly validates and deserializes a payload.
	Decode(data []byte) (any, bool)
}

// Source reports which tier served a Store.Do lookup.
type Source int

// Lookup sources, ordered from most to least expensive.
const (
	SourceComputed Source = iota // ran the compute function
	SourceMemory                 // in-memory hit (or singleflight wait)
	SourceDisk                   // loaded from the disk directory
)

func (s Source) String() string {
	switch s {
	case SourceComputed:
		return "computed"
	case SourceMemory:
		return "memory"
	case SourceDisk:
		return "disk"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// Stats is a snapshot of one kind's lookup counters.
type Stats struct {
	Hits       int64 // served from memory
	Misses     int64 // computed (not found in memory or on disk)
	DedupWaits int64 // blocked on another goroutine computing the same key
	DiskHits   int64 // loaded from the disk directory
}

// counter is one lookup counter, mirrored to the obs registry.
type counter struct {
	n    atomic.Int64
	name string
}

func (c *counter) inc() {
	c.n.Add(1)
	obs.Add(c.name, 1)
}

// family is one kind's counters, named under its obs prefix.
type family struct {
	hits, misses, dedupWaits, diskHits counter
}

func (f *family) init(prefix string) {
	f.hits.name = prefix + "/hits"
	f.misses.name = prefix + "/misses"
	f.dedupWaits.name = prefix + "/dedup-waits"
	f.diskHits.name = prefix + "/disk-hits"
}

func (f *family) stats() Stats {
	return Stats{
		Hits:       f.hits.n.Load(),
		Misses:     f.misses.n.Load(),
		DedupWaits: f.dedupWaits.n.Load(),
		DiskHits:   f.diskHits.n.Load(),
	}
}

type shard struct {
	mu sync.Mutex
	m  map[[sha256.Size]byte]*entry
}

// entry is one cached computation. done is closed when val is final;
// waiters block on it (singleflight). aborted marks an entry whose
// computation failed, was cancelled or panicked: it has been removed from
// the map, and waiters retry rather than inherit the failure. Only the
// value is kept, never its encoding.
type entry struct {
	done    chan struct{}
	kind    *family
	codec   BlobCodec
	val     any
	aborted bool
}

// blobRec is the salted on-disk envelope around a codec payload.
type blobRec struct {
	Salt string          `json:"salt"`
	Data json.RawMessage `json:"data"`
}

// NewStore returns a store. A non-empty dir enables the persistent tier
// (the directory is created if needed); empty selects in-memory-only
// operation.
func NewStore(dir string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("memo: cache dir: %w", err)
		}
	}
	s := &Store{dir: dir}
	for i := range s.shards {
		s.shards[i].m = map[[sha256.Size]byte]*entry{}
	}
	s.records.init("memo")
	s.blobs.init("blob")
	return s, nil
}

// Stats returns the lookup counters of the values cached through Do
// (the blob/* family).
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return s.blobs.stats()
}

// Do returns the value cached under key, computing and caching it on a
// miss. Concurrent calls for the same key collapse onto one computation
// (singleflight); a computation that returns an error — or whose context
// ends — vacates the key instead of caching. Cached values are shared by
// reference across callers, who must treat them as immutable.
func (s *Store) Do(ctx context.Context, key [sha256.Size]byte, codec BlobCodec, compute func(context.Context) (any, error)) (any, Source, error) {
	if s == nil {
		v, err := compute(ctx)
		return v, SourceComputed, err
	}
	return s.do(ctx, &s.blobs, key, codec, compute)
}

// do is Do for the kind whose counters are f.
func (s *Store) do(ctx context.Context, f *family, key [sha256.Size]byte, codec BlobCodec, compute func(context.Context) (any, error)) (any, Source, error) {
	sh := &s.shards[key[0]%numShards]
	for {
		sh.mu.Lock()
		e, ok := sh.m[key]
		if !ok {
			e = &entry{done: make(chan struct{}), kind: f, codec: codec}
			sh.m[key] = e
			sh.mu.Unlock()
			v, data, src, err := s.fill(ctx, sh, key, e, compute)
			if data != nil {
				s.writeDisk(key, data)
			}
			return v, src, err
		}
		sh.mu.Unlock()
		if e.kind != f {
			// The key holds another kind's value: a miss, computed
			// without touching that entry.
			f.misses.inc()
			v, err := compute(ctx)
			return v, SourceComputed, err
		}
		select {
		case <-e.done:
		default:
			// Another worker is computing this exact key right now; block
			// on its result instead of duplicating the work — but only as
			// long as our own context lives.
			f.dedupWaits.inc()
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, SourceComputed, ctx.Err()
			}
		}
		if !e.aborted {
			f.hits.inc()
			return e.val, SourceMemory, nil
		}
		// The computing call failed, was cancelled or panicked; retry.
	}
}

// fill resolves e, the fresh entry this call put under key: from disk
// or by computing. It also returns the envelope the caller should
// persist, a computed value encoded now when the store has a directory,
// or nil. A compute that fails vacates the key, and so does a panic,
// which propagates to par's recovery while the key stays computable;
// either way e.done closes, so waiters never block forever.
func (s *Store) fill(ctx context.Context, sh *shard, key [sha256.Size]byte, e *entry, compute func(context.Context) (any, error)) (any, []byte, Source, error) {
	f := e.kind
	filled := false
	defer func() {
		if !filled {
			sh.mu.Lock()
			delete(sh.m, key)
			sh.mu.Unlock()
			e.aborted = true
		}
		close(e.done)
	}()
	if e.codec != nil {
		if v, ok := s.loadDisk(key, e.codec); ok {
			f.diskHits.inc()
			e.val, filled = v, true
			return v, nil, SourceDisk, nil
		}
	}
	f.misses.inc()
	v, err := compute(ctx)
	if err != nil {
		return v, nil, SourceComputed, err
	}
	e.val, filled = v, true
	var data []byte
	if s.dir != "" {
		data, _ = envelope(e.codec, v)
	}
	return v, data, SourceComputed, nil
}

// envelope encodes v with codec into the salted envelope the disk tier
// carries; ok is false for memory-only kinds and values.
func envelope(codec BlobCodec, v any) ([]byte, bool) {
	if codec == nil {
		return nil, false
	}
	payload, ok := codec.Encode(v)
	if !ok {
		return nil, false
	}
	data, err := json.Marshal(blobRec{Salt: StoreSalt, Data: payload})
	return data, err == nil
}

// decodeBlob validates the envelope (salt, well-formed JSON, no trailing
// data) and hands the payload to the codec; any defect is a miss.
func decodeBlob(data []byte, codec BlobCodec) (any, bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rec blobRec
	if dec.Decode(&rec) != nil || dec.More() || rec.Salt != StoreSalt {
		return nil, false
	}
	return codec.Decode(rec.Data)
}

func (s *Store) path(key [sha256.Size]byte) string {
	return filepath.Join(s.dir, hex.EncodeToString(key[:])+".json")
}

func (s *Store) loadDisk(key [sha256.Size]byte, codec BlobCodec) (any, bool) {
	if s.dir == "" {
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	return decodeBlob(data, codec)
}

// writeDisk persists an encoded envelope; failures are ignored (the
// store is an accelerator, not a store of record). Write-then-rename
// keeps concurrent processes sharing a directory from observing torn
// records.
func (s *Store) writeDisk(key [sha256.Size]byte, data []byte) {
	if s.dir == "" {
		return
	}
	tmp, terr := os.CreateTemp(s.dir, "blob-*")
	if terr != nil {
		return
	}
	if _, werr := tmp.Write(data); werr != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if cerr := tmp.Close(); cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if rerr := os.Rename(tmp.Name(), s.path(key)); rerr != nil {
		os.Remove(tmp.Name())
		return
	}
	s.cap.wrote(len(data))
}
