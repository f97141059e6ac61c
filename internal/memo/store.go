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
	"time"

	"repro/internal/obs"
)

// Store is the one content-addressed cache: a memory→disk→remote chain
// with singleflight deduplication, strict validation and best-effort
// persistence, holding every kind of cached work under SHA-256 content
// keys. Cache keeps hfmin records in it; the incremental stage engine
// (internal/stage) keeps its stage results in it through Do — a
// transformed CDFG, an extracted controller after local transforms, a
// synthesized logic block. One store may serve both at once, in one
// directory with one byte cap and one remote tier.
//
// A kind chooses, via its BlobCodec, whether its values are serializable:
// a nil codec keeps them memory-only (useful for results holding live
// pointers, like transformed graphs), a non-nil codec enables the disk
// directory and the remote tier. A value is encoded when it is filled
// only if a disk or remote tier will take the bytes, and the bytes are
// dropped once handed over: the store keeps values, not encodings, and
// Export encodes on demand. Payloads on disk and on the wire are
// wrapped in a salted envelope, and each kind's payload carries its own
// validation, so reading a key with another kind's codec is a miss,
// never a value.
//
// Errors are never cached: a compute that fails vacates its key, so a
// transient failure (cancellation, resource exhaustion) cannot poison
// the cache for later jobs. Cache caches minimization verdicts by making
// them values.
type Store struct {
	dir           string
	remote        Remote
	remoteTimeout time.Duration
	cap           *dirCap
	shards        [numShards]shard

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

// BlobCodec serializes one kind's values for the disk and remote tiers.
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
	SourceRemote                 // filled from the remote tier
)

func (s Source) String() string {
	switch s {
	case SourceComputed:
		return "computed"
	case SourceMemory:
		return "memory"
	case SourceDisk:
		return "disk"
	case SourceRemote:
		return "remote"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// Stats is a snapshot of one kind's lookup counters.
type Stats struct {
	Hits          int64 // served from memory
	Misses        int64 // computed (not found in memory, on disk or remotely)
	DedupWaits    int64 // blocked on another goroutine computing the same key
	DiskHits      int64 // loaded from the disk directory
	RemoteHits    int64 // filled from the remote tier
	RemoteErrors  int64 // remote fetches that failed or timed out
	RemoteCorrupt int64 // remote payloads rejected by validation
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
	hits, misses, dedupWaits, diskHits                                  counter
	remoteHits, remoteMisses, remoteErrors, remoteCorrupt, remoteStores counter
}

func (f *family) init(prefix string) {
	f.hits.name = prefix + "/hits"
	f.misses.name = prefix + "/misses"
	f.dedupWaits.name = prefix + "/dedup-waits"
	f.diskHits.name = prefix + "/disk-hits"
	f.remoteHits.name = prefix + "/remote/hits"
	f.remoteMisses.name = prefix + "/remote/misses"
	f.remoteErrors.name = prefix + "/remote/errors"
	f.remoteCorrupt.name = prefix + "/remote/corrupt"
	f.remoteStores.name = prefix + "/remote/stores"
}

func (f *family) stats() Stats {
	return Stats{
		Hits:          f.hits.n.Load(),
		Misses:        f.misses.n.Load(),
		DedupWaits:    f.dedupWaits.n.Load(),
		DiskHits:      f.diskHits.n.Load(),
		RemoteHits:    f.remoteHits.n.Load(),
		RemoteErrors:  f.remoteErrors.n.Load(),
		RemoteCorrupt: f.remoteCorrupt.n.Load(),
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
// value is kept; Export encodes it with codec on demand.
type entry struct {
	done    chan struct{}
	kind    *family
	codec   BlobCodec
	val     any
	aborted bool
}

// blobRec is the salted on-disk/wire envelope around a codec payload.
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

// SetRemote attaches a remote tier consulted between disk and compute,
// bounded per lookup by timeout (<= 0 selects DefaultRemoteTimeout).
// Freshly computed values are offered back with Remote.Store. It is not
// synchronized with in-flight lookups: attach the tier before sharing
// the store, as the daemon does at startup.
func (s *Store) SetRemote(r Remote, timeout time.Duration) {
	if timeout <= 0 {
		timeout = DefaultRemoteTimeout
	}
	s.remote = r
	s.remoteTimeout = timeout
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
				if src == SourceComputed {
					s.storeRemote(f, key, data)
				}
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

// fill resolves e, the fresh entry this call put under key: from disk,
// from the remote tier or by computing. It also returns the envelope the
// caller should persist: the remote bytes of a remote hit, or a computed
// value encoded now when a disk or remote tier will take it; nil
// otherwise. A compute that fails vacates the key, and so does a panic,
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
		// Memory and disk missed; ask the fleet before computing. A hit
		// is persisted locally too, so a restart keeps it.
		if v, data, ok := s.loadRemote(ctx, f, key, e.codec); ok {
			f.remoteHits.inc()
			e.val, filled = v, true
			return v, data, SourceRemote, nil
		}
	}
	f.misses.inc()
	v, err := compute(ctx)
	if err != nil {
		return v, nil, SourceComputed, err
	}
	e.val, filled = v, true
	var data []byte
	if s.dir != "" || s.remote != nil {
		data, _ = envelope(e.codec, v)
	}
	return v, data, SourceComputed, nil
}

// envelope encodes v with codec into the salted envelope the disk and
// remote tiers carry; ok is false for memory-only kinds and values.
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

// Export serializes the store's entry for the hex-encoded key, serving
// the fleet cache-fill protocol (GET /v1/cache/{key}) for every kind.
// A completed in-memory entry is encoded now, into the bytes a disk
// store writes for it; otherwise the disk tier is read. In-flight,
// aborted, memory-only and absent entries report ok=false. The requester
// re-validates everything, so disk bytes are returned verbatim.
func (s *Store) Export(hexKey string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	raw, err := hex.DecodeString(hexKey)
	if err != nil || len(raw) != sha256.Size {
		return nil, false
	}
	var key [sha256.Size]byte
	copy(key[:], raw)

	sh := &s.shards[key[0]%numShards]
	sh.mu.Lock()
	e, ok := sh.m[key]
	sh.mu.Unlock()
	if ok {
		select {
		case <-e.done:
			if e.aborted {
				break
			}
			if data, ok := envelope(e.codec, e.val); ok {
				return data, true
			}
		default: // still being computed
		}
	}
	if s.dir == "" {
		return nil, false
	}
	data, rerr := os.ReadFile(s.path(key))
	if rerr != nil {
		return nil, false
	}
	return data, true
}
