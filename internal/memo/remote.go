package memo

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"time"
)

// Remote is a pluggable second cache tier behind the in-memory map and
// the local disk directory: a fleet-shared store of cached values in the
// same strictly-validated envelope the disk tier uses (see store.go). The
// peer-to-peer HTTP backend is fleet.CacheClient; a blob store would be
// another implementation.
//
// The contract is deliberately weak so a remote can never hurt
// correctness, only save time:
//
//   - Fetch returns the record bytes for a key, (nil, nil) on a clean
//     miss, or an error. The caller re-validates every payload; corrupt
//     or stale bytes are demoted to a miss and counted, never trusted.
//   - Store offers a freshly-computed record to the tier; best-effort,
//     errors are ignored. Pull-based backends make it a no-op.
//
// Keys on the wire are the lowercase hex of the 32-byte content key
// (Key for hfmin records), so remote entries are content-addressed
// exactly like local ones and a foreign-salt record can never alias a
// current key.
type Remote interface {
	// Fetch returns the record for key, (nil, nil) on a miss.
	Fetch(ctx context.Context, key string) ([]byte, error)
	// Store offers a record to the tier; best-effort.
	Store(ctx context.Context, key string, data []byte) error
}

// DefaultRemoteTimeout bounds one remote lookup when SetRemote is given
// a non-positive timeout.
const DefaultRemoteTimeout = time.Second

// loadRemote consults the remote tier for key, bounded by the store's
// timeout. Every failure is counted in the kind's family: remote/misses
// for a clean fleet-wide miss, remote/errors when the fetch failed or
// timed out, remote/corrupt when the payload failed validation. All
// three report ok=false, falling through to local compute.
func (s *Store) loadRemote(ctx context.Context, f *family, key [sha256.Size]byte, codec BlobCodec) (any, []byte, bool) {
	if s.remote == nil {
		return nil, nil, false
	}
	rctx, cancel := context.WithTimeout(ctx, s.remoteTimeout)
	defer cancel()
	data, err := s.remote.Fetch(rctx, hex.EncodeToString(key[:]))
	switch {
	case err != nil:
		f.remoteErrors.inc()
		return nil, nil, false
	case data == nil:
		f.remoteMisses.inc()
		return nil, nil, false
	}
	v, ok := decodeBlob(data, codec)
	if !ok {
		f.remoteCorrupt.inc()
		return nil, nil, false
	}
	return v, data, true
}

// storeRemote offers a freshly-encoded envelope to the remote tier,
// detached from the computing job's context: the result is final, so a
// cancellation arriving after the compute must not suppress the share.
func (s *Store) storeRemote(f *family, key [sha256.Size]byte, data []byte) {
	if s.remote == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.remoteTimeout)
	defer cancel()
	if s.remote.Store(ctx, hex.EncodeToString(key[:]), data) == nil {
		f.remoteStores.inc()
	}
}
