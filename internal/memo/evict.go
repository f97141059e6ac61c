package memo

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
)

// The disk tier grows without bound across long daemon runs: every new
// design adds hfmin records and stage payloads, and nothing removes
// them. dirCap bounds the store's directory, both kinds together, to one
// byte budget with oldest-entry eviction — entries are content-addressed
// and regenerable, so deleting the least-recently-written files can
// only cost a recompute, never correctness.
//
// A sweep (re-stat the directory, delete oldest until under budget) runs
// on the first write and then whenever the bytes written since the last
// sweep exceed 1/16 of the budget, amortizing the directory scan across
// many stores. Concurrent processes sharing a directory race benignly:
// each deletes files independently and a vanished file is a miss.

type dirCap struct {
	dir string
	max int64

	mu      sync.Mutex
	pending int64 // bytes written since the last sweep
	swept   bool  // a sweep has run at least once
}

// newDirCap returns nil (a no-op cap) when the directory or budget is
// absent; all methods are nil-safe.
func newDirCap(dir string, max int64) *dirCap {
	if dir == "" || max <= 0 {
		return nil
	}
	return &dirCap{dir: dir, max: max}
}

// wrote records n freshly-persisted bytes and sweeps when due.
func (d *dirCap) wrote(n int) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pending += int64(n)
	if d.swept && d.pending < d.max/16+1 {
		return
	}
	d.pending = 0
	d.swept = true
	d.sweep()
}

// sweep deletes the oldest *.json records until the directory is within
// the byte budget. Called with d.mu held. All I/O errors are ignored —
// eviction is best-effort on a regenerable cache.
func (d *dirCap) sweep() {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	type rec struct {
		path  string
		size  int64
		mtime int64
	}
	var recs []rec
	var total int64
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		info, ierr := e.Info()
		if ierr != nil {
			continue
		}
		recs = append(recs, rec{
			path:  filepath.Join(d.dir, e.Name()),
			size:  info.Size(),
			mtime: info.ModTime().UnixNano(),
		})
		total += info.Size()
	}
	if total <= d.max {
		return
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].mtime != recs[j].mtime {
			return recs[i].mtime < recs[j].mtime
		}
		return recs[i].path < recs[j].path
	})
	evicted := int64(0)
	for _, r := range recs {
		if total <= d.max {
			break
		}
		if os.Remove(r.path) == nil {
			total -= r.size
			evicted++
		}
	}
	if evicted > 0 {
		obs.Add("memo/evictions", evicted)
	}
}

// SetMaxBytes caps the store's disk directory at n bytes with
// oldest-entry eviction (0 or negative disables the cap, the default).
// Set it at startup, before sharing the store.
func (s *Store) SetMaxBytes(n int64) {
	s.cap = newDirCap(s.dir, n)
}
