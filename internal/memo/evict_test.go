package memo

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/hfmin"
)

// widthSpec is simpleSpec generalized to n input bits, so each width
// yields a distinct feasible minimization problem.
func widthSpec(n int) hfmin.Spec {
	zeros := strings.Repeat("0", n-1)
	return hfmin.Spec{N: n, Transitions: []hfmin.Transition{
		tr("0"+zeros, zeros+"1", hfmin.Static1),
		tr("1"+zeros, "1"+zeros[:n-2]+"1", hfmin.Static0),
	}}
}

// dirSize sums the *.json bytes under dir.
func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// TestStoreEviction fills a byte-capped store past its budget and
// asserts the sweep deletes the oldest entries first, keeps the total
// under the cap, and leaves the newest records readable.
func TestStoreEviction(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	write := func(name string) {
		t.Helper()
		if _, _, err := s.Do(context.Background(), blobKey(name), textCodec{}, func(context.Context) (any, error) {
			return "payload for " + name, nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Build an uncapped corpus with strictly increasing mtimes: "old-*"
	// written first and backdated, "new-*" fresh.
	old := []string{"old-0", "old-1", "old-2"}
	fresh := []string{"new-0", "new-1"}
	for _, name := range old {
		write(name)
	}
	past := time.Now().Add(-time.Hour)
	for i, name := range old {
		key := blobKey(name)
		path := s.path(key)
		when := past.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(path, when, when); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range fresh {
		write(name)
	}

	// Cap well below the corpus and trigger a sweep with one more write.
	perFile := dirSize(t, dir) / int64(len(old)+len(fresh))
	max := perFile*3 + perFile/2 // room for ~3 records
	s.SetMaxBytes(max)
	write("trigger")

	if got := dirSize(t, dir); got > max {
		t.Errorf("directory holds %d bytes after sweep, cap is %d", got, max)
	}
	for _, name := range old {
		if _, err := os.Stat(s.path(blobKey(name))); !os.IsNotExist(err) {
			t.Errorf("backdated entry %s survived the sweep (err=%v)", name, err)
		}
	}
	// The triggering record must survive: it is the newest.
	if _, err := os.Stat(s.path(blobKey("trigger"))); err != nil {
		t.Errorf("newest entry evicted: %v", err)
	}

	// A fresh store over the directory still reads a surviving record.
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	v, src, err := s2.Do(context.Background(), blobKey("trigger"), textCodec{}, func(context.Context) (any, error) {
		t.Fatal("surviving record did not load from disk")
		return nil, nil
	})
	if err != nil || v.(string) != "payload for trigger" || src != SourceDisk {
		t.Fatalf("got (%v, %v, %v)", v, src, err)
	}
}

// TestCacheEvictionCap applies the same byte cap to hfmin records: they
// live in the store's one directory, so a capped store sweeps them
// exactly like stage payloads.
func TestCacheEvictionCap(t *testing.T) {
	dir := t.TempDir()
	c, s := cacheOn(t, dir)
	// Populate real minimization records of growing widths (each width is
	// a distinct content key, so a distinct disk file).
	for n := 2; n <= 7; n++ {
		if _, err := c.Minimize(widthSpec(n)); err != nil {
			t.Fatal(err)
		}
	}
	total := dirSize(t, dir)
	if total == 0 {
		t.Fatal("no records persisted")
	}
	s.SetMaxBytes(total / 2)
	// Backdate everything so any entry is eligible, then write one more.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Hour)
	for _, e := range entries {
		p := filepath.Join(dir, e.Name())
		if err := os.Chtimes(p, past, past); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Minimize(widthSpec(8)); err != nil {
		t.Fatal(err)
	}
	if got := dirSize(t, dir); got > total/2 {
		t.Errorf("capped cache holds %d bytes, cap is %d", got, total/2)
	}
}
