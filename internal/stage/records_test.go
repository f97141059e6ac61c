package stage

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/memo"
)

var update = flag.Bool("update", false, "rewrite testdata/records.txt")

// TestStoreRecordsPinned runs the five registry designs at -j 1 through
// a fresh engine over a disk store that also holds the hfmin records, and
// requires the store's files, by name and by the SHA-256 of their bytes,
// to equal testdata/records.txt. A file's name is its key, so a moved
// stage key, payload byte, record byte or salt fails here, even when
// every same-build oracle stays green. Regenerate with -args -update
// only for an intended change to a key or payload.
func TestStoreRecordsPinned(t *testing.T) {
	dir := t.TempDir()
	store, err := memo.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Parallelism = 1
	opt.Minimizer = memo.OnStore(store)
	e := New(store)
	for _, b := range bench.All() {
		if _, _, err := e.Run(context.Background(), b.Build(), opt); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	var got strings.Builder
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %x\n", filepath.Base(f), sha256.Sum256(data))
	}

	golden := filepath.Join("testdata", "records.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden: %v (run with -args -update to regenerate)", err)
	}
	gotSums, wantSums := recordSums(got.String()), recordSums(string(want))
	for name, sum := range wantSums {
		switch g, ok := gotSums[name]; {
		case !ok:
			t.Errorf("record %s is missing", name)
		case g != sum:
			t.Errorf("record %s: bytes differ from %s", name, golden)
		}
	}
	for name := range gotSums {
		if _, ok := wantSums[name]; !ok {
			t.Errorf("record %s is not in %s", name, golden)
		}
	}
	t.Logf("%d records", len(gotSums))
}

// recordSums parses "name sum" lines into a map from name to sum.
func recordSums(text string) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if name, sum, ok := strings.Cut(line, " "); ok {
			out[name] = sum
		}
	}
	return out
}
