package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// daemonBin is the asyncsynthd binary shared by every test in this
// package; built once in TestMain (skipped under -short, which skips
// every test here anyway).
var daemonBin string

func TestMain(m *testing.M) {
	flag.Parse()
	code := func() int {
		if !testing.Short() {
			dir, err := os.MkdirTemp("", "loadtest-bin-")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			defer os.RemoveAll(dir)
			daemonBin, err = BuildDaemon(dir)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		return m.Run()
	}()
	os.Exit(code)
}

// dumpLogs attaches every node's captured output to a failing test.
func dumpLogs(t *testing.T, f *Fleet) {
	t.Helper()
	if !t.Failed() {
		return
	}
	for i, n := range f.Nodes {
		t.Logf("--- node %d (%s) ---\n%s", i, n.Addr, n.Log())
	}
}

// TestFleetSmoke is the 3-node scenario scripts/verify.sh mirrors:
// submit via one node, read the identical result back from every node,
// kill the node that owns the job, and verify a resubmission through a
// survivor still serves the bit-identical document.
func TestFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs a daemon fleet")
	}
	f, err := StartFleet(FleetOptions{Bin: daemonBin, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer dumpLogs(t, f)

	docs, err := Workload(0)
	if err != nil {
		t.Fatal(err)
	}
	var doc Doc
	for _, d := range docs {
		if d.Name == "diffeq" {
			doc = d
		}
	}
	if doc.Name == "" {
		t.Fatal("diffeq missing from the workload")
	}

	st, _, err := submit(f.Nodes[0].URL, doc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelCtx := context.WithTimeout(context.Background(), time.Minute)
	defer cancelCtx()
	// Poll through a different node than we submitted to: job IDs route
	// across the fleet.
	final, err := pollDone(ctx, f.Nodes[1].URL, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" {
		t.Fatalf("job state %s: %s", final.State, final.Error)
	}
	for i, n := range f.Nodes {
		served, err := fetchResult(n.URL, st.ID)
		if err != nil {
			t.Fatalf("result via node %d: %v", i, err)
		}
		if !bytes.Equal(served, doc.Want) {
			t.Fatalf("node %d served a document differing from the direct run", i)
		}
	}

	// Kill the node the job ran on; a resubmission through a survivor
	// must still complete and serve identical bytes.
	ownerIdx := -1
	for i, n := range f.Nodes {
		if strings.HasSuffix(st.ID, "@"+n.Addr) {
			ownerIdx = i
		}
	}
	if ownerIdx < 0 {
		t.Fatalf("job ID %q names no fleet node", st.ID)
	}
	f.Kill(ownerIdx)
	survivor := f.Nodes[(ownerIdx+1)%3].URL
	deadline := time.Now().Add(time.Minute)
	var st2 jobStatus
	for {
		if st2, _, err = submit(survivor, doc); err == nil {
			break
		}
		// The survivor may still be forwarding to the corpse until its
		// health view catches up; retry until the fleet degrades.
		if time.Now().After(deadline) {
			t.Fatalf("survivor never accepted the resubmission: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	final, err = pollDone(ctx, survivor, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" {
		t.Fatalf("post-kill job state %s: %s", final.State, final.Error)
	}
	served, err := fetchResult(survivor, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, doc.Want) {
		t.Fatal("post-kill document differs from the direct run")
	}
}

// TestFleetSustainedLoad is the acceptance run: a 3-node fleet under
// concurrent load from the benchmark + gen corpus, with a corrupt and an
// intermittently-stalling cache peer injected, one node SIGKILLed
// mid-run and a cancellation storm mixed in. Every served document must
// be bit-identical to the direct single-process run, and the fleet's own
// counters must show cross-node cache hits and rejected corrupt
// payloads.
func TestFleetSustainedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs a daemon fleet under load")
	}
	corrupt, err := StartByzantineCache(Corrupt)
	if err != nil {
		t.Fatal(err)
	}
	defer corrupt.Close()
	slow, err := StartByzantineCache(Slow)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()

	f, err := StartFleet(FleetOptions{
		Bin:        daemonBin,
		N:          3,
		QueueDepth: 4,
		CachePeers: []string{slow.URL, corrupt.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer dumpLogs(t, f)

	docs, err := Workload(3)
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(f, docs, RunOptions{
		Jobs:        3 * len(docs),
		Clients:     6,
		CancelEvery: 6,
		KillAfter:   len(docs),
		KillNode:    2,
		CrossVerify: true,
	})
	if out, err := json.MarshalIndent(rep, "", "  "); err == nil {
		t.Logf("report:\n%s", out)
	}

	if rep.Mismatches != 0 {
		t.Errorf("%d served documents differ from their direct runs", rep.Mismatches)
	}
	if rep.Errors != 0 {
		t.Errorf("%d jobs failed outright: %v", rep.Errors, rep.ErrorLog)
	}
	if got := rep.Done + rep.Cancelled; got != rep.Jobs {
		t.Errorf("accounted jobs = %d (done %d + cancelled %d), want %d",
			got, rep.Done, rep.Cancelled, rep.Jobs)
	}
	if rep.Cancelled == 0 {
		t.Error("cancellation storm never landed a cancel")
	}
	if rep.CrossVerified == 0 {
		t.Error("cross-verify phase checked nothing")
	}
	// hfmin records and stage payloads share one remote tier: a re-run
	// that fills whole stage payloads from a peer poses no hfmin lookup.
	if rep.RemoteHits+rep.BlobRemoteHits == 0 {
		t.Error("no cross-node remote cache hits observed (memo/remote/hits + blob/remote/hits)")
	}
	if rep.RemoteCorrupt == 0 {
		t.Error("corrupt cache peer payloads were never rejected (memo/remote/corrupt)")
	}
	if corrupt.Requests() == 0 || slow.Requests() == 0 {
		t.Errorf("fault peers never consulted (corrupt %d, slow %d)", corrupt.Requests(), slow.Requests())
	}
	if f.Nodes[2].Alive() {
		t.Error("kill-mid-run never fired")
	}
	if rep.Done > 0 && rep.P50Ms <= 0 {
		t.Error("latency percentiles missing")
	}
}
