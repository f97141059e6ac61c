// Command loadgen boots a real asyncsynthd fleet and drives it through
// the sustained-load harness (internal/loadtest), printing the run
// report as JSON.
//
// Usage:
//
//	go run ./scripts/loadgen [-nodes N] [-jobs N] [-clients N]
//	                         [-gen N] [-cancel-every N] [-kill N]
//	                         [-byzantine] [-cross-verify] [-bin path]
//	                         [-o report.json]
//
// The exit status is the verdict: 0 when every job was accounted for and
// every served document matched its direct single-process run, 1
// otherwise. scripts/verify.sh runs a small configuration of this as a
// pass/fail step; perfbench measures the served paths.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/loadtest"
)

var (
	nodes       = flag.Int("nodes", 3, "fleet size")
	jobs        = flag.Int("jobs", 0, "total submissions (0 = twice the corpus)")
	clients     = flag.Int("clients", 4, "concurrent submitters")
	genSeeds    = flag.Int("gen", 3, "random designs from internal/gen added to the benchmark corpus")
	cancelEvery = flag.Int("cancel-every", 0, "cancel every Nth job right after submission (0 = no storm)")
	killAfter   = flag.Int("kill", 0, "SIGKILL the last node after N completed jobs (0 = no kill)")
	byzantine   = flag.Bool("byzantine", false, "inject corrupt and intermittently-stalling cache peers")
	crossVerify = flag.Bool("cross-verify", true, "re-run every document on a non-owner node afterwards")
	binPath     = flag.String("bin", "", "prebuilt asyncsynthd binary (default: go build a fresh one)")
	outPath     = flag.String("o", "", "write the JSON report here as well as stdout")
)

func main() { os.Exit(run()) }

func run() int {
	flag.Parse()

	bin := *binPath
	if bin == "" {
		dir, err := os.MkdirTemp("", "loadgen-bin-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		if bin, err = loadtest.BuildDaemon(dir); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 1
		}
	}

	var cachePeers []string
	if *byzantine {
		for _, mode := range []loadtest.ByzantineMode{loadtest.Slow, loadtest.Corrupt} {
			b, err := loadtest.StartByzantineCache(mode)
			if err != nil {
				fmt.Fprintln(os.Stderr, "loadgen:", err)
				return 1
			}
			defer b.Close()
			cachePeers = append(cachePeers, b.URL)
		}
	}

	fleet, err := loadtest.StartFleet(loadtest.FleetOptions{
		Bin:        bin,
		N:          *nodes,
		CachePeers: cachePeers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	defer fleet.Close()

	docs, err := loadtest.Workload(*genSeeds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d nodes, %d-document corpus\n", *nodes, len(docs))

	rep := loadtest.Run(fleet, docs, loadtest.RunOptions{
		Jobs:        *jobs,
		Clients:     *clients,
		CancelEvery: *cancelEvery,
		KillAfter:   *killAfter,
		KillNode:    *nodes - 1,
		CrossVerify: *crossVerify,
	})

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	fmt.Println(string(out))
	if *outPath != "" {
		if err := os.WriteFile(*outPath, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 1
		}
	}
	if rep.Mismatches != 0 || rep.Errors != 0 || rep.Done+rep.Cancelled != rep.Jobs {
		fmt.Fprintln(os.Stderr, "loadgen: FAIL — mismatches or unaccounted jobs (see report)")
		return 1
	}
	fmt.Fprintln(os.Stderr, "loadgen: ok — every served document bit-identical to its direct run")
	return 0
}
