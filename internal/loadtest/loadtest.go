// Package loadtest drives a real asyncsynthd fleet — separate processes
// on loopback ports, wired together with -peers — through sustained,
// fault-injected load, and checks the one property that matters: every
// document the fleet serves is bit-identical to a direct single-process
// pipeline run.
//
// The harness has three parts. StartFleet builds and boots N daemon
// processes whose ring, health-checking and remote cache tier are exactly
// the production topology. Workload assembles a corpus from the stock
// benchmark registry plus synthesizable random designs from internal/gen,
// each paired with its reference document computed in-process. Run pushes
// the corpus through the fleet with concurrent clients while optionally
// killing a node mid-run and cancelling a slice of the jobs, and reports
// latency percentiles, queue-depth highwater and the fleet's own counters
// (remote cache hits, rejected corrupt payloads, forward fallbacks).
//
// scripts/loadgen is the command-line front end; TestFleetSustainedLoad
// is the in-repo acceptance run.
package loadtest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/gen"
	"repro/internal/service"
)

// Doc is one workload document: a submission body plus the reference
// synthesis document a direct single-process run produces.
type Doc struct {
	Name string
	Body []byte
	Want []byte
}

// directRun computes the reference document for g the way asyncsynthd
// does — full pipeline at the default level, gate-level synthesis, codec
// encoding — but in this process, with no service layer in between.
func directRun(g *cdfg.Graph) ([]byte, error) {
	s, err := core.Run(g, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	results, err := s.SynthesizeLogic()
	if err != nil {
		return nil, err
	}
	return codec.EncodeSynthesis(s, results)
}

// Workload assembles the corpus: every registered benchmark plus up to
// genSeeds random designs from internal/gen. Random specs that the
// synthesis pipeline rejects (the generator spans more topologies than
// the extractor accepts) are skipped, not errors — the corpus is the
// synthesizable subset.
func Workload(genSeeds int) ([]Doc, error) {
	var docs []Doc
	for _, b := range bench.All() {
		body, err := codec.EncodeGraph(b.Build())
		if err != nil {
			return nil, fmt.Errorf("loadtest: encoding %s: %w", b.Name, err)
		}
		want, err := directRun(b.Build())
		if err != nil {
			return nil, fmt.Errorf("loadtest: reference run of %s: %w", b.Name, err)
		}
		docs = append(docs, Doc{Name: b.Name, Body: body, Want: want})
	}
	found := 0
	for seed := int64(1); found < genSeeds && seed <= 200; seed++ {
		want, err := directRun(gen.Graph(seed))
		if err != nil {
			continue
		}
		body, err := codec.EncodeGraph(gen.Graph(seed))
		if err != nil {
			continue
		}
		docs = append(docs, Doc{Name: fmt.Sprintf("gen-%d", seed), Body: body, Want: want})
		found++
	}
	return docs, nil
}

// BuildDaemon compiles cmd/asyncsynthd into dir and returns the binary
// path.
func BuildDaemon(dir string) (string, error) {
	bin := filepath.Join(dir, "asyncsynthd")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/asyncsynthd").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("loadtest: building asyncsynthd: %w\n%s", err, out)
	}
	return bin, nil
}

// FleetOptions sizes a fleet under test.
type FleetOptions struct {
	// Bin is the asyncsynthd binary (see BuildDaemon).
	Bin string
	// N is the node count (default 3).
	N int
	// WorkDir holds per-node cache directories (default: a fresh temp dir
	// removed by Fleet.Close).
	WorkDir string
	// Concurrency and QueueDepth are passed to every node (defaults 2 and
	// 8 — a small queue so overload is observable).
	Concurrency, QueueDepth int
	// CachePeers are extra cache-only peer URLs given to every node
	// (-cache-peers); the fault tests point these at byzantine servers.
	CachePeers []string
	// HealthInterval is each node's peer probe interval (default 250ms —
	// fast enough that kill tests see the transition).
	HealthInterval time.Duration
}

// Node is one running daemon process.
type Node struct {
	URL      string
	Addr     string
	CacheDir string

	cmd  *exec.Cmd
	logM sync.Mutex
	log  bytes.Buffer
	dead bool
	mu   sync.Mutex
}

// Log returns everything the node has printed so far.
func (n *Node) Log() string {
	n.logM.Lock()
	defer n.logM.Unlock()
	return n.log.String()
}

// Alive reports whether the process has not been killed by the harness.
func (n *Node) Alive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.dead
}

// Fleet is a set of daemon processes under test.
type Fleet struct {
	Nodes   []*Node
	workDir string
	ownDir  bool
}

// StartFleet boots opt.N daemons wired into one fleet and waits until
// every node announces its listener. On error the partial fleet is torn
// down and every node's captured output is folded into the error.
func StartFleet(opt FleetOptions) (*Fleet, error) {
	if opt.N <= 0 {
		opt.N = 3
	}
	if opt.Concurrency <= 0 {
		opt.Concurrency = 2
	}
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = 8
	}
	if opt.HealthInterval <= 0 {
		opt.HealthInterval = 250 * time.Millisecond
	}
	f := &Fleet{workDir: opt.WorkDir}
	if f.workDir == "" {
		dir, err := os.MkdirTemp("", "loadtest-fleet-")
		if err != nil {
			return nil, err
		}
		f.workDir = dir
		f.ownDir = true
	}

	// Reserve a loopback port per node, then release them for the daemons
	// to bind: every node must know the full address set before any node
	// exists (the ring is part of each node's configuration).
	addrs := make([]string, opt.N)
	urls := make([]string, opt.N)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		urls[i] = "http://" + addrs[i]
		ln.Close()
	}

	for i := 0; i < opt.N; i++ {
		var others []string
		for j, u := range urls {
			if j != i {
				others = append(others, u)
			}
		}
		cacheDir := filepath.Join(f.workDir, fmt.Sprintf("node%d-cache", i))
		args := []string{
			"-addr", addrs[i],
			"-self", urls[i],
			"-peers", strings.Join(others, ","),
			"-cache-dir", cacheDir,
			"-concurrency", strconv.Itoa(opt.Concurrency),
			"-queue-depth", strconv.Itoa(opt.QueueDepth),
			"-health-interval", opt.HealthInterval.String(),
		}
		if len(opt.CachePeers) > 0 {
			args = append(args, "-cache-peers", strings.Join(opt.CachePeers, ","))
		}
		node := &Node{URL: urls[i], Addr: addrs[i], CacheDir: cacheDir}
		node.cmd = exec.Command(opt.Bin, args...)
		stdout, err := node.cmd.StdoutPipe()
		if err != nil {
			f.Close()
			return nil, err
		}
		node.cmd.Stderr = node.cmd.Stdout
		if err := node.cmd.Start(); err != nil {
			f.Close()
			return nil, err
		}
		f.Nodes = append(f.Nodes, node)

		ready := make(chan error, 1)
		go func() {
			sc := bufio.NewScanner(stdout)
			announced := false
			for sc.Scan() {
				node.logM.Lock()
				node.log.WriteString(sc.Text() + "\n")
				node.logM.Unlock()
				if !announced && strings.HasPrefix(sc.Text(), "listening on ") {
					announced = true
					ready <- nil
				}
			}
			if !announced {
				ready <- fmt.Errorf("node %s exited before announcing: %v", node.Addr, sc.Err())
			}
		}()
		select {
		case err := <-ready:
			if err != nil {
				err = fmt.Errorf("loadtest: %w\n%s", err, node.Log())
				f.Close()
				return nil, err
			}
		case <-time.After(15 * time.Second):
			f.Close()
			return nil, fmt.Errorf("loadtest: node %s never announced its listener\n%s", node.Addr, node.Log())
		}
	}
	return f, nil
}

// Kill hard-kills node i (SIGKILL — the crash case, not a drain).
func (f *Fleet) Kill(i int) {
	n := f.Nodes[i]
	n.mu.Lock()
	if !n.dead {
		n.dead = true
		n.cmd.Process.Kill()
	}
	n.mu.Unlock()
	n.cmd.Wait()
}

// AliveURLs returns the base URLs of the nodes the harness has not
// killed.
func (f *Fleet) AliveURLs() []string {
	var out []string
	for _, n := range f.Nodes {
		if n.Alive() {
			out = append(out, n.URL)
		}
	}
	return out
}

// Close tears the fleet down (SIGKILL; fleet state is disposable) and
// removes the work dir if the harness created it.
func (f *Fleet) Close() {
	for i := range f.Nodes {
		f.Kill(i)
	}
	if f.ownDir {
		os.RemoveAll(f.workDir)
	}
}

// jobStatus mirrors the daemon's job-state JSON; the harness speaks the
// wire format rather than importing the service types, so it would catch
// an accidental API break.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

var client = &http.Client{Timeout: 30 * time.Second}

// submit posts doc to base and returns the admitted job, or the HTTP
// status on rejection.
func submit(base string, doc Doc) (jobStatus, int, error) {
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(doc.Body))
	if err != nil {
		return jobStatus{}, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobStatus{}, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return jobStatus{}, resp.StatusCode, fmt.Errorf("submit %s: status %d: %s", doc.Name, resp.StatusCode, body)
	}
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return jobStatus{}, resp.StatusCode, err
	}
	return st, resp.StatusCode, nil
}

// pollDone polls base for id until the job is terminal.
func pollDone(ctx context.Context, base, id string) (jobStatus, error) {
	for {
		resp, err := client.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return jobStatus{}, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return jobStatus{}, err
		}
		if resp.StatusCode != http.StatusOK {
			return jobStatus{}, fmt.Errorf("poll %s: status %d: %s", id, resp.StatusCode, body)
		}
		var st jobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return jobStatus{}, err
		}
		switch st.State {
		case "done", "failed", "cancelled":
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(15 * time.Millisecond):
		}
	}
}

// jobNode returns the base URL of the alive node that runs job id, as
// named by the ID's node suffix ("" when that node is dead).
func jobNode(f *Fleet, id string) string {
	for _, u := range f.AliveURLs() {
		if strings.TrimPrefix(u, "http://") == service.NodeOf(id) {
			return u
		}
	}
	return ""
}

// fetchResult returns the raw served synthesis document for a done job.
func fetchResult(base, id string) ([]byte, error) {
	resp, err := client.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result %s: status %d: %s", id, resp.StatusCode, body)
	}
	return body, nil
}

// cancel requests cancellation of id via base; errors are the caller's to
// interpret (a cancel racing completion is fine).
func cancel(base, id string) error {
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil
}

// ScrapeCounters fetches base's /metrics and returns the obs counters and
// gauges by slash-path name.
func ScrapeCounters(base string) (counters, gauges map[string]int64, err error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	counters = map[string]int64{}
	gauges = map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		var into map[string]int64
		var rest string
		switch {
		case strings.HasPrefix(line, `asyncsynth_counter_total{name="`):
			into, rest = counters, line[len(`asyncsynth_counter_total{name="`):]
		case strings.HasPrefix(line, `asyncsynth_gauge{name="`):
			into, rest = gauges, line[len(`asyncsynth_gauge{name="`):]
		default:
			continue
		}
		end := strings.Index(rest, `"`)
		if end < 0 {
			continue
		}
		name := rest[:end]
		v, perr := strconv.ParseInt(strings.TrimSpace(rest[end+2:]), 10, 64)
		if perr != nil {
			continue
		}
		into[name] = v
	}
	return counters, gauges, sc.Err()
}

// RunOptions shapes one load run.
type RunOptions struct {
	// Jobs is the total number of submissions (default 2x the corpus).
	Jobs int
	// Clients is the number of concurrent submitters (default 4).
	Clients int
	// CancelEvery, when positive, turns every CancelEvery-th job into a
	// cancellation-storm probe: submitted, then immediately cancelled.
	CancelEvery int
	// KillAfter, when positive, SIGKILLs node KillNode once that many jobs
	// have completed — the mid-run crash.
	KillAfter int
	KillNode  int
	// JobTimeout bounds one job end to end (default 2 minutes).
	JobTimeout time.Duration
	// CrossVerify adds a final phase that re-runs each document on a node
	// that does NOT own it (the forward header pins execution locally):
	// the non-owner's cache must fill over the remote tier from whichever
	// peer solved the document, and the re-served bytes must still match
	// the direct run. This is what makes cross-node cache hits
	// observable: whole stage payloads (blob/remote/hits) when the peer
	// holds the controller's synthesis, hfmin records (memo/remote/hits)
	// when the re-run recomputes a stage.
	CrossVerify bool
}

// Report is the outcome of one load run; scripts/loadgen emits it as
// JSON.
type Report struct {
	Jobs         int `json:"jobs"`
	Done         int `json:"done"`
	Cancelled    int `json:"cancelled"`
	Mismatches   int `json:"mismatches"`
	Errors       int `json:"errors"`
	Backpressure int `json:"backpressure_429"`
	Resubmits    int `json:"resubmits"`

	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`

	MaxQueueDepth  int64 `json:"max_queue_depth"`
	RemoteHits     int64 `json:"remote_hits"`      // hfmin records (memo/remote/hits)
	BlobRemoteHits int64 `json:"blob_remote_hits"` // stage payloads (blob/remote/hits)
	RemoteCorrupt  int64 `json:"remote_corrupt"`
	Forwarded      int64 `json:"forwarded"`
	Fallbacks      int64 `json:"forward_fallbacks"`

	CrossVerified int `json:"cross_verified"`

	ElapsedMs float64  `json:"elapsed_ms"`
	ErrorLog  []string `json:"error_log,omitempty"`
}

// ownerOf returns the fleet node that owns doc under the current alive
// view — the same ring computation the nodes themselves route by.
func ownerOf(f *Fleet, doc Doc) (string, error) {
	g, err := codec.DecodeGraph(doc.Body)
	if err != nil {
		return "", err
	}
	key, _, err := service.ContentKey(g, core.DefaultOptions().Level, service.ModeSynth)
	if err != nil {
		return "", err
	}
	var urls []string
	for _, n := range f.Nodes {
		urls = append(urls, n.URL)
	}
	alive := map[string]bool{}
	for _, u := range f.AliveURLs() {
		alive[u] = true
	}
	return fleet.NewRing(urls, 0).OwnerAlive(key, func(n string) bool { return alive[n] }), nil
}

// submitForced posts doc with the fleet forward header set, pinning
// execution to base rather than the ring owner.
func submitForced(base string, doc Doc) (jobStatus, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(doc.Body))
	if err != nil {
		return jobStatus{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.ForwardHeader, "loadtest-cross-verify")
	resp, err := client.Do(req)
	if err != nil {
		return jobStatus{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobStatus{}, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return jobStatus{}, fmt.Errorf("forced submit %s via %s: status %d: %s", doc.Name, base, resp.StatusCode, body)
	}
	var st jobStatus
	err = json.Unmarshal(body, &st)
	return st, err
}

// Run drives the fleet with docs under opt and verifies every served
// document against its reference bytes. Jobs stranded on a killed node
// are resubmitted once to a survivor; only genuine failures (a job that
// cannot be completed anywhere, or a served document that differs from
// the direct run) count against the report.
func Run(f *Fleet, docs []Doc, opt RunOptions) *Report {
	if opt.Jobs <= 0 {
		opt.Jobs = 2 * len(docs)
	}
	if opt.Clients <= 0 {
		opt.Clients = 4
	}
	if opt.JobTimeout <= 0 {
		opt.JobTimeout = 2 * time.Minute
	}
	rep := &Report{Jobs: opt.Jobs}
	var mu sync.Mutex
	var latencies []time.Duration
	completed := 0
	var killOnce sync.Once

	// Queue-depth sampler: the overload signal is the highwater of the
	// service/jobs_queued gauge across the fleet during the run.
	stopSample := make(chan struct{})
	var sampleWG sync.WaitGroup
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		for {
			select {
			case <-stopSample:
				return
			case <-time.After(50 * time.Millisecond):
			}
			for _, u := range f.AliveURLs() {
				if _, gauges, err := ScrapeCounters(u); err == nil {
					if d := gauges["service/jobs_queued"]; d > rep.MaxQueueDepth {
						mu.Lock()
						if d > rep.MaxQueueDepth {
							rep.MaxQueueDepth = d
						}
						mu.Unlock()
					}
				}
			}
		}
	}()

	fail := func(format string, args ...interface{}) {
		mu.Lock()
		rep.Errors++
		if len(rep.ErrorLog) < 32 {
			rep.ErrorLog = append(rep.ErrorLog, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}

	// follow polls job id to a terminal state through base. Should base
	// die, it follows the job on its own node: a job is stranded, and
	// worth resubmitting, only when that node is gone too. (Every
	// submission is a job of its own, so a resubmission would not
	// reattach to the running job; it would run the document again.)
	follow := func(ctx context.Context, base, id string) (jobStatus, string, error) {
		st, err := pollDone(ctx, base, id)
		if err != nil && ctx.Err() == nil {
			if node := jobNode(f, id); node != "" && node != base {
				base = node
				st, err = pollDone(ctx, base, id)
			}
		}
		return st, base, err
	}

	// runOne pushes one job through the fleet, resubmitting elsewhere if
	// the node running it dies underneath it.
	runOne := func(i int) {
		doc := docs[i%len(docs)]
		storm := opt.CancelEvery > 0 && i%opt.CancelEvery == opt.CancelEvery-1
		ctx, cancelCtx := context.WithTimeout(context.Background(), opt.JobTimeout)
		defer cancelCtx()
		start := time.Now()
		// tries rotates the submissions over the alive nodes; attempts
		// counts those not refused as backpressure. The attempt budget is
		// for dead nodes: the job's timeout already bounds a queue that
		// stays full.
		tries, attempts := 0, 0
		for {
			alive := f.AliveURLs()
			if len(alive) == 0 {
				fail("job %d (%s): no nodes left alive", i, doc.Name)
				return
			}
			if attempts >= 2*len(f.Nodes)+4 {
				fail("job %d (%s): exhausted submit attempts", i, doc.Name)
				return
			}
			base := alive[(i+tries)%len(alive)]
			tries++
			st, status, err := submit(base, doc)
			if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
				mu.Lock()
				rep.Backpressure++
				mu.Unlock()
				select {
				case <-ctx.Done():
					fail("job %d (%s): timed out in backpressure", i, doc.Name)
					return
				case <-time.After(100 * time.Millisecond):
				}
				continue
			}
			attempts++
			if err != nil {
				// Transport failure (e.g. the node was just killed): try the
				// next node.
				mu.Lock()
				rep.Resubmits++
				mu.Unlock()
				continue
			}
			if storm {
				cancel(base, st.ID)
				if _, _, err := follow(ctx, base, st.ID); err != nil {
					mu.Lock()
					rep.Resubmits++
					mu.Unlock()
					continue
				}
				mu.Lock()
				rep.Cancelled++
				mu.Unlock()
				return
			}
			final, base, err := follow(ctx, base, st.ID)
			if err != nil {
				mu.Lock()
				rep.Resubmits++
				mu.Unlock()
				continue // node died mid-job; resubmit elsewhere
			}
			if final.State != "done" {
				fail("job %d (%s): state %s: %s", i, doc.Name, final.State, final.Error)
				return
			}
			served, err := fetchResult(base, st.ID)
			if err != nil {
				mu.Lock()
				rep.Resubmits++
				mu.Unlock()
				continue
			}
			mu.Lock()
			if !bytes.Equal(served, doc.Want) {
				rep.Mismatches++
				if len(rep.ErrorLog) < 32 {
					rep.ErrorLog = append(rep.ErrorLog, fmt.Sprintf("job %d (%s): served document differs from direct run", i, doc.Name))
				}
			}
			rep.Done++
			latencies = append(latencies, time.Since(start))
			completed++
			reached := completed
			mu.Unlock()
			if opt.KillAfter > 0 && reached >= opt.KillAfter {
				killOnce.Do(func() { f.Kill(opt.KillNode) })
			}
			return
		}
	}

	startAll := time.Now()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < opt.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				runOne(i)
			}
		}()
	}
	for i := 0; i < opt.Jobs; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	// Cross-verify phase: force a local re-run of each document on a node
	// that does not own it, so every served-from-remote-fill document is
	// re-checked against the reference bytes.
	if opt.CrossVerify {
		for _, doc := range docs {
			owner, err := ownerOf(f, doc)
			if err != nil {
				fail("cross-verify %s: %v", doc.Name, err)
				continue
			}
			verifier := ""
			for _, u := range f.AliveURLs() {
				if u != owner {
					verifier = u
					break
				}
			}
			if verifier == "" {
				continue // one-node fleet remnant: nothing to cross-check
			}
			st, err := submitForced(verifier, doc)
			if err != nil {
				fail("cross-verify %s: %v", doc.Name, err)
				continue
			}
			ctx, cancelCtx := context.WithTimeout(context.Background(), opt.JobTimeout)
			final, err := pollDone(ctx, verifier, st.ID)
			cancelCtx()
			if err != nil || final.State != "done" {
				fail("cross-verify %s: state %s err %v", doc.Name, final.State, err)
				continue
			}
			served, err := fetchResult(verifier, st.ID)
			if err != nil {
				fail("cross-verify %s: %v", doc.Name, err)
				continue
			}
			mu.Lock()
			if !bytes.Equal(served, doc.Want) {
				rep.Mismatches++
				if len(rep.ErrorLog) < 32 {
					rep.ErrorLog = append(rep.ErrorLog, fmt.Sprintf("cross-verify %s: served document differs from direct run", doc.Name))
				}
			}
			rep.CrossVerified++
			mu.Unlock()
		}
	}

	close(stopSample)
	sampleWG.Wait()
	rep.ElapsedMs = float64(time.Since(startAll).Microseconds()) / 1000

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.P50Ms = percentileMs(latencies, 0.50)
	rep.P95Ms = percentileMs(latencies, 0.95)
	rep.P99Ms = percentileMs(latencies, 0.99)

	// Fold the surviving nodes' counters into the report.
	for _, u := range f.AliveURLs() {
		counters, _, err := ScrapeCounters(u)
		if err != nil {
			continue
		}
		rep.RemoteHits += counters["memo/remote/hits"]
		rep.BlobRemoteHits += counters["blob/remote/hits"]
		rep.RemoteCorrupt += counters["memo/remote/corrupt"]
		rep.Forwarded += counters["fleet/forwarded"]
		rep.Fallbacks += counters["fleet/forward_fallbacks"]
	}
	return rep
}

// percentileMs returns the q-quantile of sorted latencies in
// milliseconds (nearest-rank).
func percentileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx].Microseconds()) / 1000
}
