package service

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/diffeq"
	"repro/internal/fleet"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/stage"
)

// TestDedupConcurrentSubmissions: N identical concurrent submissions are N
// jobs with N distinct IDs, and the store's singleflight — not the
// manager — makes them one computation: every job's document is
// byte-identical to a direct run, and the shared engine misses exactly
// as often as one cold run.
func TestDedupConcurrentSubmissions(t *testing.T) {
	reg := obs.NewMetrics()
	obs.SetMetrics(reg)
	defer obs.SetMetrics(nil)

	// The gate holds every job in the pipeline until all N are admitted,
	// so the two runners' jobs overlap on the same stage keys.
	min := &gateMin{gate: make(chan struct{})}
	eng := stage.New(nil)
	m := New(Config{Concurrency: 2, Parallelism: 2, Minimizer: min, Engine: eng})
	defer m.Close()

	const n = 8
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, err := m.Submit(diffeq.Build(diffeq.DefaultParams()), core.OptimizedGTLT)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = job
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	ids := map[string]bool{}
	for _, job := range jobs {
		if ids[job.ID()] {
			t.Fatalf("job ID %s issued to two submissions", job.ID())
		}
		ids[job.ID()] = true
	}
	if got := reg.Counter("service/jobs_submitted"); got != n {
		t.Fatalf("jobs_submitted = %d, want %d", got, n)
	}

	close(min.gate)
	want := directDiffeq(t)
	for _, job := range jobs {
		<-job.Done()
		if job.State() != StateDone {
			t.Fatalf("job %s ended %v (%v), want done", job.ID(), job.State(), job.Err())
		}
		if !bytes.Equal(job.Result(), want) {
			t.Fatalf("job %s's document differs from the direct run", job.ID())
		}
	}
	if got := reg.Counter("service/jobs_completed"); got != n {
		t.Fatalf("jobs_completed = %d, want %d", got, n)
	}
	cold := stage.New(nil)
	if _, _, err := cold.Run(context.Background(), diffeq.Build(diffeq.DefaultParams()), core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if got, want := eng.Stats().Misses(), cold.Stats().Misses(); got != want {
		t.Fatalf("engine misses = %d across %d identical jobs, want %d (one cold run)", got, n, want)
	}

	// Different level or mode means a different content key.
	k1, _, err := ContentKey(diffeq.Build(diffeq.DefaultParams()), core.OptimizedGTLT, ModeSynth)
	if err != nil {
		t.Fatal(err)
	}
	k2, _, _ := ContentKey(diffeq.Build(diffeq.DefaultParams()), core.OptimizedGT, ModeSynth)
	k3, _, _ := ContentKey(diffeq.Build(diffeq.DefaultParams()), core.OptimizedGTLT, ModeSearch)
	if k1 == k2 || k1 == k3 {
		t.Fatal("content key ignores level or mode")
	}
	if k1b, _, _ := ContentKey(diffeq.Build(diffeq.DefaultParams()), core.OptimizedGTLT, ModeSynth); k1b != k1 {
		t.Fatal("content key is not deterministic")
	}
}

// TestEventsEndpoint drives GET /v1/jobs/{id}/events in both transports:
// long-poll batches carry the queued→running→done lifecycle (plus span
// events while a tracer is enabled), and the SSE replay of a finished job
// terminates with the full stream.
func TestEventsEndpoint(t *testing.T) {
	tracer := obs.New(0)
	tracer.Enable()
	obs.SetTracer(tracer)
	defer obs.SetTracer(nil)

	m := New(Config{Concurrency: 1})
	defer m.Close()
	srv := newTestServer(t, m.Handler())

	doc, err := codec.EncodeGraph(diffeq.Build(diffeq.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv+"/v1/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	decodeBody(t, resp, http.StatusAccepted, &st)

	var events []Event
	since := uint64(0)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("event stream never completed (have %d events)", len(events))
		}
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?poll=1&since=%d&wait=2s", srv, st.ID, since))
		if err != nil {
			t.Fatal(err)
		}
		var batch eventBatch
		decodeBody(t, resp, http.StatusOK, &batch)
		events = append(events, batch.Events...)
		since = batch.Next
		if batch.Done {
			break
		}
	}
	var states []string
	spans := 0
	for _, e := range events {
		switch e.Type {
		case "state":
			states = append(states, e.State)
		case "span":
			if e.Span == nil {
				t.Fatal("span event without a span payload")
			}
			spans++
		}
	}
	if len(states) == 0 || states[0] != "queued" || states[len(states)-1] != "done" {
		t.Fatalf("lifecycle events = %v, want queued ... done", states)
	}
	if !containsString(states, "running") {
		t.Fatalf("lifecycle events = %v, missing running", states)
	}
	if spans == 0 {
		t.Fatal("no span events streamed with an enabled tracer")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("event seqs not strictly increasing: %d then %d", events[i-1].Seq, events[i].Seq)
		}
	}

	// SSE replay of the finished job: a finite body carrying every event.
	resp, err = http.Get(srv + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	body := readAll(t, resp)
	if !strings.Contains(body, "event: state") || !strings.Contains(body, `"state":"done"`) {
		t.Fatalf("SSE replay missing lifecycle events:\n%s", body)
	}
	if !strings.Contains(body, "event: span") {
		t.Fatal("SSE replay missing span events")
	}

	// Error surface: unknown job 404, malformed cursor 400.
	resp, err = http.Get(srv + "/v1/jobs/job-999999/events?poll=1")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events: %d", resp.StatusCode)
	}
	resp, err = http.Get(srv + "/v1/jobs/" + st.ID + "/events?since=bogus")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed since: %d", resp.StatusCode)
	}
}

// fleetNode is one in-process asyncsynthd node for fleet tests.
type fleetNode struct {
	url   string
	host  string
	m     *Manager
	cache *memo.Cache
	peers *fleet.Peers
	srv   *http.Server
}

// startFleet boots n coordinated nodes on real loopback listeners, each
// with its own memo cache over a store wired to pull from the others.
// Unlike asyncsynthd, which hands that store to its stage engine too,
// each node's engine keeps a private store: a forced local re-run then
// poses its hfmin lookups instead of filling whole stage payloads, so
// TestFleetThreeNodes observes hfmin-record remote fills deterministically.
func startFleet(t *testing.T, n int) []*fleetNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*fleetNode, n)
	for i := range nodes {
		var others []string
		for j, u := range urls {
			if j != i {
				others = append(others, u)
			}
		}
		store, err := memo.NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		peers := fleet.NewPeers(others, fleet.PeerOptions{})
		store.SetRemote(fleet.NewCacheClient(others, peers, fleet.CacheClientOptions{}), time.Second)
		cache := memo.OnStore(store)
		m := New(Config{
			Concurrency: 2,
			Parallelism: 2,
			NodeID:      listeners[i].Addr().String(),
			Minimizer:   cache,
		})
		handler := m.FleetHandler(FleetConfig{
			Self:  urls[i],
			Nodes: urls,
			Peers: peers,
			Store: store,
			Retry: fleet.Backoff{Attempts: 2, Base: 10 * time.Millisecond},
		})
		srv := &http.Server{Handler: handler}
		go srv.Serve(listeners[i])
		node := &fleetNode{url: urls[i], host: listeners[i].Addr().String(), m: m, cache: cache, peers: peers, srv: srv}
		nodes[i] = node
		t.Cleanup(func() {
			node.srv.Close()
			node.m.Close()
			node.peers.Close()
		})
	}
	return nodes
}

// pollDone polls a job through base until it is terminal.
func pollDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		decodeBody(t, resp, http.StatusOK, &st)
		switch st.State {
		case "done", "failed", "cancelled":
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetThreeNodes exercises the full fleet surface in-process: ring
// forwarding, cross-node job polling, bit-identical results from every
// node, cross-node remote cache fills, and degrade-to-local when the
// owner dies.
func TestFleetThreeNodes(t *testing.T) {
	reg := obs.NewMetrics()
	obs.SetMetrics(reg)
	defer obs.SetMetrics(nil)

	nodes := startFleet(t, 3)
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	byURL := map[string]*fleetNode{}
	for _, n := range nodes {
		byURL[n.url] = n
	}

	graph := diffeq.Build(diffeq.DefaultParams())
	doc, err := codec.EncodeGraph(graph)
	if err != nil {
		t.Fatal(err)
	}
	key, _, err := ContentKey(graph, core.OptimizedGTLT, ModeSynth)
	if err != nil {
		t.Fatal(err)
	}
	owner := byURL[fleet.NewRing(urls, 0).Owner(key)]
	var poster, third *fleetNode
	for _, n := range nodes {
		if n == owner {
			continue
		}
		if poster == nil {
			poster = n
		} else {
			third = n
		}
	}

	// Submit via a non-owner: the request forwards to the ring owner and
	// the job ID carries the owner's node suffix.
	resp, err := http.Post(poster.url+"/v1/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	decodeBody(t, resp, http.StatusAccepted, &st)
	if got := NodeOf(st.ID); got != owner.host {
		t.Fatalf("job landed on %q, want ring owner %q", got, owner.host)
	}
	if reg.Counter("fleet/forwarded") == 0 {
		t.Fatal("submission was not counted as forwarded")
	}

	// Poll through the third node: the @suffix routes the request across
	// the fleet.
	final := pollDone(t, third.url, st.ID)
	if final.State != "done" {
		t.Fatalf("job state %s (error %s), want done", final.State, final.Error)
	}
	if reg.Counter("fleet/proxied") == 0 {
		t.Fatal("cross-node poll was not proxied")
	}

	// Every node serves the identical result document, and it matches a
	// direct single-process pipeline run bit for bit.
	direct, err := core.Run(diffeq.Build(diffeq.DefaultParams()), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	results, err := direct.SynthesizeLogic()
	if err != nil {
		t.Fatal(err)
	}
	want, err := codec.EncodeSynthesis(direct, results)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		resp, err := http.Get(n.url + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		if body := readAll(t, resp); resp.StatusCode != http.StatusOK || body != string(want) {
			t.Fatalf("result via %s differs from direct run (status %d)", n.url, resp.StatusCode)
		}
	}

	// Force a local re-run on a non-owner (the forward header pins
	// execution): its memo cache misses locally and fills from the owner
	// over the remote tier — cross-node cache hits, identical bytes.
	req, err := http.NewRequest(http.MethodPost, poster.url+"/v1/jobs", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, "test")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var local JobStatus
	decodeBody(t, resp, http.StatusAccepted, &local)
	if got := NodeOf(local.ID); got != poster.host {
		t.Fatalf("forced-local job landed on %q, want %q", got, poster.host)
	}
	if st := pollDone(t, poster.url, local.ID); st.State != "done" {
		t.Fatalf("forced-local job state %s (error %s)", st.State, st.Error)
	}
	if hits := poster.cache.Stats().RemoteHits; hits == 0 {
		t.Fatal("forced-local run produced no cross-node remote cache hits")
	}
	resp, err = http.Get(poster.url + "/v1/jobs/" + local.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); body != string(want) {
		t.Fatal("remote-cache-filled result differs from direct run")
	}

	// Kill the owner. A fresh submission still completes: the forward
	// fails, the poster marks the owner down and degrades to local
	// execution.
	owner.srv.Close()
	resp, err = http.Post(third.url+"/v1/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var degraded JobStatus
	decodeBody(t, resp, http.StatusAccepted, &degraded)
	if got := NodeOf(degraded.ID); got != third.host {
		t.Fatalf("degraded job landed on %q, want local node %q", got, third.host)
	}
	if reg.Counter("fleet/forward_fallbacks") == 0 {
		t.Fatal("dead-owner submission was not counted as a fallback")
	}
	if poster.peers.Healthy(owner.url) && third.peers.Healthy(owner.url) {
		t.Fatal("no node marked the dead owner down")
	}
	if st := pollDone(t, third.url, degraded.ID); st.State != "done" {
		t.Fatalf("degraded job state %s (error %s)", st.State, st.Error)
	}
	resp, err = http.Get(third.url + "/v1/jobs/" + degraded.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); body != string(want) {
		t.Fatal("degraded-to-local result differs from direct run")
	}
}

// TestNodeOfAndCacheEndpoint pins the small fleet plumbing: ID suffix
// parsing and the cache export endpoint's error surface.
func TestNodeOfAndCacheEndpoint(t *testing.T) {
	if got := NodeOf("job-000001@127.0.0.1:8337"); got != "127.0.0.1:8337" {
		t.Fatalf("NodeOf = %q", got)
	}
	if got := NodeOf("job-000001"); got != "" {
		t.Fatalf("NodeOf without suffix = %q", got)
	}

	store, err := memo.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Concurrency: 1, Minimizer: memo.OnStore(store)})
	defer m.Close()
	srv := newTestServer(t, m.FleetHandler(FleetConfig{Self: "http://127.0.0.1:1", Store: store}))
	resp, err := http.Get(srv + "/v1/cache/nothex")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus cache key: %d, want 404", resp.StatusCode)
	}
	// The single-node fleet handler still serves the plain API.
	resp, err = http.Get(srv + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz through fleet handler: %d %q", resp.StatusCode, body)
	}
}

// newTestServer serves handler on a loopback listener and returns its base
// URL; shutdown is tied to test cleanup.
func newTestServer(t *testing.T, handler http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String()
}

func containsString(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
