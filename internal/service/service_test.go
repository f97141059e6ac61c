package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdfg"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/diffeq"
	"repro/internal/fir"
	"repro/internal/gcd"
	"repro/internal/hfmin"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/stage"
)

// gateMin is a MinimizerCtx that parks every minimization until the gate
// channel is closed (or the caller's context ends), letting tests hold
// jobs mid-pipeline deterministically. parked counts the minimizations
// waiting at the gate; entered, when non-nil, is closed as the first one
// arrives, so a test can wait for a job to be running without polling.
type gateMin struct {
	gate    chan struct{}
	parked  atomic.Int64
	entered chan struct{}
	once    sync.Once
}

func (g *gateMin) Minimize(spec hfmin.Spec) (hfmin.Result, error) {
	return g.MinimizeCtx(context.Background(), spec)
}

func (g *gateMin) MinimizeCtx(ctx context.Context, spec hfmin.Spec) (hfmin.Result, error) {
	g.parked.Add(1)
	defer g.parked.Add(-1)
	if g.entered != nil {
		g.once.Do(func() { close(g.entered) })
	}
	select {
	case <-g.gate:
		return hfmin.MinimizeCtx(ctx, spec)
	case <-ctx.Done():
		return hfmin.Result{}, ctx.Err()
	}
}

// mustSubmit admits one synthesis job or fails the test.
func mustSubmit(t *testing.T, m *Manager, g *cdfg.Graph, level core.Level) *Job {
	t.Helper()
	job, err := m.Submit(g, level)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// directDiffeq is the synthesis document of a direct (unserved) DIFFEQ
// run at the default options: what every served DIFFEQ job must return.
func directDiffeq(t *testing.T) []byte {
	t.Helper()
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
	return want
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, job *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for job.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %v, want %v", job.ID(), job.State(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSubmitToCompletion(t *testing.T) {
	m := New(Config{Concurrency: 2, Parallelism: 4})
	defer m.Close()
	job, err := m.Submit(diffeq.Build(diffeq.DefaultParams()), core.OptimizedGTLT)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not finish")
	}
	if job.State() != StateDone {
		t.Fatalf("state %v (err %v), want done", job.State(), job.Err())
	}
	doc, err := codec.DecodeSynthesis(job.Result())
	if err != nil {
		t.Fatalf("result does not decode: %v", err)
	}
	if doc.Name != "diffeq" || len(doc.Controllers) != len(diffeq.FUs) {
		t.Fatalf("unexpected result: name=%q controllers=%d", doc.Name, len(doc.Controllers))
	}
}

// TestSearchModeToCompletion submits a ModeSearch job and checks the result
// is a well-formed synthesis document of the search winner. The seeds-only
// profile (SearchWaves < 0) keeps the job to one ablation sweep.
func TestSearchModeToCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("search-mode job runs gate-level synthesis per candidate")
	}
	m := New(Config{Concurrency: 1, Parallelism: 4, SearchWaves: -1, SearchBudget: 8})
	defer m.Close()
	job, err := m.SubmitMode(diffeq.Build(diffeq.DefaultParams()), core.OptimizedGTLT, ModeSearch)
	if err != nil {
		t.Fatal(err)
	}
	if job.Mode() != ModeSearch {
		t.Fatalf("job mode %q, want search", job.Mode())
	}
	select {
	case <-job.Done():
	case <-time.After(5 * time.Minute):
		t.Fatal("search job did not finish")
	}
	if job.State() != StateDone {
		t.Fatalf("state %v (err %v), want done", job.State(), job.Err())
	}
	doc, err := codec.DecodeSynthesis(job.Result())
	if err != nil {
		t.Fatalf("result does not decode: %v", err)
	}
	if doc.Name != "diffeq" || len(doc.Controllers) == 0 {
		t.Fatalf("unexpected result: name=%q controllers=%d", doc.Name, len(doc.Controllers))
	}
}

// TestSubmitModeValidation pins the mode domain: the empty string and the
// two named modes parse, anything else is rejected before admission.
func TestSubmitModeValidation(t *testing.T) {
	for _, s := range []string{"", "synth", "search"} {
		if _, ok := ParseMode(s); !ok {
			t.Errorf("ParseMode(%q) rejected", s)
		}
	}
	if _, ok := ParseMode("bogus"); ok {
		t.Error("ParseMode accepted an unknown mode")
	}
	m := New(Config{Concurrency: 1})
	defer m.Close()
	if _, err := m.SubmitMode(diffeq.Build(diffeq.DefaultParams()), core.OptimizedGTLT, Mode("bogus")); err == nil {
		t.Error("SubmitMode accepted an unknown mode")
	}
}

func TestBackpressureRejectsBeyondQueueDepth(t *testing.T) {
	min := &gateMin{gate: make(chan struct{})}
	m := New(Config{Concurrency: 1, QueueDepth: 1, Minimizer: min})
	defer m.Close()
	running, err := m.Submit(diffeq.Build(diffeq.DefaultParams()), core.OptimizedGTLT)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	if _, err := m.Submit(diffeq.Build(diffeq.DefaultParams()), core.OptimizedGTLT); err != nil {
		t.Fatalf("queue-depth submission rejected: %v", err)
	}
	if _, err := m.Submit(diffeq.Build(diffeq.DefaultParams()), core.OptimizedGTLT); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	if got := obs.Gather(); got != nil {
		t.Log("metrics registry unexpectedly installed") // tolerated; counters still work
	}
	close(min.gate)
}

// TestCancelFreesWorkersWithoutFailingOthers is the acceptance scenario:
// of three concurrent jobs, cancelling one releases its pool workers
// (observed via the par/inflight and service/jobs_running gauges) while
// the other two run to completion.
func TestCancelFreesWorkersWithoutFailingOthers(t *testing.T) {
	reg := obs.NewMetrics()
	obs.SetMetrics(reg)
	defer obs.SetMetrics(nil)

	min := &gateMin{gate: make(chan struct{})}
	m := New(Config{Concurrency: 3, Parallelism: 3, Minimizer: min})
	defer m.Close()

	// Three designs share no stage key, so no job waits on another's
	// stage: each runs its own minimizations, and the victim's own
	// minimizer must observe the cancellation.
	var jobs []*Job
	for _, g := range []*cdfg.Graph{diffeq.Build(diffeq.DefaultParams()), gcd.Build(123, 45), fir.Build(fir.DefaultParams())} {
		job, err := m.Submit(g, core.OptimizedGTLT)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		waitState(t, job, StateRunning)
	}
	// All three are parked inside the gated minimizer on pool workers,
	// one minimization each (a job's one-worker share runs its
	// controllers in turn).
	deadline := time.Now().Add(30 * time.Second)
	for min.parked.Load() < 3 || reg.Gauge("par/inflight") == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d minimizations parked, par/inflight %d; want every job parked on a pool worker",
				min.parked.Load(), reg.Gauge("par/inflight"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := reg.Gauge("service/jobs_running"); got != 3 {
		t.Fatalf("jobs_running gauge = %d, want 3", got)
	}

	victim := jobs[1]
	if _, err := m.Cancel(victim.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, victim, StateCancelled)
	if !errors.Is(victim.Err(), context.Canceled) {
		t.Fatalf("victim err = %v, want context.Canceled", victim.Err())
	}
	// The victim's runner slot and pool workers must drain back.
	for reg.Gauge("service/jobs_running") != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("jobs_running gauge stuck at %d after cancel", reg.Gauge("service/jobs_running"))
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The survivors complete once the gate opens.
	close(min.gate)
	for _, job := range []*Job{jobs[0], jobs[2]} {
		waitState(t, job, StateDone)
	}
	for reg.Gauge("par/inflight") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("par/inflight gauge stuck at %d", reg.Gauge("par/inflight"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if reg.Gauge("service/jobs_running") != 0 {
		t.Fatalf("jobs_running gauge = %d at idle", reg.Gauge("service/jobs_running"))
	}
}

// TestDedupCancelKeepsOtherSubmission: two identical submissions are two
// jobs with two IDs. Cancelling the first while it computes a stage key
// the second waits on must not end the second: the store vacates the
// key, the second recomputes it, and its document is byte-identical to a
// direct run.
func TestDedupCancelKeepsOtherSubmission(t *testing.T) {
	min := &gateMin{gate: make(chan struct{}), entered: make(chan struct{})}
	store, err := memo.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Concurrency: 2, Parallelism: 2, Minimizer: min, Engine: stage.New(store)})
	defer m.Close()
	a := mustSubmit(t, m, diffeq.Build(diffeq.DefaultParams()), core.OptimizedGTLT)
	// a is running, parked in its first minimization: inside the compute
	// of its first controller's synthesis stage.
	<-min.entered
	b := mustSubmit(t, m, diffeq.Build(diffeq.DefaultParams()), core.OptimizedGTLT)
	if a.ID() == b.ID() {
		t.Fatalf("two submissions share job ID %s", a.ID())
	}
	// b replays a's finished stages and then blocks on that synthesis
	// stage, the first key a has not finished. Wait for the block, not
	// for time to pass.
	deadline := time.Now().Add(30 * time.Second)
	for store.Stats().DedupWaits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the second job never waited on the first job's stage")
		}
		runtime.Gosched()
	}
	if _, err := m.Cancel(a.ID()); err != nil {
		t.Fatal(err)
	}
	<-a.Done()
	if a.State() != StateCancelled {
		t.Fatalf("cancelled job ended %v (%v), want cancelled", a.State(), a.Err())
	}
	if b.State().Terminal() {
		t.Fatalf("cancelling %s ended %s too: %v (%v)", a.ID(), b.ID(), b.State(), b.Err())
	}
	close(min.gate)
	<-b.Done()
	if b.State() != StateDone {
		t.Fatalf("surviving job ended %v (%v), want done", b.State(), b.Err())
	}
	if !bytes.Equal(b.Result(), directDiffeq(t)) {
		t.Fatal("surviving job's document differs from the direct run")
	}
}

// TestJobLifecycle pins the job state machine of DESIGN.md §11 without
// sleeps. Each row drives one job on its own manager to a terminal state
// and checks the state, the error and that exactly its outcome counter
// moved, by one; then Cancel of that terminal job must be a no-op that
// moves no counter.
func TestJobLifecycle(t *testing.T) {
	reg := obs.NewMetrics()
	obs.SetMetrics(reg)
	defer obs.SetMetrics(nil)
	outcomes := []string{"service/jobs_completed", "service/jobs_failed", "service/jobs_cancelled"}
	counts := func() map[string]int64 {
		c := map[string]int64{}
		for _, name := range outcomes {
			c[name] = reg.Counter(name)
		}
		return c
	}
	diffeqGraph := func() *cdfg.Graph { return diffeq.Build(diffeq.DefaultParams()) }

	for _, tc := range []struct {
		name string
		cfg  Config
		// gated keeps the minimizer's gate shut, holding running jobs
		// in their first minimization.
		gated bool
		// run drives one job to a terminal state and returns it.
		run     func(t *testing.T, m *Manager, min *gateMin) *Job
		want    State
		wantErr string
		counter string
	}{
		{
			name: "pipeline success ends done",
			run: func(t *testing.T, m *Manager, _ *gateMin) *Job {
				return mustSubmit(t, m, diffeqGraph(), core.OptimizedGTLT)
			},
			want: StateDone, counter: "service/jobs_completed",
		},
		{
			name: "pipeline error ends failed",
			run: func(t *testing.T, m *Manager, _ *gateMin) *Job {
				return mustSubmit(t, m, gcd.Build(123, 45), core.Unoptimized)
			},
			want: StateFailed, wantErr: "65 variables exceed the 64-variable limit", counter: "service/jobs_failed",
		},
		{
			name: "cancel while queued ends cancelled and frees its slot",
			cfg:  Config{Concurrency: 1, QueueDepth: 1}, gated: true,
			run: func(t *testing.T, m *Manager, min *gateMin) *Job {
				mustSubmit(t, m, diffeqGraph(), core.OptimizedGTLT)
				<-min.entered // the one runner is busy, so the next job waits
				job := mustSubmit(t, m, diffeqGraph(), core.OptimizedGTLT)
				if _, err := m.Submit(diffeqGraph(), core.OptimizedGTLT); !errors.Is(err, ErrQueueFull) {
					t.Fatalf("submit to a full queue: %v, want ErrQueueFull", err)
				}
				if _, err := m.Cancel(job.ID()); err != nil {
					t.Fatal(err)
				}
				if m.Queued() != 0 {
					t.Fatalf("a cancelled job still holds %d queue slot(s)", m.Queued())
				}
				mustSubmit(t, m, diffeqGraph(), core.OptimizedGTLT) // the freed slot admits
				return job
			},
			want: StateCancelled, wantErr: "context canceled", counter: "service/jobs_cancelled",
		},
		{
			name:  "cancel while running ends cancelled",
			gated: true,
			run: func(t *testing.T, m *Manager, min *gateMin) *Job {
				job := mustSubmit(t, m, diffeqGraph(), core.OptimizedGTLT)
				<-min.entered
				if _, err := m.Cancel(job.ID()); err != nil {
					t.Fatal(err)
				}
				return job
			},
			want: StateCancelled, wantErr: "context canceled", counter: "service/jobs_cancelled",
		},
		{
			name: "job timeout ends failed",
			cfg:  Config{JobTimeout: time.Millisecond}, gated: true,
			run: func(t *testing.T, m *Manager, _ *gateMin) *Job {
				return mustSubmit(t, m, diffeqGraph(), core.OptimizedGTLT)
			},
			want: StateFailed, wantErr: "deadline exceeded", counter: "service/jobs_failed",
		},
		{
			name:  "drain past its deadline force-cancels a running job",
			gated: true,
			run: func(t *testing.T, m *Manager, min *gateMin) *Job {
				job := mustSubmit(t, m, diffeqGraph(), core.OptimizedGTLT)
				<-min.entered
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if err := m.Drain(ctx); !errors.Is(err, context.Canceled) {
					t.Fatalf("Drain = %v, want context.Canceled", err)
				}
				return job
			},
			want: StateCancelled, wantErr: "context canceled", counter: "service/jobs_cancelled",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			min := &gateMin{gate: make(chan struct{}), entered: make(chan struct{})}
			if !tc.gated {
				close(min.gate)
			}
			cfg := tc.cfg
			cfg.Minimizer = min
			m := New(cfg)
			defer m.Close()

			before := counts()
			job := tc.run(t, m, min)
			<-job.Done()
			if job.State() != tc.want {
				t.Fatalf("job ended %v (%v), want %v", job.State(), job.Err(), tc.want)
			}
			if tc.wantErr == "" && job.Err() != nil || tc.wantErr != "" && (job.Err() == nil || !strings.Contains(job.Err().Error(), tc.wantErr)) {
				t.Fatalf("job error %v, want %q", job.Err(), tc.wantErr)
			}
			after := counts()
			for _, name := range outcomes {
				want := before[name]
				if name == tc.counter {
					want++
				}
				if after[name] != want {
					t.Errorf("%s moved %d -> %d, want %d", name, before[name], after[name], want)
				}
			}

			// Cancel of a terminal job changes nothing.
			got, err := m.Cancel(job.ID())
			if err != nil || got != job {
				t.Fatalf("Cancel of a %v job = %v, %v", tc.want, got, err)
			}
			if job.State() != tc.want {
				t.Fatalf("Cancel moved a %v job to %v", tc.want, job.State())
			}
			if again := counts(); !reflect.DeepEqual(again, after) {
				t.Fatalf("Cancel of a %v job moved counters: %v -> %v", tc.want, after, again)
			}
		})
	}
}

// TestFinishedJobsEvicted pins the job index's bound without sleeps:
// with room for two finished jobs, the oldest finished job answers 404
// on every per-job endpoint once two later jobs finish, whether it
// finished by a queued cancel or in its runner, while queued and running
// jobs, older than every finished one, stay.
func TestFinishedJobsEvicted(t *testing.T) {
	defer func(n int) { maxFinished = n }(maxFinished)
	maxFinished = 2
	min := &gateMin{gate: make(chan struct{}), entered: make(chan struct{})}
	m := New(Config{Concurrency: 1, QueueDepth: 8, Minimizer: min})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	diffeqGraph := func() *cdfg.Graph { return diffeq.Build(diffeq.DefaultParams()) }

	running := mustSubmit(t, m, diffeqGraph(), core.OptimizedGTLT)
	<-min.entered // the one runner holds it at the gate
	queued := mustSubmit(t, m, diffeqGraph(), core.OptimizedGTLT)
	var cancelled []*Job
	for i := 0; i < 3; i++ {
		job := mustSubmit(t, m, diffeqGraph(), core.OptimizedGTLT)
		if _, err := m.Cancel(job.ID()); err != nil {
			t.Fatal(err)
		}
		cancelled = append(cancelled, job)
	}
	evicted := func(jobs ...*Job) {
		t.Helper()
		for _, job := range jobs {
			if _, err := m.Get(job.ID()); !errors.Is(err, ErrNotFound) {
				t.Errorf("%s: Get = %v, want ErrNotFound", job.ID(), err)
			}
			url := srv.URL + "/v1/jobs/" + job.ID()
			for _, req := range []struct{ method, url string }{
				{"GET", url}, {"GET", url + "/result"}, {"GET", url + "/events"}, {"PATCH", url}, {"DELETE", url},
			} {
				r, err := http.NewRequest(req.method, req.url, strings.NewReader("{}"))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(r)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNotFound {
					t.Errorf("%s %s: status %d, want 404", req.method, req.url, resp.StatusCode)
				}
			}
		}
	}
	kept := func(jobs ...*Job) {
		t.Helper()
		for _, job := range jobs {
			if got, err := m.Get(job.ID()); err != nil || got != job {
				t.Errorf("%s (%v): Get = %v, %v; want the job", job.ID(), job.State(), got, err)
			}
		}
	}
	evicted(cancelled[0])
	kept(running, queued, cancelled[1], cancelled[2])

	// Jobs finishing in their runner push the remaining cancelled ones
	// out.
	close(min.gate)
	<-running.Done()
	<-queued.Done()
	if running.State() != StateDone || queued.State() != StateDone {
		t.Fatalf("states %v, %v; want done", running.State(), queued.State())
	}
	evicted(cancelled...)
	kept(running, queued)
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	min := &gateMin{gate: make(chan struct{})}
	m := New(Config{Concurrency: 1, QueueDepth: 2, Minimizer: min})
	defer m.Close()
	running, err := m.Submit(diffeq.Build(diffeq.DefaultParams()), core.OptimizedGTLT)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	queued, err := m.Submit(diffeq.Build(diffeq.DefaultParams()), core.OptimizedGTLT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	if queued.State() != StateCancelled {
		t.Fatalf("queued job state %v, want cancelled", queued.State())
	}
	close(min.gate)
	waitState(t, running, StateDone)
	// Idempotence: cancelling a terminal job changes nothing.
	if _, err := m.Cancel(running.ID()); err != nil || running.State() != StateDone {
		t.Fatalf("cancel on done job: err=%v state=%v", err, running.State())
	}
}

func TestJobTimeout(t *testing.T) {
	min := &gateMin{gate: make(chan struct{})} // never opened: job hangs until deadline
	m := New(Config{Concurrency: 1, JobTimeout: 50 * time.Millisecond, Minimizer: min})
	defer m.Close()
	job, err := m.Submit(diffeq.Build(diffeq.DefaultParams()), core.OptimizedGTLT)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateFailed)
	if !errors.Is(job.Err(), context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", job.Err())
	}
}

func TestDrainFinishesQueuedWorkAndRejectsNew(t *testing.T) {
	m := New(Config{Concurrency: 1})
	defer m.Close()
	job, err := m.Submit(diffeq.Build(diffeq.DefaultParams()), core.OptimizedGTLT)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if job.State() != StateDone {
		t.Fatalf("drained job state %v, want done", job.State())
	}
	if _, err := m.Submit(diffeq.Build(diffeq.DefaultParams()), core.OptimizedGTLT); !errors.Is(err, ErrDraining) {
		t.Fatalf("got %v, want ErrDraining", err)
	}
}

// TestHTTPEndToEnd drives the full HTTP surface in-process: submit the
// DIFFEQ document, poll to completion, and check the result is
// bit-identical to a direct pipeline run.
func TestHTTPEndToEnd(t *testing.T) {
	reg := obs.NewMetrics()
	obs.SetMetrics(reg)
	defer obs.SetMetrics(nil)

	m := New(Config{Concurrency: 2})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	doc, err := codec.EncodeGraph(diffeq.Build(diffeq.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	decodeBody(t, resp, http.StatusAccepted, &st)
	if st.State != "queued" || st.ID == "" {
		t.Fatalf("submit response: %+v", st)
	}

	deadline := time.Now().Add(30 * time.Second)
	for st.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s (error %q)", st.State, st.Error)
		}
		if st.State == "failed" || st.State == "cancelled" {
			t.Fatalf("job reached %s: %s", st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, resp, http.StatusOK, &st)
	}

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
	// The status embed is re-indented JSON; the /result endpoint serves
	// the codec's exact bytes.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if raw := readAll(t, resp); resp.StatusCode != http.StatusOK || !bytes.Equal([]byte(raw), want) {
		t.Fatalf("served synthesis document differs from direct pipeline run (status %d)", resp.StatusCode)
	}
	var embedded, direct2 codec.SynthesisDoc
	if err := json.Unmarshal(st.Result, &embedded); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &direct2); err != nil {
		t.Fatal(err)
	}
	if len(embedded.Controllers) != len(direct2.Controllers) {
		t.Fatal("embedded result controller count differs")
	}
	for i := range embedded.Controllers {
		if embedded.Controllers[i].Netlist != direct2.Controllers[i].Netlist {
			t.Fatalf("netlist for %s differs between embedded and direct", embedded.Controllers[i].FU)
		}
	}

	// Liveness and metrics endpoints.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, `asyncsynth_counter_total{name="service/jobs_completed"} 1`) {
		t.Fatalf("metrics: %d %q", resp.StatusCode, body)
	}

	// Unknown job and malformed submissions.
	resp, err = http.Get(srv.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed submit: %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/jobs?level=bogus", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad level: %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/jobs?mode=bogus", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "unknown mode") {
		t.Fatalf("bad mode: %d %q", resp.StatusCode, body)
	}
}

func TestHTTPBackpressureAndCancel(t *testing.T) {
	min := &gateMin{gate: make(chan struct{})}
	m := New(Config{Concurrency: 1, QueueDepth: 1, Minimizer: min})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	doc, err := codec.EncodeGraph(diffeq.Build(diffeq.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	post := func() (*http.Response, JobStatus) {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		if resp.StatusCode == http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		return resp, st
	}
	_, first := post()
	running, err := m.Get(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	post() // fills the queue
	resp, _ := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-depth submit: %d, want 429", resp.StatusCode)
	}

	// DELETE the running job; it must reach cancelled.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+first.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	decodeBody(t, resp, http.StatusOK, &st)
	waitState(t, running, StateCancelled)
	close(min.gate)
}

func decodeBody(t *testing.T, resp *http.Response, wantStatus int, v interface{}) {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, wantStatus, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
