// Package service turns the synthesis pipeline into a long-running job
// server: a bounded admission queue in front of a fixed pool of job
// runners, each executing the full flow through the incremental stage
// engine (stage.Engine.Run: the global transforms, extraction, local
// transforms and gate-level synthesis) under a per-job context. A job's Mode
// selects what runs: ModeSynth (default) is the fixed pipeline at the
// requested optimization level; ModeSearch runs the cost-directed
// rewrite search (internal/search) and returns the winning plan's
// synthesis document.
//
// # Job lifecycle
//
// A job moves through a small state machine:
//
//	queued ──► running ──► done
//	   │           │   └──► failed
//	   └───────────┴──────► cancelled
//
// Submit admits a job into the queue or rejects it immediately with
// ErrQueueFull — admission is the only place backpressure is applied, so
// a full server answers in microseconds instead of accumulating work.
// Every admitted submission is its own job with its own ID. Cancel on a
// queued job marks it cancelled before it ever runs and frees its queue
// slot; on a running job it cancels the job's context, which the
// pipeline observes at stage boundaries, between encoding-ladder rungs
// and inside the covering branch-and-bound, releasing the job's pool
// workers within a poll interval. Cancelling a terminal job is a no-op.
// DESIGN.md §11 tabulates every transition.
//
// # Shared resources
//
// All jobs share one process-wide minimizer cache (Config.Minimizer,
// usually a memo.Cache) and one stage engine (Config.Engine), and divide
// one parallelism budget (Config.Parallelism) evenly across the
// Config.Concurrency runners, so a saturated server never oversubscribes
// the host. The caches are also where identical work meets: their
// singleflight computes each stage payload and hfmin record once, and
// concurrent jobs posing the same key wait for that result. A job
// cancelled while computing a shared key vacates it, and a surviving
// waiter recomputes it, so no job's cancellation reaches another job and
// no partial result is left behind for a neighbour to hit.
//
// # Observability
//
// The manager maintains gauges service/jobs_queued and
// service/jobs_running and counters service/jobs_{submitted,rejected,
// completed,failed,cancelled} on the global obs registry; together with
// the worker pool's par/inflight gauge they make the drain and
// cancellation behaviour externally assertable (see GET /metrics).
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cdfg"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/stage"
	"repro/internal/synth"
	"repro/internal/timing"
	"repro/internal/transform"
)

// Mode selects what a job computes.
type Mode string

// Job modes.
const (
	// ModeSynth runs the fixed pipeline at the job's optimization level and
	// returns its synthesis document — the default.
	ModeSynth Mode = "synth"
	// ModeSearch runs the cost-directed rewrite search over the transform
	// space and returns the synthesis document of the winning plan. The
	// job's optimization level is ignored: the search decides per decision
	// which transforms run.
	ModeSearch Mode = "search"
)

// ParseMode maps a wire-format mode string to a Mode; the empty string
// selects the default ModeSynth.
func ParseMode(s string) (Mode, bool) {
	switch s {
	case "":
		return ModeSynth, true
	case string(ModeSynth):
		return ModeSynth, true
	case string(ModeSearch):
		return ModeSearch, true
	default:
		return "", false
	}
}

// State is a job's position in the lifecycle state machine.
type State int

// Job lifecycle states.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCancelled
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Sentinel errors returned by Submit, Get and Cancel.
var (
	// ErrQueueFull rejects a submission when the admission queue is at
	// capacity; the HTTP layer maps it to 429 Too Many Requests.
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrDraining rejects submissions after Drain has begun.
	ErrDraining = errors.New("service: server is draining")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("service: no such job")
)

// Config sizes a Manager. The zero value selects the documented defaults.
type Config struct {
	// QueueDepth bounds how many admitted jobs may wait for a runner;
	// submissions beyond it fail fast with ErrQueueFull. Default 16.
	QueueDepth int
	// Concurrency is how many jobs run simultaneously. Default 2.
	Concurrency int
	// Parallelism is the total pipeline worker budget, divided evenly
	// across the concurrent runners (at least 1 each). Default GOMAXPROCS.
	Parallelism int
	// JobTimeout, when positive, is the per-job deadline; a job exceeding
	// it fails with context.DeadlineExceeded.
	JobTimeout time.Duration
	// Minimizer, when non-nil, is the shared hazard-free minimization
	// cache every job routes through (typically a memo.Cache).
	Minimizer synth.Minimizer
	// Engine runs ModeSynth pipelines (and the final realization of
	// ModeSearch winners): unchanged stages replay from its store instead
	// of recomputing, which is what makes PATCH /v1/jobs/{id} re-runs
	// cheap. Results are bit-identical to a cold core run. Nil selects a
	// private in-memory engine (stage.New(nil)).
	Engine *stage.Engine
	// SearchWaves, SearchBeam and SearchBudget size the rewrite search
	// behind ModeSearch jobs. Zero values select a bounded service profile
	// (1 wave, beam 2, 16 evaluations) — deliberately tighter than the CLI
	// defaults, because every evaluation is a full synthesis run and job
	// latency should stay in interactive range. SearchWaves < 0 scores the
	// ablation seeds only (a served exploration sweep).
	SearchWaves, SearchBeam, SearchBudget int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 2
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.SearchWaves == 0 {
		c.SearchWaves = 1
	}
	if c.SearchBeam <= 0 {
		c.SearchBeam = 2
	}
	if c.SearchBudget <= 0 {
		c.SearchBudget = 16
	}
	if c.Engine == nil {
		c.Engine = stage.New(nil)
	}
	return c
}

// Job is one synthesis request moving through the lifecycle. All methods
// are safe for concurrent use.
type Job struct {
	id     string
	graph  *cdfg.Graph
	level  core.Level
	mode   Mode
	events *eventLog

	mu     sync.Mutex
	state  State
	stage  string // most recently completed pipeline stage (obs span)
	err    error
	result []byte
	cancel context.CancelFunc
	done   chan struct{}
}

// ID returns the job's server-assigned identifier.
func (j *Job) ID() string { return j.id }

// Mode returns what the job computes (ModeSynth or ModeSearch).
func (j *Job) Mode() Mode { return j.mode }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the terminal error for failed and cancelled jobs.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Result returns the encoded synthesis document of a done job (nil
// otherwise).
func (j *Job) Result() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Stage returns the name of the most recently completed pipeline stage
// while the job runs (fed from obs spans; empty when no global tracer is
// enabled or the job has not started).
func (j *Job) Stage() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stage
}

// setStage records the latest completed pipeline stage name.
func (j *Job) setStage(s string) {
	if s == "" {
		return
	}
	j.mu.Lock()
	j.stage = s
	j.mu.Unlock()
}

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(state State, result []byte, err error) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.result = result
	j.err = err
	close(j.done)
	j.mu.Unlock()
	j.pushState(state, err)
}

// maxFinished is how many finished jobs the job index keeps; a variable
// so tests can lower it.
var maxFinished = 1024

// Manager owns the admission queue, the runner pool and the job index.
// The index keeps every queued and running job and the maxFinished most
// recently finished ones; an older finished job is forgotten, and its ID
// answers ErrNotFound.
type Manager struct {
	cfg  Config
	base context.Context
	stop context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string   // IDs of finished jobs in the index, oldest first
	queue    []*Job     // admitted jobs waiting for a runner, oldest first
	wake     *sync.Cond // on mu: the queue grew or Drain began
	draining bool
	nextID   uint64

	wg      sync.WaitGroup
	running int64
}

// New starts a manager with cfg's queue depth and runner pool.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	base, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:  cfg,
		base: base,
		stop: stop,
		jobs: map[string]*Job{},
	}
	m.wake = sync.NewCond(&m.mu)
	m.wg.Add(cfg.Concurrency)
	for i := 0; i < cfg.Concurrency; i++ {
		go m.runner()
	}
	return m
}

// Submit admits a synthesis job for graph at the given optimization
// level, or rejects it with ErrQueueFull / ErrDraining. The graph must
// already be validated (the codec's DecodeGraph guarantees this).
func (m *Manager) Submit(graph *cdfg.Graph, level core.Level) (*Job, error) {
	return m.SubmitMode(graph, level, ModeSynth)
}

// SubmitMode is Submit with an explicit job mode. An unknown mode is a
// caller bug (the HTTP layer validates with ParseMode first) and is
// rejected before the job is admitted. Every admitted submission is a
// job of its own, with its own ID, state and cancellation, and starts
// queued; identical submissions share work through the store's
// singleflight (see the package comment), never a job.
func (m *Manager) SubmitMode(graph *cdfg.Graph, level core.Level, mode Mode) (*Job, error) {
	if mode != ModeSynth && mode != ModeSearch {
		return nil, fmt.Errorf("service: unknown job mode %q", mode)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	if len(m.queue) >= m.cfg.QueueDepth {
		obs.Add("service/jobs_rejected", 1)
		return nil, ErrQueueFull
	}
	m.nextID++
	job := &Job{
		id:     fmt.Sprintf("job-%06d", m.nextID),
		graph:  graph,
		level:  level,
		mode:   mode,
		events: newEventLog(),
		state:  StateQueued,
		done:   make(chan struct{}),
	}
	// Log queued before the job is on the queue: a runner may take it at
	// once and push running, which must not come first.
	job.pushState(StateQueued, nil)
	m.queue = append(m.queue, job)
	m.wake.Signal()
	m.jobs[job.id] = job
	obs.Add("service/jobs_submitted", 1)
	obs.Set("service/jobs_queued", int64(len(m.queue)))
	return job, nil
}

// Get returns the job with the given ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return job, nil
}

// Cancel requests cancellation of a job. A queued job becomes cancelled
// immediately and leaves the queue; a running job has its context
// cancelled and reaches the cancelled state once the pipeline observes
// it. Cancelling a terminal job is a no-op and moves no counter. The
// updated job is returned either way.
func (m *Manager) Cancel(id string) (*Job, error) {
	job, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	job.mu.Lock()
	switch {
	case job.state == StateQueued:
		obs.Add("service/jobs_cancelled", 1)
		job.state = StateCancelled
		job.err = context.Canceled
		close(job.done)
		job.mu.Unlock()
		job.pushState(StateCancelled, context.Canceled)
		m.unqueue(job)
	case job.state == StateRunning && job.cancel != nil:
		cancel := job.cancel
		job.mu.Unlock()
		cancel()
	default:
		job.mu.Unlock()
	}
	return job, nil
}

// Drain stops admission, lets queued and running jobs finish, and waits
// for the runner pool to exit. If ctx expires first the remaining jobs
// are force-cancelled and Drain waits for the (prompt, cooperative)
// teardown before returning ctx's error.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.wake.Broadcast()
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.stop() // force-cancel every running job
		<-done
		return ctx.Err()
	}
}

// Close force-cancels all work and waits for the pool to exit; for tests
// and abnormal shutdown. Graceful shutdown is Drain.
func (m *Manager) Close() {
	m.stop()
	m.Drain(context.Background())
}

// Queued returns the current admission-queue length.
func (m *Manager) Queued() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

// Draining reports whether Drain has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// unqueue takes a job cancelled while queued off the queue, so its slot
// admits the next submission at once rather than when a runner reaches
// it, and records it as finished.
func (m *Manager) unqueue(job *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retire(job)
	for i, q := range m.queue {
		if q == job {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			obs.Set("service/jobs_queued", int64(len(m.queue)))
			return
		}
	}
}

// retire appends a job reaching its terminal state to the finished FIFO
// and forgets the oldest finished jobs beyond maxFinished. Queued and
// running jobs are never in the FIFO, so they are never forgotten. The
// caller holds m.mu.
func (m *Manager) retire(job *Job) {
	m.finished = append(m.finished, job.id)
	for len(m.finished) > maxFinished {
		delete(m.jobs, m.finished[0])
		m.finished = m.finished[1:]
	}
}

// runner is one pool slot: it takes admitted jobs, oldest first, until
// Drain has begun and the queue is empty.
func (m *Manager) runner() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.draining {
			m.wake.Wait()
		}
		if len(m.queue) == 0 {
			m.mu.Unlock()
			return
		}
		job := m.queue[0]
		m.queue = m.queue[1:]
		m.mu.Unlock()
		m.runJob(job)
	}
}

// runJob executes one job under its per-job context.
func (m *Manager) runJob(job *Job) {
	job.mu.Lock()
	if job.state.Terminal() { // cancelled as a runner took it
		job.mu.Unlock()
		return
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if m.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(m.base, m.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(m.base)
	}
	defer cancel()
	job.state = StateRunning
	job.cancel = cancel
	job.mu.Unlock()
	job.pushState(StateRunning, nil)

	// While the job runs, completed pipeline spans stream into its event
	// log (see events.go for the attribution caveat under concurrency)
	// and the latest stage name lands on the job for GET /v1/jobs/{id}.
	if tr := obs.GlobalTracer(); tr.Enabled() {
		stopWatch := tr.Watch(func(ev obs.SpanEvent) {
			job.setStage(ev.Stage)
			job.events.append(Event{Type: "span", Span: &ev})
		})
		defer stopWatch()
	}

	m.mu.Lock()
	m.running++
	obs.Set("service/jobs_running", m.running)
	obs.Set("service/jobs_queued", int64(len(m.queue)))
	m.mu.Unlock()

	var enc []byte
	var err error
	if job.mode == ModeSearch {
		enc, err = m.searchJob(ctx, job)
	} else {
		enc, err = m.synthesize(ctx, job)
	}
	// Settle the job's counters and the index before finish publishes its
	// terminal state, so a job seen as terminal is counted under its
	// outcome, is no longer in the running gauge, and has pushed the
	// oldest finished job beyond the bound out of the index.
	m.mu.Lock()
	m.running--
	obs.Set("service/jobs_running", m.running)
	m.retire(job)
	m.mu.Unlock()
	switch {
	case err == nil:
		obs.Add("service/jobs_completed", 1)
		job.finish(StateDone, enc, nil)
	case errors.Is(err, context.Canceled):
		obs.Add("service/jobs_cancelled", 1)
		job.finish(StateCancelled, nil, err)
	default:
		obs.Add("service/jobs_failed", 1)
		job.finish(StateFailed, nil, err)
	}
}

// perJobWorkers divides the process-wide parallelism budget evenly across
// the concurrent runners.
func (m *Manager) perJobWorkers() int {
	perJob := m.cfg.Parallelism / m.cfg.Concurrency
	if perJob < 1 {
		perJob = 1
	}
	return perJob
}

// synthesize runs the full pipeline for one job and encodes the result.
func (m *Manager) synthesize(ctx context.Context, job *Job) ([]byte, error) {
	opts := core.Options{
		Level:       job.level,
		Timing:      timing.DefaultModel(),
		Transform:   transform.DefaultOptions(),
		Parallelism: m.perJobWorkers(),
		Minimizer:   m.cfg.Minimizer,
	}
	return m.realize(ctx, job.graph, opts)
}

// realize executes one pipeline configuration through the stage engine
// and encodes the synthesis document. The engine never mutates g, which
// must stay pristine: it is the base PATCH /v1/jobs/{id} applies deltas
// to.
func (m *Manager) realize(ctx context.Context, g *cdfg.Graph, opts core.Options) ([]byte, error) {
	s, results, err := m.cfg.Engine.Run(ctx, g, opts)
	if err != nil {
		return nil, err
	}
	return codec.EncodeSynthesis(s, results)
}

// searchJob runs the cost-directed rewrite search for one job and encodes
// the synthesis document of the winning plan. The search scores candidates
// on clones of the job's graph with gate-level synthesis on (the shared
// minimizer cache absorbs the repeat minimizations); the winner is then
// realized once more through the standard pipeline so the result document
// is exactly what a ModeSynth job with that plan's options would return.
func (m *Manager) searchJob(ctx context.Context, job *Job) ([]byte, error) {
	perJob := m.perJobWorkers()
	res, err := search.RunCtx(ctx, job.graph, search.Options{
		Workers:    perJob,
		Waves:      m.cfg.SearchWaves,
		Beam:       m.cfg.SearchBeam,
		Budget:     m.cfg.SearchBudget,
		Synthesize: true,
		Minimizer:  m.cfg.Minimizer,
	})
	if err != nil {
		return nil, err
	}
	copt := res.Best.Plan.CoreOptions(perJob, m.cfg.Minimizer, logic.SolverBB)
	return m.realize(ctx, job.graph, copt)
}
