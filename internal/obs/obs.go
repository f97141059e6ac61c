// Package obs is the zero-dependency observability layer of the synthesis
// engine: structured tracing, per-stage metrics and the hooks the CLI's
// -trace/-metrics flags build on.
//
// The pipeline is a fixed cascade — GT1–GT5 on the CDFG, controller
// extraction, LT1–LT5 per machine, hazard-free logic synthesis — and PR 1
// made it parallel; obs makes it visible. Every stage brackets itself in a
// Span and records what it changed (arcs removed, states before/after,
// minimizer iterations) as counters and gauges, so one run yields a
// complete stage-by-stage timing and reduction profile.
//
// # Span model
//
// A Span is one timed unit of pipeline work: a stage name (e.g. "gt2",
// "lt4", "hfmin"), an optional unit it worked on (a functional unit,
// controller or output function), start/end timestamps relative to the
// tracer's epoch, and the error outcome. A span does not record the
// goroutine that ran it: Go has no cheap way to read a goroutine ID
// (runtime.Stack walks the whole stack to print one).
// The Tracer keeps no spans: a completed span is streamed, when a sink is
// set, as one JSON object per line (JSONL), and handed to every watcher
// (Tracer.Watch).
//
// Instrumented code uses the package-level entry points:
//
//	sp := obs.Start("gt2", "")           // no-op unless tracing/metrics on
//	rep, err := RemoveDominated(g)
//	obs.Add("gt2/arcs_removed", n)       // counter, aggregated
//	sp.EndErr(err)
//
// # Disabled cost
//
// With no tracer and no metrics registry installed (the default), Start
// returns a zero Span and Add/Set return immediately: the guard is two
// atomic pointer loads, verified to stay within noise of uninstrumented
// code by TestDisabledOverheadGuard and BenchmarkSpanDisabled. Installing
// a Tracer whose Enable was not called is likewise a no-op.
//
// # Concurrency
//
// All types are safe for concurrent use: spans may be started and ended
// from any worker goroutine (the worker pool in internal/par records its
// per-stage task and panic counts here too). Event IDs are assigned at
// completion time, in the order spans reach the sink, so IDs are strictly
// increasing in completion order — sorting by the Start field
// reconstructs the wall-clock timeline.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SpanEvent is one completed span, as emitted to the JSONL sink and to
// watchers.
type SpanEvent struct {
	// ID is assigned when the span completes; IDs are unique and strictly
	// increasing in completion order.
	ID uint64 `json:"id"`
	// Stage is the pipeline stage name ("gt1".."gt5", "extract",
	// "lt1".."lt5", "synth", "hfmin", "search-eval", "run", ...).
	Stage string `json:"stage"`
	// Unit is what the stage worked on: a functional unit, controller,
	// output function or search plan. Empty for whole-graph stages.
	Unit string `json:"unit,omitempty"`
	// Start and End are nanoseconds since the tracer's epoch (monotonic).
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Err is the error the span ended with, if any.
	Err string `json:"err,omitempty"`
}

// Duration is the span's elapsed time.
func (e SpanEvent) Duration() time.Duration { return time.Duration(e.End - e.Start) }

// Tracer numbers completed spans and streams them to a JSONL sink and to
// watchers. The nil tracer is valid and records nothing.
type Tracer struct {
	enabled atomic.Bool
	epoch   time.Time

	mu      sync.Mutex
	lastID  uint64
	sink    io.Writer
	sinkErr error

	watchMu   sync.Mutex
	watchers  map[uint64]func(SpanEvent)
	nextWatch uint64
}

// New returns a Tracer. It starts disabled; call Enable.
func New() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// Enable turns span recording on.
func (t *Tracer) Enable() { t.enabled.Store(true) }

// Disable turns span recording off; in-flight spans ending after Disable
// are dropped.
func (t *Tracer) Disable() { t.enabled.Store(false) }

// Enabled reports whether the tracer records spans. Nil-safe.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetSink streams every completed span to w as one JSON object per line.
// The first write error stops the stream and is reported by SinkErr.
func (t *Tracer) SetSink(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = w
	t.sinkErr = nil
}

// SinkErr returns the first error writing to the JSONL sink, if any.
func (t *Tracer) SinkErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sinkErr
}

// Start begins a span on this tracer. When the tracer is nil or disabled
// the returned zero Span makes End a no-op.
func (t *Tracer) Start(stage, unit string) Span {
	if !t.Enabled() {
		return Span{}
	}
	return Span{t: t, stage: stage, unit: unit, start: time.Now()}
}

// record numbers a completed span and emits it; called from Span.EndErr.
func (t *Tracer) record(s Span, end time.Time, err error) {
	if !t.enabled.Load() {
		return
	}
	ev := SpanEvent{
		Stage: s.stage,
		Unit:  s.unit,
		Start: s.start.Sub(t.epoch).Nanoseconds(),
		End:   end.Sub(t.epoch).Nanoseconds(),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	t.mu.Lock()
	t.lastID++
	ev.ID = t.lastID
	if t.sink != nil && t.sinkErr == nil {
		line, jerr := json.Marshal(ev)
		if jerr != nil {
			t.sinkErr = jerr
		} else if _, werr := t.sink.Write(append(line, '\n')); werr != nil {
			t.sinkErr = werr
		}
	}
	t.mu.Unlock()
	t.notifyWatchers(ev)
}

// Watch registers fn to be called with every span completed while the
// watcher is installed, after the span reaches the sink. The
// returned cancel func removes the watcher; it is safe to call more than
// once. fn runs on the goroutine ending the span and must not block —
// the service layer uses this to stream job progress over SSE, feeding a
// bounded per-job buffer.
func (t *Tracer) Watch(fn func(SpanEvent)) (cancel func()) {
	t.watchMu.Lock()
	if t.watchers == nil {
		t.watchers = map[uint64]func(SpanEvent){}
	}
	t.nextWatch++
	id := t.nextWatch
	t.watchers[id] = fn
	t.watchMu.Unlock()
	return func() {
		t.watchMu.Lock()
		delete(t.watchers, id)
		t.watchMu.Unlock()
	}
}

// notifyWatchers fans a completed span out to the registered watchers,
// outside the sink lock so a watcher may inspect the tracer.
func (t *Tracer) notifyWatchers(ev SpanEvent) {
	t.watchMu.Lock()
	if len(t.watchers) == 0 {
		t.watchMu.Unlock()
		return
	}
	fns := make([]func(SpanEvent), 0, len(t.watchers))
	for _, fn := range t.watchers {
		fns = append(fns, fn)
	}
	t.watchMu.Unlock()
	for _, fn := range fns {
		fn(ev)
	}
}

// Span is an in-flight timed unit of pipeline work. The zero Span is
// valid and End/EndErr on it are no-ops — this is what Start returns when
// observability is off, keeping the disabled path allocation-free.
type Span struct {
	t     *Tracer
	m     *Metrics
	stage string
	unit  string
	start time.Time
}

// End completes the span successfully.
func (s Span) End() { s.EndErr(nil) }

// EndErr completes the span with its error outcome (nil for success),
// recording the event on the tracer and the stage duration on the
// metrics registry, whichever are attached.
func (s Span) EndErr(err error) {
	if s.t == nil && s.m == nil {
		return
	}
	end := time.Now()
	if s.m != nil {
		s.m.Observe(s.stage, end.Sub(s.start))
	}
	if s.t != nil {
		s.t.record(s, end, err)
	}
}

// Global wiring: the pipeline packages call the package-level Start/Add/
// Set, which dispatch to the installed tracer and metrics registry. Both
// default to nil (everything disabled).
var (
	curTracer  atomic.Pointer[Tracer]
	curMetrics atomic.Pointer[Metrics]
)

// SetTracer installs t as the process-global tracer (nil uninstalls).
func SetTracer(t *Tracer) { curTracer.Store(t) }

// GlobalTracer returns the installed tracer, or nil.
func GlobalTracer() *Tracer { return curTracer.Load() }

// SetMetrics installs m as the process-global metrics registry (nil
// uninstalls).
func SetMetrics(m *Metrics) { curMetrics.Store(m) }

// Gather returns the installed metrics registry, or nil.
func Gather() *Metrics { return curMetrics.Load() }

// Start begins a span against the global tracer and metrics registry.
// When neither is installed (or the tracer is disabled) it returns the
// zero Span at the cost of two atomic loads.
func Start(stage, unit string) Span {
	t := curTracer.Load()
	if t != nil && !t.enabled.Load() {
		t = nil
	}
	m := curMetrics.Load()
	if t == nil && m == nil {
		return Span{}
	}
	return Span{t: t, m: m, stage: stage, unit: unit, start: time.Now()}
}

// Add increments the named counter on the global metrics registry; no-op
// when none is installed. Names are slash-paths rooted at a stage, e.g.
// "gt2/arcs_removed" or "par/hfmin/tasks".
func Add(name string, v int64) {
	if m := curMetrics.Load(); m != nil {
		m.Add(name, v)
	}
}

// Set stores the named gauge on the global metrics registry; no-op when
// none is installed. Per-unit observations use unit-qualified names, e.g.
// "lt/ALU1/states_before".
func Set(name string, v int64) {
	if m := curMetrics.Load(); m != nil {
		m.Set(name, v)
	}
}
