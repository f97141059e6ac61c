package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// withGlobals installs t/m as the process globals for the duration of a
// test and restores the previous values (tests in this package share the
// global registry with any parallel packages, so always clean up).
func withGlobals(tb testing.TB, tr *Tracer, m *Metrics) {
	tb.Helper()
	prevT, prevM := GlobalTracer(), Gather()
	SetTracer(tr)
	SetMetrics(m)
	tb.Cleanup(func() {
		SetTracer(prevT)
		SetMetrics(prevM)
	})
}

// watched collects the spans a tracer hands its watchers.
func watched(tr *Tracer) *[]SpanEvent {
	var evs []SpanEvent
	tr.Watch(func(ev SpanEvent) { evs = append(evs, ev) })
	return &evs
}

func TestTracerOrdering(t *testing.T) {
	tr := New()
	evs := watched(tr)
	tr.Enable()
	for i := 0; i < 10; i++ {
		sp := tr.Start("stage", fmt.Sprintf("u%d", i))
		sp.End()
	}
	if len(*evs) != 10 {
		t.Fatalf("got %d events, want 10", len(*evs))
	}
	for i, ev := range *evs {
		if ev.ID != uint64(i+1) {
			t.Errorf("event %d: ID = %d, want %d (strictly increasing from 1)", i, ev.ID, i+1)
		}
		if ev.Unit != fmt.Sprintf("u%d", i) {
			t.Errorf("event %d: unit = %q, completion order broken", i, ev.Unit)
		}
		if ev.End < ev.Start {
			t.Errorf("event %d: end %d before start %d", i, ev.End, ev.Start)
		}
		if i > 0 && ev.Start < (*evs)[i-1].Start {
			t.Errorf("event %d: sequential spans must have non-decreasing starts", i)
		}
		if ev.Goroutine == 0 {
			t.Errorf("event %d: goroutine ID not captured", i)
		}
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	tr := New()
	tr.SetSink(&buf)
	tr.Enable()
	tr.Start("gt1", "").End()
	sp := tr.Start("lt4", "ALU1")
	sp.EndErr(errors.New("boom"))
	if err := tr.SinkErr(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	var evs []SpanEvent
	for i, line := range lines {
		var ev SpanEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		evs = append(evs, ev)
	}
	if evs[0].Stage != "gt1" || evs[1].Stage != "lt4" || evs[1].Unit != "ALU1" {
		t.Errorf("sink events wrong: %+v", evs)
	}
	if evs[1].Err != "boom" {
		t.Errorf("error outcome not serialized: %+v", evs[1])
	}
}

func TestDisabledTracerIsNoop(t *testing.T) {
	var nilTracer *Tracer
	nilTracer.Start("s", "").End() // must not panic
	tr := New()                    // never enabled
	evs := watched(tr)
	tr.Start("s", "").End()
	if len(*evs) != 0 {
		t.Fatalf("disabled tracer recorded %d events", len(*evs))
	}
	withGlobals(t, nil, nil)
	Start("s", "u").EndErr(errors.New("x")) // zero span, no-op
	Add("c", 1)
	Set("g", 1)
}

func TestTracerDisableDropsInflight(t *testing.T) {
	tr := New()
	evs := watched(tr)
	tr.Enable()
	sp := tr.Start("s", "")
	tr.Disable()
	sp.End()
	if len(*evs) != 0 {
		t.Fatalf("span ending after Disable was recorded: %d events", len(*evs))
	}
}

func TestMetricsAggregationConcurrent(t *testing.T) {
	m := NewMetrics()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m.Add("stage/counter", 1)
				m.Set(fmt.Sprintf("stage/u%d/gauge", w), int64(i))
				m.Observe("stage", time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if got := m.Counter("stage/counter"); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if got := m.Gauge(fmt.Sprintf("stage/u%d/gauge", w)); got != perWorker-1 {
			t.Errorf("gauge u%d = %d, want last value %d", w, got, perWorker-1)
		}
	}
	st, ok := m.Stage("stage")
	if !ok || st.Count != workers*perWorker {
		t.Errorf("stage stat = %+v ok=%v, want count %d", st, ok, workers*perWorker)
	}
	if st.Total != time.Duration(workers*perWorker)*time.Microsecond {
		t.Errorf("stage total = %v", st.Total)
	}
}

func TestSpanFeedsMetrics(t *testing.T) {
	m := NewMetrics()
	withGlobals(t, nil, m)
	sp := Start("gt2", "")
	time.Sleep(time.Millisecond)
	sp.End()
	st, ok := m.Stage("gt2")
	if !ok || st.Count != 1 || st.Total <= 0 || st.Max <= 0 {
		t.Fatalf("stage stat not recorded: %+v ok=%v", st, ok)
	}
}

func TestTableCoversStagesAndCounters(t *testing.T) {
	m := NewMetrics()
	m.Observe("gt1", time.Millisecond)
	m.Observe("lt4", time.Millisecond)
	m.Add("gt1/arcs_removed", 3)
	m.Add("hfmin/ALU1/iterations", 7)
	m.Set("lt/ALU1/states_before", 18)
	tab := m.Table()
	for _, want := range []string{"gt1", "lt4", "arcs_removed=3", "hfmin/ALU1/iterations", "lt/ALU1/states_before"} {
		if !bytes.Contains([]byte(tab), []byte(want)) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
	if got := m.Stages(); len(got) != 2 || got[0] != "gt1" || got[1] != "lt4" {
		t.Errorf("Stages() = %v, want first-seen order [gt1 lt4]", got)
	}
}

// workload is a small fixed computation (~µs scale) standing in for one
// pipeline stage; the guard measures the disabled Span bracket against it.
var workSink int64

func workload() {
	s := int64(0)
	for i := int64(0); i < 5000; i++ {
		s += i * i % 7
	}
	workSink = s
}

// TestDisabledOverheadGuard is the benchmark guard required by the
// observability design: with no tracer and no metrics installed, the
// Start/End bracket must cost under 5% of a microsecond-scale stage. The
// measurement retries to ride out scheduler noise.
func TestDisabledOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive guard skipped in -short")
	}
	withGlobals(t, nil, nil)
	const tries = 5
	var best float64 = 1e9
	for i := 0; i < tries; i++ {
		base := testing.Benchmark(func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				workload()
			}
		})
		instr := testing.Benchmark(func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				sp := Start("stage", "unit")
				workload()
				sp.End()
			}
		})
		ratio := float64(instr.NsPerOp()) / float64(base.NsPerOp())
		if ratio < best {
			best = ratio
		}
		if best < 1.05 {
			return
		}
	}
	t.Errorf("disabled-observability overhead %.1f%% exceeds the 5%% budget", (best-1)*100)
}

func BenchmarkSpanDisabled(b *testing.B) {
	withGlobals(b, nil, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Start("stage", "unit").End()
	}
}

func BenchmarkSpanTraced(b *testing.B) {
	tr := New()
	tr.Enable()
	withGlobals(b, tr, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Start("stage", "unit").End()
	}
}

func BenchmarkSpanMetricsOnly(b *testing.B) {
	withGlobals(b, nil, NewMetrics())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Start("stage", "unit").End()
	}
}
