package obs_test

import (
	"fmt"

	"repro/internal/obs"
)

// Example shows the two halves of the observability layer: a Tracer
// handing structured spans to its watchers (and to a JSONL sink, when
// set), and a Metrics registry aggregating the stage counters the
// -metrics table is built from.
func Example() {
	// Tracing: bracket each pipeline stage in a span.
	tr := obs.New()
	stop := tr.Watch(func(ev obs.SpanEvent) {
		fmt.Println(ev.Stage, ev.Unit == "", ev.End >= ev.Start)
	})
	defer stop()
	tr.Enable()
	sp := tr.Start("gt2", "")
	// ... the stage runs here ...
	sp.End()

	// Metrics: counters accumulate, gauges hold the last value.
	m := obs.NewMetrics()
	m.Add("gt2/arcs_removed", 13)
	m.Add("gt2/arcs_removed", 1)
	m.Set("lt/ALU1/states_before", 18)
	fmt.Println(m.Counter("gt2/arcs_removed"), m.Gauge("lt/ALU1/states_before"))
	// Output:
	// gt2 true true
	// 14 18
}

// ExampleMetrics_Table renders the per-stage table from counters alone
// (timings vary run to run, so this example records none).
func ExampleMetrics_Table() {
	m := obs.NewMetrics()
	m.Add("gt5/arcs_added", 1)
	m.Set("gt5/channels_after", 5)
	fmt.Print(m.Table())
	// Output:
	// stage        calls        total          max
	// counters:
	//   gt5/arcs_added                                  1
	// gauges:
	//   gt5/channels_after                              5
}
