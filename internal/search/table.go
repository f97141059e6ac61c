package search

import (
	"fmt"
	"sort"
	"strings"
)

// complete reports whether every metric of the score was measured: the
// plan ran, any requested synthesis succeeded and the token simulation
// finished. Anything less carries zeroed metrics that would sort as a
// spurious optimum, so only complete scores can win Best or sit on the
// Pareto front.
func (s Score) complete() bool { return !s.Failed() && s.Simulated }

// FormatTable renders scored states as the sweep table, one row per state
// under its plan's display name. A state whose run failed prints as an
// ERROR row. Gate-level columns appear when any state carries them (a run
// with Options.Synthesize).
func FormatTable(states []State) string {
	gate := false
	for _, st := range states {
		if st.Score.Synthesized || st.Score.SynthError != "" {
			gate = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %9s %6s %7s %7s %9s %8s",
		"variant", "#channels", "#mway", "states", "trans", "makespan", "assumed")
	if gate {
		fmt.Fprintf(&b, " %7s %7s", "#prod", "#lits")
	}
	b.WriteString("\n")
	for _, st := range states {
		sc := st.Score
		if sc.RunError != "" {
			fmt.Fprintf(&b, "%-12s ERROR: %s\n", st.Plan.Name(), sc.RunError)
			continue
		}
		ms := "-"
		if sc.Simulated {
			ms = fmt.Sprintf("%9.1f", sc.Makespan)
		}
		fmt.Fprintf(&b, "%-12s %9d %6d %7d %7d %9s %8d",
			st.Plan.Name(), sc.Channels, sc.Multiway, sc.States, sc.Trans, ms, sc.Assumed)
		if gate {
			if sc.Synthesized {
				fmt.Fprintf(&b, " %7d %7d", sc.Products, sc.Literals)
			} else if sc.SynthError != "" {
				fmt.Fprintf(&b, " SYNTH ERROR: %s", sc.SynthError)
			} else {
				fmt.Fprintf(&b, " %7s %7s", "-", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Best returns the state minimizing metric among the complete scores; the
// first of equal minima wins. A failed or unsimulated state is never
// eligible.
func Best(states []State, metric func(Score) float64) (State, bool) {
	var best State
	found := false
	for _, st := range states {
		if !st.Score.complete() {
			continue
		}
		if !found || metric(st.Score) < metric(best.Score) {
			best = st
			found = true
		}
	}
	return best, found
}

// Pareto returns the complete states not dominated on (channels, states,
// makespan), sorted by plan name.
func Pareto(states []State) []State {
	var valid []State
	for _, st := range states {
		if st.Score.complete() {
			valid = append(valid, st)
		}
	}
	var out []State
	for i, a := range valid {
		dominated := false
		for j, b := range valid {
			if i == j {
				continue
			}
			x, y := b.Score, a.Score
			if x.Channels <= y.Channels && x.States <= y.States && x.Makespan <= y.Makespan &&
				(x.Channels < y.Channels || x.States < y.States || x.Makespan < y.Makespan) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Plan.Name() < out[j].Plan.Name() })
	return out
}
