// Design-space exploration: the paper positions its transformations as the
// moves of a design-space search ("much like the transforms of SIS"). This
// example sweeps transform subsets over the DIFFEQ benchmark — a zero-wave
// rewrite search that scores the standard ablation grid — and reports the
// channel-count / controller-size / performance trade-offs, including the
// Pareto front.
package main

import (
	"fmt"

	"repro/internal/diffeq"
	"repro/internal/search"
)

func main() {
	g := diffeq.Build(diffeq.DefaultParams())
	// 0 workers = all CPUs; the rows are identical at every worker count.
	res, _ := search.Run(g, search.Options{Waves: -1})
	seeds := res.Seeds
	fmt.Println("DIFFEQ design-space sweep (one row per transform subset):")
	fmt.Print(search.FormatTable(seeds))

	if best, ok := search.Best(seeds, func(s search.Score) float64 { return s.Makespan }); ok {
		fmt.Printf("\nfastest: %-12s makespan %.1f (channels %d)\n",
			best.Plan.Name(), best.Score.Makespan, best.Score.Channels)
	}
	if best, ok := search.Best(seeds, func(s search.Score) float64 { return float64(s.Channels) }); ok {
		fmt.Printf("fewest channels: %-12s %d channels (makespan %.1f)\n",
			best.Plan.Name(), best.Score.Channels, best.Score.Makespan)
	}
	if best, ok := search.Best(seeds, func(s search.Score) float64 { return float64(s.States) }); ok {
		fmt.Printf("smallest control: %-12s %d states\n", best.Plan.Name(), best.Score.States)
	}

	fmt.Println("\nPareto front (channels × states × makespan):")
	for _, st := range search.Pareto(seeds) {
		fmt.Printf("  %-12s channels=%d states=%d makespan=%.1f\n",
			st.Plan.Name(), st.Score.Channels, st.Score.States, st.Score.Makespan)
	}
	fmt.Println("\nReading: GT5 buys wires at a concurrency cost (the paper's §3.5")
	fmt.Println("concurrency-reduction caveat); GT1 buys speed; LT buys controller area.")
}
