// Command asyncsynth runs the asynchronous distributed control synthesis
// flow on the built-in benchmarks and regenerates the paper's evaluation
// artifacts.
//
// Usage:
//
//	asyncsynth report fig12        state-machine comparison (Figure 12)
//	asyncsynth report fig13        gate-level comparison (Figure 13)
//	asyncsynth report fig5         channel elimination (Figure 5)
//	asyncsynth describe [bench]    print the CDFG
//	asyncsynth transform [bench]   apply GT1–GT5 and show the trace
//	asyncsynth extract [bench]     print the extracted controllers
//	asyncsynth simulate [bench]    run the controller-level simulation
//	asyncsynth explore [bench]     design-space exploration sweep
//	asyncsynth search [bench]      cost-directed rewrite search
//	asyncsynth dot cdfg|afsm [bench] [-level L]   Graphviz output
//	asyncsynth export [bench]      print the CDFG as interchange JSON
//	asyncsynth compile [file.adl]  compile ADL source to interchange JSON
//	asyncsynth synthdoc [bench]    print the synthesis result document
//	asyncsynth patch [base] delta.json  apply a CDFG delta document to a
//	                               design and print the patched interchange
//	                               JSON (dirty classification on stderr)
//
// The global -j N flag bounds the worker pool used for per-controller
// synthesis, per-output minimization and exploration sweeps (0 = all
// CPUs, the default; 1 = sequential).
//
// Observability flags (all global, before the subcommand):
//
//	-trace out.jsonl   stream structured span events (one JSON object per
//	                   line) covering every pipeline stage to the file
//	-metrics           print the per-stage timing/counter table after the
//	                   command completes
//	-pprof addr        serve net/http/pprof on addr (e.g. localhost:6060)
//	                   for CPU/heap/goroutine profiling while running
//
// Hazard-free minimization — the dominant pipeline cost — is memoized
// through a content-addressed cache (internal/memo), in memory by
// default; -cache-dir persists solved problems across runs, in the same
// directory format asyncsynthd uses, and -cache-max-bytes caps it.
// Results are bit-identical either way; the -metrics table's memo/hits,
// memo/misses, memo/dedup-waits and memo/disk-hits counters show the
// cache's effect.
//
// Benchmarks come from the internal/bench registry: diffeq (default),
// gcd, fir, plus ewf and ar compiled from the ADL sources in examples/.
// Everywhere a benchmark name is accepted, a path to an .adl file works
// too — the source is compiled by internal/frontend and its reference
// registers come from the sequential interpreter.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers for -pprof
	"os"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/diffeq"
	"repro/internal/frontend"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/stage"
	"repro/internal/synth"
	"repro/internal/transform"
)

// Global flags; all must precede the subcommand.
var (
	// jWorkers is the -j parallelism knob: 0 = all CPUs, 1 = sequential.
	jWorkers    = flag.Int("j", 0, "parallel workers for synthesis and exploration (0 = all CPUs, 1 = sequential)")
	traceOut    = flag.String("trace", "", "write structured span events (JSONL) to this file")
	showMetrics = flag.Bool("metrics", false, "print the per-stage metrics table after the command")
	pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	cacheDir    = flag.String("cache-dir", "", "persist hazard-free minimization results under this directory (warm runs skip re-solving)")
	cacheMax    = flag.Int64("cache-max-bytes", 0, "cap the on-disk cache at this many bytes, evicting oldest entries first (0 = unbounded)")
)

// minimizer is the process-wide hfmin memoization cache built from
// -cache-dir and -cache-max-bytes.
var minimizer synth.Minimizer

func main() { os.Exit(run()) }

// run executes one CLI command and returns the process exit code; it is
// separate from main so the observability teardown (flush the trace file,
// print the metrics table) runs via defer even when the command fails.
func run() int {
	flag.Usage = usage
	flag.Parse()
	if *jWorkers < 0 {
		fmt.Fprintf(os.Stderr, "asyncsynth: invalid -j %d (must be >= 0)\n", *jWorkers)
		usage()
		return 2
	}
	if flag.NArg() < 1 {
		usage()
		return 2
	}
	teardown, err := setupObs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "asyncsynth:", err)
		return 1
	}
	defer teardown()
	store, err := memo.NewStore(*cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asyncsynth:", err)
		return 1
	}
	store.SetMaxBytes(*cacheMax)
	minimizer = memo.OnStore(store)
	cmd := flag.Arg(0)
	args := flag.Args()[1:]
	switch cmd {
	case "report":
		err = report(args)
	case "describe":
		err = describe(args)
	case "transform":
		err = doTransform(args)
	case "extract":
		err = doExtract(args)
	case "simulate":
		err = simulate(args)
	case "explore":
		err = doExplore(args)
	case "search":
		err = doSearch(args)
	case "synth":
		err = doSynth(args)
	case "verilog":
		err = verilog(args)
	case "gates":
		err = gates(args)
	case "dot":
		err = dot(args)
	case "export":
		err = doExport(args)
	case "compile":
		err = doCompile(args)
	case "synthdoc":
		err = synthdoc(args)
	case "patch":
		err = doPatch(args)
	default:
		fmt.Fprintf(os.Stderr, "asyncsynth: unknown command %q\n", cmd)
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "asyncsynth:", err)
		var ue usageError
		if errors.As(err, &ue) {
			usage()
			return 2
		}
		return 1
	}
	return 0
}

// usageError marks a command-line validation failure: run() prints the
// message plus the usage text and exits 2, matching the global -j check.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func usageErrorf(format string, args ...interface{}) error {
	return usageError{msg: fmt.Sprintf(format, args...)}
}

// setupObs wires the -trace/-metrics/-pprof flags into the global obs
// layer and returns the teardown to run after the command: it closes the
// trace sink and prints the metrics table (also on command failure, so a
// failed run still yields its partial profile).
func setupObs() (func(), error) {
	var cleanups []func()
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return nil, fmt.Errorf("-pprof: %w", err)
		}
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/\n", ln.Addr())
		go http.Serve(ln, nil) //nolint:errcheck // best-effort debug listener
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return nil, fmt.Errorf("-trace: %w", err)
		}
		tr := obs.New()
		tr.SetSink(f)
		tr.Enable()
		obs.SetTracer(tr)
		cleanups = append(cleanups, func() {
			if err := tr.SinkErr(); err != nil {
				fmt.Fprintln(os.Stderr, "asyncsynth: trace sink:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "asyncsynth: trace close:", err)
			}
		})
	}
	if *showMetrics {
		obs.SetMetrics(obs.NewMetrics())
		cleanups = append(cleanups, func() {
			fmt.Print(obs.Gather().Table())
		})
	}
	return func() {
		for _, f := range cleanups {
			f()
		}
	}, nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: asyncsynth [-j N] <command> [args]

flags:
  -j N                      worker-pool size for per-controller synthesis,
                            per-output minimization and exploration sweeps
                            (0 = all CPUs, default; 1 = sequential)
  -trace out.jsonl          stream structured span events (JSONL) for every
                            pipeline stage to the file
  -metrics                  print the per-stage timing/counter table after
                            the command
  -pprof addr               serve net/http/pprof on addr while running
                            (e.g. localhost:6060)
  -cache-dir dir            persist hazard-free minimization results in dir;
                            warm runs load them instead of re-solving
  -cache-max-bytes N        cap the on-disk cache at N bytes, evicting the
                            oldest entries first (0 = unbounded, default)

commands:
  report fig5|fig12|fig13   regenerate a paper table/figure (DIFFEQ)
  describe [bench]          print the CDFG
  transform [bench]         apply the global transforms, print the trace
  extract [bench]           print the extracted burst-mode controllers
  simulate [bench]          controller-level simulation, final registers
  explore [bench]           design-space exploration sweep
  search [bench]            cost-directed rewrite search over the transform
                            space; -beam N, -waves N, -budget N, -branch N,
                            -w-time W, -w-area W, -no-synth
  synth [bench]             gate-level synthesis, per-function logic
  verilog [bench]           structural Verilog netlists of the controllers
  gates [bench]             simulate the synthesized logic as gates
  export [bench]            print the CDFG as interchange JSON (the
                            document asyncsynthd's POST /v1/jobs accepts)
  compile [-check] [file.adl]  compile ADL behavioral source (stdin if no
                            file) to interchange JSON; -check only verifies
  synthdoc [bench]          run the flow locally, print the synthesis
                            result document asyncsynthd would serve
  patch [base] delta.json   apply a CDFG delta document (docs/INTERCHANGE.md)
                            to a design — a benchmark name, .adl source or
                            exported .json document — and print the patched
                            interchange JSON; the edit's dirty classification
                            (which stages an incremental re-run recomputes)
                            goes to stderr. "-" reads the delta from stdin
  dot cdfg|afsm|channels [bench]  Graphviz output (after full optimization)

benchmarks: diffeq (default), gcd, fir, ewf, ar — or a path to an .adl
source file anywhere a benchmark name is accepted`)
}

// defaultOpts is core.DefaultOptions with the -j worker-pool bound and
// the -cache-dir minimization cache applied.
func defaultOpts() core.Options {
	opt := core.DefaultOptions()
	opt.Parallelism = *jWorkers
	opt.Minimizer = minimizer
	return opt
}

// buildBench resolves a benchmark argument: a name from the registry
// (internal/bench), or a path to an .adl source compiled on the spot with
// the sequential interpreter providing the reference registers.
func buildBench(name string) (*cdfg.Graph, []string, map[string]float64, error) {
	if name == "" {
		name = "diffeq"
	}
	if strings.HasSuffix(name, ".adl") {
		g, err := frontend.CompileFile(name)
		if err != nil {
			return nil, nil, nil, err
		}
		want, err := frontend.Interpret(g)
		if err != nil {
			return nil, nil, nil, err
		}
		return g, g.FUs, want, nil
	}
	b, ok := bench.Lookup(name)
	if !ok {
		return nil, nil, nil, fmt.Errorf("unknown benchmark %q (have %s, or a path to an .adl file)",
			name, strings.Join(bench.Names(), ", "))
	}
	return b.Build(), b.FUs, b.Want(), nil
}

func benchArg(args []string) string {
	if len(args) > 0 {
		return args[0]
	}
	return "diffeq"
}

func report(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("report needs fig5, fig12 or fig13")
	}
	switch args[0] {
	case "fig5":
		g := diffeq.Build(diffeq.DefaultParams())
		opts := transform.DefaultOptions()
		opts.SkipGT5 = true
		plan, _, err := transform.OptimizeGT(g, opts)
		if err != nil {
			return err
		}
		fmt.Printf("before GT5 (Figure 5, left):\n%s\n", plan.Describe())
		plan.Eliminate()
		fmt.Printf("after GT5 (Figure 5, right):\n%s", plan.Describe())
		return nil
	case "fig12":
		var rows []core.Row
		for _, level := range []core.Level{core.Unoptimized, core.OptimizedGT, core.OptimizedGTLT} {
			opt := defaultOpts()
			opt.Level = level
			s, err := core.Run(diffeq.Build(diffeq.DefaultParams()), opt)
			if err != nil {
				return err
			}
			rows = append(rows, s.Fig12Row())
		}
		fmt.Println("State machine comparison (Figure 12), this implementation:")
		fmt.Print(core.FormatFig12(diffeq.FUs, rows))
		fmt.Println("\nPaper's published numbers:")
		var paper []core.Row
		for _, r := range diffeq.PaperFig12 {
			paper = append(paper, core.Row{Name: r.Name, Channels: r.Channels, States: r.States, Transitions: r.Transitions})
		}
		fmt.Print(core.FormatFig12(diffeq.FUs, paper))
		return nil
	case "fig13":
		s, err := core.Run(diffeq.Build(diffeq.DefaultParams()), defaultOpts())
		if err != nil {
			return err
		}
		results, err := s.SynthesizeLogic()
		if err != nil {
			return err
		}
		fmt.Println("Gate-level comparison (Figure 13), this implementation:")
		fmt.Print(core.FormatFig13(diffeq.FUs, results))
		fmt.Println("\nYun et al. (manual, published):")
		for _, r := range diffeq.PaperFig13Yun {
			fmt.Printf("%-8s %8d %8d\n", r.Controller, r.Products, r.Literals)
		}
		p, l := diffeq.GateTotals(diffeq.PaperFig13Yun)
		fmt.Printf("%-8s %8d %8d\n", "total", p, l)
		return nil
	default:
		return fmt.Errorf("unknown report %q", args[0])
	}
}

func describe(args []string) error {
	g, _, _, err := buildBench(benchArg(args))
	if err != nil {
		return err
	}
	fmt.Print(g)
	return nil
}

func doTransform(args []string) error {
	g, _, _, err := buildBench(benchArg(args))
	if err != nil {
		return err
	}
	plan, reports, err := transform.OptimizeGT(g, transform.DefaultOptions())
	if err != nil {
		return err
	}
	for _, r := range reports {
		fmt.Println(r)
		fmt.Println()
	}
	fmt.Print(plan.Describe())
	return nil
}

func doExtract(args []string) error {
	g, fus, _, err := buildBench(benchArg(args))
	if err != nil {
		return err
	}
	s, err := core.Run(g, defaultOpts())
	if err != nil {
		return err
	}
	for _, fu := range fus {
		fmt.Println(s.Machines[fu])
	}
	return nil
}

func simulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	seeds := fs.Int("seeds", 5, "number of random delay assignments")
	level := fs.String("level", "gtlt", "unopt | gt | gtlt")
	bench := benchArg(args)
	rest := args
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		rest = args[1:]
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	g, _, want, err := buildBench(bench)
	if err != nil {
		return err
	}
	opt := defaultOpts()
	switch *level {
	case "unopt":
		opt.Level = core.Unoptimized
	case "gt":
		opt.Level = core.OptimizedGT
	case "gtlt":
		opt.Level = core.OptimizedGTLT
	default:
		return fmt.Errorf("unknown level %q", *level)
	}
	s, err := core.Run(g, opt)
	if err != nil {
		return err
	}
	if err := s.Verify(want, *seeds); err != nil {
		return err
	}
	res, err := s.Simulate(0)
	if err != nil {
		return err
	}
	fmt.Printf("%s %s: verified against reference over %d delay assignments\n", bench, opt.Level, *seeds)
	fmt.Printf("final registers (seed 0, %d events, t=%.1f):\n", res.Events, res.FinishTime)
	regs := make([]string, 0, len(want))
	for reg := range want {
		regs = append(regs, reg)
	}
	sort.Strings(regs)
	for _, reg := range regs {
		fmt.Printf("  %s = %v (want %v)\n", reg, res.Regs[reg], want[reg])
	}
	return nil
}

// doExplore runs the design-space sweep: a zero-wave search that scores
// the standard ablation grid (search.StandardPlans) with gate-level
// synthesis and prints one row per variant. A variant's failure is its
// ERROR row, not the command's, so Run's "every plan failed" verdict is
// not an error here: the table still prints every row.
func doExplore(args []string) error {
	g, _, _, err := buildBench(benchArg(args))
	if err != nil {
		return err
	}
	res, _ := search.Run(g, search.Options{
		Workers:    *jWorkers,
		Waves:      -1,
		Synthesize: true,
		Minimizer:  minimizer,
	})
	fmt.Print(search.FormatTable(res.Seeds))
	if best, ok := search.Best(res.Seeds, func(s search.Score) float64 { return s.Makespan }); ok {
		fmt.Printf("\nfastest variant: %s (makespan %.1f)\n", best.Plan.Name(), best.Score.Makespan)
	}
	fmt.Println("Pareto front (channels × states × makespan):")
	for _, st := range search.Pareto(res.Seeds) {
		fmt.Printf("  %s\n", st.Plan.Name())
	}
	return nil
}

// searchParams are the parsed `search` flags, separated from flag parsing
// so validation is unit-testable.
type searchParams struct {
	beam, waves, budget, branch int
	wTime, wArea                float64
}

// validate enforces the flag domains: counts must be positive (waves may
// be zero for a seeds-only sweep), weights non-negative and finite with at
// least one axis active. Violations exit 2 with usage, matching -j.
func (p searchParams) validate() error {
	if p.beam < 1 {
		return usageErrorf("invalid -beam %d (must be >= 1)", p.beam)
	}
	if p.waves < 0 {
		return usageErrorf("invalid -waves %d (must be >= 0)", p.waves)
	}
	if p.budget < 1 {
		return usageErrorf("invalid -budget %d (must be >= 1)", p.budget)
	}
	if p.branch < 1 {
		return usageErrorf("invalid -branch %d (must be >= 1)", p.branch)
	}
	for _, w := range []struct {
		name string
		v    float64
	}{{"-w-time", p.wTime}, {"-w-area", p.wArea}} {
		if math.IsNaN(w.v) || math.IsInf(w.v, 0) || w.v < 0 {
			return usageErrorf("invalid %s %v (must be finite and >= 0)", w.name, w.v)
		}
	}
	if p.wTime == 0 && p.wArea == 0 {
		return usageErrorf("invalid weights: -w-time and -w-area are both 0 (cost would be constant)")
	}
	return nil
}

// doSearch runs the cost-directed rewrite search and prints the chosen
// plan, the final beam and the run counters, plus the comparison against
// the best fixed-ablation seed.
func doSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ContinueOnError)
	beam := fs.Int("beam", 3, "beam width (states kept per wave)")
	waves := fs.Int("waves", 3, "expansion waves after scoring the seeds (0 = seeds only)")
	budget := fs.Int("budget", 64, "total plan-evaluation budget")
	branch := fs.Int("branch", 4, "max GT5.1 merge candidates expanded per state")
	wTime := fs.Float64("w-time", 1, "cost weight of the analyzed makespan")
	wArea := fs.Float64("w-area", 1, "cost weight of the synthesized literal total")
	noSynth := fs.Bool("no-synth", false, "skip gate-level scoring (cost becomes time-only)")
	benchName := benchArg(args)
	rest := args
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		rest = args[1:]
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	p := searchParams{beam: *beam, waves: *waves, budget: *budget, branch: *branch, wTime: *wTime, wArea: *wArea}
	if err := p.validate(); err != nil {
		return err
	}
	g, _, _, err := buildBench(benchName)
	if err != nil {
		return err
	}
	sopt := search.Options{
		Workers:    *jWorkers,
		Beam:       p.beam,
		Waves:      p.waves,
		Budget:     p.budget,
		MaxBranch:  p.branch,
		Weights:    search.Weights{Time: p.wTime, Area: p.wArea},
		Synthesize: !*noSynth,
		Minimizer:  minimizer,
	}
	if p.waves == 0 {
		sopt.Waves = -1
	}
	res, err := search.Run(g, sopt)
	if err != nil {
		return err
	}
	fmt.Print(search.Format(res))
	seedBest := math.Inf(1)
	seedName := ""
	for _, st := range res.Seeds {
		if st.Score.Cost < seedBest {
			seedBest = st.Score.Cost
			seedName = st.Plan.Name()
		}
	}
	if seedName != "" {
		fmt.Printf("best fixed ablation: %s (cost %.1f)\n", seedName, seedBest)
		if res.Best.Score.Cost < seedBest {
			fmt.Printf("search improvement: %.1f\n", seedBest-res.Best.Score.Cost)
		}
	}
	return nil
}

func doSynth(args []string) error {
	g, fus, _, err := buildBench(benchArg(args))
	if err != nil {
		return err
	}
	s, err := core.Run(g, defaultOpts())
	if err != nil {
		return err
	}
	results, err := s.SynthesizeLogic()
	if err != nil {
		return err
	}
	for _, fu := range fus {
		r := results[fu]
		fmt.Println(r.Summary())
		r.SortFunctions()
		for _, f := range r.Functions {
			hf := ""
			if !f.HazardFree {
				hf = "  [NOT hazard-free]"
			}
			fmt.Printf("  %-16s %3d products %4d literals%s\n", f.Name, f.Products, f.Literals, hf)
		}
	}
	return nil
}

func gates(args []string) error {
	g, _, want, err := buildBench(benchArg(args))
	if err != nil {
		return err
	}
	s, err := core.Run(g, defaultOpts())
	if err != nil {
		return err
	}
	results, err := s.SynthesizeLogic()
	if err != nil {
		return err
	}
	res, err := s.GateSimulate(results, 0)
	if err != nil {
		return err
	}
	fmt.Printf("gate-level simulation: %d events, t=%.1f\n", res.Events, res.FinishTime)
	regs := make([]string, 0, len(want))
	for reg := range want {
		regs = append(regs, reg)
	}
	sort.Strings(regs)
	mismatches := 0
	for _, reg := range regs {
		status := "OK"
		if res.Regs[reg] != want[reg] {
			status = "MISMATCH"
			mismatches++
		}
		fmt.Printf("  %s = %v (want %v) %s\n", reg, res.Regs[reg], want[reg], status)
	}
	if len(res.Violations) > 0 {
		fmt.Printf("violations: %v\n", res.Violations)
	}
	if mismatches > 0 || len(res.Violations) > 0 {
		return fmt.Errorf("gate-level closure failed: %d mismatched register(s), %d violation(s)", mismatches, len(res.Violations))
	}
	return nil
}

func verilog(args []string) error {
	g, fus, _, err := buildBench(benchArg(args))
	if err != nil {
		return err
	}
	s, err := core.Run(g, defaultOpts())
	if err != nil {
		return err
	}
	results, err := s.SynthesizeLogic()
	if err != nil {
		return err
	}
	for _, fu := range fus {
		fmt.Println(synth.Verilog(s.Machines[fu], results[fu]))
	}
	return nil
}

// doCompile compiles ADL behavioral source (a file argument, or stdin
// when the argument is absent or "-") and prints the CDFG as interchange
// JSON — the document every downstream surface accepts. With -check it
// only reports whether the source compiles.
func doCompile(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ContinueOnError)
	check := fs.Bool("check", false, "verify the source compiles; print a summary instead of JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path := fs.Arg(0)
	var src []byte
	var err error
	name := path
	if path == "" || path == "-" {
		name = "<stdin>"
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	g, err := frontend.Compile(name, src)
	if err != nil {
		return err
	}
	if *check {
		fmt.Printf("%s: design %q ok: %d units, %d nodes, %d arcs\n",
			name, g.Name, len(g.FUs), len(g.Nodes()), len(g.Arcs()))
		return nil
	}
	data, err := codec.EncodeGraph(g)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(data)
	return err
}

// doPatch applies a CDFG delta document to a base design and prints the
// patched design as interchange JSON, mirroring what asyncsynthd's
// PATCH /v1/jobs/{id} computes server-side. The base is a benchmark
// name, an .adl source or an exported interchange .json document; the
// edit's dirty classification — whether an incremental re-run is global
// or confined to named functional units — is reported on stderr.
func doPatch(args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return usageErrorf("patch needs [base] and a delta file")
	}
	baseArg := ""
	deltaPath := args[0]
	if len(args) == 2 {
		baseArg, deltaPath = args[0], args[1]
	}
	var g *cdfg.Graph
	var err error
	if strings.HasSuffix(baseArg, ".json") {
		data, rerr := os.ReadFile(baseArg)
		if rerr != nil {
			return rerr
		}
		g, err = codec.DecodeGraph(data)
	} else {
		g, _, _, err = buildBench(baseArg)
	}
	if err != nil {
		return err
	}
	var deltaData []byte
	if deltaPath == "-" {
		deltaData, err = io.ReadAll(os.Stdin)
	} else {
		deltaData, err = os.ReadFile(deltaPath)
	}
	if err != nil {
		return err
	}
	d, err := codec.DecodeDelta(deltaData)
	if err != nil {
		return err
	}
	patched, err := codec.ApplyDelta(g, d)
	if err != nil {
		return err
	}
	dirty := stage.Classify(g, d)
	if dirty.Global {
		fmt.Fprintln(os.Stderr, "dirty: global (full recompute)")
	} else {
		fmt.Fprintf(os.Stderr, "dirty: local to %s\n", strings.Join(dirty.FUs, ", "))
	}
	data, err := codec.EncodeGraph(patched)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(data)
	return err
}

// doExport prints a benchmark's CDFG as the versioned interchange JSON —
// the exact document asyncsynthd's POST /v1/jobs accepts.
func doExport(args []string) error {
	g, _, _, err := buildBench(benchArg(args))
	if err != nil {
		return err
	}
	data, err := codec.EncodeGraph(g)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(data)
	return err
}

// synthdoc runs the full pipeline locally and prints the synthesis result
// document — byte-identical to what asyncsynthd serves from
// GET /v1/jobs/{id}/result for the same graph, which is what the server
// smoke test in scripts/verify.sh asserts.
func synthdoc(args []string) error {
	g, _, _, err := buildBench(benchArg(args))
	if err != nil {
		return err
	}
	s, err := core.Run(g, defaultOpts())
	if err != nil {
		return err
	}
	results, err := s.SynthesizeLogic()
	if err != nil {
		return err
	}
	data, err := codec.EncodeSynthesis(s, results)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(data)
	return err
}

func dot(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("dot needs cdfg or afsm")
	}
	kind := args[0]
	g, fus, _, err := buildBench(benchArg(args[1:]))
	if err != nil {
		return err
	}
	switch kind {
	case "cdfg":
		if _, _, err := transform.OptimizeGT(g, transform.DefaultOptions()); err != nil {
			return err
		}
		fmt.Print(g.DOT())
		return nil
	case "afsm":
		s, err := core.Run(g, defaultOpts())
		if err != nil {
			return err
		}
		for _, fu := range fus {
			fmt.Print(s.Machines[fu].DOT())
		}
		return nil
	case "channels":
		s, err := core.Run(g, defaultOpts())
		if err != nil {
			return err
		}
		fmt.Print(s.Plan.DOT())
		return nil
	default:
		return fmt.Errorf("unknown dot kind %q", kind)
	}
}
