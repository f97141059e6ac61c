// Command asyncsynthd serves the synthesis pipeline as a long-running
// HTTP job server (synthesis-as-a-service).
//
// Usage:
//
//	asyncsynthd [-addr host:port] [-queue-depth N] [-concurrency N]
//	            [-j N] [-job-timeout D] [-drain-timeout D]
//	            [-cache-dir dir] [-cache-max-bytes N]
//
// API:
//
//	POST   /v1/jobs              submit a design; optional ?level= selects
//	                             the optimization level. The body is
//	                             negotiated on Content-Type: JSON (or no
//	                             header) is an interchange CDFG document
//	                             (asyncsynth export emits one); text/x-adl
//	                             (also text/adl, text/plain) is ADL
//	                             behavioral source compiled on submission
//	                             (asyncsynth compile checks one locally)
//	GET    /v1/jobs/{id}         poll job state (result embedded when done;
//	                             "stage" names the latest pipeline stage
//	                             while running)
//	PATCH  /v1/jobs/{id}         apply a CDFG delta document to the job's
//	                             input design and run the patched design
//	                             as a new job; unchanged pipeline stages
//	                             replay from the incremental stage cache
//	                             (asyncsynth patch builds delta documents)
//	GET    /v1/jobs/{id}/result  the synthesis document, byte-for-byte
//	GET    /v1/jobs/{id}/events  job progress: SSE stream of lifecycle and
//	                             pipeline-span events (?poll=1 long-polls
//	                             JSON batches instead)
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /healthz              liveness (503 while draining)
//	GET    /metrics              Prometheus text exposition of the obs
//	                             registry (stage timings, memo hit rates,
//	                             queue and pool gauges)
//
// Submissions beyond -queue-depth are rejected immediately with 429 —
// backpressure is applied at admission, never by queueing unbounded work.
// All jobs share one cache (internal/memo's Store) holding both the
// hazard-free-minimization records and the incremental stage engine's
// payloads — in memory, and in one -cache-dir directory under one
// -cache-max-bytes cap when persisted — and divide the -j worker budget
// across -concurrency runners. Every submission is a job of its own,
// with its own ID; the cache's singleflight runs each stage of identical
// concurrent submissions once, and the others wait for its result. On
// SIGINT/SIGTERM the daemon stops admitting, finishes queued and running
// jobs (bounded by -drain-timeout, then force-cancels), and exits.
//
// The daemon prints "listening on http://ADDR" on stdout once the socket
// is bound; with -addr 127.0.0.1:0 the kernel picks a free port and
// scripts parse it from that line (see scripts/verify.sh).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/stage"
)

var (
	addr         = flag.String("addr", "127.0.0.1:8337", "listen address (use :0 for a kernel-assigned port)")
	queueDepth   = flag.Int("queue-depth", 16, "max jobs waiting for a runner; submissions beyond it get 429")
	concurrency  = flag.Int("concurrency", 2, "jobs running simultaneously")
	jWorkers     = flag.Int("j", 0, "total pipeline worker budget shared by the runners (0 = all CPUs)")
	jobTimeout   = flag.Duration("job-timeout", 0, "per-job deadline (0 = none)")
	drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "how long shutdown waits for in-flight jobs before force-cancelling")
	cacheDir     = flag.String("cache-dir", "", "persist minimization results and stage payloads under this directory")
	cacheMax     = flag.Int64("cache-max-bytes", 0, "cap the on-disk cache at this many bytes, evicting oldest entries (0 = unbounded)")
)

func main() { os.Exit(run()) }

func run() int {
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "asyncsynthd: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		return 2
	}
	if *jWorkers < 0 || *queueDepth < 0 || *concurrency < 0 {
		fmt.Fprintln(os.Stderr, "asyncsynthd: -j, -queue-depth and -concurrency must be >= 0")
		flag.Usage()
		return 2
	}
	// The metrics registry is always on — /metrics is part of the API —
	// and so is the span tracer, which feeds the per-job event streams.
	obs.SetMetrics(obs.NewMetrics())
	tracer := obs.New()
	tracer.Enable()
	obs.SetTracer(tracer)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asyncsynthd:", err)
		return 1
	}

	// One store holds the minimization records and the stage payloads:
	// one memory tier, and one directory under one byte cap.
	store, err := memo.NewStore(*cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asyncsynthd:", err)
		return 1
	}
	store.SetMaxBytes(*cacheMax)
	mgr := service.New(service.Config{
		QueueDepth:  *queueDepth,
		Concurrency: *concurrency,
		Parallelism: *jWorkers,
		JobTimeout:  *jobTimeout,
		Minimizer:   memo.OnStore(store),
		Engine:      stage.New(store),
	})

	fmt.Printf("listening on http://%s\n", ln.Addr())

	srv := &http.Server{Handler: mgr.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "asyncsynthd:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: refuse new jobs, finish admitted ones, then close
	// the listener. Polls keep working while jobs drain.
	fmt.Println("draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := mgr.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "asyncsynthd: drain:", err)
	}
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "asyncsynthd: shutdown:", err)
		return 1
	}
	fmt.Println("drained")
	return 0
}
