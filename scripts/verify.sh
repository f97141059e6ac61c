#!/usr/bin/env bash
# Tier-1 verification for this repo, as documented in ROADMAP.md and
# DESIGN.md: build, static checks, documentation bar, and the full test
# suite under the race detector (mandatory because the synthesis engine
# fans out across a worker pool).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...
echo "== go vet"
go vet ./...
echo "== gofmt (every Go file formatted; perfbench/run.sh build output excluded)"
unformatted=$(find . -name '*.go' -not -path './.bench_build/*' -print0 | xargs -0 gofmt -l)
if [ -n "$unformatted" ]; then
	echo "verify: gofmt -l lists files that need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi
echo "== checkdoc (package docs + frontend/gen exported-identifier docs)"
go run ./scripts/checkdoc
echo "== synthesis bytes vs parent (golden synthesis documents of every"
echo "   registry design, written by an earlier version; the document"
echo "   indenter against json.Indent on a random corpus, and the encoders"
echo "   against json.MarshalIndent on the registry and gen seeds; the mask"
echo "   enumerators checked against the map-based reference, the truncated"
echo "   one in order, Maximal and its containment index against brute"
echo "   force, primes and maximal cubes independent of input order, the"
echo "   dhf-prime list in Compare order against the unpruned recursion on"
echo "   random specs, fixtures, the registry and the lenient rungs' specs,"
echo "   the FIR search spec's pinned cover, the feasibility check against"
echo "   full minimization, the ladder's pinned outcomes at every rung, the"
echo "   equal-code lemma at every width, netlists against the concretizing"
echo "   renderer and rendered once per result, the hypercube encoder on odd"
echo "   and even cycles and against its map-based reference, the stage"
echo "   store's records by name and hash, the warm served pass's allocation"
echo "   ceiling, LT5's merge order, the search profile's records and"
echo "   report, Solve's pinned covers, steps and cutoffs, the exact work"
echo "   counters of the registry, its warm re-runs and edits and the search"
echo "   profile and the gen sample, the cold pass's allocation ceiling, the"
echo "   analysis and the truncated prime filter against their references,"
echo "   Canonical's sort and sharing, memoized results deep-equal to direct"
echo "   ones, nil slices included, minimization results deep-equal in every"
echo "   order and from four goroutines, the disabled span's zero"
echo "   allocations, and GT2's in-place reachability updates against a"
echo "   rebuilt index)"
go test -run '^Test(GoldenSynthesis|IndentMatchesStdlib|EncodersMatchMarshalIndent)$' -count=1 ./internal/codec
go test -run '^Test(MinimalHittingSets|ExpansionsMatchReference|ExpansionsTruncatedPrefix|PrimesContainingMatchesReference|PrimesContainingTruncated|MaximalMatchesBruteForce|MaximalFullArity|CubeIndexMatchesScan|SolvePinned|PrimesIndependentOfInputOrder)$' -count=1 ./internal/logic
go test -run '^Test(DHFPrimesMatchReference|DHFPrimesMatchLenientRungs|FIRBaselineSpecCover|FeasibleMatchesMinimize|AnalyzeMatchesReference|CanonicalSorts|StrictRungOutcomes|EqualCodesSameOutcome|EncoderMatchesReference|VerilogMatchesConcretizedRenderer|VerilogRendersOnce|HypercubeEncodeOddCycles|ColdSynthAllocs|StoreRecordsPinned|WarmServedAllocs|ShareSignalsFixedOrder|SearchRecordsPinned|WorkCountersPinned|RandomSpecsMemoEqualsDirect|ScratchReuse|SpanDisabledAllocs|ReachRemoveArcMatchesRebuild)$' -count=1 ./internal/hfmin ./internal/synth ./internal/stage ./internal/local ./internal/search ./internal/memo ./internal/obs ./internal/cdfg .
echo "== go test -race"
go test -race ./...
echo "== docs: every examples/*.adl compiles and round-trips byte-identically"
go test -race -run 'TestCompileEmbeddedExamples' -count=1 ./internal/frontend
for adl in examples/*.adl; do
	go run ./cmd/asyncsynth compile -check "$adl"
done
echo "== fuzz smoke (seeded generator soundness, 5s)"
go test -run '^Fuzz' -count=1 ./internal/codec ./internal/core ./internal/gen
go test -run '^$' -fuzz '^FuzzGenSoundness$' -fuzztime 5s ./internal/gen
echo "== memo equivalence (cached pipeline bit-identical to uncached)"
go test -race -run 'TestMemoEquivalence' -count=1 .
echo "== cold-cache overhead guard (<5% on the all-miss path)"
go test -run 'TestColdCacheOverheadGuard' -count=1 .
echo "== server smoke test (asyncsynthd on a random port: submit DIFFEQ,"
echo "   poll to completion, served netlists bit-identical to direct run,"
echo "   graceful SIGTERM drain; the daemon's log is captured and replayed"
echo "   on failure)"
go test -race -run 'TestServerSmoke' -count=1 ./cmd/asyncsynthd
echo "== daemon shell smoke (kernel-assigned free port, never a fixed one;"
echo "   fails fast and prints the captured server log on any non-zero step;"
echo "   a restart on the same -cache-dir serves DIFFEQ from the disk tier)"
tmp=$(mktemp -d)
daemon_pid=
cleanup() {
	if [ -n "$daemon_pid" ]; then
		kill "$daemon_pid" 2>/dev/null || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT
go build -o "$tmp/asyncsynthd" ./cmd/asyncsynthd
go build -o "$tmp/asyncsynth" ./cmd/asyncsynth
"$tmp/asyncsynth" export diffeq >"$tmp/diffeq.json"
"$tmp/asyncsynth" synthdoc diffeq >"$tmp/direct.doc"
fail_daemon() {
	echo "verify: daemon smoke failed: $1" >&2
	echo "--- captured server log ($tmp/daemon.log) ---" >&2
	cat "$tmp/daemon.log" >&2
	exit 1
}
# start_daemon launches asyncsynthd on one cache directory and sets base
# to the URL it announces.
start_daemon() {
	: >"$tmp/daemon.log" # no stale "listening on" line from a previous start
	"$tmp/asyncsynthd" -addr 127.0.0.1:0 -concurrency 1 -cache-dir "$tmp/cache" >"$tmp/daemon.log" 2>&1 &
	daemon_pid=$!
	base=
	for _ in $(seq 1 100); do
		base=$(awk '/^listening on /{print $3; exit}' "$tmp/daemon.log")
		[ -n "$base" ] && break
		kill -0 "$daemon_pid" 2>/dev/null || fail_daemon "daemon exited before announcing its port"
		sleep 0.1
	done
	[ -n "$base" ] || fail_daemon "daemon never printed 'listening on' (10s)"
	curl -fsS "$base/healthz" >/dev/null || fail_daemon "healthz"
}
# serve_diffeq submits DIFFEQ, polls it to completion and requires the
# served document to be byte-identical to the direct run.
serve_diffeq() {
	job=$(curl -fsS -X POST -H 'Content-Type: application/json' \
		--data-binary @"$tmp/diffeq.json" "$base/v1/jobs" |
		sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
	[ -n "$job" ] || fail_daemon "submission returned no job ID"
	state=
	for _ in $(seq 1 600); do
		state=$(curl -fsS "$base/v1/jobs/$job" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -1)
		[ "$state" = done ] && break
		case "$state" in failed | cancelled) fail_daemon "job state $state" ;; esac
		sleep 0.1
	done
	[ "$state" = done ] || fail_daemon "job never finished (60s, last state '$state')"
	curl -fsS "$base/v1/jobs/$job/result" >"$tmp/served.doc" || fail_daemon "result fetch"
	cmp "$tmp/served.doc" "$tmp/direct.doc" || fail_daemon "served document differs from the direct run"
}
stop_daemon() {
	kill -TERM "$daemon_pid"
	wait "$daemon_pid" || fail_daemon "daemon exited non-zero on SIGTERM drain"
	daemon_pid=
}
start_daemon
serve_diffeq
stop_daemon
start_daemon
serve_diffeq
disk_hits=$(curl -fsS "$base/metrics" | awk -F'} ' '/name="blob\/disk-hits"/{print $2; exit}')
[ "${disk_hits:-0}" -gt 0 ] || fail_daemon "restart on the same -cache-dir served no stage payload from disk (blob/disk-hits ${disk_hits:-absent})"
stop_daemon
echo "== server cancellation (DELETE frees pool workers without failing"
echo "   the other in-flight jobs; asserted via obs pool gauges)"
go test -race -run 'TestCancelFreesWorkersWithoutFailingOthers|TestHTTPBackpressureAndCancel' -count=1 ./internal/service
echo "== covering solver cross-check (bb's cost equals a plain reference"
echo "   search on the random corpus, bb's pinned optima on the GCD worst"
echo "   matrix and spec and on the FIR search spec, bb's pinned covers and"
echo "   search trees, the dhf-primes against the unpruned recursion, full"
echo "   pipeline synthesis at -j 4 bit-identical to -j 1 on all three"
echo "   benchmarks)"
go test -race -run 'TestSolverCrossCheck|TestGCDWorstCaseFixture|TestSolvePinned' -count=1 ./internal/logic
go test -race -run 'TestWorstCaseSpecSolvers|TestFIRBaselineSpecCover|TestDHFPrimesMatchReference' -count=1 ./internal/hfmin
go test -race -run 'TestParallelRunEquivalence' -count=1 .
echo "== gate-level closure (synthesized logic verified on every registry"
echo "   benchmark, including the formerly-failing FIR and AR; the token,"
echo "   controller- and gate-level simulators' output on the registry and"
echo "   gen seeds 1-40 against testdata/sim_traces.txt; gen seeds 0-199, and"
echo "   every registry design under all 32 GT skip masks, at GT and GT+LT"
echo "   close at controller and gate level or fail loudly, except the known"
echo "   silently wrong runs, two lists that may only shrink)"
go test -race -run 'TestGateClosureRegistry|TestSimulatorTraces|TestGenCorpusClosesOrFails|TestRegistrySkipMasksCloseOrFail' -count=1 ./internal/bench
echo "== rewrite search smoke (DIFFEQ, bounded profile)"
go run ./cmd/asyncsynth search diffeq -waves 1 -budget 16
echo "== covering worst-case benchmarks"
go test -run '^$' -bench 'BenchmarkCoveringWorstCase|BenchmarkMinimizeWorstCase' \
	-benchtime 20x ./internal/logic ./internal/hfmin
echo "== incremental equivalence (engine warm runs bit-identical to cold"
echo "   pipeline runs on every benchmark + generated corpus)"
go test -race -run 'TestIncrementalBenchmarkEdits|TestIncrementalDiskWarmStart|TestHTTPPatchEndToEnd' -count=1 . ./internal/service
echo "== verify: OK"
