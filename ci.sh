#!/bin/sh
# ci.sh — build + vet + format check + tests (shuffled) + the bfppbench
# module's vet and tests + an HTTP smoke test of bfpp-serve, clean and
# with a chaos script armed (a retrying client must absorb the injected
# transient fault and still byte-match)
# + a bounded fuzz of the validated-plan generation property
# + a worker-count invariance check of bfpp-search (table and pruning
# counters) + a bfpp-calibrate smoke (deterministic fit, byte-stable
# fitted search)
# + a race pass over every internal package.
# Set SKIP_RACE=1 on toolchains without cgo.
set -eu
cd "$(dirname "$0")"

BIN=$(mktemp -d)
trap 'rm -rf "$BIN"; [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null || true' EXIT

echo "== go build"
go build ./...
go build -o "$BIN/bfpp-serve" ./cmd/bfpp-serve
go build -o "$BIN/bfpp-search" ./cmd/bfpp-search

echo "== go vet"
# The default analyzer set includes the ones this codebase leans on
# hardest: -copylocks (the service/search structs embed sync.Mutex and
# atomic counters; copying one silently forks its state) and -atomic
# (the lifetime counters are atomic.Int64 hot paths). An explicit
# narrowed pass over the libraries keeps those two from being diluted
# away if the default set is ever trimmed with flags.
go vet ./...
go vet -copylocks -atomic ./internal/...

echo "== bfpp-lint (project invariants: determinism, registry dispatch, context-first, global state)"
# The suite must end green; per-analyzer counts are printed on stderr so
# a regression names the invariant it broke. See README "Static
# invariants" and internal/lint for the rules and the pragma contract.
go run ./cmd/bfpp-lint ./...

echo "== gofmt -s"
UNFORMATTED=$(gofmt -s -l .)
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt -s needed on:" "$UNFORMATTED"
	exit 1
fi

echo "== go test (-shuffle=on: no hidden inter-test ordering dependencies)"
go test -shuffle=on ./...

echo "== fuzz (bounded; every plan Plan.Validate accepts must generate and check,"
echo "   which is what lets engine.Precheck skip generation)"
go test -run '^$' -fuzz '^FuzzValidatedPlanGenerates$' -fuzztime 10s ./internal/schedule

echo "== bfppbench (the repo benchmark is its own module; build, vet and test it"
echo "   against this tree, so a refactor cannot leave it unbuildable)"
(cd bfppbench && go vet ./... && go test ./...)

echo "== benchmarks smoke (benchtime=1x, so they cannot rot; includes the"
echo "   SweepAppendixELarge interactive-deadline assertion)"
go test -run '^$' -bench . -benchtime=1x . > /dev/null

echo "== worker-count invariance (the Figure 7 sweep's table on stdout and its"
echo "   pruning counters on stderr must be byte-identical at -workers 1 and 4)"
for w in 1 4; do
	"$BIN/bfpp-search" -model 52B -batches 8,16,32,64,128,256,512 -workers "$w" \
		> "$BIN/fig7.w$w.out" 2> "$BIN/fig7.w$w.err"
done
if ! cmp -s "$BIN/fig7.w1.out" "$BIN/fig7.w4.out" || ! cmp -s "$BIN/fig7.w1.err" "$BIN/fig7.w4.err"; then
	echo "bfpp-search output depends on the worker count:"
	diff "$BIN/fig7.w1.out" "$BIN/fig7.w4.out" || true
	diff "$BIN/fig7.w1.err" "$BIN/fig7.w4.err" || true
	exit 1
fi
echo "table and pruning counters byte-identical at -workers 1 and 4"

echo "== HTTP smoke (bfpp-serve on an ephemeral port vs in-process table)"
"$BIN/bfpp-serve" -addr 127.0.0.1:0 > "$BIN/serve.out" 2>&1 &
SERVE_PID=$!
URL=""
for i in $(seq 1 50); do
	URL=$(sed -n 's#.*listening on ##p' "$BIN/serve.out")
	[ -n "$URL" ] && break
	sleep 0.1
done
[ -n "$URL" ] || { echo "bfpp-serve did not come up"; cat "$BIN/serve.out"; exit 1; }
go run ./scripts/httpsmoke "$URL" \
	'{"model":"6.6B","cluster":"paper","batches":[32,64]}' > "$BIN/table.http"
go run ./cmd/bfpp-search -model 6.6B -batches 32,64 2>/dev/null > "$BIN/table.cli"
if ! cmp -s "$BIN/table.http" "$BIN/table.cli"; then
	echo "HTTP /v1/search table differs from bfpp-search output:"
	diff "$BIN/table.http" "$BIN/table.cli" || true
	exit 1
fi
kill "$SERVE_PID" 2>/dev/null && wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
echo "HTTP table byte-identical to the CLI table"

echo "== HTTP chaos smoke (one injected transient fault; the retrying client must still byte-match)"
"$BIN/bfpp-serve" -addr 127.0.0.1:0 -chaos job:error:1 > "$BIN/serve-chaos.out" 2>&1 &
SERVE_PID=$!
URL=""
for i in $(seq 1 50); do
	URL=$(sed -n 's#.*listening on ##p' "$BIN/serve-chaos.out")
	[ -n "$URL" ] && break
	sleep 0.1
done
[ -n "$URL" ] || { echo "chaos bfpp-serve did not come up"; cat "$BIN/serve-chaos.out"; exit 1; }
go run ./scripts/httpsmoke "$URL" \
	'{"model":"6.6B","cluster":"paper","batches":[32,64]}' > "$BIN/table.chaos"
if ! cmp -s "$BIN/table.chaos" "$BIN/table.cli"; then
	echo "chaos-survived /v1/search table differs from bfpp-search output:"
	diff "$BIN/table.chaos" "$BIN/table.cli" || true
	exit 1
fi
kill "$SERVE_PID" 2>/dev/null && wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
echo "chaos table byte-identical to the CLI table (client retried through the fault)"

echo "== kill-and-resume smoke (SIGKILL mid-sweep; the restarted server must"
echo "   resume from its journal and still byte-match bfpp-search)"
STORE="$BIN/store"
KILL_REQ='{"model":"6.6B","cluster":"paper","families":["every"],"batches":[8,16,32,64,128,256,512,1024],"no_prune":true}'
"$BIN/bfpp-serve" -addr 127.0.0.1:0 -store "$STORE" > "$BIN/serve-kill.out" 2>&1 &
SERVE_PID=$!
URL=""
for i in $(seq 1 50); do
	URL=$(sed -n 's#.*listening on ##p' "$BIN/serve-kill.out")
	[ -n "$URL" ] && break
	sleep 0.1
done
[ -n "$URL" ] || { echo "store-backed bfpp-serve did not come up"; cat "$BIN/serve-kill.out"; exit 1; }
# Fire a slow unpruned sweep, wait for the first checkpoints to reach the
# journal, then SIGKILL the server mid-flight: no drain, no shutdown hooks
# — only the per-record fsyncs in the sweep journal survive. The orphaned
# client is expected to fail; ignore it.
go run ./scripts/httpsmoke "$URL" "$KILL_REQ" > /dev/null 2>&1 &
SMOKE_PID=$!
for i in $(seq 1 100); do
	[ -s "$STORE/sweeps.journal" ] && break
	sleep 0.2
done
sleep 0.5 # let a few more groups resolve, but stay mid-sweep
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
kill "$SMOKE_PID" 2>/dev/null || true
wait "$SMOKE_PID" 2>/dev/null || true
if [ -s "$STORE/sweeps.journal" ]; then
	echo "journal holds $(wc -c < "$STORE/sweeps.journal") bytes of checkpoints from the killed sweep"
else
	echo "note: the sweep was killed before its first checkpoint (resume degenerates to a fresh run)"
fi
"$BIN/bfpp-serve" -addr 127.0.0.1:0 -store "$STORE" > "$BIN/serve-resume.out" 2>&1 &
SERVE_PID=$!
URL=""
for i in $(seq 1 50); do
	URL=$(sed -n 's#.*listening on ##p' "$BIN/serve-resume.out")
	[ -n "$URL" ] && break
	sleep 0.1
done
[ -n "$URL" ] || { echo "restarted bfpp-serve did not come up"; cat "$BIN/serve-resume.out"; exit 1; }
go run ./scripts/httpsmoke "$URL" "$KILL_REQ" > "$BIN/table.resumed"
go run ./cmd/bfpp-search -model 6.6B -families every -noprune \
	-batches 8,16,32,64,128,256,512,1024 2>/dev/null > "$BIN/table.resume-want"
if ! cmp -s "$BIN/table.resumed" "$BIN/table.resume-want"; then
	echo "journal-resumed table differs from bfpp-search output:"
	diff "$BIN/table.resumed" "$BIN/table.resume-want" || true
	exit 1
fi
kill "$SERVE_PID" 2>/dev/null && wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
echo "resumed table byte-identical to the CLI table (journal replayed across the SIGKILL)"

echo "== calibrate smoke (tiny measure budget; the fit and the search it feeds must be deterministic)"
CAL="$BIN/cal"
mkdir -p "$CAL"
# Measurement is inherently nondeterministic (it times real kernels); the
# pinned property is everything downstream of the samples file: the same
# samples always fit to byte-identical profiles, and a fitted profile
# drives byte-identical search tables across runs.
go run ./cmd/bfpp-calibrate -quick -reps 1 \
	-samples "$CAL/samples.json" -profile "$CAL/profile.json" > /dev/null
go run ./cmd/bfpp-calibrate -fit "$CAL/samples.json" -profile "$CAL/refit1.json" > /dev/null
go run ./cmd/bfpp-calibrate -fit "$CAL/samples.json" -profile "$CAL/refit2.json" > /dev/null
if ! cmp -s "$CAL/refit1.json" "$CAL/refit2.json" || ! cmp -s "$CAL/refit1.json" "$CAL/profile.json"; then
	echo "re-fitting the same samples produced different profiles:"
	diff "$CAL/profile.json" "$CAL/refit1.json" || true
	diff "$CAL/refit1.json" "$CAL/refit2.json" || true
	exit 1
fi
go run ./cmd/bfpp-search -model 6.6B -batches 32 \
	-costmodel "calibrated:$CAL/profile.json" 2>/dev/null > "$CAL/table1"
go run ./cmd/bfpp-search -model 6.6B -batches 32 \
	-costmodel "calibrated:$CAL/profile.json" 2>/dev/null > "$CAL/table2"
if ! cmp -s "$CAL/table1" "$CAL/table2"; then
	echo "two searches under the same fitted profile differ:"
	diff "$CAL/table1" "$CAL/table2" || true
	exit 1
fi
echo "fit deterministic (measure->fit == refit == refit) and the fitted-profile search is byte-stable"

if [ "${SKIP_RACE:-0}" != "1" ]; then
	echo "== go test -race (every internal package)"
	go test -race -count=1 ./internal/...
fi

echo "== ci OK"
