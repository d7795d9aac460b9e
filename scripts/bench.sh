#!/bin/sh
# scripts/bench.sh — perf harness for the parallel grid-search engine.
#
# Runs the search/simulation benchmarks and emits BENCH_search.json with ns/op,
# B/op and allocs/op per benchmark plus the headline speedups. The
# benchmarks include SweepAppendixELarge, the extended Appendix E grid
# (GPT-3 on 512 GPUs, every family, batches 64-256) through the service,
# whose cost is dominated by V-schedule simulations. The headline ratios:
#
#   sweep_pruned    the full Figure-7 grid (all families x 52B batches),
#                   unpruned worker pool vs the analytic branch-and-bound
#                   (pricing cascade, incumbent skipping); prune_rate
#                   reports the fraction of candidates never simulated,
#                   and prune_rate_by_family breaks it down per method
#                   family (how far each family's registered bound
#                   carries)
#   parallel_scaling the pruned Figure-7 grid on 1 worker vs GOMAXPROCS
#                   workers (SweepFigure7PrunedSerial / SweepFigure7Pruned):
#                   each family's seven (family, batch) groups spread over
#                   the pool, so on one core this reads about 1.0
#   service_overhead what the request/response layer (canonicalization,
#                   job slot, response assembly) adds on top of the direct
#                   pruned sweep: ServiceSearchCold / SweepFigure7Pruned,
#                   so ~1.0 means the service path is effectively free
#   service_cache   cold /v1/search vs a result-cache hit on the same
#                   canonicalized request
#   store_overhead  what the durable store adds to the cold service path:
#                   ServiceSearchStore / ServiceSearchCold, where the
#                   store run persists the response and journals every
#                   (family, batch) checkpoint (NoSync: the ratio measures
#                   the durability machinery — marshalling, CRC framing,
#                   appends — not the host's fsync latency)
#   fault_overhead  what arming the chaos injector (ruleless, so no fault
#                   ever fires) costs the hot paths: FaultArmed / bare for
#                   the pruned Figure-7 sweep (injector consulted per pool
#                   item) and the single-batch simulation (consulted per
#                   job). Target <= 1.02x: chaos off the happy path is free.
#   cost_model_overhead what routing pricing through an explicitly
#                   looked-up "paper" cost model (registry indirection,
#                   interface dispatch) adds over the nil-Model default:
#                   SweepFigure7PrunedCostModel / SweepFigure7Pruned, same
#                   formulas and bytes by construction. Target <= 1.02x.
#   cascade         pricing-cascade counters from the pruned sweep: the
#                   fraction of bound-skips won by the tier-1 floor alone,
#                   and the fraction of candidates that paid the O(ops)
#                   tier-2 exact replay.
#   cold_sweep_figure7 the pruned Figure-7 sweep (paper families, 52B,
#                   batches 8-512, one worker) in a fresh process with
#                   empty memo caches, 5 times (scripts/coldsweep):
#                   the fastest and slowest wall time, the schedule keys
#                   generated and the heap still in use after a GC, which
#                   is what the memo caches keep.
#   history         frozen, dated numbers whose benchmarks or counters no
#                   longer exist, written back verbatim on every run: the
#                   speedups and allocs/op of the optimized search over
#                   the original serial evaluator (no memo caches,
#                   reference DES loop), the DES's indexed run loop
#                   against its reference loop (des_run), and the
#                   warm-started incumbents per pruned sweep, all last
#                   measured on 2026-08-08; the schedule replay has since
#                   replaced the DES as the simulator, and the warm-start
#                   seed pass is gone.
#
# Overhead ratios (service_overhead, fault_overhead) measure a wrapper
# against the exact work it wraps, so the true ratio is >= 1.0 by
# construction; a measured value below 1.0 is scheduler/timer noise, not a
# speedup. The JSON therefore clamps those ratios at 1.0 and records the
# raw measurement alongside under the _raw suffix, so a noisy run can never
# be misread as "the wrapper made it faster".
#
# Usage: scripts/bench.sh [output.json]   (env: BENCHTIME=3x BENCHCOUNT=1)
#
# With BENCHCOUNT>1 each benchmark runs that many times and the JSON
# records the fastest run (min ns/op) with the slowest alongside
# (ns_per_op_max, the spread): overhead ratios like fault_overhead compare
# numbers within ~2x of scheduler noise on a single-core box, and min-of-N
# is the stable estimator for those. B/op and allocs/op are each the
# minimum over the samples, not the fastest sample's: a sample of a few
# iterations carries one-off allocations (a pool refill after a GC, say)
# that the minimum drops.
set -eu
cd "$(dirname "$0")/.."
OUT=${1:-BENCH_search.json}
BENCHTIME=${BENCHTIME:-3x}
BENCHCOUNT=${BENCHCOUNT:-1}
TMP=$(mktemp)
COLD=$(mktemp -d)
trap 'rm -f "$TMP"; rm -rf "$COLD"' EXIT

go test -run '^$' \
	-bench 'BenchmarkSweepFigure7(Parallel|Pruned|PrunedSerial|PrunedFault|PrunedCostModel)$|BenchmarkSweepAppendixELarge$|BenchmarkSimulateBatch(Fault)?$|BenchmarkServiceSearch(Cold|Cached|Store)$' \
	-benchmem -benchtime="$BENCHTIME" -count="$BENCHCOUNT" . | tee "$TMP"

GOMAXPROCS_N=$(go run ./scripts/gomaxprocs 2>/dev/null || nproc 2>/dev/null || echo 1)

# One fresh process per cold run, so each starts with empty memo caches.
go build -o "$COLD/coldsweep" ./scripts/coldsweep
for i in 1 2 3 4 5; do
	"$COLD/coldsweep" >> "$COLD/runs"
done
cat "$COLD/runs"
# Each line is {"wall_ms": W, "schedule_keys": K, "heap_inuse_mib": H, "gomaxprocs": P}.
COLD_JSON=$(awk -F'[:,}]' '
{
	w = $2 + 0; k = $4 + 0; h = $6 + 0; p = $8 + 0
	if (NR == 1 || w < wmin) wmin = w
	if (NR == 1 || w > wmax) wmax = w
	if (NR == 1 || h < hmin) hmin = h
	if (NR == 1 || h > hmax) hmax = h
	if (NR > 1 && k != keys) { print "coldsweep: schedule keys differ between runs" > "/dev/stderr"; exit 1 }
	keys = k
}
END {
	printf "{\"runs\": %d, \"wall_ms_min\": %.1f, \"wall_ms_max\": %.1f, \"schedule_keys\": %d, \"heap_inuse_mib_min\": %.1f, \"heap_inuse_mib_max\": %.1f, \"gomaxprocs\": %d}", NR, wmin, wmax, keys, hmin, hmax, p
}' "$COLD/runs")

awk -v out="$OUT" -v maxprocs="$GOMAXPROCS_N" -v cold="$COLD_JSON" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	sub(/^Benchmark/, "", name)
	first = !(name in ns)
	if (first) order[n++] = name
	# B/op and allocs/op: each the minimum over the -count repeats
	for (i = 4; i <= NF; i++) {
		if ($(i+1) == "B/op" && (first || $i + 0 < bytes[name] + 0)) bytes[name] = $i
		if ($(i+1) == "allocs/op" && (first || $i + 0 < allocs[name] + 0)) allocs[name] = $i
	}
	if (first || $3 + 0 > nsmax[name] + 0) nsmax[name] = $3
	# min-of-N across -count repeats: the fastest record supplies the other metrics
	if (first || $3 + 0 < ns[name] + 0) {
		ns[name] = $3
		for (i = 4; i <= NF; i++) {
			if ($(i+1) == "prune%") prune[name] = $i
			if ($(i+1) == "floored%") floored[name] = $i
			if ($(i+1) == "replay%") replayed[name] = $i
			if ($(i+1) ~ /^prune_.+%$/) {
				fam = $(i+1)
				sub(/^prune_/, "", fam)
				sub(/%$/, "", fam)
				if (!(fam in famprune)) famorder[nf++] = fam
				famprune[fam] = $i
			}
		}
	}
}
# clamp1 floors a wrapper-vs-wrapped overhead ratio at 1.0 (the raw value
# is recorded separately): below 1.0 is measurement noise by construction.
function clamp1(x) { return x < 1 ? 1 : x }
END {
	printf "{\n" > out
	printf "  \"generated\": \"%s\",\n", date > out
	printf "  \"gomaxprocs\": %d,\n", maxprocs > out
	printf "  \"benchtime\": \"%s\",\n", "'"$BENCHTIME"'" > out
	printf "  \"benchcount\": %d,\n", "'"$BENCHCOUNT"'" > out
	printf "  \"benchmarks\": {\n" > out
	for (i = 0; i < n; i++) {
		k = order[i]
		printf "    \"%s\": {\"ns_per_op\": %s, \"ns_per_op_max\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
			k, ns[k], nsmax[k], bytes[k] == "" ? 0 : bytes[k], allocs[k] == "" ? 0 : allocs[k], \
			i < n-1 ? "," : "" > out
	}
	printf "  },\n" > out
	printf "  \"speedups\": {\n" > out
	printf "    \"sweep_pruned\": %.2f,\n", ns["SweepFigure7Parallel"] / ns["SweepFigure7Pruned"] > out
	printf "    \"parallel_scaling\": %.2f,\n", ns["SweepFigure7PrunedSerial"] / ns["SweepFigure7Pruned"] > out
	printf "    \"service_overhead\": %.3f,\n", clamp1(ns["ServiceSearchCold"] / ns["SweepFigure7Pruned"]) > out
	printf "    \"service_overhead_raw\": %.3f,\n", ns["ServiceSearchCold"] / ns["SweepFigure7Pruned"] > out
	printf "    \"store_overhead\": %.3f,\n", clamp1(ns["ServiceSearchStore"] / ns["ServiceSearchCold"]) > out
	printf "    \"store_overhead_raw\": %.3f,\n", ns["ServiceSearchStore"] / ns["ServiceSearchCold"] > out
	printf "    \"service_cache\": %.0f\n", ns["ServiceSearchCold"] / ns["ServiceSearchCached"] > out
	printf "  },\n" > out
	printf "  \"fault_overhead\": {\n" > out
	printf "    \"sweep_figure7_pruned\": %.3f,\n", clamp1(ns["SweepFigure7PrunedFault"] / ns["SweepFigure7Pruned"]) > out
	printf "    \"sweep_figure7_pruned_raw\": %.3f,\n", ns["SweepFigure7PrunedFault"] / ns["SweepFigure7Pruned"] > out
	printf "    \"simulate_batch\": %.3f,\n", clamp1(ns["SimulateBatchFault"] / ns["SimulateBatch"]) > out
	printf "    \"simulate_batch_raw\": %.3f\n", ns["SimulateBatchFault"] / ns["SimulateBatch"] > out
	printf "  },\n" > out
	printf "  \"cost_model_overhead\": %.3f,\n", clamp1(ns["SweepFigure7PrunedCostModel"] / ns["SweepFigure7Pruned"]) > out
	printf "  \"cost_model_overhead_raw\": %.3f,\n", ns["SweepFigure7PrunedCostModel"] / ns["SweepFigure7Pruned"] > out
	printf "  \"cascade\": {\n" > out
	printf "    \"floored_skip_rate\": %.3f,\n", floored["SweepFigure7Pruned"] / 100 > out
	printf "    \"replay_priced_rate\": %.3f\n", replayed["SweepFigure7Pruned"] / 100 > out
	printf "  },\n" > out
	printf "  \"prune_rate\": %.3f,\n", prune["SweepFigure7Pruned"] / 100 > out
	printf "  \"prune_rate_by_family\": {\n" > out
	for (i = 0; i < nf; i++) {
		f = famorder[i]
		printf "    \"%s\": %.3f%s\n", f, famprune[f] / 100, i < nf-1 ? "," : "" > out
	}
	printf "  },\n" > out
	printf "  \"cold_sweep_figure7\": %s,\n", cold > out
	printf "  \"history\": {\n" > out
	printf "    \"measured\": \"2026-08-08\",\n" > out
	printf "    \"note\": \"optimized search vs the original serial evaluator (no memo caches, reference DES loop), and the DES indexed run loop vs its reference loop (des_run), deleted after this measurement; the warm-started incumbents per pruned Figure-7 sweep, whose seed pass was deleted later; gomaxprocs 1, benchtime 3x\",\n" > out
	printf "    \"benchmarks\": {\n" > out
	printf "      \"DESRunFast\": {\"ns_per_op\": 48438, \"bytes_per_op\": 131685, \"allocs_per_op\": 6},\n" > out
	printf "      \"DESRunReference\": {\"ns_per_op\": 244012, \"bytes_per_op\": 133848, \"allocs_per_op\": 10}\n" > out
	printf "    },\n" > out
	printf "    \"speedups\": {\n" > out
	printf "      \"sweep_figure7\": 3.54,\n" > out
	printf "      \"optimize\": 100.44,\n" > out
	printf "      \"simulate_batch\": 2.51,\n" > out
	printf "      \"des_run\": 5.04\n" > out
	printf "    },\n" > out
	printf "    \"allocs_reduction\": {\n" > out
	printf "      \"simulate_batch\": \"95 -> 7 allocs/op\",\n" > out
	printf "      \"optimize\": \"12674 -> 1570 allocs/op\"\n" > out
	printf "    },\n" > out
	printf "    \"cascade\": {\n" > out
	printf "      \"warm_starts_per_sweep\": 1\n" > out
	printf "    }\n" > out
	printf "  }\n" > out
	printf "}\n" > out
}
' "$TMP"

echo "wrote $OUT"
cat "$OUT"
