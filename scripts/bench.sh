#!/usr/bin/env bash
# scripts/bench.sh — record a benchmark baseline for this repository.
#
# Runs the tier-1 real-execution benchmarks at a pinned worker count and
# writes the best-of-N results as JSON to the named file (BENCH_<n>.json by
# convention), so each change can leave a comparable perf datapoint next
# to the code it changed. The
# traced WRN forward records the telemetry overhead next to its untraced
# twin; their ratio is the enabled-tracing cost on a real workload. The
# serving curve (ttaload's throughput-vs-stream-count sweep through the
# HTTP wire API) is embedded under "serve_curve", and the seeded chaos
# run's full report — including the fault-to-first-served recovery-latency
# p50/p95 — under "serve_chaos".
#
# Usage: scripts/bench.sh out.json
#   EDGETTA_WORKERS  pool width to pin (default 1 — the 1-core dev box)
#   BENCH_COUNT      repetitions per benchmark; the minimum is kept (default 3)
#   BENCH_TIME       go test -benchtime value (default 5x)
#   SERVE_CURVE      stream counts for the serving sweep (default 1,2,4,8)
#   SERVE_SAMPLES    samples per stream in the sweep (default 48)
#   CHAOS_SEED       fault-schedule seed for the chaos run (default 1)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:?usage: scripts/bench.sh out.json}"
WORKERS="${EDGETTA_WORKERS:-1}"
COUNT="${BENCH_COUNT:-3}"
TIME="${BENCH_TIME:-5x}"
PATTERN='^(BenchmarkConv3x3Forward|BenchmarkConv3x3ForwardIm2Col|BenchmarkConv3x3ForwardFMA|BenchmarkConv3x3Backward|BenchmarkConv1x1Forward|BenchmarkMatMul256|BenchmarkFullScaleWRNForward|BenchmarkFullScaleWRNForwardTraced|BenchmarkInferenceRepro|BenchmarkBNNormRepro|BenchmarkBNOptRepro|BenchmarkScenarioStream)$'

CURVE="${SERVE_CURVE:-1,2,4,8}"
CURVE_SAMPLES="${SERVE_SAMPLES:-48}"

RAW="$(EDGETTA_WORKERS="$WORKERS" go test -run=NONE -bench="$PATTERN" -benchtime="$TIME" -count="$COUNT" .)"
printf '%s\n' "$RAW"

SERVE_JSON="$(EDGETTA_WORKERS="$WORKERS" go run ./cmd/ttaload \
	-curve "$CURVE" -samples "$CURVE_SAMPLES" -batch 8 -out -)"

# Seeded chaos run: replica panics, a slow replica, a failed checkpoint
# write and one full restart. Its report carries the recovery latency
# (fault to the group's next served batch, p50/p95 in ms). The run exits
# nonzero if any batch was lost, double-adapted, or diverged bitwise.
CHAOS_TMP="$(mktemp)"
trap 'rm -f "$CHAOS_TMP"' EXIT
EDGETTA_WORKERS="$WORKERS" go run ./cmd/ttaload \
	-chaos "${CHAOS_SEED:-1}" -samples 16 -batch 4 -replicas 2 -out "$CHAOS_TMP" >&2
CHAOS_JSON="$(cat "$CHAOS_TMP")"

{
	printf '{\n'
	printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	printf '  "go": "%s",\n' "$(go env GOVERSION)"
	printf '  "goos_goarch": "%s/%s",\n' "$(go env GOOS)" "$(go env GOARCH)"
	printf '  "workers": %s,\n' "$WORKERS"
	printf '  "benchtime": "%s",\n' "$TIME"
	printf '  "count": %s,\n' "$COUNT"
	printf '  "serve_curve": %s,\n' "$SERVE_JSON"
	printf '  "serve_chaos": %s,\n' "$CHAOS_JSON"
	printf '  "ns_per_op": {\n'
	printf '%s\n' "$RAW" | awk '
		/^Benchmark/ {
			name = $1
			sub(/-[0-9]+$/, "", name)
			for (i = 2; i <= NF; i++) {
				if ($(i+1) == "ns/op") {
					ns = $i + 0
					if (!(name in best) || ns < best[name]) best[name] = ns
					if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
				}
			}
		}
		END {
			for (i = 1; i <= n; i++)
				printf "    \"%s\": %d%s\n", order[i], best[order[i]], (i < n ? "," : "")
		}'
	printf '  }\n'
	printf '}\n'
} >"$OUT"
echo "wrote $OUT"
