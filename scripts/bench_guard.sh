#!/bin/sh
# bench_guard.sh — fail the build when the harness regresses.
#
# Reruns `ompss-bench -experiment all -quick` serially and compares its
# wall-clock to the serial_ms recorded in BENCH_harness.json. A run slower
# OR faster than the ±TOL% band fails: slower means a perf regression,
# dramatically faster usually means an experiment silently stopped doing
# its work. Also re-measures the armed zero-fault overhead against the
# recorded budget.
#
# Wall-clock is inherently noisy, so this is a wide net for catastrophic
# regressions, not a microbenchmark; CI runs it as a separate non-required
# job. Tune with BENCH_GUARD_TOL_PCT (default 25).
#
# Strictly POSIX sh; timing comes from ompss-bench's own -walltime flag.
#
# Usage: sh scripts/bench_guard.sh
set -e

cd "$(dirname "$0")/.."
BASE=BENCH_harness.json
if [ ! -f "$BASE" ]; then
    echo "bench-guard: no $BASE baseline; run 'make baseline' first" >&2
    exit 1
fi

TOL_PCT=${BENCH_GUARD_TOL_PCT:-25}
BIN=$(mktemp /tmp/ompss-bench.XXXXXX)
WT=$(mktemp /tmp/ompss-walltime.XXXXXX)
trap 'rm -f "$BIN" "$WT"' EXIT

go build -o "$BIN" ./cmd/ompss-bench

# json_num FIELD FILE: extract a (possibly negative/fractional) number.
# A missing field is a hard error naming the field — an empty string used
# to flow silently into the awk comparisons and vacuously pass the gate.
json_num() {
    v=$(sed -n "s/.*\"$1\": *\\(-\\{0,1\\}[0-9][0-9.]*\\).*/\\1/p" "$2")
    if [ -z "$v" ]; then
        echo "bench-guard: field \"$1\" missing from $2; re-record with 'make baseline'" >&2
        exit 1
    fi
    echo "$v"
}

BASE_MS=$(json_num serial_ms "$BASE")
BUDGET_PCT=$(json_num armed_overhead_budget_pct "$BASE")
BASE_TPS=$(json_num stress_quick_tasks_per_sec "$BASE")
if [ "$BASE_MS" -le 0 ]; then
    echo "bench-guard: $BASE has no usable serial_ms" >&2
    exit 1
fi

"$BIN" -experiment all -quick -parallel 1 -walltime "$WT" >/dev/null
NOW_MS=$(json_num ms "$WT")

DELTA_PCT=$(awk -v now="$NOW_MS" -v base="$BASE_MS" \
    'BEGIN { printf "%.1f", (now - base) / base * 100 }')
echo "bench-guard: serial $NOW_MS ms vs baseline $BASE_MS ms (${DELTA_PCT}%, tolerance +/-${TOL_PCT}%)"

STATUS=0
if awk -v d="$DELTA_PCT" -v tol="$TOL_PCT" \
    'BEGIN { exit (d <= tol && d >= -tol) ? 0 : 1 }'; then
    :
else
    echo "bench-guard: FAIL: wall-clock outside the +/-${TOL_PCT}% band" >&2
    STATUS=1
fi

RES_OUT=$("$BIN" -experiment resilience -quick)
ARMED_PCT=$(echo "$RES_OUT" | awk '/armed zero-fault overhead/ {print $(NF-1)}')
if [ -z "$ARMED_PCT" ]; then
    echo "bench-guard: FAIL: resilience run reported no armed overhead row" >&2
    STATUS=1
else
    echo "bench-guard: armed zero-fault overhead ${ARMED_PCT}% (budget ${BUDGET_PCT}%)"
    if awk -v o="$ARMED_PCT" -v b="$BUDGET_PCT" 'BEGIN { exit (o <= b) ? 0 : 1 }'; then
        :
    else
        echo "bench-guard: FAIL: armed overhead ${ARMED_PCT}% exceeds budget ${BUDGET_PCT}%" >&2
        STATUS=1
    fi
fi

# Submission throughput gate: rerun the quick stress grid and compare the
# batch-submission tasks/sec row to the recorded baseline, same +/- band.
# A drop is a hot-path regression; a jump past the band usually means the
# stress workload silently shrank — both fail (re-record deliberately).
STRESS_OUT=$("$BIN" -experiment stress -quick)
NOW_TPS=$(echo "$STRESS_OUT" | awk '/ov=0 submit=batch/ {print $(NF-1)}')
if [ -z "$NOW_TPS" ]; then
    echo "bench-guard: FAIL: stress run reported no 'ov=0 submit=batch' row" >&2
    STATUS=1
else
    TPS_DELTA_PCT=$(awk -v now="$NOW_TPS" -v base="$BASE_TPS" \
        'BEGIN { printf "%.1f", (now - base) / base * 100 }')
    echo "bench-guard: stress $NOW_TPS tasks/s vs baseline $BASE_TPS (${TPS_DELTA_PCT}%, tolerance +/-${TOL_PCT}%)"
    if awk -v d="$TPS_DELTA_PCT" -v tol="$TOL_PCT" \
        'BEGIN { exit (d <= tol && d >= -tol) ? 0 : 1 }'; then
        :
    else
        echo "bench-guard: FAIL: submission throughput outside the +/-${TOL_PCT}% band" >&2
        STATUS=1
    fi
fi

# Weak-scaling gate: rerun the quick weakscale grid and compare the
# 64-node sharded tasks/sec row to the recorded baseline, same +/- band.
# This number is virtual time (deterministic), so drifting out of the
# band means the manager cost model, span decomposition, or sharded
# routing genuinely changed — re-record deliberately with 'make baseline'.
BASE_WS=$(json_num weakscale_64_tasks_per_sec "$BASE")
WSCALE_OUT=$("$BIN" -experiment weakscale -quick)
NOW_WS=$(echo "$WSCALE_OUT" | awk '/n=64 sharded/ && !/dirops/ {print $(NF-1)}')
if [ -z "$NOW_WS" ]; then
    echo "bench-guard: FAIL: weakscale run reported no 'n=64 sharded' row" >&2
    STATUS=1
else
    WS_DELTA_PCT=$(awk -v now="$NOW_WS" -v base="$BASE_WS" \
        'BEGIN { printf "%.1f", (now - base) / base * 100 }')
    echo "bench-guard: weakscale(64,sharded) $NOW_WS tasks/s vs baseline $BASE_WS (${WS_DELTA_PCT}%, tolerance +/-${TOL_PCT}%)"
    if awk -v d="$WS_DELTA_PCT" -v tol="$TOL_PCT" \
        'BEGIN { exit (d <= tol && d >= -tol) ? 0 : 1 }'; then
        :
    else
        echo "bench-guard: FAIL: weakscale throughput outside the +/-${TOL_PCT}% band" >&2
        STATUS=1
    fi
fi

# Power-cap gate: rerun the quick powercap frontier and compare the
# uncapped heft tasks/sec row to the recorded baseline, same +/- band.
# Virtual time again (deterministic): drifting out means the per-device
# cost model, HEFT place binding, or the mixed presets changed — and the
# experiment's own verify row already failed the run if a capped checksum
# diverged. Re-record deliberately with 'make baseline'.
BASE_PC=$(json_num powercap_heft_tasks_per_sec "$BASE")
POWERCAP_OUT=$("$BIN" -experiment powercap -quick)
NOW_PC=$(echo "$POWERCAP_OUT" | awk '/heft uncapped throughput/ {print $(NF-1)}')
if [ -z "$NOW_PC" ]; then
    echo "bench-guard: FAIL: powercap run reported no 'heft uncapped throughput' row" >&2
    STATUS=1
else
    PC_DELTA_PCT=$(awk -v now="$NOW_PC" -v base="$BASE_PC" \
        'BEGIN { printf "%.1f", (now - base) / base * 100 }')
    echo "bench-guard: powercap(heft,uncapped) $NOW_PC tasks/s vs baseline $BASE_PC (${PC_DELTA_PCT}%, tolerance +/-${TOL_PCT}%)"
    if awk -v d="$PC_DELTA_PCT" -v tol="$TOL_PCT" \
        'BEGIN { exit (d <= tol && d >= -tol) ? 0 : 1 }'; then
        :
    else
        echo "bench-guard: FAIL: powercap throughput outside the +/-${TOL_PCT}% band" >&2
        STATUS=1
    fi
fi

# Serving-layer gate: rerun the canonical load test (same shape the
# baseline recorded) and compare warm-cache requests/sec, same +/- band.
# The selftest itself fails on request errors or a warm hit rate below
# 99%, so a broken cache cannot pass by being fast.
BASE_RPS=$(json_num serve_warm_rps "$BASE")
SERVE_BIN=$(mktemp /tmp/ompss-serve.XXXXXX)
SERVE_OUT=$(mktemp /tmp/ompss-serve-out.XXXXXX)
trap 'rm -f "$BIN" "$WT" "$SERVE_BIN" "$SERVE_OUT"' EXIT
go build -o "$SERVE_BIN" ./cmd/ompss-serve
if ! "$SERVE_BIN" -selftest > "$SERVE_OUT"; then
    echo "bench-guard: FAIL: serve selftest failed (errors or hit rate < 99%)" >&2
    cat "$SERVE_OUT" >&2
    STATUS=1
else
    NOW_RPS=$(sed -n 's/.*"warm_rps": *\([0-9][0-9.]*\).*/\1/p' "$SERVE_OUT")
    if [ -z "$NOW_RPS" ]; then
        echo "bench-guard: FAIL: serve selftest reported no warm_rps" >&2
        STATUS=1
    else
        RPS_DELTA_PCT=$(awk -v now="$NOW_RPS" -v base="$BASE_RPS" \
            'BEGIN { printf "%.1f", (now - base) / base * 100 }')
        echo "bench-guard: serve $NOW_RPS warm req/s vs baseline $BASE_RPS (${RPS_DELTA_PCT}%, tolerance +/-${TOL_PCT}%)"
        if awk -v d="$RPS_DELTA_PCT" -v tol="$TOL_PCT" \
            'BEGIN { exit (d <= tol && d >= -tol) ? 0 : 1 }'; then
            :
        else
            echo "bench-guard: FAIL: warm-cache requests/sec outside the +/-${TOL_PCT}% band" >&2
            STATUS=1
        fi
    fi
fi

[ "$STATUS" -eq 0 ] && echo "bench-guard: OK"
exit $STATUS
