#!/usr/bin/env bash
# Runs the benchmark suite and records the results under benchmarks/, so a
# baseline can be diffed against after performance work (e.g. with
# golang.org/x/perf/cmd/benchstat when available):
#
#   scripts/bench.sh                 # full suite -> benchmarks/latest.{txt,json}
#   BENCH='Substrates' scripts/bench.sh   # just the substrate comparisons
#   BENCH='Sharded' scripts/bench.sh      # just the shard-scaling benchmarks
#   BENCH='ProbeModes' scripts/bench.sh   # just the probe-mode comparisons
#   BENCH='Lease|Laload' scripts/bench.sh # lease manager + name-service benchmarks,
#                                    # incl. the laload loopback smoke (one full
#                                    # verified closed-loop run per iteration)
#   COUNT=5 scripts/bench.sh         # repetitions for stable statistics
#   scripts/bench.sh --ab            # HTTP-vs-wire A/B only -> benchmarks/wire-ab.txt
#   scripts/bench.sh --trace-ab      # flight-recorder overhead gate
#                                    #   -> benchmarks/trace-ab.txt
#   scripts/bench.sh --rto           # crash-restart recovery benchmark
#                                    #   -> benchmarks/recovery-rto.txt
#   scripts/bench.sh --gate          # regression gate vs benchmarks/baseline.json
#   scripts/bench.sh --gate-check    # re-compare the last --gate run (no re-run)
#
# The gate makes "fast" a checked invariant: --gate runs the GATE_BENCH
# benchmarks COUNT times, keeps each benchmark's median ns/op (robust to the
# one rep that hit a GC or a noisy co-tenant), writes the flat `"name": ns_op`
# result to GATE_OUT, and fails if any benchmark is more than
# BENCH_MAX_REGRESSION_PCT percent slower than benchmarks/baseline.json. Before comparing, the baseline
# is scaled by the ratio of BenchmarkCalibration (a fixed pure-CPU anchor) now
# vs at baseline-recording time, so the gate measures the tree, not the
# machine. Knobs:
#
#   GATE_BENCH                 benchmarks to gate (default the stable subset)
#   COUNT                      repetitions, median taken (default 5 for --gate)
#   BENCH_MAX_REGRESSION_PCT   allowed slowdown in percent (default 5)
#   BENCH_BASELINE_SCALE       multiplies baseline ns/op before comparing;
#                              0.5 pretends the baseline was twice as fast —
#                              CI uses it to prove the gate actually fails
#   GATE_OUT                   where the run's JSON goes (default
#                              /tmp/la-gate-latest.json)
#   BENCH_GATE_SKIP_COMPARE    1 = run and record but do not compare
#                              (scripts/bench-update.sh uses this to promote
#                              a fresh baseline)
#
# latest.txt is the raw `go test -bench` output; latest.json maps benchmark
# name -> ns/op (averaged over COUNT repetitions), so the perf trajectory is
# diffable across PRs with plain JSON tooling. Before each run the previous
# latest.{txt,json} are rotated to previous.{txt,json}, and afterwards a
# per-benchmark delta table (prev ns/op, new ns/op, %) is printed and written
# to benchmarks/delta.txt so regressions are visible at a glance (and in the
# PR diff when the recorded files are committed).
set -euo pipefail

cd "$(dirname "$0")/.."

# --ab: run only the protocol A/B pair (the identical acquire+release
# workload over HTTP/JSON and over the binary wire protocol) and record the
# speedup factor in benchmarks/wire-ab.txt.
if [ "${1:-}" = "--ab" ]; then
  COUNT="${COUNT:-3}"
  BENCHTIME="${BENCHTIME:-1s}"
  OUT_DIR=benchmarks
  OUT_AB="$OUT_DIR/wire-ab.txt"
  mkdir -p "$OUT_DIR"
  {
    echo "# go test -bench BenchmarkServiceAB -benchtime $BENCHTIME -count $COUNT"
    echo "# $(date -u +"%Y-%m-%dT%H:%M:%SZ") $(go version)"
    go test -run xxx -bench 'BenchmarkServiceAB' -benchtime "$BENCHTIME" -count "$COUNT" .
  } | tee "$OUT_AB.raw"
  # Average repetitions per protocol and append the headline speedup factor.
  awk '
    /^BenchmarkServiceAB\/proto=http/ { http += $3; nh++ }
    /^BenchmarkServiceAB\/proto=wire/ { wire += $3; nw++ }
    { print }
    END {
      if (nh > 0 && nw > 0 && wire > 0) {
        printf "\n# http %.0f ns/op, wire %.0f ns/op over %d reps\n", http / nh, wire / nw, nh
        printf "# wire speedup over HTTP: %.2fx\n", (http / nh) / (wire / nw)
      }
    }
  ' "$OUT_AB.raw" > "$OUT_AB"
  rm -f "$OUT_AB.raw"
  tail -3 "$OUT_AB"
  echo "wrote $OUT_AB"
  exit 0
fi

# --trace-ab: the flight-recorder overhead gate. Runs the same wire
# acquire+release workload three ways — no recorder installed, a recorder
# installed but disabled (the default production shape), and a recorder
# recording every span — and fails if the disabled recorder costs more than
# TRACE_OFF_MAX_PCT (default 2) percent or full recording more than
# TRACE_ON_MAX_PCT (default 10) percent over the no-recorder baseline.
if [ "${1:-}" = "--trace-ab" ]; then
  COUNT="${COUNT:-5}"
  BENCHTIME="${BENCHTIME:-1s}"
  TRACE_OFF_MAX_PCT="${TRACE_OFF_MAX_PCT:-2}"
  TRACE_ON_MAX_PCT="${TRACE_ON_MAX_PCT:-10}"
  OUT_TAB=benchmarks/trace-ab.txt
  mkdir -p benchmarks
  {
    echo "# go test -bench BenchmarkWireServiceTraceAB -benchtime $BENCHTIME -count $COUNT"
    echo "# $(date -u +"%Y-%m-%dT%H:%M:%SZ") $(go version)"
    go test -run xxx -bench 'BenchmarkWireServiceTraceAB' -benchtime "$BENCHTIME" -count "$COUNT" .
  } | tee "$OUT_TAB.raw"
  # Average repetitions per variant and gate the overhead percentages.
  awk -v offmax="$TRACE_OFF_MAX_PCT" -v onmax="$TRACE_ON_MAX_PCT" '
    /^BenchmarkWireServiceTraceAB\/trace=none/ { none += $3; nn++ }
    /^BenchmarkWireServiceTraceAB\/trace=off/  { off  += $3; no++ }
    /^BenchmarkWireServiceTraceAB\/trace=on/   { on   += $3; nb++ }
    { print }
    END {
      if (nn == 0 || no == 0 || nb == 0 || none == 0) {
        print "# FAIL: missing trace A/B variants"
        exit 1
      }
      base = none / nn
      offpct = (off / no - base) / base * 100
      onpct  = (on / nb - base) / base * 100
      printf "\n# none %.0f ns/op, off %.0f ns/op (%+.1f%%), on %.0f ns/op (%+.1f%%) over %d reps\n", base, off / no, offpct, on / nb, onpct, nn
      fail = 0
      if (offpct > offmax) { printf "# FAIL: tracing-off overhead %+.1f%% exceeds %.1f%%\n", offpct, offmax; fail = 1 }
      if (onpct > onmax)   { printf "# FAIL: tracing-on overhead %+.1f%% exceeds %.1f%%\n", onpct, onmax; fail = 1 }
      if (!fail) printf "# PASS: tracing-off within %.1f%%, tracing-on within %.1f%%\n", offmax, onmax
      exit fail
    }
  ' "$OUT_TAB.raw" > "$OUT_TAB" || {
    rm -f "$OUT_TAB.raw"
    tail -4 "$OUT_TAB"
    echo "trace A/B gate: FAILED" >&2
    exit 1
  }
  rm -f "$OUT_TAB.raw"
  tail -3 "$OUT_TAB"
  echo "wrote $OUT_TAB"
  exit 0
fi

# --rto: the crash-restart recovery-time-objective benchmark. Each iteration
# kills a durable member holding live leases and times restart-to-first-grant;
# the recorded rto-seconds against quarantine-avoided-seconds (MaxTTL) is the
# headline durability number. The benchmark itself fails if any iteration's
# RTO reaches MaxTTL (i.e. the node quarantined instead of replaying).
if [ "${1:-}" = "--rto" ]; then
  COUNT="${COUNT:-1}"
  BENCHTIME="${BENCHTIME:-10x}"
  OUT_RTO=benchmarks/recovery-rto.txt
  mkdir -p benchmarks
  {
    echo "# go test -bench BenchmarkRestartRTO -benchtime $BENCHTIME -count $COUNT ./internal/cluster/"
    echo "# $(date -u +"%Y-%m-%dT%H:%M:%SZ") $(go version)"
    go test -run xxx -bench 'BenchmarkRestartRTO' -benchtime "$BENCHTIME" -count "$COUNT" ./internal/cluster/
  } | tee "$OUT_RTO.raw"
  # Append the headline: mean RTO vs the MaxTTL quarantine a journal-less
  # rejoin would have to sit out.
  awk '
    /^BenchmarkRestartRTO/ {
      for (i = 3; i < NF; i++) {
        if ($(i + 1) == "rto-seconds")                { rto += $(i);  nr++ }
        if ($(i + 1) == "quarantine-avoided-seconds") { quar = $(i) }
        if ($(i + 1) == "restored-sessions")          { sess = $(i) }
      }
    }
    { print }
    END {
      if (nr > 0 && quar > 0) {
        printf "\n# mean RTO %.3fs (%.0f sessions replayed) vs %.0fs MaxTTL quarantine avoided: %.0fx faster rejoin\n", rto / nr, sess, quar, quar / (rto / nr)
      }
    }
  ' "$OUT_RTO.raw" > "$OUT_RTO"
  rm -f "$OUT_RTO.raw"
  tail -2 "$OUT_RTO"
  echo "wrote $OUT_RTO"
  exit 0
fi

# --gate / --gate-check: the benchmark regression gate.
if [ "${1:-}" = "--gate" ] || [ "${1:-}" = "--gate-check" ]; then
  # Default gate set: the pure CPU paths. The ttl=1s lease variants are
  # excluded — they read the wall clock per acquire and interleave with the
  # expirer's table walk, and that noise swamps a 5% band on shared runners.
  GATE_BENCH="${GATE_BENCH:-(UncontendedGetFree|LeaseAcquireRelease)/(LevelArray|Random|LinearProbing|Deterministic|ttl=inf)}"
  COUNT="${COUNT:-5}"
  BENCHTIME="${BENCHTIME:-1s}"
  BENCH_MAX_REGRESSION_PCT="${BENCH_MAX_REGRESSION_PCT:-5}"
  BENCH_BASELINE_SCALE="${BENCH_BASELINE_SCALE:-1}"
  GATE_OUT="${GATE_OUT:-/tmp/la-gate-latest.json}"
  BASELINE=benchmarks/baseline.json

  if [ "$1" = "--gate" ]; then
    RAW="$(mktemp)"
    trap 'rm -f "$RAW"' EXIT
    echo "# gate run: -bench '$GATE_BENCH' -benchtime $BENCHTIME -count $COUNT (calibration bracketed)"
    # Calibration brackets the main run — samples before AND after, pooled by
    # median — so machine-speed drift across the run (turbo decay, container
    # throttling, co-tenants arriving) lands inside the calibration estimate
    # instead of silently skewing every comparison.
    go test -run xxx -bench '^BenchmarkCalibration$' -benchtime "$BENCHTIME" -count 2 . | tee "$RAW"
    go test -run xxx -bench "$GATE_BENCH" -benchtime "$BENCHTIME" -count "$COUNT" . | tee -a "$RAW"
    go test -run xxx -bench '^BenchmarkCalibration$' -benchtime "$BENCHTIME" -count 2 . | tee -a "$RAW"
    # Distill to flat `"name": median_ns_op` JSON: the median over
    # repetitions shrugs off the one rep that hit a GC, a turbo step or a
    # noisy co-tenant, where both mean and min would follow it.
    awk '
      /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        for (i = 3; i < NF; i++) {
          if ($(i + 1) == "ns/op") {
            if (!(name in cnt)) order[++k] = name
            vals[name, ++cnt[name]] = $(i) + 0
          }
        }
      }
      END {
        printf "{\n"
        for (j = 1; j <= k; j++) {
          n = order[j]
          m = cnt[n]
          for (a = 2; a <= m; a++) {          # insertion sort; m is tiny
            v = vals[n, a]
            for (b = a - 1; b >= 1 && vals[n, b] > v; b--) vals[n, b + 1] = vals[n, b]
            vals[n, b + 1] = v
          }
          if (m % 2) med = vals[n, (m + 1) / 2]
          else med = (vals[n, m / 2] + vals[n, m / 2 + 1]) / 2
          printf "  \"%s\": %.2f%s\n", n, med, (j < k ? "," : "")
        }
        printf "}\n"
      }
    ' "$RAW" > "$GATE_OUT"
    echo "wrote $GATE_OUT"
    if [ "${BENCH_GATE_SKIP_COMPARE:-0}" = "1" ]; then
      exit 0
    fi
  fi

  if [ ! -f "$GATE_OUT" ]; then
    echo "bench gate: $GATE_OUT missing; run scripts/bench.sh --gate first" >&2
    exit 2
  fi
  if [ ! -f "$BASELINE" ]; then
    echo "bench gate: $BASELINE missing; promote one with scripts/bench-update.sh" >&2
    exit 2
  fi

  # Compare the gate run against the calibration-scaled baseline. Every
  # baseline benchmark must be present in the run (missing coverage is a
  # failure, never silent) and be within the allowed slowdown.
  awk -F'"' -v maxpct="$BENCH_MAX_REGRESSION_PCT" -v bscale="$BENCH_BASELINE_SCALE" '
    /":/ {
      name = $2
      val = $3
      gsub(/[:, ]/, "", val)
      if (NR == FNR) { base[name] = val + 0; border[++bk] = name; next }
      new[name] = val + 0
    }
    END {
      cal = 1.0
      if (("BenchmarkCalibration" in base) && ("BenchmarkCalibration" in new) && base["BenchmarkCalibration"] > 0) {
        cal = new["BenchmarkCalibration"] / base["BenchmarkCalibration"]
      }
      printf "benchmark regression gate: max +%.1f%%, calibration scale %.3f, baseline scale %s\n", maxpct, cal, bscale
      printf "%-60s %12s %12s %8s  %s\n", "benchmark", "allowed", "new ns/op", "delta", "verdict"
      fail = 0
      for (j = 1; j <= bk; j++) {
        n = border[j]
        if (n == "BenchmarkCalibration") continue
        allowed = base[n] * cal * bscale
        if (!(n in new)) {
          printf "%-60s %12.2f %12s %8s  MISSING (not run)\n", n, allowed, "-", "-"
          fail = 1
          continue
        }
        pct = (new[n] - allowed) / allowed * 100
        verdict = "ok"
        if (pct > maxpct) { verdict = "REGRESSION"; fail = 1 }
        printf "%-60s %12.2f %12.2f %+7.1f%%  %s\n", n, allowed, new[n], pct, verdict
      }
      for (n in new) {
        if (!(n in base) && n != "BenchmarkCalibration") {
          printf "%-60s %12s %12.2f %8s  new (not in baseline)\n", n, "-", new[n], "-"
        }
      }
      exit fail
    }
  ' "$BASELINE" "$GATE_OUT" && status=0 || status=$?
  if [ $status -ne 0 ]; then
    echo "bench gate: FAILED (regression beyond ${BENCH_MAX_REGRESSION_PCT}% or missing coverage)" >&2
    exit 1
  fi
  echo "bench gate: ok"
  exit 0
fi

BENCH="${BENCH:-.}"
COUNT="${COUNT:-1}"
BENCHTIME="${BENCHTIME:-1s}"
OUT_DIR=benchmarks
OUT="$OUT_DIR/latest.txt"
OUT_JSON="$OUT_DIR/latest.json"

mkdir -p "$OUT_DIR"

# Keep the previous run around for manual diffing.
if [ -f "$OUT" ]; then
  cp "$OUT" "$OUT_DIR/previous.txt"
fi
if [ -f "$OUT_JSON" ]; then
  cp "$OUT_JSON" "$OUT_DIR/previous.json"
fi

{
  echo "# go test -bench $BENCH -benchtime $BENCHTIME -count $COUNT"
  echo "# $(date -u +"%Y-%m-%dT%H:%M:%SZ") $(go version)"
  go test -run xxx -bench "$BENCH" -benchtime "$BENCHTIME" -count "$COUNT" .
} | tee "$OUT"

# Distill the raw output into benchmark name -> ns/op. The -N GOMAXPROCS
# suffix is stripped and repetitions (COUNT > 1) are averaged.
awk '
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 3; i < NF; i++) {
      if ($(i + 1) == "ns/op") {
        if (!(name in sum)) order[++k] = name
        sum[name] += $(i)
        cnt[name]++
      }
    }
  }
  END {
    printf "{\n"
    for (j = 1; j <= k; j++) {
      n = order[j]
      printf "  \"%s\": %.2f%s\n", n, sum[n] / cnt[n], (j < k ? "," : "")
    }
    printf "}\n"
  }
' "$OUT" > "$OUT_JSON"

# Per-benchmark delta table against the rotated previous run. Both files are
# the flat `"name": ns_op` JSON written above, so plain awk can join them.
# Deltas inside the +/- NOISE_BAND_PCT band (default 10%) are annotated as
# noise: single-rep timings on a busy machine routinely wander that far, and
# an unmarked "+7%" next to a real regression teaches readers to ignore both.
OUT_DELTA="$OUT_DIR/delta.txt"
NOISE_BAND_PCT="${NOISE_BAND_PCT:-10}"
if [ -f "$OUT_DIR/previous.json" ]; then
  awk -F'"' -v band="$NOISE_BAND_PCT" '
    /":/ {
      name = $2
      val = $3
      gsub(/[:, ]/, "", val)
      if (NR == FNR) { prev[name] = val; next }
      order[++k] = name
      new[name] = val
    }
    END {
      printf "%-60s %12s %12s %8s  %s\n", "benchmark", "prev ns/op", "new ns/op", "delta", "note"
      for (j = 1; j <= k; j++) {
        n = order[j]
        if (n in prev && prev[n] + 0 > 0) {
          pct = (new[n] - prev[n]) / prev[n] * 100
          note = sprintf("~ within +/-%g%% noise band", band)
          if (pct > band) note = "SLOWER (outside noise band)"
          else if (pct < -band) note = "faster (outside noise band)"
          printf "%-60s %12.2f %12.2f %+7.1f%%  %s\n", n, prev[n], new[n], pct, note
        } else {
          printf "%-60s %12s %12.2f %8s\n", n, "-", new[n], "new"
        }
      }
    }
  ' "$OUT_DIR/previous.json" "$OUT_JSON" | tee "$OUT_DELTA"
else
  echo "no previous.json; skipping delta table" | tee "$OUT_DELTA"
fi

echo "wrote $OUT, $OUT_JSON and $OUT_DELTA"
