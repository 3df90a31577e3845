#!/usr/bin/env bash
# Runs the perf microbenchmarks and refreshes BENCH_perf.json at the repo
# root: an optimized build tree, each bench_perf_* binary with JSON output,
# then a merge of the per-binary reports into one file.
#
# Usage: scripts/run_benches.sh [build-dir]   (default: build-bench)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j \
  --target bench_perf_kalman bench_perf_linalg bench_perf_server

OUT_DIR="$BUILD_DIR/bench-json"
mkdir -p "$OUT_DIR"
for bench in bench_perf_kalman bench_perf_linalg bench_perf_server; do
  EXTRA=()
  if [ "$bench" = bench_perf_kalman ]; then
    # The observability-overhead comparison (instrumented vs plain
    # BM_PredictUpdate) chases a few ns, which run-to-run machine drift
    # can swamp: interleave repetitions and report medians.
    EXTRA=(--benchmark_repetitions=7
           --benchmark_enable_random_interleaving=true
           --benchmark_report_aggregates_only=true)
  fi
  "$BUILD_DIR/bench/$bench" \
    --benchmark_format=json \
    --benchmark_out="$OUT_DIR/$bench.json" \
    --benchmark_out_format=json \
    --benchmark_min_time=0.2 \
    "${EXTRA[@]}"
done

python3 - "$OUT_DIR" <<'EOF'
import json, os, sys

out_dir = sys.argv[1]
merged = {"context": None, "benchmarks": []}
for name in ("bench_perf_kalman", "bench_perf_linalg", "bench_perf_server"):
    with open(os.path.join(out_dir, name + ".json")) as f:
        report = json.load(f)
    if merged["context"] is None:
        merged["context"] = report.get("context", {})
    for bench in report.get("benchmarks", []):
        bench["binary"] = name
        merged["benchmarks"].append(bench)
# Observability tax: instrumented-vs-uninstrumented BM_PredictUpdate per
# model. The acceptance bar for the metrics subsystem is <= 5% overhead.
# With repetitions enabled the kalman report carries aggregate rows; use
# the medians, which shrug off transient machine-noise spikes.
plain = {}
instrumented = {}
recorded = {}
audited = {}
for bench in merged["benchmarks"]:
    is_median = bench.get("aggregate_name") == "median"
    if not is_median and bench.get("run_type") != "iteration":
        continue
    run = bench.get("run_name", bench.get("name", ""))
    if run.startswith("BM_PredictUpdateInstrumented/"):
        table = instrumented
    elif run.startswith("BM_PredictUpdateRecorded/"):
        table = recorded
    elif run.startswith("BM_PredictUpdateAudited/"):
        table = audited
    elif run.startswith("BM_PredictUpdate/"):
        table = plain
    else:
        continue
    key = run.rsplit("/", 1)[1]
    if is_median or key not in table:
        table[key] = bench
overhead = []
for key in sorted(plain.keys() & instrumented.keys()):
    base = plain[key]["real_time"]
    inst = instrumented[key]["real_time"]
    overhead.append({
        "model": plain[key].get("label", key),
        "base_ns": round(base, 2),
        "instrumented_ns": round(inst, 2),
        "overhead_pct": round(100.0 * (inst - base) / base, 2),
    })
merged["observability_overhead"] = overhead
# Flight-recorder tax: the fully instrumented path (metrics + one ring
# Record + the three watchdog feeds) vs the bare filter step.
recorder_overhead = []
for key in sorted(plain.keys() & recorded.keys()):
    base = plain[key]["real_time"]
    rec = recorded[key]["real_time"]
    recorder_overhead.append({
        "model": plain[key].get("label", key),
        "base_ns": round(base, 2),
        "recorded_ns": round(rec, 2),
        "overhead_pct": round(100.0 * (rec - base) / base, 2),
    })
merged["recorder_overhead"] = recorder_overhead
# Precision-audit tax: the filter step with the auditor sampling at its
# default cadence (every 4th tick) vs the bare step. The acceptance bar
# for the audit layer is <= 10% overhead at the default sample rate.
audit_overhead = []
for key in sorted(plain.keys() & audited.keys()):
    base = plain[key]["real_time"]
    aud = audited[key]["real_time"]
    audit_overhead.append({
        "model": plain[key].get("label", key),
        "base_ns": round(base, 2),
        "audited_ns": round(aud, 2),
        "overhead_pct": round(100.0 * (aud - base) / base, 2),
    })
merged["audit_overhead"] = audit_overhead
# Telemetry-plane tax: BM_FleetStepTelemetry rows pair the bare sharded
# fleet step (telemetry_every=0) with the full snapshot/self-merge
# loopback at each cadence. The acceptance bar is <= 5% amortized
# per-tick overhead at the default cadence (every 32 ticks).
telem_base = {}
telem_on = {}
for bench in merged["benchmarks"]:
    if bench.get("run_type") != "iteration":
        continue
    run = bench.get("run_name", bench.get("name", ""))
    if not run.startswith("BM_FleetStepTelemetry/"):
        continue
    sources = int(bench.get("sources", 0))
    every = int(bench.get("telemetry_every", 0))
    if every == 0:
        telem_base[sources] = bench
    else:
        telem_on[(sources, every)] = bench
telemetry_overhead = []
for (sources, every) in sorted(telem_on.keys()):
    if sources not in telem_base:
        continue
    base = telem_base[sources]["real_time"]
    telem = telem_on[(sources, every)]["real_time"]
    telemetry_overhead.append({
        "model": f"fleet-{sources}s-every{every}",
        "base_ns": round(base, 2),
        "telemetry_ns": round(telem, 2),
        "overhead_pct": round(100.0 * (telem - base) / base, 2),
    })
merged["telemetry_overhead"] = telemetry_overhead
# Recovery-protocol loss sweep: BM_LossSweepRecovery runs a fixed-seed
# faulty link per bad-state fraction and reports its healing counters.
# Fully deterministic, so any diff here is a protocol change.
loss_sweep = []
for bench in merged["benchmarks"]:
    if bench.get("run_type") != "iteration":
        continue
    run = bench.get("run_name", bench.get("name", ""))
    if not run.startswith("BM_LossSweepRecovery/"):
        continue
    loss_sweep.append({
        "bad_state_pct": int(run.rsplit("/", 1)[1]),
        "gaps": bench.get("gaps"),
        "resyncs_served": bench.get("resyncs_served"),
        "degraded_ticks": bench.get("degraded_ticks"),
        "recovery_ticks_per_resync": bench.get("recovery_ticks_per_resync"),
    })
merged["loss_sweep_recovery"] = loss_sweep
# Fleet tick throughput at scale: the BM_FleetTick_1M matrix (sources
# ticked per second) over {sources, pooled, threads, simd, adaptive} — the
# SoA filter-pool path with vectorized/parallel sweeps vs the per-object
# baseline, for plain and adaptive-Q predictors. Rows from older binaries
# without the threads/simd/adaptive counters default to threads=1,
# simd=1, adaptive=0. Headline numbers: the 100k pooled/per-object ratio
# (plain and adaptive) and the absolute single-threaded SIMD 1M rate.
fleet_tick = []
for bench in merged["benchmarks"]:
    if bench.get("run_type") != "iteration":
        continue
    run = bench.get("run_name", bench.get("name", ""))
    if not run.startswith("BM_FleetTick_1M/"):
        continue
    fleet_tick.append({
        "sources": int(bench.get("sources", 0)),
        "pooled": bool(bench.get("pooled", 0)),
        "threads": int(bench.get("threads", 1)),
        "simd": bool(bench.get("simd", 1)),
        "adaptive": bool(bench.get("adaptive", 0)),
        "sources_per_sec": round(bench.get("items_per_second", 0.0), 1),
        "tick_ms": round(bench.get("real_time", 0.0), 3),
    })
fleet_tick.sort(key=lambda r: (r["adaptive"], r["sources"], r["pooled"],
                               r["threads"], r["simd"]))
by_key = {(r["sources"], r["pooled"], r["threads"], r["simd"],
           r["adaptive"]): r["sources_per_sec"] for r in fleet_tick}


def pooled_speedup_100k(adaptive):
    base = by_key.get((100000, False, 1, True, adaptive))
    pooled = by_key.get((100000, True, 1, True, adaptive))
    if base is None or pooled is None or base <= 0:
        return None
    return round(pooled / base, 2)


speedup = pooled_speedup_100k(False)
adaptive_speedup = pooled_speedup_100k(True)
merged["fleet_tick_1m"] = {
    "rows": fleet_tick,
    "pooled_speedup_100k": speedup,
    "adaptive_pooled_speedup_100k": adaptive_speedup,
}
# Live-aggregate evaluation: the BM_AggregateEvaluate families run with
# repetitions; keep each row's median real time per member, stamped with
# the host's CPU count and load so rows from different hosts are not
# compared as if they were one.
ns_per_unit = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
aggregate_rows = []
for bench in merged["benchmarks"]:
    if bench.get("aggregate_name") != "median":
        continue
    run = bench.get("run_name", "")
    if not run.startswith("BM_AggregateEvaluate"):
        continue
    members = int(bench.get("members", 0))
    real_ns = bench["real_time"] * ns_per_unit[bench.get("time_unit", "ns")]
    aggregate_rows.append({
        "name": run,
        "members": members,
        "shards": int(bench.get("shards", 0)),
        "after_step": run.startswith("BM_AggregateEvaluateAfterStep/"),
        "median_ns": round(real_ns, 1),
        "ns_per_member": round(real_ns / max(members, 1), 2),
    })
context = merged["context"] or {}
merged["aggregate_evaluate"] = {
    "num_cpus": context.get("num_cpus"),
    "load_avg": context.get("load_avg"),
    "rows": aggregate_rows,
}
with open("BENCH_perf.json", "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
print(f"BENCH_perf.json: {len(merged['benchmarks'])} benchmarks")
for row in loss_sweep:
    print(f"  loss sweep bad={row['bad_state_pct']}%: "
          f"gaps={row['gaps']} resyncs={row['resyncs_served']} "
          f"degraded_ticks={row['degraded_ticks']}")
for row in overhead:
    print(f"  obs overhead {row['model']}: {row['base_ns']} -> "
          f"{row['instrumented_ns']} ns ({row['overhead_pct']:+.2f}%)")
for row in recorder_overhead:
    print(f"  recorder overhead {row['model']}: {row['base_ns']} -> "
          f"{row['recorded_ns']} ns ({row['overhead_pct']:+.2f}%)")
for row in audit_overhead:
    print(f"  audit overhead {row['model']}: {row['base_ns']} -> "
          f"{row['audited_ns']} ns ({row['overhead_pct']:+.2f}%)")
for row in telemetry_overhead:
    print(f"  telemetry overhead {row['model']}: {row['base_ns']} -> "
          f"{row['telemetry_ns']} ns ({row['overhead_pct']:+.2f}%)")
for row in aggregate_rows:
    print(f"  aggregate evaluate {row['name']}: {row['median_ns']:,.0f} ns "
          f"({row['ns_per_member']} ns/member)")
for row in fleet_tick:
    kind = "pooled" if row["pooled"] else "per-object"
    lanes = "simd" if row["simd"] else "scalar"
    model = ", adaptive" if row["adaptive"] else ""
    print(f"  fleet tick {row['sources']} sources ({kind}{model}, "
          f"threads={row['threads']}, {lanes}): "
          f"{row['sources_per_sec']:,.0f} sources/sec")
if speedup is not None:
    print(f"  fleet tick pooled speedup @100k: {speedup}x")
if adaptive_speedup is not None:
    print(f"  fleet tick adaptive pooled speedup @100k: {adaptive_speedup}x")
EOF

echo "run_benches: OK"
