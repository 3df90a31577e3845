#!/usr/bin/env bash
# Diffs BENCH_perf.json against the previous commit's:
#  - fleet_tick_1m: warns on any row whose sources/sec dropped more
#    than 20%.
#  - observability_overhead / recorder_overhead / audit_overhead /
#    telemetry_overhead: warns when a model's overhead_pct grew by more
#    than 5 percentage points.
#  - loss_sweep_recovery: fully deterministic (fixed seed), so ANY change
#    is flagged as a protocol change, not noise.
# Advisory (always exits 0 unless the working-tree file is unreadable):
# bench numbers are machine- and load-dependent, so a warning is a prompt
# to re-measure on an idle machine, not a hard gate.
#
# Usage: scripts/check_bench_regress.sh [ref]   (default: HEAD~1)

set -euo pipefail

cd "$(dirname "$0")/.."
REF="${1:-HEAD~1}"

if [ ! -f BENCH_perf.json ]; then
  echo "check_bench_regress: no BENCH_perf.json in working tree; skipping"
  exit 0
fi
if ! OLD_JSON=$(git show "$REF:BENCH_perf.json" 2>/dev/null); then
  echo "check_bench_regress: no BENCH_perf.json at $REF; skipping"
  exit 0
fi

OLD_JSON="$OLD_JSON" python3 - <<'EOF'
import json, os, sys

with open("BENCH_perf.json") as f:
    new = json.load(f)
old = json.loads(os.environ["OLD_JSON"])

warned = False

def warn(msg):
    global warned
    warned = True
    print("WARNING: " + msg)

# ---- fleet_tick_1m: throughput rows, 20% drop tolerance. ----
def tick_rows(report):
    table = {}
    for r in report.get("fleet_tick_1m", {}).get("rows", []):
        # Rows from before the threads/simd/adaptive axes existed default
        # to the single-threaded SIMD plain-Kalman configuration they
        # actually measured.
        key = (r["sources"], r["pooled"],
               r.get("threads", 1), r.get("simd", True),
               r.get("adaptive", False))
        table[key] = r["sources_per_sec"]
    return table

old_rows, new_rows = tick_rows(old), tick_rows(new)
if not old_rows:
    print("check_bench_regress: previous commit has no fleet_tick_1m rows")
for key in sorted(old_rows.keys() & new_rows.keys()):
    was, now = old_rows[key], new_rows[key]
    if was <= 0:
        continue
    delta = (now - was) / was
    label = (f"sources={key[0]} pooled={int(key[1])} "
             f"threads={key[2]} simd={int(key[3])} adaptive={int(key[4])}")
    line = (f"fleet_tick_1m [{label}]: "
            f"{was:,.0f} -> {now:,.0f} sources/sec ({delta:+.1%})")
    if delta < -0.20:
        warn("fleet_tick_1m regression " + line)
    else:
        print("  " + line)

# ---- Overhead tables: observability / recorder / audit taxes. ----
# The per-model overhead_pct is a few percent; allow 5 percentage points
# of growth before flagging (ns-scale numbers bounce with machine load).
def overhead_rows(report, table):
    return {r["model"]: r.get("overhead_pct")
            for r in report.get(table, [])}

for table in ("observability_overhead", "recorder_overhead",
              "audit_overhead", "telemetry_overhead"):
    old_pct, new_pct = overhead_rows(old, table), overhead_rows(new, table)
    if not old_pct:
        print(f"check_bench_regress: previous commit has no {table} rows")
        continue
    for model in sorted(old_pct.keys() & new_pct.keys()):
        was, now = old_pct[model], new_pct[model]
        if was is None or now is None:
            continue
        line = f"{table} [{model}]: {was:+.2f}% -> {now:+.2f}%"
        if now - was > 5.0:
            warn(line + " (grew > 5pp)")
        else:
            print("  " + line)

# ---- loss_sweep_recovery: deterministic healing counters. ----
def sweep_rows(report):
    return {r["bad_state_pct"]: {k: v for k, v in r.items()
                                 if k != "bad_state_pct"}
            for r in report.get("loss_sweep_recovery", [])}

old_sweep, new_sweep = sweep_rows(old), sweep_rows(new)
if not old_sweep:
    print("check_bench_regress: previous commit has no loss_sweep_recovery "
          "rows")
for pct in sorted(old_sweep.keys() & new_sweep.keys()):
    if old_sweep[pct] != new_sweep[pct]:
        warn(f"loss_sweep_recovery changed at bad={pct}%: "
             f"{old_sweep[pct]} -> {new_sweep[pct]} "
             f"(fixed-seed run: this is a protocol change, not noise)")
    else:
        print(f"  loss_sweep_recovery bad={pct}%: unchanged")

if not warned:
    print("check_bench_regress: no regressions")
EOF
