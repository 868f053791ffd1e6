#!/usr/bin/env python3
"""Benchmark regression gate for CI.

Compares a google-benchmark JSON result against the committed
bench/baseline.json. Benchmarks listed in GATED are enforced: a
regression above --warn prints a warning, above --fail the script exits
non-zero and fails the CI job. Everything else is informational.

Because CI runners and developer machines differ in absolute speed, each
benchmark is compared through its ratio to a calibration benchmark
(CALIBRATION) measured in the same run: machine-speed differences cancel
while regressions *relative to the rest of the code base* remain
visible. Pass --absolute to compare raw numbers instead (useful when
baseline and current come from the same machine).

Refresh the baseline (after intentional performance changes, on the
reference machine):

    ./build/bench/bench_micro --benchmark_repetitions=5 \
        --benchmark_report_aggregates_only=true \
        --benchmark_format=json --benchmark_out=bench/baseline.json
"""

import argparse
import json
import sys

# Multi-thread scaling floor for bench_parallel's JSON summary
# (--parallel): calibrated conservatively from the 4-core CI runner's
# first gated runs (explore_all best speedup has been >= 2x there; the
# design target is >= 3x). Raise after a few more runs establish the
# floor — 1-core containers skip the gate entirely.
PARALLEL_MIN_SPEEDUP = 1.8
PARALLEL_MIN_THREADS = 4

# Capacity gate for bench_capacity's JSON summary (--capacity). The
# numbers are store geometry (table + record-block bytes over
# deterministic state counts), not timings, so they are
# machine-independent and gate on any runner. The per-row bytes/state
# ceilings catch the store silently growing records or slot head-room;
# they sit ~15% above the values measured when they were pinned (35.7,
# 48.7, 43.2 and, on the 19M-state soak pin, 46.1) so allocator-rounding
# changes don't flap the gate.
CAPACITY_MAX_BYTES_PER_STATE = {
    "ope_s3_d3/seq": 42.0,
    "deepring/seq": 56.0,
    "ope_s3_d3/par4": 50.0,
    "ope_s4_d4/seq": 54.0,  # the nightly soak pin, sequential row only
}

# Partial-order reduction floor for bench_por's JSON summary (--por).
# Unlike timings, these are state-count ratios of a deterministic
# reduced graph — machine-independent, so the gate holds on any runner
# (1-core containers included). Measured on the first gated runs:
# ope_s3_d3 202x, wagging 87x, ope_gap 32x, ope_static_s2 4.7x. The
# floor is deliberately conservative — it exists to catch the reduction
# silently degrading to (near-)full exploration, not to pin today's
# heuristic: at least one OPE fixture must keep a >= 2x state-count
# reduction, and no fixture may explore more states reduced than full.
POR_MIN_OPE_RATIO = 2.0

# Benchmarks that gate the build: the reachability/verification engine
# hot paths this repo's performance story rests on.
GATED = (
    "BM_PetriFire",
    "BM_CompiledFire",
    "BM_ReachabilityFig1b",
    "BM_ReachabilityOpeStates",
    "BM_VerifyAllSinglePass",
)

# Machine-speed anchor: an engine-independent, allocation-free hot loop.
CALIBRATION = "BM_DfsRandomStep"

TIME_UNITS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def load_times(path):
    """name -> real_time in seconds, preferring median aggregates."""
    with open(path) as f:
        data = json.load(f)
    plain = {}
    medians = {}
    for entry in data.get("benchmarks", []):
        seconds = entry["real_time"] * TIME_UNITS[entry.get("time_unit",
                                                           "ns")]
        if entry.get("run_type") == "aggregate":
            if entry.get("aggregate_name") == "median":
                medians[entry["run_name"]] = seconds
        else:
            plain[entry.get("run_name", entry["name"])] = seconds
    return {**plain, **medians}


def load_section(path, name, gated, failures):
    """Load one summary-JSON section, loudly.

    A flag that asks for a section must never silently pass when the
    file is absent or unreadable: a gated section records a failure (the
    gate cannot be skipped by deleting its input), an advisory section
    prints an explicit skip line so the job log shows the gap.
    """
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        if gated:
            failures.append(f"{name} section missing — gated input "
                            f"{path} unreadable ({e})")
        else:
            print(f"{name}: section missing — advisory skipped "
                  f"({path}: {e})")
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--warn", type=float, default=0.10,
                        help="warn above this regression fraction")
    parser.add_argument("--fail", type=float, default=0.35,
                        help="fail gated benchmarks above this fraction")
    parser.add_argument("--absolute", action="store_true",
                        help="compare raw times, skip calibration")
    parser.add_argument("--parallel",
                        help="bench_parallel JSON summary to gate")
    parser.add_argument("--por",
                        help="bench_por JSON summary to gate "
                             "(reduction-ratio floor)")
    parser.add_argument("--capacity",
                        help="bench_capacity JSON summary to gate "
                             "(per-fixture bytes/state ceilings)")
    parser.add_argument("--min-ope-ratio", type=float,
                        default=POR_MIN_OPE_RATIO,
                        help="state-count reduction floor on the best "
                             "OPE fixture")
    parser.add_argument("--sweep",
                        help="bench_sweep JSON summary to report "
                             "(advisory only, never gated)")
    parser.add_argument("--mc",
                        help="bench_mc JSON summary to report "
                             "(advisory only; reproducibility gates in "
                             "bench_mc itself via its exit code)")
    parser.add_argument("--incremental",
                        help="bench_incremental JSON summary to report "
                             "(advisory only; the scratch/incremental "
                             "differential and the intern-ratio ceiling "
                             "gate in bench_incremental itself via its "
                             "exit code)")
    parser.add_argument("--min-parallel-speedup", type=float,
                        default=PARALLEL_MIN_SPEEDUP,
                        help="multi-thread scaling floor (gated only on "
                             f">= {PARALLEL_MIN_THREADS}-thread runners)")
    args = parser.parse_args()

    baseline = load_times(args.baseline)
    current = load_times(args.current)

    scale = 1.0
    if not args.absolute:
        if CALIBRATION not in baseline or CALIBRATION not in current:
            print(f"calibration benchmark {CALIBRATION} missing; "
                  "falling back to absolute comparison")
        else:
            scale = baseline[CALIBRATION] / current[CALIBRATION]
            print(f"calibration ({CALIBRATION}): current machine runs "
                  f"{scale:.2f}x the baseline machine's speed")

    failures = []
    warnings = []
    print(f"{'benchmark':40} {'baseline':>12} {'current':>12} {'delta':>8}")
    for name in sorted(set(baseline) | set(current)):
        if name == CALIBRATION and not args.absolute:
            continue
        gated = any(name == g or name.startswith(g + "/") for g in GATED)
        tag = "gate" if gated else "    "
        if name not in current:
            line = f"{name:40} {'':>12} {'MISSING':>12}"
            (failures if gated else warnings).append(name + " missing")
            print(f"{line} [{tag}]")
            continue
        if name not in baseline:
            print(f"{name:40} {'NEW':>12} "
                  f"{current[name] * 1e9:11.0f}ns {'':>8} [{tag}]")
            if gated:
                # A gated benchmark without a baseline entry is an
                # ungated hot path: refresh bench/baseline.json.
                failures.append(name + " has no baseline entry")
            continue
        base = baseline[name]
        cur = current[name] * scale
        delta = (cur - base) / base
        marker = ""
        if delta > args.fail and gated:
            failures.append(f"{name} regressed {delta:+.0%}")
            marker = " FAIL"
        elif delta > args.warn:
            warnings.append(f"{name} regressed {delta:+.0%}")
            marker = " WARN"
        print(f"{name:40} {base * 1e9:11.0f}n {cur * 1e9:11.0f}n "
              f"{delta:+7.1%} [{tag}]{marker}")

    par = (load_section(args.parallel, "parallel", True, failures)
           if args.parallel else None)
    if par is not None:
        threads = par.get("hardware_threads", 1)
        speedup = par.get("best_speedup", 0.0)
        print(f"parallel scaling: {threads} hardware threads, best "
              f"speedup {speedup:.2f}x over 1 thread")
        if not par.get("ok", False):
            failures.append("bench_parallel reported a thread-count or "
                            "oracle mismatch")
        if threads < PARALLEL_MIN_THREADS:
            print(f"parallel scaling floor skipped: {threads} hardware "
                  f"thread(s) < {PARALLEL_MIN_THREADS} (1-core container)")
        elif speedup < args.min_parallel_speedup:
            failures.append(
                f"parallel speedup {speedup:.2f}x below the "
                f"{args.min_parallel_speedup:.2f}x floor on a "
                f"{threads}-thread runner")

    por = (load_section(args.por, "por", True, failures)
           if args.por else None)
    if por is not None:
        # Ratios only, never absolute state counts: the reduced graph is
        # deterministic, so the ratios transfer across machines while
        # counts would pin fixture sizes into CI.
        best = por.get("best_ope_ratio", 0.0)
        for fx in por.get("fixtures", []):
            print(f"por {fx.get('name'):24} state ratio "
                  f"{fx.get('state_ratio', 0.0):8.2f}x   work ratio "
                  f"{fx.get('work_ratio', 0.0):6.2f}x")
            if fx.get("state_ratio", 0.0) < 1.0 - 1e-9:
                failures.append(
                    f"por: {fx.get('name')} explored MORE states reduced "
                    f"than full ({fx.get('state_ratio', 0.0):.2f}x)")
        print(f"por best OPE reduction: {best:.2f}x "
              f"(floor {args.min_ope_ratio:.2f}x)")
        if not por.get("ok", False):
            failures.append("bench_por reported a verdict mismatch "
                            "between full and reduced passes")
        if best < args.min_ope_ratio:
            failures.append(
                f"por: best OPE reduction {best:.2f}x fell below the "
                f"{args.min_ope_ratio:.2f}x floor")

    cap = (load_section(args.capacity, "capacity", True, failures)
           if args.capacity else None)
    if cap is not None:
        # Store geometry over deterministic state counts —
        # machine-independent, so the ceilings gate on any runner.
        rows = cap.get("rows", [])
        if not rows:
            failures.append("capacity: summary has no fixture rows")
        for row in rows:
            name = row.get("name", "?")
            per_state = row.get("bytes_per_state")
            if per_state is None:
                failures.append(f"capacity: {name} has no bytes_per_state")
                continue
            print(f"capacity {name:18} {row.get('states', 0):>10} states"
                  f"   {per_state:6.1f} B/state")
            ceiling = CAPACITY_MAX_BYTES_PER_STATE.get(name)
            if ceiling is None:
                print(f"capacity: no bytes/state ceiling pinned for "
                      f"{name} (informational row)")
                continue
            if per_state > ceiling:
                failures.append(
                    f"capacity: {name} store grew to {per_state:.1f} "
                    f"B/state (ceiling {ceiling:.1f})")
        if not cap.get("ok", False):
            failures.append("bench_capacity reported a truncated fixture "
                            "or a thread-count mismatch")

    sweep = (load_section(args.sweep, "sweep", False, failures)
             if args.sweep else None)
    if sweep is not None:
        # Advisory only: dedup ratio and cache hit rate are facts about
        # the sweep workload, not regressions — surface them in the job
        # log (and as warnings if they look off) without gating.
        dedup = sweep.get("dedup_ratio", 0.0)
        hit_rate = sweep.get("cache_hit_rate", 0.0)
        print(f"sweep service (advisory): {sweep.get('grid_points')} grid "
              f"points, {sweep.get('distinct_models')} distinct models "
              f"(dedup {dedup:.2f}x), cache hit rate {hit_rate:.1%}, "
              f"{sweep.get('states_per_second', 0.0):.0f} states/s in "
              f"{sweep.get('sweep_seconds', 0.0):.2f}s")
        if not sweep.get("ok", False):
            warnings.append("bench_sweep reported a problem (see its "
                            "own job step for the gate)")
        elif hit_rate <= 0.0:
            warnings.append("sweep cache hit rate is zero — dedup "
                            "before compile is not engaging")

    mc = (load_section(args.mc, "mc", False, failures)
          if args.mc else None)
    if mc is not None:
        # Advisory only: survival and hazard counts are facts about the
        # fault model, not regressions. The one hard contract — fixed-seed
        # reproducibility of the aggregate row — is checked inside
        # bench_mc, whose exit code gates its own CI step; here we just
        # surface the summary (and a warning if that run flagged trouble).
        ffv = mc.get("first_failure_voltage")
        print(f"mc campaign (advisory): {mc.get('runs_total')} runs over "
              f"{mc.get('grid_points')} grid points, "
              f"survival {mc.get('survival', 0.0):.1%}, "
              f"{mc.get('hazards_total', 0)} hazards, "
              f"first failure at "
              f"{f'{ffv:.2f} V' if ffv is not None else 'none'}, "
              f"{mc.get('runs_per_second', 0.0):.0f} runs/s in "
              f"{mc.get('campaign_seconds', 0.0):.2f}s, "
              f"checksum {mc.get('checksum', '?')}")
        if not mc.get("reproducible", False):
            warnings.append("bench_mc: seeded campaign was NOT "
                            "bit-reproducible (its own job step gates)")
        elif not mc.get("ok", False):
            warnings.append("bench_mc reported a problem (see its own "
                            "job step for the gate)")

    inc = (load_section(args.incremental, "incremental", False, failures)
           if args.incremental else None)
    if inc is not None:
        # Advisory only: the timings are machine facts, and the two hard
        # contracts (scratch/incremental bit-equality, intern-ratio
        # ceiling) already gate bench_incremental's own CI step. Here we
        # surface the summary and flag anything that looks off.
        ratio = inc.get("intern_ratio", 0.0)
        print(f"incremental re-verification (advisory): "
              f"{len(inc.get('depths', []))} configurations, "
              f"scratch sweep {inc.get('scratch_total_s', 0.0) * 1e3:.1f}ms "
              f"vs incremental {inc.get('incremental_total_s', 0.0) * 1e3:.1f}ms "
              f"({inc.get('speedup', 0.0):.2f}x), "
              f"interned {inc.get('interned_markings')} markings for "
              f"{inc.get('deepest_states')} deepest-run states "
              f"({ratio:.2f}x)")
        if not inc.get("ok", False):
            warnings.append("bench_incremental reported a problem (its "
                            "own job step gates)")
        elif ratio > 1.5:
            warnings.append(f"incremental sweep interned {ratio:.2f}x the "
                            "deepest run's markings — store reuse is not "
                            "engaging")
        elif inc.get("speedup", 0.0) < 0.9:
            warnings.append("incremental sweep ran slower than scratch — "
                            "reuse overhead exceeds its savings")

    for w in warnings:
        print(f"::warning::bench: {w}")
    if failures:
        for f in failures:
            print(f"::error::bench: {f}")
        return 1
    print("benchmark regression gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
