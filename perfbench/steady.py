#!/usr/bin/env python3
"""Checks that the rap benchmark is steady, and records a trajectory entry.

    python3 perfbench/steady.py [--record]

Runs every workload of BENCHMARK.json untraced once per seed, seeds 1..10,
through perfbench/run.py, from the root of a source tree. For each
end-to-end metric it prints the median, the quartiles and the spread: the
distance between the quartiles as a share of the median. A spread above a
third of the metric's bound is flagged WIDE, and one above the bound
TOO WIDE.

It also prints each run's steal share: the part of the machine's CPU
time a hypervisor gave to others while the run ran.

With --record, one JSON line with every median, quartile and spread, the
steal shares, and the build the runs came from, is appended to
perfbench/trajectory.jsonl. When the entry before it was made from the
same sources (same source_digest), every median is also compared with
that entry's: a median worse by more than the metric's bound is flagged
DISAGREES.

The exit code is 1 if any run failed or anything was flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRAJECTORY = BENCH_DIR / "trajectory.jsonl"
# The bounds in BENCHMARK.json were set from spreads over this many seeds.
SEEDS = 10


def run(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().split("\n")
    meta = next((json.loads(l[5:]) for l in lines if l.startswith("meta ")),
                {})
    meta["steal_share"] = next(
        (float(l.split()[1]) for l in lines if l.startswith("steal_share ")),
        None)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if done.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        return meta, None
    return meta, {k: v["value"] for k, v in result["metrics"].items()}


def previous_entry(digest):
    """The last recorded entry, if it was made from the same sources."""
    if not TRAJECTORY.exists():
        return None
    lines = TRAJECTORY.read_text().strip().split("\n")
    last = json.loads(lines[-1]) if lines[-1] else None
    return last if last and last.get("source_digest") == digest else None


def worse_by(metric, before, after):
    """How much worse `after` is than `before`, as a share of `before`."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    entry = {"seeds": SEEDS, "run_seconds": spec["run_seconds"],
             "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in metrics}
        steals = []
        for seed in range(1, SEEDS + 1):
            meta, measured = run(workload, seed, spec["run_seconds"])
            steals.append(meta.get("steal_share"))
            entry.update({k: meta.get(k) for k in
                          ("nproc", "compiler", "build_type", "commit",
                           "source_digest")})
            if measured is None:
                print(f"{workload} seed {seed}: FAILED")
                ok = False
                continue
            for name in metrics:
                values[name].append(measured[name])
        rows = {}
        print(f"{workload}: steal share per seed "
              f"{' '.join('-' if x is None else f'{x:.3f}' for x in steals)}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            bound = metrics[name]["bound"]
            flag = ("  TOO WIDE" if spread > bound else
                    "  WIDE" if spread > bound / 3 else "")
            ok = ok and not flag
            rows[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                          "n": len(vals)}
            print(f"  {name:24s} median {q2:<14.6g} q1 {q1:<14.6g} "
                  f"q3 {q3:<14.6g} spread {spread:7.4f} bound "
                  f"{bound:.2f}{flag}")
        entry["workloads"][workload] = rows
        entry.setdefault("steal_share", {})[workload] = steals

    if args.record:
        before = previous_entry(entry.get("source_digest"))
        if before is not None:
            print("against the previous entry of the same sources:")
            for workload, rows in entry["workloads"].items():
                for name, row in rows.items():
                    old = before["workloads"].get(workload, {}).get(name)
                    if old is None or not old["median"]:
                        continue
                    worse = worse_by(metrics[name], old["median"],
                                     row["median"])
                    bad = worse > metrics[name]["bound"]
                    ok = ok and not bad
                    print(f"  {workload:17s} {name:24s} worse by "
                          f"{worse:+.4f}{'  DISAGREES' if bad else ''}")
        with open(TRAJECTORY, "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
