#!/usr/bin/env python3
"""Builds and runs one workload of the rap benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source tree. It configures a Release build of
perfbench/ (librap plus the rapbench binary) under .bench_build/perfbench,
or under $CARGO_TARGET_DIR/perfbench when that is set, and builds it.

rapbench's human-readable lines are passed through. The last line is the
result object, printed only when its metric names match BENCHMARK.json.
The exit code is rapbench's: 0 only when every output check passed. The
result, with the run's meta, is also written under the build's results/
directory as <workload>-seed<n>-trace<t>.json (and a traced run's spans
as .spans.jsonl).
"""


import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The library's sources, relative to ROOT; a run needs all of them.
SOURCES = ("CMakeLists.txt", "src", "include")
# What the digest of the measured program covers: the library and the
# benchmark's own code.
DIGESTED = SOURCES + ("perfbench/CMakeLists.txt", "perfbench/src")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds the Release rapbench binary."""
    jobs = str(os.cpu_count() or 1)
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "rapbench",
                    "--parallel", jobs], check=True, stdout=sys.stderr)
    return out / "rapbench"


def commit():
    """The git commit of the tree, or "" outside a git checkout."""
    if not (ROOT / ".git").exists():
        return ""
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else ""


def source_digest():
    """SHA-256 over the program's sources, so runs of one tree match up
    even where there is no git commit to record."""
    digest = hashlib.sha256()
    for top in DIGESTED:
        path = ROOT / top
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return digest.hexdigest()


def benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main():
    spec = benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    for top in SOURCES:
        if not (ROOT / top).exists():
            fail(f"no {top} under {ROOT}: run from the root of a rap tree")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    results_dir = out / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", commit(),
           "--source-digest", source_digest(), "--out", str(stem)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        names = list(json.loads(lines[-1])["metrics"])
    except (ValueError, KeyError, TypeError):
        fail(f"rapbench (exit {done.returncode}) printed no result line")
    kind = "per_layer" if args.trace else "end_to_end"
    if names != [m["name"] for m in spec[kind]]:
        fail(f"printed metrics {names} do not match BENCHMARK.json")
    print(lines[-1], flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
