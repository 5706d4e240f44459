#!/usr/bin/env python3
"""End-to-end benchmark of the Tincy YOLO reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload paper416|serve4|demo64 \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call builds perfbench/ (its own CMake project, which compiles the
libraries under src/) into $CARGO_TARGET_DIR, or .bench_build when that is
unset. Each run then executes the e2e_bench program, checks the simulated
ZU3EG statistics against model_reference.json exactly, checks that the
metrics are the ones BENCHMARK.json names, with their units, and prints the
result object as the last line of standard output. Build output goes to
standard error. README.md describes the workloads and metrics.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper416", "serve4", "demo64")
RUN_TIMEOUT_S = 170


def build_dir():
    env = os.environ.get("CARGO_TARGET_DIR")
    return Path(env).resolve() if env else ROOT / ".bench_build"


def build(out):
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "--target", "e2e_bench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return out / "e2e_bench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(binary, workload, seed, seconds, trace):
    """Runs e2e_bench; returns (result, report lines) or raises."""
    out_dir = binary.parent / "results"
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "1" if trace else "0",
         "--out-dir", str(out_dir)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        raise RuntimeError(f"e2e_bench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError(f"malformed result line: {lines[-1]}")

    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: got {got}, want {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise RuntimeError(f"metric {name} is not a finite number")

    stem = f"{workload}-seed{seed}" + ("-trace" if trace else "")
    report = json.loads((out_dir / f"{stem}.report.json").read_text())
    reference = json.loads((HERE / "model_reference.json").read_text())[workload]
    if report["simulated"] != reference:
        lines.insert(-1, "# FAILED CHECK: simulated statistics differ from "
                     f"model_reference.json: {report['simulated']} != {reference}")
        result["correct"] = False
    return result, lines[:-1]


def self_test(binary):
    """A minimal-length run of every workload, untraced and traced: each
    named metric must print with its unit and the run must be correct."""
    for workload in WORKLOADS:
        for trace in (False, True):
            result, _ = run_once(binary, workload, 1, 1.0, trace)
            if not result["correct"] or result["failed"] != 0:
                raise RuntimeError(f"{workload} trace={int(trace)}: incorrect run")
            if not trace:
                for name, m in result["metrics"].items():
                    if m["value"] <= 0:
                        raise RuntimeError(f"{workload}: {name} is not positive")
            print(f"self-test {workload} trace={int(trace)}: "
                  f"{len(result['metrics'])} metrics ok", flush=True)
    print("self-test ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    try:
        binary = build(build_dir())
        if args.self_test:
            self_test(binary)
            return 0
        result, lines = run_once(binary, args.workload, args.seed,
                                 args.seconds, bool(args.trace))
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError,
            KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
