"""Every metric of every workload in one table, plus the trace checks.

    python3 perfbench/report.py [--seed 1] [--seconds S] [--workload NAME ...]

For each workload it makes one untraced run and two traced runs of the same
seed with perfbench/run.py, then prints every end-to-end metric (rescaled
and as measured) and every per-layer metric with its unit, and the tracing
overhead as traced against untraced goodput_rps and verify_s.  It exits 1
unless, for every workload, the oracle rejected its negative controls, the
traced run wrote byte-identical CLI output files to the untraced run, and
the two traced runs counted exactly the same calls.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import unit
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace} failed:\n{proc.stderr}")
    return json.loads((ROOT / ".bench_out" / f"{workload}-s{seed}-t{trace}.json").read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--workload", nargs="*", default=list(WORKLOADS), choices=list(WORKLOADS))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.seconds = args.seconds or spec["run_seconds"]
    failures = []
    for wl in args.workload:
        plain = run(wl, args.seed, args.seconds, 0)
        traced = run(wl, args.seed, args.seconds, 1)
        again = run(wl, args.seed, args.seconds, 1)
        ctx = plain["context"]
        print(f"\n== {wl}  seed {args.seed}, {plain['seconds']:g} s, {plain['rounds']} rounds, "
              f"{plain['requests']} requests, {plain['attempted']} attempted, "
              f"{plain['failed']} failed")
        print(f"   commit {ctx['commit'][:12]}, python {ctx['python']}, numpy {ctx['numpy']}, "
              f"{ctx['blas']} x{ctx['blas_threads']} threads, nproc {ctx['nproc']}, "
              f"src {ctx['src_lines']} lines; calibration {plain['calibration_ms_per_1k']}")
        gated = {m["name"] for m in spec["end_to_end"]}
        print("   end to end (times rescaled to the reference speed; wall_ as measured)")
        for name, value in plain["metrics"].items():
            if value is not None:
                mark = "*" if name in gated else " "
                print(f"   {mark} {name:28s} {value:14.6g} {unit(name)}")
        per = "run" if wl == "verify-harness" else "request"
        print(f"   per layer, per {per} (traced run, {traced['requests']} requests)")
        for name, value in traced["per_layer"].items():
            print(f"     {name:40s} {value:14.6g} {unit(name)}")
        for key in ("goodput_rps", "verify_s", "wall_goodput_rps", "wall_verify_s"):
            if plain["metrics"].get(key) is not None:
                t, u = traced["metrics"][key], plain["metrics"][key]
                print(f"   tracing overhead: {key} traced {t:.6g} vs untraced {u:.6g} "
                      f"({t / u:.2f}x)")
        for s in plain["silent_wrong"]:
            print(f"   rejected although the program reported success: {s}")
        problems = [p for r in (plain, traced, again) for p in r["problems"]]
        n = len(traced["digests"])
        if plain["digests"][:n] != traced["digests"]:
            problems.append(f"traced output files differ from the untraced ones "
                            f"(first {n} requests)")
        if {k: v["calls"] for k, v in traced["trace_table"].items()} != \
                {k: v["calls"] for k, v in again["trace_table"].items()}:
            problems.append("call counts differ between two traced runs of one seed")
        for p in problems:
            print(f"   CHECK FAILED: {p}")
        if not problems:
            print(f"   checks: negative controls rejected; traced output of {n} requests "
                  "byte-identical to untraced; call counts equal across two traced runs")
        failures += problems
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
