"""Paired perfbench runs of two revisions, recorded in one BENCH_<n>.json.

    python3 tools/bench_pairs.py PARENT CHANGE --workload octonionic-cli --pairs 10 \\
        --out BENCH_32.json

PARENT and CHANGE are git revisions of this repository.  Each is `git archive`d into a
temporary directory of its own, so that neither side reads a bytecode cache left by
another tree: a stale `__pycache__` moves perfbench's `setup_s` by several percent.  Pair k
runs `perfbench/run.py --workload W --seed SEED+k --seconds S --trace 0` once on each
tree, one after the other; the parent goes first in even pairs and the change in odd
ones, so that a host that drifts within a pair favours neither side.  --workload may be
given more than once.

The file records both commits and the trees of their `src/`, each tree's `src_lines` (as
perfbench counts them) and its Tier-1 result (the pass and fail counts and the wall time of
the ROADMAP's Tier-1 command, run once on that tree before the pairs), the versions, nproc,
the PYTHONDONTWRITEBYTECODE setting, the seeds and every run's result line and metrics.  For
each end-to-end metric of BENCHMARK.json and each workload it gives the median with
[Q1, Q3] of either side, and in how many pairs the change was better.  It is written
again after every pair, so an interrupted session keeps the pairs it finished.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*argv: str) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def archive(rev: str, dest: Path):
    """The files of rev, as committed, in dest."""
    dest.mkdir()
    tar = subprocess.Popen(["tar", "-x", "-C", str(dest)], stdin=subprocess.PIPE)
    subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                   stdout=tar.stdin)
    tar.stdin.close()
    if tar.wait():
        sys.exit(f"could not unpack {rev}")


def src_lines(tree: Path) -> int:
    """The lines of the tree's `src/**/*.py`, as perfbench's context counts them."""
    return sum(len(p.read_text().splitlines()) for p in (tree / "src").rglob("*.py"))


def tier1(tree: Path) -> dict:
    """The pass and fail counts and the wall time of the Tier-1 command on tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                           "-p", "no:cacheprovider"], cwd=tree, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - start
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    count = {k: int(m.group(1)) if (m := re.search(rf"(\d+) {k}", last)) else 0
             for k in ("passed", "failed", "error")}
    return {**count, "exit": proc.returncode, "wall_s": round(wall, 2), "summary": last}


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """perfbench's result line of one untraced run on tree, with every metric it wrote."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"perfbench failed on {tree.name}, {workload} seed {seed}:\n{proc.stderr}")
    detail = json.loads((tree / ".bench_out" / f"{workload}-s{seed}-t0.json").read_text())
    return {"result": json.loads(proc.stdout.splitlines()[-1]), "metrics": detail["metrics"],
            "context": detail["context"]}


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(runs: list, metrics: list) -> dict:
    """Per workload and gated metric: both sides' median and [Q1, Q3], and the pairs won."""
    out = {}
    for wl in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == wl:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        out[wl] = {}
        for m in metrics:
            value = {s: [p[s][m["name"]]["value"] for p in pairs] for s in SIDES}
            sign = 1.0 if m["better"] == "lower" else -1.0
            out[wl][m["name"]] = {
                "unit": m["unit"], "better": m["better"], "pairs": len(pairs),
                **{s: quartiles(value[s]) for s in SIDES},
                "change_won": sum(sign * (c - p) < 0 for p, c in zip(*value.values())),
            }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=9001, help="pair k uses seed + k")
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    revs = dict(zip(SIDES, (args.parent, args.change)))
    record = {
        "command": " ".join(["python3", "tools/bench_pairs.py", *sys.argv[1:]]),
        **{s: {"rev": rev, "commit": git("rev-parse", f"{rev}^{{commit}}"),
               "src_tree": git("rev-parse", f"{rev}:src")} for s, rev in revs.items()},
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "workloads": args.workload, "seconds": seconds,
        "seeds": [args.seed + k for k in range(args.pairs)],
        "runs": [], "summary": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {s: Path(tmp) / s for s in SIDES}
        for s in SIDES:
            archive(revs[s], trees[s])
            record[s]["src_lines"] = src_lines(trees[s])
        for s in SIDES:
            record[s]["tier1"] = tier1(trees[s])
            print(f"{s} tier-1: {record[s]['tier1']['summary']}", file=sys.stderr)
        for wl in args.workload:
            for k, seed in enumerate(record["seeds"]):
                for side in SIDES[::1 if k % 2 == 0 else -1]:
                    got = run(trees[side], wl, seed, seconds)
                    record["versions"] = {key: got["context"][key]
                                          for key in ("python", "numpy", "blas", "blas_threads")}
                    record["runs"].append({"workload": wl, "pair": k, "seed": seed, "side": side,
                                           "src_lines": got["context"]["src_lines"],
                                           "result": got["result"], "metrics": got["metrics"]})
                    p50 = got["result"]["metrics"]["p50_ms"]["value"]
                    print(f"{wl} pair {k} seed {seed} {side}: p50_ms {p50:.4g}", file=sys.stderr)
                record["summary"] = summary(record["runs"], spec["end_to_end"])
                Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for wl, metrics in record["summary"].items():
        for name, m in metrics.items():
            print(f"{wl:15s} {name:19s} parent {m['parent']['median']:10.4g} "
                  f"[{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}]  change "
                  f"{m['change']['median']:10.4g} [{m['change']['q1']:.4g}, "
                  f"{m['change']['q3']:.4g}]  won {m['change_won']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
