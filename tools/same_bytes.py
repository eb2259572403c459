"""Do two revisions write the same bytes?  Every request of one fixed corpus, on both trees.

    python3 tools/same_bytes.py PARENT CHANGE [--quick] [--out FILE]

PARENT and CHANGE are git revisions of this repository, each `git archive`d into a
temporary directory of its own (`bench_pairs.archive`).  The corpus is drawn with numpy
from a fixed seed, without octeig:
  - `eigen` and `project` on matrices of every class, scaled by 10^U[-8, 8]; quaternionic
    matrices nudged off their subalgebra by 10^U[-12, -6] in one coordinate; the zero
    matrix, the identity and diag(1, 1, 2);
  - each matrix is projected twice: a vector at 10^U[-8, 8], then one of that vector times
    2^-600 or 2^600, or the zero vector;
  - `verify`, and `fuzz` of every class, at seeds 0-5 with n in {1, 8, 30};
  - a missing file, a matrix file holding a JSON array and a non-finite coordinate.
--quick draws a few of each, for CI.

Each tree runs every request through `octeig.cli.main` in one subprocess, with PYTHONPATH
set to the tree's `src`, PYTHONDONTWRITEBYTECODE=1 and no OCTO_TOLERANCE, in one shared
directory, so that relative paths in messages read the same.  Stdout, stderr (with the
tree's own directory written as <tree>), the `--out` bytes and the exit code of every
request are compared.  The exit status is 0 only if all are identical.  Where bytes
differ, it prints the largest relative change per report field, and every request whose
class or exit code changed.  --out FILE writes all of it as JSON.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from bench_pairs import SIDES, archive, git

SEED = 20010
MASKS = {"octonionic": range(8), "quaternionic": (0, 1, 2, 4), "complex": (0, 1), "real": (0,)}
OUTSIDE_H = (3, 5, 6, 7)   # the coordinates outside the quaternionic subalgebra (1, e1, e2, e4)
STREAMS = ("exit", "stdout", "stderr", "out")

# one process per tree: every request through cli.main, its streams and --out bytes recorded
RUNNER = r"""
import contextlib, io, json, os, sys, traceback
from pathlib import Path
import octeig.cli
tree = sys.argv[3]
if not octeig.cli.__file__.startswith(tree):
    sys.exit(f"octeig was imported from {octeig.cli.__file__}, not from {tree}")
results = []
for argv in json.loads(Path(sys.argv[1]).read_text()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = octeig.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = "traceback"
    report = None
    if "--out" in argv and os.path.exists(argv[-1]):
        with open(argv[-1], "rb") as fh:
            report = fh.read().decode("latin-1")
        os.remove(argv[-1])
    results.append({"exit": code, "stdout": out.getvalue(),
                    "stderr": err.getvalue().replace(tree, "<tree>"), "out": report})
Path(sys.argv[2]).write_text(json.dumps(results))
"""


def matrix(rng, kind: str, scale: float) -> dict:
    off = rng.uniform(-1.0, 1.0, (3, 8)) * np.isin(np.arange(8), MASKS[kind]) * scale
    dia = rng.uniform(-1.0, 1.0, 3) * scale
    return {"d": dia[0], "e": dia[1], "f": dia[2], "a": off[0], "b": off[1], "c": off[2]}


def plain(m: dict) -> dict:
    return {k: np.asarray(v, dtype=float).tolist() for k, v in m.items()}


def corpus(work: Path, quick: bool) -> list:
    """Writes the corpus's files in work and returns its requests, argv lists."""
    rng = np.random.default_rng(SEED)
    per_class, nudged = (2, 2) if quick else (40, 20)
    mats = []
    for kind in MASKS:
        mats += [(kind, matrix(rng, kind, 10.0 ** rng.uniform(-8, 8))) for _ in range(per_class)]
    for _ in range(nudged):
        scale = 10.0 ** rng.uniform(-8, 8)
        m = matrix(rng, "quaternionic", scale)
        m["abc"[rng.integers(3)]][rng.choice(OUTSIDE_H)] += scale * 10.0 ** rng.uniform(-12, -6)
        mats.append(("nudged", m))
    zero = {k: 0.0 for k in "def"} | {k: [0.0] * 8 for k in "abc"}
    mats += [("zero", zero), ("identity", zero | {"d": 1.0, "e": 1.0, "f": 1.0}),
             ("diag112", zero | {"d": 1.0, "e": 1.0, "f": 2.0})]
    requests = []
    for k, (kind, m) in enumerate(mats):
        name = f"m{k}-{kind}.json"
        (work / name).write_text(json.dumps(plain(m)))
        x = rng.uniform(-1.0, 1.0, (3, 8)) * 10.0 ** rng.uniform(-8, 8)
        other = [np.ldexp(x, -600), np.ldexp(x, 600), np.zeros((3, 8))][k % 3]
        requests.append(["eigen", name])
        for j, vec in enumerate((x, other)):
            (work / f"x{k}-{j}.json").write_text(json.dumps(vec.tolist()))
            requests.append(["project", name, f"x{k}-{j}.json"])
    seeds, sizes = (range(2), (1, 8)) if quick else (range(6), (1, 8, 30))
    for seed in seeds:
        for n in sizes:
            run = ["--seed", str(seed), "--samples", str(n)]
            requests.append(["verify", *run])
            requests += [["fuzz", "--class", kind, *run] for kind in MASKS]
    (work / "array.json").write_text("[1, 2]")
    bad = plain(matrix(rng, "octonionic", 1.0))
    bad["b"][3] = float("inf")
    (work / "nonfinite.json").write_text(json.dumps(bad))   # Infinity, which json.loads reads
    requests += [["eigen", "missing.json"], ["eigen", "array.json"], ["eigen", "nonfinite.json"]]
    return [argv + ["--out", "report.json"] for argv in requests]


def leaves(x, path: str = ""):
    """(path, value) of every leaf of a JSON value, list indices written as []."""
    if isinstance(x, dict):
        for k in sorted(x):
            yield from leaves(x[k], f"{path}.{k}" if path else k)
    elif isinstance(x, list):
        for item in x:
            yield from leaves(item, path + "[]")
    else:
        yield path, x


def relative(a, b) -> float:
    if a == b:
        return 0.0
    if not all(isinstance(z, (int, float)) and not isinstance(z, bool) for z in (a, b)):
        return float("inf")
    size = max(abs(a), abs(b))
    return abs(a - b) / size if np.isfinite(size) else float("inf")


def compare(requests: list, results: dict) -> dict:
    """Per request, the streams that differ; per report field, the largest relative change;
    the requests whose exit code, class or other text field, or report layout changed."""
    diff = {"requests": len(requests), "differing": [], "fields": {}, "changed": []}
    for k, argv in enumerate(requests):
        p, c = results["parent"][k], results["change"][k]
        streams = [s for s in STREAMS if p[s] != c[s]]
        if not streams:
            continue
        diff["differing"].append({"request": k, "argv": argv, "streams": streams})
        changed = {"exit": [p["exit"], c["exit"]]} if p["exit"] != c["exit"] else {}
        if "out" in streams and p["out"] is not None and c["out"] is not None:
            a, b = (list(leaves(json.loads(r["out"]))) for r in (p, c))
            texts = [dict((f, v) for f, v in side if isinstance(v, str)) for side in (a, b)]
            changed |= {f: [texts[0].get(f), texts[1].get(f)] for f in texts[0] | texts[1]
                        if texts[0].get(f) != texts[1].get(f)}
            if [f for f, _ in a] != [f for f, _ in b]:
                changed["layout"] = "differs"
            else:
                for (field, u), (_, v) in zip(a, b):
                    key, change = f"{argv[0]}:{field}", relative(u, v)
                    if change > diff["fields"].get(key, {"change": 0.0})["change"]:
                        diff["fields"][key] = {"change": change, "request": k}
        if changed:
            diff["changed"].append({"request": k, "argv": argv, **changed})
    return diff


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--quick", action="store_true", help="a few draws of each kind, for CI")
    ap.add_argument("--out", help="write the comparison to this JSON file")
    args = ap.parse_args()
    revs = dict(zip(SIDES, (args.parent, args.change)))
    env = {k: v for k, v in os.environ.items() if k != "OCTO_TOLERANCE"}
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        work = Path(tmp) / "corpus"
        work.mkdir()
        requests = corpus(work, args.quick)
        (work / "requests.json").write_text(json.dumps(requests))
        results = {}
        for side in SIDES:
            tree = Path(tmp) / side
            archive(revs[side], tree)
            subprocess.run([sys.executable, "-c", RUNNER, "requests.json", "results.json",
                            str(tree)], cwd=work, check=True,
                           env=env | {"PYTHONPATH": str(tree / "src"),
                                      "PYTHONDONTWRITEBYTECODE": "1"})
            results[side] = json.loads((work / "results.json").read_text())
    diff = compare(requests, results)
    exits = {s: dict(sorted(Counter(str(r["exit"]) for r in results[s]).items())) for s in SIDES}
    print(f"{len(requests)} requests, {len(diff['differing'])} differ; exit codes "
          + "; ".join(f"{s} {exits[s]}" for s in SIDES))
    for s in STREAMS:
        print(f"  {s}: {sum(s in d['streams'] for d in diff['differing'])} differ")
    for field, f in sorted(diff["fields"].items()):
        if f["change"]:
            print(f"  largest relative change of {field}: {f['change']:.3g} (request {f['request']})")
    for c in diff["changed"]:
        print(f"  changed: {json.dumps(c)}")
    if args.out:
        record = {s: {"rev": rev, "commit": git("rev-parse", f"{rev}^{{commit}}")}
                  for s, rev in revs.items()}
        record |= {"quick": args.quick, "seed": SEED, "exit_codes": exits, **diff}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 1 if diff["differing"] else 0


if __name__ == "__main__":
    sys.exit(main())
