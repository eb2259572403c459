"""Seeded input generation and the request rounds of each workload.

Inputs are drawn here with numpy, coordinate masks per class, and never
with octeig's own sampler: its classify-based rejection loop would drop
exactly the scaled and near-boundary matrices boundary-cli and the routing
panel need.  Round
i of a workload depends only on (seed, i), so a traced and an untraced
run of one seed send the same inputs.
"""

import json
import os
from typing import Callable, NamedTuple

import numpy as np

from oracle import Matrix, check_eigen, check_project, check_report

MASKS = {
    "octonionic": None,
    "quaternionic": (0, 1, 2, 4),
    "complex": (0, 1),
    "real": (0,),
}
# imaginary units outside the quaternionic subalgebra spanned by 1, e1, e2, e4
OFF_QUATERNIONIC = (3, 5, 6, 7)

# boundary-cli: per round, (label, class, count); nudge and scale exponents
# are stratified, one draw per equal slice of their range, so every round
# has the same mix
BOUNDARY_MIX = (
    ("quaternionic", "quaternionic", 4),
    ("complex", "complex", 2),
    ("real", "real", 2),
    ("nudged", "quaternionic", 4),
    ("scaled", "octonionic", 4),
)
# Timed boundary-cli ranges: every input here is answered correctly at the
# commit that added the benchmark (0 failures in 1500 nudges up to 1e-9.5 and
# 600 scales down to 1e-3), so each timed request is a success.
NUDGE_LOG10 = (-12.0, -10.0)
SCALE_LOG10 = (-2.5, -1.0)
# The routing panel: the same mix over the full ranges, which reach into the
# known routing defects (ROADMAP item 2): nudges from about 1e-9.5 to 1e-7 and
# octonionic scales below about 1e-3.15 get exit 1 at that commit.  The panel
# is drawn once from a fixed seed, whatever --seed is, so its accepted share
# is the same on every run of one program and moves only when routing does.
PANEL_NUDGE_LOG10 = (-12.0, -6.0)
PANEL_SCALE_LOG10 = (-6.0, -2.0)
PANEL_SEED = 20010
PANEL_ROUNDS = 4

VERIFY_SAMPLES = 8
FUZZ_SAMPLES = 8
FUZZ_CLASSES = tuple(MASKS)
VERIFY_CHECKS = 45
FUZZ_CHECKS = 5


class Request(NamedTuple):
    kind: str          # eigen, project, verify or fuzz
    input_id: str      # seed:round:slot plus a label
    argv: list
    out: str
    ops: int           # operations the request stands for: 1, or the checks of a report
    check: Callable    # answer dict -> (rejection reason, operations failed)


def matrix(rng, kind: str, scale: float = 1.0) -> dict:
    """Hermitian matrix JSON with entries uniform in [-1, 1], masked to `kind`."""
    diag = rng.uniform(-1.0, 1.0, 3)
    off = rng.uniform(-1.0, 1.0, (3, 8))
    if MASKS[kind] is not None:
        keep = np.zeros(8)
        keep[list(MASKS[kind])] = 1.0
        off *= keep
    diag, off = diag * scale, off * scale
    return {"d": float(diag[0]), "e": float(diag[1]), "f": float(diag[2]),
            "a": off[0].tolist(), "b": off[1].tolist(), "c": off[2].tolist()}


def nudge(rng, m: dict, eps: float) -> dict:
    """Add +-eps to one coordinate outside the quaternionic subalgebra."""
    key = "abc"[rng.integers(3)]
    coord = OFF_QUATERNIONIC[rng.integers(len(OFF_QUATERNIONIC))]
    entry = list(m[key])
    entry[coord] += eps if rng.random() < 0.5 else -eps
    return {**m, key: entry}


def vector(rng) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (3, 8))


def _stratified(rng, lo: float, hi: float, n: int) -> np.ndarray:
    edges = np.linspace(lo, hi, n + 1)
    return edges[:-1] + (edges[1:] - edges[:-1]) * rng.uniform(0.0, 1.0, n)


def _write(path: str, data) -> str:
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def _cli_requests(work: str, tag: str, m: dict, vectors, label: str):
    """One eigen request and one project request per vector."""
    A = Matrix(m)
    stem = os.path.join(work, tag.replace(":", "_"))
    mpath = _write(f"{stem}-m.json", m)
    out = f"{stem}-eigen.json"
    reqs = [Request("eigen", f"{tag}:{label}", ["eigen", mpath, "--out", out], out, 1,
                    lambda ans: _cli_verdict(check_eigen(A, ans)))]
    for k, x in enumerate(vectors):
        vpath = _write(f"{stem}-v{k}.json", x.tolist())
        out = f"{stem}-project{k}.json"
        reqs.append(Request("project", f"{tag}:{label}:v{k}",
                            ["project", mpath, vpath, "--out", out], out, 1,
                            lambda ans, x=x: _cli_verdict(check_project(A, x, ans))))
    return reqs


def _cli_verdict(reason: str):
    return reason, int(bool(reason))


def octonionic_round(seed: int, i: int, work: str) -> list:
    """One eigen and three project requests on one generic octonionic matrix."""
    rng = np.random.default_rng([seed, i])
    m = matrix(rng, "octonionic")
    return _cli_requests(work, f"{seed}:{i}:0", m, [vector(rng) for _ in range(3)],
                         "octonionic")


def _boundary_requests(rng, work: str, tag: str, nudge_log10, scale_log10) -> list:
    """One eigen and one project request on each of 16 matrices of the fixed mix."""
    slots = []
    for label, kind, count in BOUNDARY_MIX:
        if label == "nudged":
            for e in _stratified(rng, *nudge_log10, count):
                slots.append((f"nudged-eps=1e{e:.2f}", nudge(rng, matrix(rng, kind), 10.0 ** e)))
        elif label == "scaled":
            for e in _stratified(rng, *scale_log10, count):
                slots.append((f"scaled-s=1e{e:.2f}", matrix(rng, kind, 10.0 ** e)))
        else:
            slots.extend((label, matrix(rng, kind)) for _ in range(count))
    reqs = []
    for slot in rng.permutation(len(slots)):
        label, m = slots[slot]
        reqs += _cli_requests(work, f"{tag}:{slot}", m, [vector(rng)], label)
    return reqs


def boundary_round(seed: int, i: int, work: str) -> list:
    return _boundary_requests(np.random.default_rng([seed, i]), work, f"{seed}:{i}",
                              NUDGE_LOG10, SCALE_LOG10)


def routing_panel(work: str) -> list:
    """The fixed routing panel: PANEL_ROUNDS rounds of the boundary mix over
    the full nudge and scale ranges, the same for every --seed."""
    return [req for i in range(PANEL_ROUNDS)
            for req in _boundary_requests(np.random.default_rng([PANEL_SEED, i]), work,
                                          f"panel:{i}", PANEL_NUDGE_LOG10, PANEL_SCALE_LOG10)]


def harness_round(seed: int, i: int, work: str) -> list:
    """One verify run, then one fuzz run per class, each writing its report."""
    rng = np.random.default_rng([seed, i])
    s = int(rng.integers(2 ** 31))
    tag = f"{seed}:{i}"
    stem = os.path.join(work, f"{seed}_{i}")
    out = f"{stem}-verify.json"
    reqs = [Request("verify", f"{tag}:verify",
                    ["verify", "--seed", str(s), "--samples", str(VERIFY_SAMPLES), "--out", out],
                    out, VERIFY_CHECKS,
                    lambda ans: check_report(ans, "verify", s, VERIFY_SAMPLES, VERIFY_CHECKS))]
    for cls in FUZZ_CLASSES:
        out = f"{stem}-fuzz-{cls}.json"
        reqs.append(Request(
            "fuzz", f"{tag}:fuzz-{cls}",
            ["fuzz", "--class", cls, "--seed", str(s), "--samples", str(FUZZ_SAMPLES),
             "--out", out],
            out, FUZZ_CHECKS,
            lambda ans: check_report(ans, "fuzz", s, FUZZ_SAMPLES, FUZZ_CHECKS)))
    return reqs


class Workload(NamedTuple):
    make_round: Callable
    trace_rounds: int   # rounds in a traced run; fixed so its counts repeat exactly


WORKLOADS = {
    "octonionic-cli": Workload(octonionic_round, 4),
    "boundary-cli": Workload(boundary_round, 2),
    "verify-harness": Workload(harness_round, 1),
}
