"""octeig benchmark: a single-client closed loop over the `octeig` CLI.

    python3 perfbench/run.py --workload octonionic-cli --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each request is one in-process
call of `octeig.cli.main` on input files generated from --seed, timed
from the file read to the JSON written; the answer is then checked by the
outside oracle, untimed.  With --trace 0 the loop runs whole rounds for
--seconds and reports the end-to-end metrics; with --trace 1 it runs the
workload's fixed number of rounds under span tracing and reports the
per-layer metrics, so their counts repeat exactly for one seed.

An operation fails when the program raises, exits 1, or gives an answer
the oracle rejects, also one it reported as a success; `correct` is true
when the oracle rejected every negative control of the run.  The timed
requests of every workload are ones the program answers correctly.  Known
routing defects show instead in panel_accept_ratio: after the timed loop
of an untraced run, the fixed routing panel of workloads.py is sent once,
untimed, and the share of its requests the oracle accepts is reported.
Its rejections are listed in .bench_out/ but are not operations of the run.

The metric names come from BENCHMARK.json.  Every metric, with the run's
context and the failing input ids, also goes to .bench_out/ in the
checkout; the last line of stdout is the JSON result.
"""

import os

# one BLAS thread, set before numpy loads, so timings do not depend on
# how many cores the machine lends the run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple, Optional  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from oracle import TOL  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, routing_panel  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
# round index of the untimed warm-up round, outside any measured range
WARMUP_ROUND = 2 ** 31
# The host drifts by up to 2x within seconds, in CPU time as much as in
# wall time.  So a short slice of a fixed numpy loop (no octeig) is timed
# after every request, and each request's duration is rescaled by the mean
# of the slices on either side of it, to the speed at which 1000 loop
# products take REF_MS_PER_1K ms.
CAL_PRODUCTS = 200
REF_MS_PER_1K = 5.0
# set-up samples are rescaled to a host on which a fresh `import numpy` takes this long
REF_NUMPY_IMPORT_S = 0.15
_CAL_TABLE = np.random.default_rng(0).standard_normal((8, 64))


def calibrate(products: int = CAL_PRODUCTS) -> float:
    """ms per 1000 products of a fixed numpy loop shaped like an octonion product."""
    p = np.ones(8)
    t0 = perf_counter()
    for _ in range(products):
        p = (p @ _CAL_TABLE).reshape(8, 8) @ p
        p /= np.linalg.norm(p)
    return (perf_counter() - t0) * 1e6 / products


def _setup_seconds() -> list:
    """(wall, rescaled) time of `import octeig` in a fresh interpreter.

    Start-up is file and page-fault work, which the host's drift moves
    differently from the calibration loop, so each sample is rescaled by a
    fresh `import numpy` timed just before it instead.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def fresh(code: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        return perf_counter() - t0

    samples = []
    for _ in range(SETUP_REPEATS):
        numpy_s = fresh("import numpy")
        wall = fresh("import octeig")
        samples.append((wall, wall * REF_NUMPY_IMPORT_S / numpy_s))
    return samples


def _context() -> dict:
    try:
        # the ceiling keeps git from searching above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
        commit = commit or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


class Record(NamedTuple):
    kind: str
    input_id: str
    wall_s: float        # measured latency
    scaled_s: float      # latency rescaled to the reference speed
    exit: Optional[int]  # None when main raised
    verdict: str         # empty when the answer was accepted
    ops: int             # operations the request stands for: 1, or the checks of a report
    failed: int


class Loop:
    """Sends one request at a time and keeps a record of each."""

    def __init__(self, cli, work: Path, tracer=None):
        self.cli = cli
        self.work = work
        self.tracer = tracer
        self.records = []
        self.answers = {}    # first accepted answer bytes per kind, for the negative controls
        self.digests = []
        self.silent = []     # rejected answers that the program reported as a success
        self.speeds = [calibrate()]

    def call(self, argv):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            t0 = perf_counter()
            try:
                code, error = self.cli.main(argv), ""
            except (Exception, SystemExit) as exc:   # counted as a failure, never fatal
                code, error = None, f"{type(exc).__name__}: {exc}"
            return perf_counter() - t0, code, error

    def run_round(self, requests):
        for req in requests:
            if self.tracer:
                self.tracer.request = f"{req.input_id}:{req.kind}"
            seconds, code, error = self.call(req.argv)
            if self.tracer:
                self.tracer.request = None
            self.speeds.append(calibrate())
            speed = 0.5 * (self.speeds[-2] + self.speeds[-1]) / REF_MS_PER_1K
            try:
                raw = Path(req.out).read_bytes()
                answer = json.loads(raw)
            except (OSError, ValueError) as exc:
                raw, answer = b"", None
                error = error or f"no answer: {exc}"
            reason, bad = req.check(answer) if answer is not None else (error, req.ops)
            ok_exit = code in ((0, 2) if req.kind in ("eigen", "project") else (0,))
            if reason and ok_exit and not error:
                self.silent.append(f"{req.input_id} {req.kind}: {reason}")
            verdict = error or reason or ("" if ok_exit else f"exit {code}")
            if verdict and not bad:
                bad = req.ops
            self.records.append(Record(req.kind, req.input_id, seconds, seconds / speed, code,
                                       verdict, req.ops, bad))
            self.digests.append(hashlib.sha256(raw).hexdigest())
            if not verdict and req.kind not in self.answers:
                self.answers[req.kind] = (req, raw)
        for f in self.work.iterdir():
            f.unlink()

    def negative_controls(self) -> list:
        """Corrupted copies of accepted answers; the oracle must reject each."""
        cases = []
        if "eigen" in self.answers:
            req, raw = self.answers["eigen"]
            bad = json.loads(raw)
            bad["families"][0]["eigenvalues"][0] += 1e-6
            cases.append(("eigen answer with one eigenvalue shifted by 1e-6", req, bad))
        if "project" in self.answers:
            req, raw = self.answers["project"]
            bad = json.loads(raw)
            norms = [np.linalg.norm(p["component"]) for p in bad["parts"]]
            del bad["parts"][int(np.argmax(norms))]
            cases.append(("project answer with its largest part dropped", req, bad))
        if "verify" in self.answers:
            req, raw = self.answers["verify"]
            bad = json.loads(raw)
            bad["checks"][0]["residual"] = 10.0 * bad["checks"][0]["tolerance"]
            cases.append(("verify report with one residual over its tolerance", req, bad))
        if not cases:
            return ["no accepted answer to corrupt"]
        return [f"oracle accepted the {what}" for what, req, bad in cases if not req.check(bad)[0]]


def _p50_p90(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (None, None)
    return statistics.median(values), statistics.quantiles(values, n=10)[-1]


def end_to_end(records, rounds: int, setup, panel) -> dict:
    """Every end-to-end metric: times rescaled to the reference speed, and
    the same times as measured under a `wall_` prefix."""
    m = {}
    for prefix, field in (("", "scaled_s"), ("wall_", "wall_s")):
        def ms(kinds=None):
            return [getattr(r, field) * 1e3 for r in records if kinds is None or r.kind in kinds]
        m[prefix + "p50_ms"], m[prefix + "p90_ms"] = _p50_p90(ms())
        for kind in ("eigen", "project"):
            m[f"{prefix}{kind}_p50_ms"], m[f"{prefix}{kind}_p90_ms"] = _p50_p90(ms([kind]))
        if ms(["verify"]):
            # a round is one verify run and one fuzz run per class
            per_round = len(records) // rounds
            m[prefix + "verify_s"] = statistics.median(ms(["verify"])) / 1e3
            m[prefix + "fuzz_s"] = statistics.median(
                sum(getattr(r, field) for r in records[k:k + per_round] if r.kind == "fuzz")
                for k in range(0, len(records), per_round))
        accepted = sum(1 for r in records if not r.verdict)
        m[prefix + "goodput_rps"] = accepted * 1e3 / sum(ms())
    if setup:
        m["setup_s"] = statistics.median(s[1] for s in setup)
        m["wall_setup_s"] = statistics.median(s[0] for s in setup)
    m["fail_ratio"] = sum(r.failed for r in records) / sum(r.ops for r in records)
    if panel:
        m["panel_accept_ratio"] = sum(1 for r in panel if not r.verdict) / len(panel)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


# self times that read 0 on the workloads that never run the function, so
# they are reported here and not listed in BENCHMARK.json
UNGATED_LAYER = ("cli.load.self_ms", "harness.run_verification.self_ms",
                 "harness.run_fuzz.self_ms", "harness.random_hermitian.self_ms")

UNITS = {"_ms": "ms", "_s": "s", "_rps": "1/s", "_ratio": "ratio", "_mb": "MB",
         ".calls": "count"}


def unit(name: str) -> str:
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "octeig" / "__init__.py").is_file():
        print(f"error: {SRC / 'octeig'} not found; run from an octeig source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]

    calib = [calibrate(20000)]
    setup = [] if args.trace else _setup_seconds()
    import octeig.cli

    work = OUT / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        Loop(octeig.cli, work).run_round(wl.make_round(args.seed, WARMUP_ROUND, str(work)))
        loop = Loop(octeig.cli, work, tracer if args.trace else None)
        if args.trace:
            tracer.install()
        t_start = perf_counter()
        rounds = 0
        while True:
            loop.run_round(wl.make_round(args.seed, rounds, str(work)))
            rounds += 1
            if rounds >= wl.trace_rounds if args.trace else \
                    perf_counter() - t_start >= args.seconds:
                break
        wall = perf_counter() - t_start
        tracer.uninstall()
        panel = None if args.trace else Loop(octeig.cli, work)
        if panel:
            panel.run_round(routing_panel(str(work)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = loop.negative_controls()
    calib.append(calibrate(20000))

    recs = loop.records
    metrics = end_to_end(recs, rounds, setup, panel.records if panel else [])
    # per-layer figures are per request, or per round (one verify and four fuzz runs)
    per = rounds if args.workload == "verify-harness" else len(recs)
    names = [m["name"] for m in spec["per_layer"]] + list(UNGATED_LAYER)
    layer = {n: tracer.metric(n, per) for n in names} if args.trace else {}
    attempted = sum(r.ops for r in recs)
    failed = sum(r.failed for r in recs)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "wall_s": wall, "rounds": rounds, "requests": len(recs),
        "attempted": attempted, "failed": failed, "oracle_tol": TOL, "problems": problems,
        "silent_wrong": loop.silent,
        "context": _context(),
        "calibration_ms_per_1k": {"before": calib[0], "after": calib[1],
                                  "per_request_median": statistics.median(loop.speeds),
                                  "reference": REF_MS_PER_1K},
        "setup_samples_s": setup, "metrics": metrics, "per_layer": layer,
        "trace_table": tracer.table(per) if args.trace else {},
        "failures": [{"id": r.input_id, "kind": r.kind, "exit": r.exit, "reason": r.verdict}
                     for r in recs if r.verdict],
        "digests": loop.digests,
        "panel": {"requests": len(panel.records), "silent_wrong": panel.silent,
                  "failures": [{"id": r.input_id, "kind": r.kind, "exit": r.exit,
                                "reason": r.verdict} for r in panel.records if r.verdict]}
        if panel else None,
    }, indent=1))
    if args.trace:
        tracer.dump(OUT / f"{tag}-spans.csv.gz")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {rounds} rounds, "
          f"{len(recs)} requests, {attempted} attempted, {failed} failed; calibration "
          f"{calib[0]:.2f} -> {calib[1]:.2f} ms per 1k products, reference {REF_MS_PER_1K}")
    for name, value in {**metrics, **layer}.items():
        if value is not None:
            print(f"  {name:36s} {value:14.6g} {unit(name)}")
    for s in loop.silent:
        print(f"  rejected although the program reported success (counted as failed): {s}")
    if panel:
        print(f"  routing panel: {sum(1 for r in panel.records if r.verdict)} of "
              f"{len(panel.records)} requests rejected (not operations of the run)")
    for p in problems:
        print(f"  PROBLEM: {p}")

    kind = "per_layer" if args.trace else "end_to_end"
    source = layer if args.trace else metrics
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                    for m in spec[kind]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
