"""Command line front end: eigen, project, verify, fuzz.

Exit codes: 0 success, 1 failure or parse error, 2 degenerate-class
routing notice (the matrix was handled by the quaternionic, complex, or
real path).  Reports are deterministic given the same seed and flags.
"""

import argparse
import functools
import json
import math
import os
import sys

from .errors import OcteigError
from .harness import (
    DEFAULT_TOLERANCE,
    FUZZ_CLASSES,
    run_fuzz,
    run_verification,
)
from .hermitian import OCTONIONIC, Hermitian3, OctVector3
from .projection import matrix_fingerprint, six_way
from .spectral import eigensystem

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_FAIL = 1
_EXIT_DEGENERATE = 2


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise OcteigError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise OcteigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")


def _load_matrix(path: str) -> Hermitian3:
    try:
        return Hermitian3.from_json(_load_json(path))
    except ValueError as exc:
        raise OcteigError(f"{path}: {exc}")


def _load_vector(path: str) -> OctVector3:
    try:
        return OctVector3.from_json(_load_json(path))
    except ValueError as exc:
        raise OcteigError(f"{path}: {exc}")


def _emit(payload: dict, out: str):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _resolve_tolerance(args) -> float:
    if args.tolerance is not None:
        return _positive_tolerance("--tolerance", args.tolerance)
    env = os.environ.get("OCTO_TOLERANCE")
    if env:
        try:
            value = float(env)
        except ValueError:
            raise OcteigError(f"OCTO_TOLERANCE={env!r} is not a number")
        return _positive_tolerance("OCTO_TOLERANCE", value)
    return DEFAULT_TOLERANCE


def _positive_tolerance(source: str, tol: float) -> float:
    # nan compares false with everything and inf passes every residual
    if not (math.isfinite(tol) and tol > 0.0):
        raise OcteigError(f"{source} must be a finite number > 0, got {tol!r}")
    return tol


def _check_samples(args):
    if args.samples < 1:
        raise OcteigError(f"--samples must be at least 1, got {args.samples}")


def _print_checks(checks) -> bool:
    width = max(len(c.name) for c in checks)
    print(f"{'check':{width}s}  {'residual':>12s}  {'tolerance':>10s}  status")
    all_pass = True
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        all_pass &= c.passed
        print(f"{c.name:{width}s}  {c.residual:12.3e}  {c.tolerance:10.1e}  {status}")
    return all_pass


def _conclude(payload: dict, tag: str, worst: float, tol: float, out: str) -> int:
    """Record the worst residual against the tolerance, write the result, pick the exit code."""
    routed = tag != OCTONIONIC
    if routed:
        payload["routed_path"] = tag
    payload["worst_residual"] = worst
    payload["tolerance"] = tol
    payload["pass"] = worst <= tol
    _emit(payload, out)
    if not payload["pass"]:
        print(f"residuals exceed tolerance {tol:g}", file=sys.stderr)
        return _EXIT_FAIL
    if routed:
        print(f"note: degenerate class, routed through the {tag} path",
              file=sys.stderr)
        return _EXIT_DEGENERATE
    return _EXIT_OK


def _cmd_eigen(args) -> int:
    tol = _resolve_tolerance(args)
    A = _load_matrix(args.matrix)
    es = eigensystem(A)
    payload = es.to_json()
    payload["fingerprint"] = matrix_fingerprint(A)
    worst = max(max(f.residuals.values()) for f in es.families)
    return _conclude(payload, es.matrix_class.tag, worst, tol, args.out)


def _cmd_project(args) -> int:
    tol = _resolve_tolerance(args)
    A = _load_matrix(args.matrix)
    x = _load_vector(args.vector)
    dec = six_way(A, x)
    payload = dec.to_json()
    if dec.matrix_class != OCTONIONIC:
        payload["single_family"] = len(dec.parts) == 3
    worst = max([dec.reconstruction_residual, *dec.eigen_residuals])
    return _conclude(payload, dec.matrix_class, worst, tol, args.out)


def _report(command: str, args, tol: float, checks, extra=None) -> dict:
    inputs = {"seed": args.seed, "samples": args.samples, "tolerance": tol}
    if extra:
        inputs.update(extra)
    return {
        "command": command,
        "seed": args.seed,
        "inputs": inputs,
        "checks": [c.to_json() for c in checks],
        "outputs": {"pass": all(c.passed for c in checks)},
    }


def _cmd_verify(args) -> int:
    tol = _resolve_tolerance(args)
    _check_samples(args)
    checks = run_verification(seed=args.seed, samples=args.samples,
                              tolerance=tol, det_offset=args.det_offset)
    ok = _print_checks(checks)
    extra = {"det_offset": args.det_offset} if args.det_offset else None
    if args.out:
        _emit(_report("verify", args, tol, checks, extra), args.out)
    print(f"verify: {'all checks pass' if ok else 'FAILURES present'} "
          f"({len(checks)} checks, seed={args.seed}, samples={args.samples})")
    return _EXIT_OK if ok else _EXIT_FAIL


def _cmd_fuzz(args) -> int:
    tol = _resolve_tolerance(args)
    _check_samples(args)
    checks = run_fuzz(seed=args.seed, samples=args.samples,
                      kind=args.matrix_class, tolerance=tol)
    ok = _print_checks(checks)
    if args.out:
        _emit(_report("fuzz", args, tol, checks,
                      {"class": args.matrix_class}), args.out)
    print(f"fuzz[{args.matrix_class}]: {'pass' if ok else 'FAIL'} "
          f"(seed={args.seed}, samples={args.samples})")
    return _EXIT_OK if ok else _EXIT_FAIL


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="octeig",
        description="Two-family eigenstructure of 3x3 octonionic Hermitian matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="", help="write the JSON result to this path")
        p.add_argument("--tolerance", type=float, default=None,
                       help=f"residual tolerance (default {DEFAULT_TOLERANCE:g}, "
                            "or OCTO_TOLERANCE)")

    p_eigen = sub.add_parser("eigen", help="eigenvalues and eigenvectors of a matrix file")
    p_eigen.add_argument("matrix", help="Hermitian matrix JSON file")
    common(p_eigen)
    p_eigen.set_defaults(fn=_cmd_eigen)

    p_proj = sub.add_parser("project", help="six-way decomposition of a vector file")
    p_proj.add_argument("matrix", help="Hermitian matrix JSON file")
    p_proj.add_argument("vector", help="vector JSON file (3x8 coordinates)")
    common(p_proj)
    p_proj.set_defaults(fn=_cmd_project)

    p_ver = sub.add_parser("verify", help="run the randomized identity checks")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--samples", type=int, default=100)
    p_ver.add_argument("--det-offset", type=float, default=0.0,
                       help="offset added to the determinant inside the "
                            "k-diagonality check (negative control)")
    common(p_ver)
    p_ver.set_defaults(fn=_cmd_verify)

    p_fuzz = sub.add_parser("fuzz", help="end-to-end run on random matrices of one class")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--samples", type=int, default=100)
    p_fuzz.add_argument("--class", dest="matrix_class", default=OCTONIONIC,
                        choices=FUZZ_CLASSES)
    common(p_fuzz)
    p_fuzz.set_defaults(fn=_cmd_fuzz)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OcteigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
