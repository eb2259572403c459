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
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import OcteigError
from .harness import (
    DEFAULT_TOLERANCE,
    FUZZ_CLASSES,
    run_fuzz,
    run_verification,
)
from .hermitian import _TAGS, OCTONIONIC, _matrix_floats, _vector_floats
from .projection import _fingerprint, _part_json, _six_way, _six_way_json
from .spectral import _RESIDUALS, _eigen_json, _family_json, _Systems
from .subspace import _context_json, _contexts

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_FAIL = 1
_EXIT_DEGENERATE = 2


def _load_json(path: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        # UTF-8 with an optional byte-order mark (RFC 8259 8.1), removed after decoding so
        # that a decode error, a ValueError for the caller, gives the file's byte offset
        return json.loads(data.decode().removeprefix("\ufeff"))
    except FileNotFoundError:
        raise OcteigError(f"{path}: file not found")
    except OSError as exc:
        raise OcteigError(f"{path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        # lines as a text-mode read counts them, a lone CR ending one too
        head = exc.doc[:exc.pos].replace("\r\n", "\n").replace("\r", "\n")
        line, column = head.count("\n") + 1, len(head) - head.rfind("\n")
        msg = "unexpected byte-order mark" if "UTF-8 BOM" in exc.msg else exc.msg
        raise OcteigError(f"{path}: invalid JSON at line {line} column {column}: {msg}")
    except RecursionError:
        raise OcteigError(f"{path}: invalid JSON: arrays or objects nested too deeply")


def _load(path: str, floats) -> np.ndarray:
    """`floats` (`_matrix_floats`, `_vector_floats`) of the JSON file at path, or OcteigError."""
    try:
        return floats(_load_json(path))
    except ValueError as exc:
        raise OcteigError(f"{path}: {exc}")


# the names under which perfbench's spans trace the load (cli.load)
_load_matrix = _load_vector = _load


_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _encode(x, indent: str = "\n") -> str:
    """`json.dumps(x, indent=2, sort_keys=True)` for str keys, written without the
    stdlib's pure-Python encoder, which it falls back to whenever indent is set."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or isinstance(x, bool):
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        text = float.__repr__(x)
        return _NONFINITE.get(text, text)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(x, dict):
        items = [f"{encode_basestring_ascii(k)}: {_encode(v, inner)}" for k, v in sorted(x.items())]
        return "{" + inner + sep.join(items) + indent + "}" if x else "{}"
    if not isinstance(x, (list, tuple)):
        return json.dumps(x)   # raises the stdlib's TypeError
    floats = bool(x) and isinstance(x[0], float)
    if floats:   # a list of finite floats is one join
        try:
            text = sep.join(map(float.__repr__, x))
            floats = "n" not in text   # only inf and nan have an "n"
        except TypeError:   # a later item that is not a float
            floats = False
    if not floats:
        text = sep.join([_encode(v, inner) for v in x])
    return "[" + inner + text + indent + "]" if x else "[]"


def _emit(payload: dict, out: str):
    text = _encode(payload)
    if not out:
        print(text)
        return
    data = memoryview(f"{text}\n".encode())   # the report is ASCII
    try:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    except OSError as exc:
        raise OcteigError(f"{out}: {exc.strerror or exc}")


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


def _check_run(args):
    if args.samples < 1:
        raise OcteigError(f"--samples must be at least 1, got {args.samples}")
    if args.seed < 0:   # np.random.default_rng raises on a negative seed
        raise OcteigError(f"--seed must be at least 0, got {args.seed}")


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
    """`eigensystem(A).to_json()`, written from the blocks of A's solved stack."""
    tol = _resolve_tolerance(args)
    c = _load(args.matrix, _matrix_floats)
    S = _Systems(c[None, :3], c[3:].reshape(1, 3, 8))
    blocks = zip(_contexts(S), S.lams[0].tolist(), S.V[0].tolist(), S.residuals[0].tolist())
    families = [_family_json(_context_json(*context), lams, V, dict(zip(_RESIDUALS, res)))
                for context, lams, V, res in blocks]
    code, dim_t = (int(x[0]) for x in S.classes)
    payload = _eigen_json(_TAGS[code], dim_t, families)
    payload["fingerprint"] = _fingerprint(c)
    worst = float(np.maximum.reduce(S.residuals[0], None))
    return _conclude(payload, _TAGS[code], worst, tol, args.out)


def _cmd_project(args) -> int:
    """`six_way(A, x).to_json()`, written from the parts of `_six_way` on A's solved stack."""
    tol = _resolve_tolerance(args)
    c, x = _load(args.matrix, _matrix_floats), _load(args.vector, _vector_floats)
    S = _Systems(c[None, :3], c[3:].reshape(1, 3, 8))
    F, tag = S.nfam, _TAGS[S.codes[0]]
    comps, residuals, recon = _six_way(S, x[None])
    lams, comps = S.lams[0].tolist(), comps[0].reshape(F, 3, 3, 8).tolist()
    parts = [_part_json(f + 1, lam, c) for f in range(F) for lam, c in zip(lams[f], comps[f])]
    residuals, recon = residuals[0].ravel().tolist(), float(recon[0])
    payload = _six_way_json(tag, _fingerprint(c), parts, recon, residuals)
    if tag != OCTONIONIC:
        payload["single_family"] = F == 1
    return _conclude(payload, tag, float(np.maximum.reduce([recon, *residuals])), tol, args.out)


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
    _check_run(args)
    if not math.isfinite(args.det_offset):   # a nan or inf residual is not valid JSON
        raise OcteigError(f"--det-offset must be a finite number, got {args.det_offset!r}")
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
    _check_run(args)
    checks = run_fuzz(seed=args.seed, samples=args.samples,
                      kind=args.matrix_class, tolerance=tol)
    ok = _print_checks(checks)
    if args.out:
        _emit(_report("fuzz", args, tol, checks,
                      {"class": args.matrix_class}), args.out)
    print(f"fuzz[{args.matrix_class}]: {'pass' if ok else 'FAIL'} "
          f"(seed={args.seed}, samples={args.samples})")
    return _EXIT_OK if ok else _EXIT_FAIL


def _no_command(args) -> int:
    raise OcteigError("the following arguments are required: command")


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are failures, exit 1, not argparse's exit 2; its
    subparsers are of this class too."""

    def error(self, message):
        raise OcteigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once (parse_args keeps no state); `commands` has its subparsers by name."""
    parser = _Parser(
        prog="octeig",
        description="Two-family eigenstructure of 3x3 octonionic Hermitian matrices.",
    )
    # the command is checked after parsing, so that an unknown option before it is named first
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(fn=_no_command)

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
    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    try:   # a command's own parser alone; the top-level one only for help or a usage error,
        # on argv without "--", which it would report as an unrecognized argument
        args = command.parse_args(argv[1:]) if command else parser.parse_args(
            [a for a in argv if a != "--"])
        return args.fn(args)
    except OcteigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
