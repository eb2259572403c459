"""Outside oracle for octeig answers.

It shares no code with octeig: the octonion table (cyclic convention
e_i e_{i+1} = e_{i+3}, indices mod 7 in 1..7) and the 24x24 real form of a
3x3 octonionic Hermitian matrix are built here.  Every check is normwise:
a residual ||A v - lam v|| is compared with TOL * ||A||_2 * ||v||.

Each check returns an empty string when it accepts the answer and the
reason for the rejection otherwise.
"""

import math

import numpy as np

TOL = 1e-8


def _table() -> np.ndarray:
    """Structure tensor t with (p q)_k = sum_ij t[i, j, k] p_i q_j."""
    t = np.zeros((8, 8, 8))
    t[0, 0, 0] = 1.0
    for i in range(1, 8):
        t[0, i, i] = t[i, 0, i] = 1.0
        t[i, i, 0] = -1.0
    for i in range(7):
        x, y, z = 1 + i, 1 + (i + 1) % 7, 1 + (i + 3) % 7
        for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
            t[p, q, r] = 1.0
            t[q, p, r] = -1.0
    return t


TABLE = _table()
_CONJ = np.array([1.0] + [-1.0] * 7)


def left_mul(q) -> np.ndarray:
    """8x8 matrix of x -> q x."""
    return np.einsum("i,ijk->kj", np.asarray(q, dtype=float), TABLE)


def realify(m: dict) -> np.ndarray:
    """24x24 real matrix of x -> A x for a matrix in octeig's JSON layout.

    Rows are (d, a, conj b) / (conj a, e, c) / (b, conj c, f).
    """
    a, b, c = (np.asarray(m[k], dtype=float) for k in "abc")
    diag = [np.eye(8) * m[k] for k in "def"]
    blocks = [
        [diag[0], left_mul(a), left_mul(b * _CONJ)],
        [left_mul(a * _CONJ), diag[1], left_mul(c)],
        [left_mul(b), left_mul(c * _CONJ), diag[2]],
    ]
    return np.block(blocks)


class Matrix:
    """A generated matrix with its real form, spectrum and 2-norm."""

    def __init__(self, m: dict):
        self.real = realify(m)
        self.spectrum = np.linalg.eigvalsh(self.real)
        self.norm = float(np.max(np.abs(self.spectrum)))


def _vec(coords) -> np.ndarray:
    v = np.asarray(coords, dtype=float)
    if v.shape != (3, 8) or not np.all(np.isfinite(v)):
        raise ValueError(f"expected a finite 3x8 array, got shape {v.shape}")
    return v.reshape(24)


def _pair_error(A: Matrix, lam: float, v: np.ndarray) -> str:
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return f"zero eigenvector for lambda={lam:.17g}"
    res = float(np.linalg.norm(A.real @ v - lam * v)) / (A.norm * nv)
    if not res <= TOL:
        return f"eigenpair residual {res:.3e} for lambda={lam:.17g}"
    return ""


def check_eigen(A: Matrix, answer: dict) -> str:
    """Accept an `eigen` answer whose eigenvalues are the 24x24 spectrum and
    whose every pair satisfies the eigen equation.

    Each listed eigenvalue stands for a cluster of 4 real eigenvalues, or 8
    when the answer has a single family of three.
    """
    try:
        families = answer["families"]
        lams = [float(x) for f in families for x in f["eigenvalues"]]
        vecs = [_vec(v) for f in families for v in f["eigenvectors"]]
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed eigen answer: {exc}"
    if len(lams) not in (3, 6) or len(vecs) != len(lams):
        return f"{len(lams)} eigenvalues and {len(vecs)} eigenvectors; expected 6 or 3 of each"
    expected = np.sort(np.repeat(lams, 24 // len(lams)))
    gap = float(np.max(np.abs(expected - A.spectrum)))
    if not gap <= TOL * A.norm:
        return f"eigenvalues are {gap:.3e} from the 24x24 spectrum"
    for lam, v in zip(lams, vecs):
        err = _pair_error(A, lam, v)
        if err:
            return err
    return ""


def check_project(A: Matrix, x: np.ndarray, answer: dict) -> str:
    """Accept a `project` answer whose parts sum to x and whose nonzero parts
    are eigenvectors for their eigenvalues."""
    try:
        parts = [(float(p["lambda"]), _vec(p["component"])) for p in answer["parts"]]
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed project answer: {exc}"
    if len(parts) not in (3, 6):
        return f"{len(parts)} parts; expected 6 or 3"
    x = x.reshape(24)
    nx = float(np.linalg.norm(x))
    recon = float(np.linalg.norm(sum(p for _, p in parts) - x)) / nx
    if not recon <= TOL:
        return f"parts miss x by {recon:.3e}"
    for lam, p in parts:
        if np.any(p != 0.0):
            err = _pair_error(A, lam, p)
            if err:
                return err
    return ""


def check_report(report: dict, command: str, seed: int, samples: int,
                 n_checks: int) -> tuple[str, int]:
    """Check a `verify` or `fuzz` report; returns (rejection reason, checks failed).

    A check fails when its residual is not finite or exceeds its
    tolerance.  The report is rejected when any check fails, when a pass
    flag disagrees with its residual, or when the report does not echo its
    request.
    """
    try:
        rows = [(c["name"], float(c["residual"]), float(c["tolerance"]), c["pass"])
                for c in report["checks"]]
        echo = (report["command"], report["seed"], report["inputs"]["samples"])
        overall = report["outputs"]["pass"]
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed {command} report: {exc}", n_checks
    failed = sum(1 for _, res, tol, _ in rows if not (math.isfinite(res) and res <= tol))
    if echo != (command, seed, samples):
        return f"report echoes {echo}, expected {(command, seed, samples)}", max(failed, 1)
    if len(rows) != n_checks:
        return f"{len(rows)} checks, expected {n_checks}", n_checks
    for name, res, tol, flag in rows:
        if flag is not (res <= tol):
            return (f"check {name}: pass={flag} with residual {res:.3e} "
                    f"and tolerance {tol:.1e}"), max(failed, 1)
    if failed:
        return f"{failed} checks exceed their tolerance", failed
    if overall is not True:
        return "report says fail with every check passing", 1
    return "", 0
