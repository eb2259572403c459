"""Six-way decomposition of arbitrary vectors into eigenvector components.

A vector is first split along the families' subspaces (the two K
eigenspaces of an octonionic matrix) and each piece is then expanded
along that family's orthonormal eigenvectors with the rank-one
generalized projectors (v v^dagger) y, so a generic vector ends up with
six components, every one an eigenvector of the matrix.
"""

from dataclasses import dataclass

import numpy as np

from .errors import FamilyMismatch, NotQuaternionic
from .hermitian import QUATERNIONIC, _TAGS, Hermitian3, OctVector3, _vnorm, classify
from .octonion import Octonion, _finite, _in_range, _product, _scaled_rows
from .spectral import EigenSystem, _Stack, _same_family
from .tolerances import FAMILY_TOL, ZERO_PART_TOL

__all__ = [
    "DecompositionPart",
    "SixWayDecomposition",
    "project_along",
    "six_way",
    "quaternionic_six_way",
]


@dataclass(frozen=True, eq=False)
class DecompositionPart:
    family: int
    lam: float
    component: OctVector3

    def to_json(self) -> dict:
        return _part_json(self.family, float(self.lam), self.component.to_json())


@dataclass(frozen=True, eq=False)
class SixWayDecomposition:
    parts: tuple
    reconstruction_residual: float
    eigen_residuals: tuple
    matrix_class: str
    fingerprint: str

    def to_json(self) -> dict:
        return _six_way_json(self.matrix_class, self.fingerprint, [p.to_json() for p in self.parts],
                             float(self.reconstruction_residual),
                             [float(r) for r in self.eigen_residuals])


def _part_json(family: int, lam: float, component: list) -> dict:
    """One part of the project report, from plain values: the component as 3x8 lists."""
    return {"family": family, "lambda": lam, "component": component}


def _six_way_json(tag: str, fingerprint: str, parts: list, recon: float, residuals: list) -> dict:
    """The project report's layout around its `_part_json` parts."""
    return {"matrix_class": tag, "fingerprint": fingerprint, "parts": parts,
            "reconstruction_residual": recon, "eigen_residuals": residuals}


def matrix_fingerprint(A: Hermitian3) -> str:
    """Hash of the canonical matrix serialization, for report provenance."""
    return _fingerprint(np.concatenate(([A.d, A.e, A.f], A.a.coords, A.b.coords, A.c.coords)))


def _fingerprint(c: np.ndarray) -> str:
    """`matrix_fingerprint` of the matrix of 27 floats (27,), d, e, f, a, b, c."""
    import hashlib   # here, so that only a caller of the fingerprint loads OpenSSL
    import json
    v = c.tolist()
    entries = {"d": v[0], "e": v[1], "f": v[2], "a": v[3:11], "b": v[11:19], "c": v[19:]}
    return hashlib.sha256(json.dumps(entries, sort_keys=True).encode()).hexdigest()


def project_along(v: OctVector3, y: OctVector3, check: bool = True,
                  tol: float = FAMILY_TOL) -> OctVector3:
    """Generalized projection (v v^dagger) y for y in the same K eigenspace as v.

    On that eigenspace the map is idempotent and returns an eigenvector of the rank-one
    matrix v v^dagger.  With check enabled, y must pass the membership test of `same_family`
    (`spectral._same_family`, which accepts every y where v v^dagger is complex), or
    FamilyMismatch is raised; the result is the B y that test computed.  Computed on v / 2^e
    and y / 2^f (`_scaled_rows`), scaled back by 2^(2e + f): OverflowError out of range.
    """
    tol = _finite(tol, "tol")
    (u, e), (w, f) = (_scaled_rows(z.to_coords().reshape(1, 3, 8)) for z in (v, y))
    if check:
        member, _, bw = _same_family(u, w, tol)
        if not member[0]:
            raise FamilyMismatch("y is not in the family of v")
    else:
        bw = _Stack.outer(u).act(w)
    with np.errstate(over="ignore"):
        return OctVector3(tuple(map(_in_range, np.ldexp(bw, 2 * e + f)[0])))


def six_way(A: Hermitian3, x: OctVector3, system: EigenSystem = None) -> SixWayDecomposition:
    """Decompose x into one eigenvector component per family eigenvalue: the n = 1 case
    of `_six_way`, six parts for octonionic and quaternionic matrices, three for complex
    and real ones.  The pairs, class and family labels are those of A's stack, which
    `eigensystem(A)` reads too; `system`, A's eigensystem, is accepted and not needed."""
    S = A._stack
    labels = [(f + 1, lam) for f, lams in enumerate(S.lams[0].tolist()) for lam in lams]
    comps, residuals, recon = _six_way(S, x.to_coords()[None])
    octs = tuple(map(Octonion._of, comps[0].reshape(-1, 8)))   # rows of a fresh array
    return SixWayDecomposition(
        parts=tuple(DecompositionPart(m, lam, OctVector3(octs[3 * j:3 * j + 3]))
                    for j, (m, lam) in enumerate(labels)),
        reconstruction_residual=float(recon[0]),
        eigen_residuals=tuple(residuals[0].ravel().tolist()),
        matrix_class=_TAGS[S.codes[0]],
        fingerprint=matrix_fingerprint(A),
    )


def _six_way(S: _Stack, x: np.ndarray):
    """Parts (n, nfam, 3, 24), their eigen residuals (n, nfam, 3) and the reconstruction
    residuals (n,) of vectors x (n, 24) on stacked systems S.

    With two families, x_1 = B_1 B_1^T x in each slot and family 2 takes the rest; with one,
    x is its piece.  Each piece y is expanded along its family's pairs, (v v^dagger) y, whose
    slot i is sum_j (v_i conj(v_j)) y_j.  A part below ZERO_PART_TOL |x| is zero with
    residual 0; the others' residuals are normwise, |A c - lam c| / (||A||_F |c|).  Each row
    is split as x / 2^e (`_scaled_rows`) and its parts scaled back, so at any scale of x:
    OverflowError where a part leaves the float range, as a coordinate of a part can exceed
    every coordinate of x.
    """
    x, e = _scaled_rows(x)
    B, y = S.B[:, :1], x.reshape(-1, 1, 3, 8)
    if S.nfam == 2:
        y1 = (y @ B) @ B.swapaxes(-1, -2)
        y = np.concatenate([y1, y - y1], axis=1)
    comps = np.add.reduce(_product(S.outers, y[:, :, None, None]), -2).reshape(S.lams.shape + (24,))
    size = np.sqrt(np.vecdot(comps, comps))
    xnorm = _vnorm(x.reshape(-1, 3, 8))
    xnorm = np.where(xnorm > 0.0, xnorm, 1.0)
    zero = size < ZERO_PART_TOL * xnorm[:, None, None]
    comps = np.where(zero[..., None], 0.0, comps)
    err = np.matvec(S.R[:, None, None], comps) - S.lams[..., None] * comps
    denom = S.residual_scale[:, None, None] * np.where(zero, 1.0, size)
    residuals = np.sqrt(np.vecdot(err, err)) / denom   # a zero part: err = 0 over ||A||_F
    total = np.add.reduce(comps.reshape(len(x), -1, 24), 1) - x
    recon = np.sqrt(np.vecdot(total, total)) / xnorm
    if e.any():   # else x was split as it is
        with np.errstate(over="ignore"):
            comps = np.ldexp(comps, e[:, None, None, None])
        if not np.isfinite(comps).all():
            raise OverflowError("a six-way part is out of the float range")
    return comps, residuals, recon


def quaternionic_six_way(A: Hermitian3, x: OctVector3,
                         system: EigenSystem = None) -> SixWayDecomposition:
    """`six_way` for a quaternionic matrix: the split O = H + ell H.

    The quaternionic piece of x is expanded along the eigenvectors of A,
    the purely octonionic piece along the lifted eigenvectors.  The class is A's
    own, as in `six_way`; `system` is accepted and not needed.
    """
    if classify(A).tag != QUATERNIONIC:
        raise NotQuaternionic("matrix entries are not quaternionic")
    return six_way(A, x, system=system)
