"""Six-way decomposition of arbitrary vectors into eigenvector components.

A vector is first split along the families' subspaces (the two K
eigenspaces of an octonionic matrix) and each piece is then expanded
along that family's orthonormal eigenvectors with the rank-one
generalized projectors (v v^dagger) y, so a generic vector ends up with
six components, every one an eigenvector of the matrix.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import FamilyMismatch, NotQuaternionic
from .hermitian import (
    QUATERNIONIC,
    _TAGS,
    Hermitian3,
    OctVector3,
    _vnorm,
    classify,
    det,
    mat_vec,
    outer,
)
from .spectral import (
    EigenSystem,
    _norm_scale,
    _slotwise,
    _systems,
    _Systems,
    k_vector,
    realify_rank_one,
)
from .subspace import apply_blockwise

__all__ = [
    "DecompositionPart",
    "SixWayDecomposition",
    "project_along",
    "six_way",
    "quaternionic_six_way",
    "subalgebra_part",
]

_ZERO_PART_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DecompositionPart:
    family: int
    lam: float
    component: OctVector3

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "lambda": float(self.lam),
            "component": self.component.to_json(),
        }


@dataclass(frozen=True, eq=False)
class SixWayDecomposition:
    parts: tuple
    reconstruction_residual: float
    eigen_residuals: tuple
    matrix_class: str
    fingerprint: str

    def to_json(self) -> dict:
        return {
            "matrix_class": self.matrix_class,
            "fingerprint": self.fingerprint,
            "parts": [p.to_json() for p in self.parts],
            "reconstruction_residual": float(self.reconstruction_residual),
            "eigen_residuals": [float(r) for r in self.eigen_residuals],
        }


def matrix_fingerprint(A: Hermitian3) -> str:
    """Hash of the canonical matrix serialization, for report provenance."""
    payload = json.dumps(A.to_json(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def project_along(v: OctVector3, y: OctVector3, check: bool = True,
                  tol: float = 1e-8) -> OctVector3:
    """Generalized projection (v v^dagger) y for y in the same K eigenspace as v.

    On that eigenspace the map is idempotent and returns an eigenvector of
    the rank-one matrix v v^dagger.  With check enabled, membership is
    tested through the characteristic operator of v v^dagger, whose
    eigenvalue on the family of v is minus its determinant.
    """
    B = outer(v)
    if check:
        scale = max(1.0, v.norm2()) ** 3 * max(y.norm(), 1e-300)
        resid = (k_vector(B, y) + y.scale(det(B))).norm()
        if resid > tol * scale:
            raise FamilyMismatch(
                f"vector is not in the K eigenspace of the projector (residual {resid:.3e})"
            )
    return mat_vec(B, y)


def subalgebra_part(hbasis, x: OctVector3) -> OctVector3:
    """Componentwise orthogonal projection of x onto the real span of hbasis."""
    H = np.array([h.coords for h in hbasis])
    return OctVector3.from_coords(apply_blockwise(H.T @ H, x.to_coords()))


def six_way(A: Hermitian3, x: OctVector3, system: EigenSystem = None) -> SixWayDecomposition:
    """Decompose x into one eigenvector component per family eigenvalue: the n = 1 case
    of `_six_way`, six parts for octonionic and quaternionic matrices, three for complex
    and real ones.  The pairs, class and family labels are those of A's stack, which
    `eigensystem(A)` reads too; `system`, A's eigensystem, is accepted and not needed."""
    S = _systems(A)
    labels = [(f + 1, lam) for f in range(S.nfam[0]) for lam in S.lams[0, f].tolist()]
    comps, residuals, recon = _six_way(S, x.to_coords()[None])
    return SixWayDecomposition(
        parts=tuple(DecompositionPart(m, lam, OctVector3.from_coords(c))
                    for (m, lam), c in zip(labels, comps[0].reshape(6, 24))),
        reconstruction_residual=float(recon[0]),
        eigen_residuals=tuple(float(r) for r in residuals[0].ravel()[:len(labels)]),
        matrix_class=_TAGS[S.classes[0][0]],
        fingerprint=matrix_fingerprint(A),
    )


def _six_way(S: _Systems, x: np.ndarray):
    """Parts (n, 2, 3, 24), their eigen residuals (n, 2, 3) and the reconstruction
    residuals (n,) of vectors x (n, 24) on stacked systems S.

    x_1 = Q_1 Q_1^T x, Q_1 = kron(I3, B_1), and family 2 takes the rest (none
    for complex and real rows); each piece is expanded along its family's
    pairs, (v v^dagger) x_m.  A part below 1e-10 |x| is zero with residual 0;
    the others' residuals are normwise, |A c - lam c| / (||A||_F |c|).
    """
    V = S.V.reshape(-1, 2, 3, 24)
    Q = _slotwise(S.B[:, 0])
    x1 = np.where((S.nfam == 2)[:, None], np.matvec(Q, np.matvec(Q.swapaxes(-1, -2), x)), x)
    pieces = np.stack([x1, x - x1], axis=1)[:, :, None]
    comps = np.matvec(realify_rank_one(V.reshape(-1, 24).T).reshape(V.shape + (24,)), pieces)
    size = np.sqrt(np.vecdot(comps, comps))
    xnorm = np.maximum(_vnorm(x.reshape(-1, 3, 8)), 1e-300)
    zero = size < _ZERO_PART_TOL * xnorm[:, None, None]
    comps = np.where(zero[..., None], 0.0, comps)
    err = np.matvec(S.R[:, None, None], comps) - S.lams[..., None] * comps
    denom = _norm_scale(S)[:, None, None] * np.where(zero, 1.0, size)
    residuals = np.where(zero, 0.0, np.sqrt(np.vecdot(err, err)) / denom)
    total = comps.reshape(-1, 6, 24).sum(1) - x
    return comps, residuals, np.sqrt(np.vecdot(total, total)) / xnorm


def quaternionic_six_way(A: Hermitian3, x: OctVector3,
                         system: EigenSystem = None) -> SixWayDecomposition:
    """`six_way` for a quaternionic matrix: the split O = H + ell H.

    The quaternionic piece of x is expanded along the eigenvectors of A,
    the purely octonionic piece along the lifted eigenvectors.  A supplied
    system's class stands for the class of A.
    """
    tag = classify(A).tag if system is None else system.matrix_class.tag
    if tag != QUATERNIONIC:
        raise NotQuaternionic("matrix entries are not quaternionic")
    return six_way(A, x, system=system)
