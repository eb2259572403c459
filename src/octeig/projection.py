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
    Hermitian3,
    OctVector3,
    classify,
    det,
    mat_vec,
    outer,
)
from .spectral import EigenSystem, eigensystem, k_vector, realify24, realify_rank_one
from .subspace import apply_blockwise, family_bases

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
    """Decompose x into one eigenvector component per family eigenvalue.

    x is split along the families' subspaces: x_m = Q_m Q_m^T x with Q_m
    from `family_bases`, the last family taking the rest, so a complex or
    real matrix (one family) keeps all of x.  Each piece is then expanded
    along its family's pairs, (v v^dagger) x_m: six parts for octonionic
    and quaternionic matrices, three for complex and real ones.
    """
    if system is None:
        system = eigensystem(A)
    coords = x.to_coords()
    pieces = [Q @ (Q.T @ coords) for _, Q in family_bases(A)[:-1]]
    pieces.append(coords - sum(pieces))
    R = realify24(A)
    scale = max(1.0, A.frobenius())
    zero_tol = _ZERO_PART_TOL * max(x.norm(), 1e-300)
    parts = []
    residuals = []
    for fam, xm in zip(system.families, pieces):
        comps = realify_rank_one(np.array([p.v.to_coords() for p in fam.pairs]).T) @ xm
        for pair, comp in zip(fam.pairs, comps):
            n = np.linalg.norm(comp)
            if n < zero_tol:
                comp = np.zeros(24)
                residuals.append(0.0)
            else:
                residuals.append(float(np.linalg.norm(R @ comp - pair.lam * comp) / (scale * n)))
            parts.append(DecompositionPart(family=pair.family, lam=pair.lam,
                                           component=OctVector3.from_coords(comp)))
    total = sum(p.component.to_coords() for p in parts)
    recon = np.linalg.norm(total - coords) / max(x.norm(), 1e-300)
    return SixWayDecomposition(
        parts=tuple(parts),
        reconstruction_residual=float(recon),
        eigen_residuals=tuple(residuals),
        matrix_class=system.matrix_class.tag,
        fingerprint=matrix_fingerprint(A),
    )


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
