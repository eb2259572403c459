"""Coefficient subspace T = span{1, a, b, c} and the K eigenspace machinery.

For a matrix whose off-diagonal entries have nonvanishing associator,
the octonions split into two orthogonal 4-spaces T_m = T s_m picked out
by the characteristic operator K; everything here builds and exercises
that split, plus the quaternionic fallback where it collapses, and
`family_bases`, the per-family subspaces every eigensystem is taken on.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AmbiguousSubalgebra, DegenerateFamily, NotQuaternionic, SingularChange
from .hermitian import (
    COMPLEX,
    OCTONIONIC,
    QUATERNIONIC,
    REAL,
    Hermitian3,
    OctVector3,
    _per_matrix,
    alpha,
    classify,
    det,
    phi,
)
from .octonion import Octonion, inner, left_mul_matrix

__all__ = [
    "TBasis",
    "FamilyContext",
    "t_basis",
    "r_roots",
    "s_elements",
    "family_context",
    "family_contexts",
    "k_scalar",
    "k_matrix",
    "family_projector",
    "family_bases",
    "apply_blockwise",
    "project_km",
    "project_km_vec",
    "cd_table_check",
    "quaternionic_split",
    "conj_matrix",
    "basis_invariance_check",
    "orthonormalize",
    "span_distance",
]

_DEGENERATE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class TBasis:
    vectors: tuple
    dim: int


@dataclass(frozen=True, eq=False)
class FamilyContext:
    m: int
    r: float
    phi: float
    alpha: Octonion
    s: Optional[Octonion]

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "r": float(self.r),
            "phi": float(self.phi),
            "alpha": self.alpha.to_json(),
            "s": None if self.s is None else self.s.to_json(),
        }

    def projector(self, K: np.ndarray) -> np.ndarray:
        """P_m = (K + r_m + 4 phi) / (2 (r_m + 2 phi)) from the 8x8 matrix K."""
        return (K + (self.r + 4.0 * self.phi) * np.eye(8)) / (2.0 * (self.r + 2.0 * self.phi))


def orthonormalize(octs, tol: float = 1e-9) -> tuple:
    """Classical Gram-Schmidt with one re-orthogonalization pass.

    Drops vectors whose residual falls below tol relative to the input
    norm, so the result is an orthonormal basis of the span.
    """
    basis = []
    for q in octs:
        scale = max(1.0, q.norm())
        v = q
        for _ in range(2):
            for b in basis:
                v = v - b * inner(b, v)
        if v.norm() > tol * scale:
            basis.append(v * (1.0 / v.norm()))
    return tuple(basis)


def span_distance(q: Octonion, basis) -> float:
    """Euclidean distance from q to the real span of the given octonions."""
    if not basis:
        return q.norm()
    m = np.array([b.coords for b in basis])
    proj = m.T @ (m @ q.coords)
    return float(np.linalg.norm(q.coords - proj))


@_per_matrix
def t_basis(A: Hermitian3) -> TBasis:
    """Orthonormal basis of span{1, a, b, c}, in that deterministic order."""
    basis = orthonormalize([Octonion.from_real(1.0), A.a, A.b, A.c])
    return TBasis(vectors=basis, dim=len(basis))


@_per_matrix
def _invariants(A: Hermitian3) -> tuple[float, Octonion, tuple[float, float]]:
    """phi, alpha and the family roots (r1, r2), derived once for the matrix."""
    ph = phi(A)
    al = alpha(A)
    scale = (1.0 + A.a.norm()) * (1.0 + A.b.norm()) * (1.0 + A.c.norm())
    if al.norm() <= _DEGENERATE_TOL * scale:
        raise DegenerateFamily(
            "associator vanishes; families are not labeled by r (use the quaternionic path)"
        )
    # the root of sign opposite to phi does not cancel; Vieta gives the other
    far = -2.0 * ph - math.copysign(np.sqrt(4.0 * ph * ph + al.norm2()), ph)
    near = -al.norm2() / far
    return ph, al, (max(far, near), min(far, near))


def r_roots(A: Hermitian3) -> tuple[float, float]:
    """Roots r1 >= r2 of r^2 + 4 phi r - |alpha|^2 = 0, distinct when alpha != 0."""
    return _invariants(A)[2]


def s_elements(A: Hermitian3) -> tuple[Octonion, Octonion]:
    """Family generators s_m = (r_m + 4 phi + alpha) / (2 (r_m + 2 phi)); s1 + s2 = 1."""
    return tuple(fam.s for fam in family_contexts(A))


@_per_matrix
def family_contexts(A: Hermitian3) -> tuple[FamilyContext, FamilyContext]:
    """Both family contexts, m = 1 and m = 2, from one derivation of phi, alpha, r."""
    ph, al, rs = _invariants(A)
    # r_m + 4 phi = -r_other, without the cancellation of the sum
    return tuple(FamilyContext(m=m, r=r, phi=ph, alpha=al,
                               s=(Octonion.from_real(-other) + al) / (2.0 * (r + 2.0 * ph)))
                 for m, r, other in zip((1, 2), rs, rs[::-1]))


def family_context(A: Hermitian3, m: int) -> FamilyContext:
    if m not in (1, 2):
        raise ValueError("family index must be 1 or 2")
    return family_contexts(A)[m - 1]


def k_scalar(A: Hermitian3, p: Octonion) -> Octonion:
    """Characteristic operator on a single octonion.

    K[p] = c(b(ap)) + conj(a)(conj(b)(conj(c)p)) - 2 Re((cb)a) p.

    This is the diagonal of the matrix characteristic operator; note the
    subtracted term is the real scalar 2 Re((cb)a), which is what makes
    K[t] = t alpha hold on all of T (in particular K[1] = alpha).
    """
    a, b, c = A.a, A.b, A.c
    bracket = 2.0 * ((c * b) * a).real
    return c * (b * (a * p)) + a.conj() * (b.conj() * (c.conj() * p)) - p * bracket


@_per_matrix
def k_matrix(A: Hermitian3) -> np.ndarray:
    """8x8 matrix of k_scalar: L_c L_b L_a + L_abar L_bbar L_cbar - 2 Re((cb)a) I.

    Left multiplication by a conjugate is the transpose, L_abar = L_a^T.
    """
    la, lb, lc = (left_mul_matrix(q) for q in (A.a, A.b, A.c))
    bracket = 2.0 * ((A.c * A.b) * A.a).real
    return lc @ (lb @ la) + la.T @ (lb.T @ lc.T) - bracket * np.eye(8)


@_per_matrix
def family_projector(A: Hermitian3, m: int) -> np.ndarray:
    """8x8 projector P_m onto the K eigenspace T_m."""
    return family_context(A, m).projector(k_matrix(A))


def apply_blockwise(P: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Apply an 8x8 map to each octonion slot of a 24-vector or of 24 x n columns."""
    coords = np.asarray(coords)
    return (P @ coords.reshape(3, 8, -1)).reshape(coords.shape)


def project_km(A: Hermitian3, m: int, p: Octonion) -> Octonion:
    """Projector onto the K eigenspace T_m: (K + r_m + 4 phi) / (2 (r_m + 2 phi))."""
    return Octonion(family_projector(A, m) @ p.coords)


def project_km_vec(A: Hermitian3, m: int, x: OctVector3) -> OctVector3:
    """Componentwise family projection of a vector."""
    return OctVector3.from_coords(apply_blockwise(family_projector(A, m), x.to_coords()))


def cd_table_check(A: Hermitian3, t1: Octonion, t2: Octonion) -> tuple[float, float, float]:
    """Residual norms of the three Cayley-Dickson-like products on T and T alpha.

    Diagnostic only: meaningful when t1, t2 lie in T, generically nonzero
    otherwise.
    """
    al = alpha(A)
    n2 = al.norm2()
    res1 = (t1 * (t2 * al) - (t2 * t1) * al).norm()
    res2 = ((t1 * al) * t2 - (t1 * t2.conj()) * al).norm()
    res3 = ((t1 * al) * (t2 * al) + (t2.conj() * t1) * n2).norm()
    return (res1, res2, res3)


@_per_matrix
def quaternionic_split(A: Hermitian3):
    """Basis (1, h1, h2, h1 h2) of the quaternionic subalgebra holding a, b, c,
    plus the lowest-index unit direction orthogonal to it.

    The third imaginary basis element is taken as the product h1 h2 so the
    quaternion relations hold exactly; the orthogonal unit ell satisfies
    ell^2 = -1 and ell H orthogonal to H.
    """
    tag = classify(A).tag
    if tag == OCTONIONIC:
        raise NotQuaternionic("entries do not lie in a quaternionic subalgebra")
    if tag in (REAL, COMPLEX):
        raise AmbiguousSubalgebra(
            "matrix is complex: the containing quaternionic subalgebra is not unique"
        )
    imag_basis = orthonormalize([A.a.imag(), A.b.imag(), A.c.imag()])
    if len(imag_basis) < 2:
        raise AmbiguousSubalgebra("fewer than two independent imaginary directions")
    h1, h2 = imag_basis[0], imag_basis[1]
    h3 = h1 * h2
    hbasis = (Octonion.from_real(1.0), h1, h2, h3)
    for i in range(1, 8):
        cand = Octonion.unit(i)
        resid = cand
        for _ in range(2):
            for h in hbasis:
                resid = resid - h * inner(h, resid)
        if resid.norm() > 1e-6:
            return hbasis, resid * (1.0 / resid.norm())
    raise NotQuaternionic("no unit direction orthogonal to the subalgebra found")


def conj_matrix(A: Hermitian3) -> Hermitian3:
    """Entrywise conjugate; requires an associative (non-octonionic) matrix."""
    if classify(A).tag == OCTONIONIC:
        raise NotQuaternionic("entrywise conjugation is only used on quaternionic matrices")
    return Hermitian3(A.d, A.e, A.f, A.a.conj(), A.b.conj(), A.c.conj())


def _complex_unit(A: Hermitian3) -> Octonion:
    """Unit imaginary direction i0 with a, b, c in span{1, i0}; e1 for a real matrix."""
    for q in (A.a, A.b, A.c):
        im = q.imag()
        if im.norm() > 1e-12:
            u = im * (1.0 / im.norm())
            nz = np.nonzero(np.abs(u.coords) > 1e-12)[0]
            if nz.size and u.coords[nz[0]] < 0:
                u = -u
            return u
    return Octonion.unit(1)


def _range_basis(P: np.ndarray) -> np.ndarray:
    """Orthonormal 8x4 basis of the range of the rank-4 projector P, first column P 1 / |P 1|."""
    U = np.linalg.eigh(P)[1][:, 4:]
    c = U[0] / np.linalg.norm(U[0])
    G = np.linalg.qr(np.column_stack([c, np.eye(4)]))[0]
    return U @ G * math.copysign(1.0, G[:, 0] @ c)


def _slots(B: np.ndarray) -> np.ndarray:
    """The 24 x 3k map that applies the 8 x k basis B in each octonion slot, read-only."""
    Q = np.kron(np.eye(3), B)
    Q.flags.writeable = False
    return Q


@_per_matrix
def family_bases(A: Hermitian3) -> tuple:
    """Per family, its context and an orthonormal 24 x 3k basis Q of its subspace of O^3.

    A maps each subspace into itself, with every eigenvalue of real
    multiplicity k there; the first column of each slot's k is the
    direction the coordinate rule of the extraction tries first.
    Octonionic: Q = kron(I3, B_m) with B_m a basis of T_m = range P_m
    that starts with P_m 1.  Quaternionic: the bases h of H and ell h of
    ell H; the lifted family's K eigenvalue is the determinant gap.
    Complex and real: one family on (1, i0).
    """
    tag = classify(A).tag
    if tag == OCTONIONIC:
        return tuple((fam, _slots(_range_basis(family_projector(A, fam.m))))
                     for fam in family_contexts(A))
    if tag == QUATERNIONIC:
        hbasis, ell = quaternionic_split(A)
        Hb = np.array([h.coords for h in hbasis]).T
        return ((_associative_context(1, 0.0), _slots(Hb)),
                (_associative_context(2, det(conj_matrix(A)) - det(A)),
                 _slots(left_mul_matrix(ell) @ Hb)))
    i0 = np.array([Octonion.from_real(1.0).coords, _complex_unit(A).coords]).T
    return ((_associative_context(1, 0.0), _slots(i0)),)


def _associative_context(m: int, r: float) -> FamilyContext:
    return FamilyContext(m=m, r=r, phi=0.0, alpha=Octonion.zero(), s=None)


def basis_invariance_check(A: Hermitian3, M, shifts=(0.0, 0.0, 0.0)) -> float:
    """Largest deviation of the family generators under an off-diagonal basis change.

    Replaces (a, b, c) by real combinations M (a, b, c)^T plus real shifts
    and recomputes s_m.  With det M > 0 the generators must be unchanged;
    det M < 0 swaps the two family labels, which is accounted for here.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (3, 3):
        raise ValueError("change of basis must be a real 3x3 matrix")
    detm = float(np.linalg.det(M))
    if abs(detm) < 1e-12 * max(1.0, float(np.abs(M).max()) ** 3):
        raise SingularChange("change of basis has numerically vanishing determinant")
    old = (A.a, A.b, A.c)
    new = []
    for i in range(3):
        q = Octonion.from_real(float(shifts[i]))
        for j in range(3):
            q = q + old[j] * M[i, j]
        new.append(q)
    A2 = Hermitian3(A.d, A.e, A.f, *new)
    s1, s2 = s_elements(A)
    s1p, s2p = s_elements(A2)
    if detm > 0:
        return max((s1p - s1).norm(), (s2p - s2).norm())
    return max((s1p - s2).norm(), (s2p - s1).norm())
