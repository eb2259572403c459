"""Coefficient subspace T = span{1, a, b, c} and the K eigenspace machinery.

For a matrix whose off-diagonal entries have nonvanishing associator,
the octonions split into two orthogonal 4-spaces T_m = T s_m picked out
by the characteristic operator K; everything here builds and exercises
that split, plus the quaternionic fallback where it collapses, and
`family_bases`, the per-family subspaces every eigensystem is taken on.
"""

import math
from dataclasses import dataclass
from functools import cached_property
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
    _alpha,
    _arrays,
    _associative,
    _det,
    _per_matrix,
    _phi,
    _sigma,
    _vnorm,
    alpha,
    classify,
    det,
    outer_entries,
    phi,
    real_form,
)
from .octonion import _ONE, Octonion, _norm, _product, conj, inner, left_mul_matrix, mul

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

_EYE8 = np.eye(8)


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
        return _projector(K, self.r, self.phi)


def _projector(K: np.ndarray, r, ph) -> np.ndarray:
    """(K + r + 4 phi) / (2 (r + 2 phi)) for stacked K (..., 8, 8), r and phi (...)."""
    r, ph = np.asarray(r)[..., None, None], np.asarray(ph)[..., None, None]
    return (K + (r + 4.0 * ph) * _EYE8) / (2.0 * (r + 2.0 * ph))


def _gram_schmidt(X: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows of each stacked row set X (..., k, 8), and which rows were kept.

    Classical Gram-Schmidt with one re-orthogonalization pass.  A row whose
    residual falls to tol times its own norm or below is dropped and left
    zero, which later rows then project on exactly as on nothing.
    """
    Q = np.zeros(X.shape)
    keep = np.zeros(X.shape[:-1], dtype=bool)
    for j in range(X.shape[-2]):
        x = X[..., j, :]
        v = x
        for _ in range(2):
            for i in range(j):
                v = v - Q[..., i, :] * inner(Q[..., i, :], v)[..., None]
        n = _norm(v)
        keep[..., j] = n > tol * _norm(x)
        inv = 1.0 / np.where(keep[..., j], n, 1.0)
        Q[..., j, :] = np.where(keep[..., j, None], v * inv[..., None], 0.0)
    return Q, keep


def orthonormalize(octs, tol: float = 1e-9) -> tuple:
    """Orthonormal basis of the span of the given octonions, by `_gram_schmidt`.

    Drops vectors whose residual falls to tol times their norm or below.
    """
    Q, keep = _gram_schmidt(np.array([q.coords for q in octs]).reshape(-1, 8), tol)
    return tuple(Octonion(q) for q in Q[keep])


def span_distance(q: Octonion, basis) -> float:
    """Euclidean distance from q to the real span of the given orthonormal octonions."""
    return float(_span_distance(q.coords, np.array([b.coords for b in basis]).reshape(-1, 8)))


def _span_distance(q: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Distance from each q (..., 8) to the span of the orthonormal or zero rows S (..., k, 8)."""
    return _norm(q - np.vecmat(np.matvec(S, q), S))


def _t_rows(off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_gram_schmidt` of the rows (1, a, b, c) for stacked off-diagonals (..., 3, 8)."""
    one = np.broadcast_to(_ONE, off.shape[:-2] + (1, 8))
    return _gram_schmidt(np.concatenate([one, off], axis=-2))


@_per_matrix
def t_basis(A: Hermitian3) -> TBasis:
    """Orthonormal basis of span{1, a, b, c}, in that deterministic order."""
    Q, keep = _t_rows(_arrays(A)[1])
    return TBasis(vectors=tuple(Octonion(q) for q in Q[keep]), dim=int(keep.sum()))


def _degenerate():
    return DegenerateFamily(
        "associator vanishes; families are not labeled by r (use the quaternionic path)")


def _roots(ph: np.ndarray, al: np.ndarray) -> np.ndarray:
    """Family roots (..., 2), r1 >= r2, from stacked phi (...) and alpha (..., 8)."""
    al2 = inner(al, al)
    # the root of sign opposite to phi does not cancel; Vieta gives the other
    far = -2.0 * ph - np.copysign(np.sqrt(4.0 * ph * ph + al2), ph)
    near = -al2 / far
    return np.stack([np.maximum(far, near), np.minimum(far, near)], axis=-1)


def _generators(ph: np.ndarray, al: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """s_m (..., 2, 8) from phi (...), alpha (..., 8) and the roots (..., 2)."""
    # r_m + 4 phi = -r_other, without the cancellation of the sum
    num = -rs[..., ::-1, None] * _ONE + al[..., None, :]
    return num / (2.0 * (rs + 2.0 * ph[..., None]))[..., None]


def _families(off: np.ndarray) -> tuple:
    """phi, alpha, the roots (r1, r2) and the generators (s1, s2) for stacked off-diagonals."""
    ph, al = _phi(off), _alpha(off)
    if np.any(_associative(off, al)):
        raise _degenerate()
    rs = _roots(ph, al)
    return ph, al, rs, _generators(ph, al, rs)


@_per_matrix
def _invariants(A: Hermitian3) -> tuple[float, Octonion, tuple[float, float]]:
    """phi, alpha and the family roots (r1, r2), derived once for the matrix."""
    # the octonionic class test is the degenerate test, `_associative`
    if classify(A).tag != OCTONIONIC:
        raise _degenerate()
    ph, al = phi(A), alpha(A)
    r1, r2 = _roots(np.float64(ph), al.coords)
    return ph, al, (float(r1), float(r2))


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
    s = _generators(np.float64(ph), al.coords, np.array(rs))
    return tuple(FamilyContext(m=m, r=r, phi=ph, alpha=al, s=Octonion(s_m))
                 for m, r, s_m in zip((1, 2), rs, s))


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


def _k(off: np.ndarray) -> np.ndarray:
    """K (..., 8, 8) for stacked off-diagonals (..., 3, 8)."""
    a, b, c = off[..., 0, :], off[..., 1, :], off[..., 2, :]
    la, lb, lc = (left_mul_matrix(q) for q in (a, b, c))
    lat, lbt, lct = (L.swapaxes(-1, -2) for L in (la, lb, lc))
    bracket = 2.0 * _product(_product(c, b), a)[..., 0, None, None]
    return lc @ (lb @ la) + lat @ (lbt @ lct) - bracket * _EYE8


@_per_matrix
def k_matrix(A: Hermitian3) -> np.ndarray:
    """8x8 matrix of k_scalar: L_c L_b L_a + L_abar L_bbar L_cbar - 2 Re((cb)a) I.

    Left multiplication by a conjugate is the transpose, L_abar = L_a^T.
    """
    return _k(_arrays(A)[1])


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
    return tuple(float(x) for x in _cd_residuals(alpha(A).coords, t1.coords, t2.coords))


def _cd_residuals(al: np.ndarray, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """The three residual norms (..., 3) of `cd_table_check`, for stacked alpha, t1, t2."""
    t1a = mul(t1, al)
    res = np.stack([
        mul(t1, mul(t2, al)) - mul(mul(t2, t1), al),
        mul(t1a, t2) - mul(mul(t1, conj(t2)), al),
        mul(t1a, mul(t2, al)) + mul(conj(t2), t1) * inner(al, al)[..., None],
    ], axis=-2)
    return _norm(res)


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
    scale = max(q.norm() for q in (A.a, A.b, A.c))
    for q in (A.a, A.b, A.c):
        im = q.imag()
        if im.norm() > 1e-12 * scale:
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
    return float(_basis_change_deviation(_arrays(A)[1], M, np.asarray(shifts, dtype=float)))


def _basis_change_deviation(off: np.ndarray, M: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """`basis_invariance_check` for stacked off-diagonals, M (..., 3, 3) and shifts (..., 3)."""
    s = _families(off)[3]
    moved = _families(M @ off + shifts[..., None] * _ONE)[3]
    # det M < 0 swaps the two family labels
    moved = np.where((np.linalg.det(M) < 0)[..., None, None], moved[..., ::-1, :], moved)
    return _norm(moved - s).max(-1)


class _Stack:
    """Stacked matrices, diagonals (n, 3) and off-diagonals (n, 3, 8), with the
    invariants of this module, each computed on first use."""

    def __init__(self, dia: np.ndarray, off: np.ndarray):
        self.dia, self.off = dia, off
        self.rows = np.arange(len(dia))

    @classmethod
    def outer(cls, v: np.ndarray) -> "_Stack":
        """The rank-one matrices v v^dagger of vectors v (n, 3, 8)."""
        return cls(*outer_entries(v.reshape(-1, 24).T))

    @cached_property
    def families(self) -> tuple:
        """phi (n,), alpha (n, 8), the roots (n, 2) and the generators s_m (n, 2, 8)."""
        return _families(self.off)

    @cached_property
    def K(self) -> np.ndarray:
        return _k(self.off)

    @cached_property
    def P(self) -> np.ndarray:
        """The family projectors (n, 2, 8, 8)."""
        ph, _, rs, _ = self.families
        return _projector(self.K[:, None], rs, ph[:, None])

    @cached_property
    def T(self) -> np.ndarray:
        """Orthonormal rows (n, 4, 8) spanning T, zero where dropped."""
        return _t_rows(self.off)[0]

    @cached_property
    def R(self) -> np.ndarray:
        return real_form(self.dia, self.off)

    @cached_property
    def trace(self) -> np.ndarray:
        return self.dia.sum(-1)

    @cached_property
    def sigma(self) -> np.ndarray:
        return _sigma(self.dia, self.off)

    @cached_property
    def det(self) -> np.ndarray:
        return _det(self.dia, self.off)

    @cached_property
    def frobenius(self) -> np.ndarray:
        return np.sqrt((self.dia * self.dia).sum(-1) + 2.0 * inner(self.off, self.off).sum(-1))

    def act(self, y: np.ndarray) -> np.ndarray:
        """A y for vectors y (n, 3, 8)."""
        return np.matvec(self.R, y.reshape(-1, 24)).reshape(y.shape)

    def membership(self, w: np.ndarray) -> np.ndarray:
        """|A(Aw) - tr(A) Aw| for vectors w (n, 3, 8); for A = u u^dagger, tr(A) = |u|^2
        and the residual vanishes exactly when w lies in the family of u."""
        aw = self.act(w)
        return _vnorm(self.act(aw) - aw * self.trace[:, None, None])

    def k_act(self, y: np.ndarray, det_offset: float = 0.0) -> np.ndarray:
        """The matrix characteristic operator, A(A(Ay)) - tr A(Ay) + sigma Ay - det y."""
        ay = self.act(y)
        a2y = self.act(ay)
        tr, sg, dt = (c[:, None, None] for c in (self.trace, self.sigma, self.det + det_offset))
        return self.act(a2y) - tr * a2y + sg * ay - dt * y
