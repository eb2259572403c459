"""Coefficient subspace T = span{1, a, b, c} and the K eigenspace machinery.

For a matrix whose off-diagonal entries have nonvanishing associator,
the octonions split into two orthogonal 4-spaces T_m = T s_m picked out
by the characteristic operator K; everything here builds and exercises
that split, plus the quaternionic fallback where it collapses, and
`_Stack.bases`, the per-family subspaces every eigensystem is taken on.
"""

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
    _CLASS_TOL,
    _TAGS,
    Hermitian3,
    OctVector3,
    _alpha,
    _arrays,
    _associative,
    _classes,
    _det,
    _per_matrix,
    _phi,
    _sigma,
    _vnorm,
    alpha,
    classify,
    outer_entries,
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
# the imaginary coordinates
_IMAG = np.arange(8) > 0


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


def _families(off: np.ndarray, al: np.ndarray = None) -> tuple:
    """phi, alpha (unless given), roots r_m and generators s_m for stacked off-diagonals."""
    ph, al = _phi(off), _alpha(off) if al is None else al
    if np.any(_associative(off, al)):
        raise _degenerate()
    rs = _roots(ph, al)
    return ph, al, rs, _generators(ph, al, rs)


def r_roots(A: Hermitian3) -> tuple[float, float]:
    """Roots r1 >= r2 of r^2 + 4 phi r - |alpha|^2 = 0, distinct when alpha != 0."""
    return tuple(fam.r for fam in family_contexts(A))


def s_elements(A: Hermitian3) -> tuple[Octonion, Octonion]:
    """Family generators s_m = (r_m + 4 phi + alpha) / (2 (r_m + 2 phi)); s1 + s2 = 1."""
    return tuple(fam.s for fam in family_contexts(A))


@_per_matrix
def family_contexts(A: Hermitian3) -> tuple[FamilyContext, FamilyContext]:
    """Both family contexts, m = 1 and m = 2, of the one matrix."""
    return _Stack(*(x[None] for x in _arrays(A))).contexts(0)


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
    """Basis (1, h1, h2, h1 h2) of the quaternionic subalgebra holding a, b, c, plus
    the lowest-index unit direction orthogonal to it: `_quaternionic_split` of A, which
    takes h1 along the largest imaginary part and h2 along the largest residual."""
    tag = classify(A).tag
    if tag == OCTONIONIC:
        raise NotQuaternionic("entries do not lie in a quaternionic subalgebra")
    if tag in (REAL, COMPLEX):
        raise AmbiguousSubalgebra(
            "matrix is complex: the containing quaternionic subalgebra is not unique")
    H, ell = _quaternionic_split(_arrays(A)[1][None])
    return tuple(Octonion._of(h) for h in H[0]), Octonion._of(ell[0])


def _quaternionic_split(off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H (n, 4, 8), the rows (1, h1, h2, h1 h2), and ell (n, 8) for off-diagonals (n, 3, 8).

    h1, h2 by pivoting: h1 along the largest imaginary part of a, b, c, h2 along the
    largest residual of the other two against h1, which must exceed 1e-9 of the largest
    part, the cut of `_rank`.  So h2 never comes from a nearly parallel pair, whose tiny
    residual would amplify any component of the entries outside the subalgebra.  h1 h2
    completes the quaternion relations exactly; ell: the first unit e_i with residual
    against H above 1e-6, normalized."""
    imag = np.where(_IMAG, off, 0.0)
    rows = np.arange(len(off))
    sizes = _norm(imag)
    first = rows, sizes.argmax(-1)
    top = sizes[first]
    h1 = imag[first] * (1.0 / np.where(top > 0.0, top, 1.0))[:, None]
    resid = imag
    for _ in range(2):
        resid = resid - h1[:, None] * inner(h1[:, None], resid)[..., None]
    left = _norm(resid)
    left[first] = 0.0
    second = rows, left.argmax(-1)
    if np.any(left[second] <= _CLASS_TOL * top):
        raise AmbiguousSubalgebra("fewer than two independent imaginary directions")
    h2 = resid[second] * (1.0 / left[second])[:, None]
    H = np.stack([np.broadcast_to(_ONE, h1.shape), h1, h2, _product(h1, h2)], axis=-2)
    resid = np.broadcast_to(_EYE8[1:], (len(off), 7, 8))
    for _ in range(2):
        for j in range(4):
            h = H[:, None, j]
            resid = resid - h * inner(h, resid)[..., None]
    n = _norm(resid)
    found = n > 1e-6
    if not found.any(-1).all():
        raise NotQuaternionic("no unit direction orthogonal to the subalgebra found")
    i = rows, found.argmax(-1)
    return H, resid[i] * (1.0 / n[i])[:, None]


def conj_matrix(A: Hermitian3) -> Hermitian3:
    """Entrywise conjugate; requires an associative (non-octonionic) matrix."""
    if classify(A).tag == OCTONIONIC:
        raise NotQuaternionic("entrywise conjugation is only used on quaternionic matrices")
    return Hermitian3(A.d, A.e, A.f, A.a.conj(), A.b.conj(), A.c.conj())


def _complex_unit(off: np.ndarray) -> np.ndarray:
    """Unit imaginary direction i0 (n, 8) with a, b, c in span{1, i0}, e1 for a real matrix:
    the first imaginary part above 1e-12 max(|a|, |b|, |c|), its leading coordinate positive."""
    imag = np.where(_IMAG, off, 0.0)
    n = _norm(imag)
    found = n > 1e-12 * _norm(off).max(-1, keepdims=True)
    rows = np.arange(len(off))
    i = rows, found.argmax(-1)
    u = imag[i] * (1.0 / np.where(found.any(-1), n[i], 1.0))[:, None]
    lead = u[rows, (np.abs(u) > 1e-12).argmax(-1)][:, None]
    return np.where(found.any(-1)[:, None], np.where(lead < 0, -u, u), _EYE8[1])


def _range_basis(P: np.ndarray) -> np.ndarray:
    """Orthonormal bases (..., 8, 4) of the ranges of rank-4 projectors P (..., 8, 8),
    each with first column P 1 / |P 1|."""
    U = np.linalg.eigh(P)[1][..., 4:]
    c = U[..., 0, :] / _norm(U[..., 0, :])[..., None]
    eye = np.broadcast_to(np.eye(4), U.shape[:-2] + (4, 4))
    G = np.linalg.qr(np.concatenate([c[..., None], eye], axis=-1))[0]
    return U @ G * np.copysign(1.0, np.vecdot(G[..., 0], c))[..., None, None]


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
    def alpha(self) -> np.ndarray:
        """The associators [a, b, c] (n, 8)."""
        return _alpha(self.off)

    @cached_property
    def classes(self) -> tuple[np.ndarray, np.ndarray]:
        """Each matrix's class, as an index into `_TAGS`, and dim T, both (n,)."""
        return _classes(self.off, self.alpha)

    @cached_property
    def families(self) -> tuple:
        """phi (n,), alpha (n, 8), the roots (n, 2) and the generators s_m (n, 2, 8)."""
        return _families(self.off, self.alpha)

    def contexts(self, i: int) -> tuple[FamilyContext, FamilyContext]:
        """Row i's two FamilyContexts, from `families`."""
        ph, al, rs, s = (x[i] for x in self.families)
        return tuple(FamilyContext(m=m, r=float(r), phi=float(ph), alpha=Octonion(al),
                                   s=Octonion(s_m)) for m, r, s_m in zip((1, 2), rs, s))

    @cached_property
    def split(self) -> tuple[np.ndarray, np.ndarray]:
        """H (n, 4, 8) and ell (n, 8) of `_quaternionic_split`."""
        return _quaternionic_split(self.off)

    @cached_property
    def bases(self) -> tuple[np.ndarray, np.ndarray]:
        """For a stack of one class, the family roots r (n, F) and orthonormal bases B
        (n, F, 8, k) of subspaces of O whose span in each slot A maps into itself, each
        eigenvalue of real multiplicity k there.  Octonionic: T_m = range P_m, starting
        with P_m 1 = s_m / |s_m| (k = 4).  Quaternionic: h of H and ell h of ell H, r the
        determinant gap det(Abar) - det(A) (k = 4).  Complex and real: (1, i0) (k = 2)."""
        tag = _TAGS[self.classes[0][0]]
        if tag == OCTONIONIC:
            return self.families[2], _range_basis(self.P)
        zero = np.zeros((len(self.dia), 1))
        if tag == QUATERNIONIC:
            Hb, ell = self.split[0].swapaxes(-1, -2), self.split[1]
            gap = _det(self.dia, conj(self.off)) - self.det
            return np.column_stack([zero, gap]), np.stack([Hb, left_mul_matrix(ell) @ Hb], axis=1)
        one = np.broadcast_to(_ONE, (len(self.dia), 8))
        return zero, np.stack([one, _complex_unit(self.off)], axis=-1)[:, None]

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
