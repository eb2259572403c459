"""Coefficient subspace T = span{1, a, b, c} and the K eigenspace machinery.

For a matrix whose off-diagonal entries have nonvanishing associator,
the octonions split into two orthogonal 4-spaces T_m = T s_m picked out
by the characteristic operator K, which is r_m on T_m: one eigh of K gives
both.  Everything here builds and exercises that split, `_subalgebra`, which a, b, c
generate where it collapses, and `_Stack.bases`, the per-family subspaces every
eigensystem is taken on.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AmbiguousSubalgebra, DegenerateFamily, NotQuaternionic, SingularChange
from .hermitian import (
    COMPLEX,
    OCTONIONIC,
    QUATERNIONIC,
    REAL,
    _TAGS,
    Hermitian3,
    OctVector3,
    _alpha_phi,
    _associative,
    _classes,
    _det,
    _lazy,
    _sigma,
    _vnorm,
    alpha,
    classify,
    real_form,
)
from .octonion import _CONJ, _ONE, Octonion, _finite, _norm, _product, left_mul_matrix
from .tolerances import NORMALIZE_TOL, SINGULAR_CHANGE_TOL, SPAN_TOL

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
_E4 = np.eye(4)
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
        return _context_json(self.m, float(self.r), float(self.phi), self.alpha.to_json(),
                             None if self.s is None else self.s.to_json())

    def projector(self, K: np.ndarray) -> np.ndarray:
        """P_m = (K + r_m + 4 phi) / (2 (r_m + 2 phi)) from the 8x8 matrix K, or DegenerateFamily
        at the double root r_m = -2 phi of complex, real and phi = 0 quaternionic contexts."""
        if self.r + 2.0 * self.phi == 0.0:
            raise DegenerateFamily("family roots coincide (r + 2 phi = 0): no family projector")
        return _projector(K, self.r, self.phi)


def _context_json(m: int, r: float, ph: float, alpha: list, s) -> dict:
    """A family context's fields of the eigen report, from plain values; s is a list or None."""
    return {"m": m, "r": r, "phi": ph, "alpha": alpha, "s": s}


def _projector(K: np.ndarray, r, ph) -> np.ndarray:
    """(K + r + 4 phi) / (2 (r + 2 phi)) for stacked K (..., 8, 8), r and phi (...)."""
    r, ph = np.asarray(r)[..., None, None], np.asarray(ph)[..., None, None]
    return (K + (r + 4.0 * ph) * _EYE8) / (2.0 * (r + 2.0 * ph))


def _gram_schmidt(X: np.ndarray, tol: float = SPAN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows of each stacked row set X (..., k, 8), and which rows were kept.

    Classical Gram-Schmidt with one re-orthogonalization pass.  A row whose
    residual falls to tol times its own norm or below is dropped and left
    zero, which later rows then project on exactly as on nothing.
    """
    Q = np.zeros(X.shape)
    keep = np.zeros(X.shape[:-1], dtype=bool)
    cut = tol * _norm(X)
    rows = []
    for j in range(X.shape[-2]):
        v = X[..., j, :]
        for _ in range(2):
            for q in rows:
                v = v - q * np.vecdot(q, v)[..., None]
        n = _norm(v)
        kept = keep[..., j] = n > cut[..., j]
        inv = 1.0 / np.where(kept, n, 1.0)
        rows.append(np.where(kept[..., None], v * inv[..., None], 0.0))
        Q[..., j, :] = rows[-1]
    return Q, keep


def orthonormalize(octs, tol: float = SPAN_TOL) -> tuple:
    """Orthonormal basis of the span of the given octonions, by `_gram_schmidt`.

    Drops vectors whose residual falls to tol times their norm or below.
    """
    tol = _finite(tol, "tol")
    Q, keep = _gram_schmidt(np.array([q.coords for q in octs]).reshape(-1, 8), tol)
    return tuple(Octonion(q) for q in Q[keep])


def span_distance(q: Octonion, basis) -> float:
    """Euclidean distance from q to the real span of the given orthonormal octonions."""
    return float(_span_distance(q.coords, np.array([b.coords for b in basis]).reshape(-1, 8)))


def _span_distance(q: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Distance from each q (..., 8) to the span of the orthonormal or zero rows S (..., k, 8)."""
    return _norm(q - np.vecmat(np.matvec(S, q), S))


def t_basis(A: Hermitian3) -> TBasis:
    """Orthonormal basis of T = span{1, a, b, c}, the first dim T rows of `_Stack.T`: its dim
    is `classify(A).dim_t`, from the one decision on the imaginary rank."""
    dim = classify(A).dim_t
    return TBasis(vectors=tuple(map(Octonion._of, A._stack.T[0, :dim])), dim=dim)


def _roots(ph: np.ndarray, al: np.ndarray) -> np.ndarray:
    """Family roots (..., 2), r1 >= r2, from stacked phi (...) and alpha (..., 8)."""
    al2 = np.vecdot(al, al)
    # the root of sign opposite to phi does not cancel; Vieta gives the other
    far = -2.0 * ph - np.copysign(np.sqrt(4.0 * ph * ph + al2), ph)
    near = -al2 / np.where(far != 0.0, far, 1.0)   # 0 where phi = alpha = 0
    return np.concatenate([np.maximum(far, near)[..., None], np.minimum(far, near)[..., None]], -1)


def _generators(ph: np.ndarray, al: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """s_m (..., 2, 8) from phi (...), alpha (..., 8) and the roots (..., 2)."""
    # r_m + 4 phi = -r_other, without the cancellation of the sum
    num = -rs[..., ::-1, None] * _ONE + al[..., None, :]
    return num / (2.0 * (rs + 2.0 * ph[..., None]))[..., None]


def r_roots(A: Hermitian3) -> tuple[float, float]:
    """Roots r1 >= r2 of r^2 + 4 phi r - |alpha|^2 = 0, distinct when alpha != 0."""
    return tuple(fam.r for fam in family_contexts(A))


def s_elements(A: Hermitian3) -> tuple[Octonion, Octonion]:
    """Family generators s_m = (r_m + 4 phi + alpha) / (2 (r_m + 2 phi)); s1 + s2 = 1."""
    return tuple(fam.s for fam in family_contexts(A))


def family_contexts(A: Hermitian3) -> tuple[FamilyContext, FamilyContext]:
    """Both family contexts, m = 1 and m = 2, or DegenerateFamily where A is associative."""
    A._stack.families   # the generators, which an associative matrix lacks
    return _family_contexts(A._stack)


def _family_contexts(S: "_Stack") -> tuple:
    """Row 0's family contexts, one per family, as `FamilyContext`s of `_contexts`."""
    return tuple(FamilyContext(m, r, ph, Octonion(al), None if s is None else Octonion(s))
                 for m, r, ph, al, s in _contexts(S))


def _contexts(S: "_Stack") -> list:
    """Row 0's family contexts as (m, r, phi, alpha, s), octonions as lists; alpha = 0 and no s
    unless octonionic.  Quaternionic: the class test's phi, r = 0 and -4 phi; else phi = 0."""
    if S.codes[0] == _TAGS.index(OCTONIONIC):
        ph, al, rs, s = (x[0].tolist() for x in S.families)
        return [(m, rs[m - 1], ph, al, s[m - 1]) for m in (1, 2)]
    ph = S.phi[0].item() if S.codes[0] == _TAGS.index(QUATERNIONIC) else 0.0
    return [(m, r, ph, [0.0] * 8, None) for m, r in zip((1, 2), S.bases[0][0].tolist())]


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


def _k(L: np.ndarray) -> np.ndarray:
    """K (..., 8, 8) from the left multiplication matrices L (..., 3, 8, 8) of a, b, c:
    M + M^T - 2 M[0, 0] I with M = L_c L_b L_a, as L_abar L_bbar L_cbar = M^T and
    M[0, 0] = Re(c(ba)) = Re((cb)a)."""
    M = L[..., 2, :, :] @ (L[..., 1, :, :] @ L[..., 0, :, :])
    return M + M.swapaxes(-1, -2) - 2.0 * M[..., :1, :1] * _EYE8


def _read_only(x: np.ndarray) -> np.ndarray:
    """x, a view of an array that every caller of one matrix shares, made read-only."""
    x.flags.writeable = False
    return x


def k_matrix(A: Hermitian3) -> np.ndarray:
    """8x8 matrix of k_scalar: L_c L_b L_a + L_abar L_bbar L_cbar - 2 Re((cb)a) I.

    Left multiplication by a conjugate is the transpose, L_abar = L_a^T.
    """
    return _read_only(A._stack.K[0])


def family_projector(A: Hermitian3, m: int) -> np.ndarray:
    """8x8 projector P_m onto the K eigenspace T_m."""
    if m not in (1, 2):
        raise ValueError("family index must be 1 or 2")
    return _read_only(A._stack.P[0, m - 1])


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
    t1a, t2a, t2c = _product(t1, al), _product(t2, al), t2 * _CONJ
    res = np.stack([
        _product(t1, t2a) - _product(_product(t2, t1), al),
        _product(t1a, t2) - _product(_product(t1, t2c), al),
        _product(t1a, t2a) + _product(t2c, t1) * np.vecdot(al, al)[..., None],
    ], axis=-2)
    return _norm(res)


def quaternionic_split(A: Hermitian3):
    """Basis (1, h1, h2, h1 h2) of the quaternionic subalgebra holding a, b, c, plus
    the lowest-index unit direction orthogonal to it: `_subalgebra` of A, which
    takes h1 along the largest imaginary part and h2 along the largest residual."""
    tag = classify(A).tag
    if tag == OCTONIONIC:
        raise NotQuaternionic("entries do not lie in a quaternionic subalgebra")
    if tag in (REAL, COMPLEX):
        raise AmbiguousSubalgebra(
            "matrix is complex: the containing quaternionic subalgebra is not unique")
    return tuple(map(Octonion._of, A._stack.split[0])), Octonion._of(A._stack.ell[0])


def _subalgebra(off: np.ndarray, code: int) -> np.ndarray:
    """H (n, k, 8), a basis of the subalgebra that off-diagonals (n, 3, 8) generate where the
    class test's largest code among them is `code`; that test alone decides the imaginary rank.

    h1 along the largest imaginary part of a, b, c.  Complex and real (k = 2): (1, i0), i0 = h1
    signed so that its first nonzero coordinate is positive, or e1 where every part is 0.
    Otherwise (k = 4): (1, h1, h2, h1 h2), h2 along the largest residual of the other two
    against h1, never a nearly parallel pair's smaller one, whose inverse would amplify any
    component outside the subalgebra; AmbiguousSubalgebra where it is 0.  h1 h2 completes the
    quaternion relations exactly."""
    imag = np.where(_IMAG, off, 0.0)
    rows = np.arange(len(off))
    sizes = _norm(imag)
    first = rows, sizes.argmax(-1)
    top = sizes[first]
    h1 = imag[first] * (1.0 / np.where(top > 0.0, top, 1.0))[:, None]
    H = np.empty((len(off), 2 if _TAGS[code] in (REAL, COMPLEX) else 4, 8))
    H[:, 0] = _ONE
    if H.shape[1] == 2:
        lead = h1[rows, (h1 != 0.0).argmax(-1)][:, None]
        H[:, 1] = np.where(top[:, None] > 0.0, np.where(lead < 0, -h1, h1), _EYE8[1])
        return H
    resid = imag
    for _ in range(2):
        resid = resid - h1[:, None] * np.vecdot(h1[:, None], resid)[..., None]
    left = _norm(resid)
    left[first] = 0.0
    second = rows, left.argmax(-1)
    if not np.logical_and.reduce(left[second], None, bool):
        raise AmbiguousSubalgebra("fewer than two independent imaginary directions")
    h2 = resid[second] * (1.0 / left[second])[:, None]
    H[:, 1], H[:, 2], H[:, 3] = h1, h2, _product(h1, h2)
    return H


def conj_matrix(A: Hermitian3) -> Hermitian3:
    """Entrywise conjugate; requires an associative (non-octonionic) matrix."""
    if classify(A).tag == OCTONIONIC:
        raise NotQuaternionic("entrywise conjugation is only used on quaternionic matrices")
    return Hermitian3(A.d, A.e, A.f, A.a.conj(), A.b.conj(), A.c.conj())


def _family_bases(K: np.ndarray) -> np.ndarray:
    """Orthonormal bases (..., 2, 8, 4) of T_1 and T_2 from one eigh of K (..., 8, 8), which
    is r_m on T_m, r1 > r2.  One Householder reflection of its coefficients turns each basis
    U so that its first column is U U^T 1 / |U^T 1| = P_m 1 / |P_m 1| = s_m / |s_m|."""
    U = np.linalg.eigh(K)[1]
    U = U.reshape(U.shape[:-1] + (2, 4))[..., ::-1, :].swapaxes(-3, -2)
    c = U[..., 0, :]
    # t = +-1 with t c_0 <= 0, so that w = e_1 - t c / |c| does not cancel; H e_1 = t c / |c|
    t = np.copysign(1.0, -c[..., 0])
    w = _E4[0] - c * (t / _norm(c))[..., None]
    H = _E4 - w[..., :, None] * (w / w[..., :1])[..., None, :]
    return (U @ H) * t[..., None, None]


def basis_invariance_check(A: Hermitian3, M, shifts=(0.0, 0.0, 0.0)) -> float:
    """Largest deviation of the family generators under an off-diagonal basis change.

    Replaces (a, b, c) by real combinations M (a, b, c)^T plus real shifts
    and recomputes s_m.  With det M > 0 the generators must be unchanged;
    det M < 0 swaps the two family labels, which is accounted for here.
    """
    M, shifts = np.asarray(M, dtype=float), np.asarray(shifts, dtype=float)
    if M.shape != (3, 3) or not np.isfinite(M).all():
        raise ValueError("change of basis must be a finite real 3x3 matrix")
    if shifts.shape != (3,) or not np.isfinite(shifts).all():
        raise ValueError("shifts must be 3 finite real numbers")
    if abs(float(np.linalg.det(M))) <= SINGULAR_CHANGE_TOL * float(np.abs(M).max()) ** 3:
        raise SingularChange("change of basis has numerically vanishing determinant")
    return float(_basis_change_deviation(A._stack, M, shifts)[0])


def _basis_change_deviation(A: "_Stack", M: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """`basis_invariance_check` for stacked matrices A, M (n, 3, 3) and shifts (n, 3)."""
    s = A.families[3]
    moved = _Stack(None, M @ A.off + shifts[..., None] * _ONE).families[3]
    # det M < 0 swaps the two family labels
    moved = np.where((np.linalg.det(M) < 0)[..., None, None], moved[..., ::-1, :], moved)
    return _norm(moved - s).max(-1)


class _Stack:
    """Stacked matrices, diagonals (n, 3) and off-diagonals (n, 3, 8), with the
    invariants of this module, each computed on first use.  A caller that reads only
    invariants of the off-diagonals, of any stacked shape, may pass no diagonals.  The
    family `bases`, and so every eigensystem, are solved for a stack of one class."""

    def __init__(self, dia: np.ndarray, off: np.ndarray):
        self.dia, self.off = dia, off

    @classmethod
    def outer(cls, v: np.ndarray) -> "_Stack":
        """The rank-one matrices v v^dagger of vectors v (n, 3, 8)."""
        X = v.reshape(-1, 3, 8)
        # v1 conj(v2), v3 conj(v1), v2 conj(v3) from one contraction with the octonion table
        off = np.einsum("nskj,nsj->nsk", left_mul_matrix(X[:, [0, 2, 1]]), X[:, [1, 0, 2]] * _CONJ)
        return cls(np.einsum("nsi,nsi->ns", X, X), off)

    def rows(self, lo: int, hi: int) -> "_Stack":
        """Rows lo:hi of a one-class stack, as `_masked_stack` returns it.  `_lazy` reads the
        view's `_view` and gives it this stack's invariants, sliced: the rows' own, except that
        `families`, `split` and `T` branch on every row, so on a mixed stack they may not be."""
        view = type(self)(self.dia[lo:hi], self.off[lo:hi])
        view._view = self, slice(lo, hi)
        return view

    @_lazy
    def L(self) -> np.ndarray:
        """The left multiplication matrices of a, b, c (n, 3, 8, 8)."""
        return left_mul_matrix(self.off)

    @_lazy
    def alpha_phi(self) -> tuple[np.ndarray, np.ndarray]:
        """The associators [a, b, c] (n, 8) and phi (n,), from shared products."""
        return _alpha_phi(self.off, self.L)

    alpha = property(lambda self: self.alpha_phi[0])
    phi = property(lambda self: self.alpha_phi[1])

    @_lazy
    def associative(self) -> np.ndarray:
        """Where the associator test of `_associative` finds a row associative (n,)."""
        return _associative(self.off, self.alpha)

    @_lazy
    def classes(self) -> tuple[np.ndarray, np.ndarray]:
        """Each matrix's class, as an index into `_TAGS`, and dim T, both (n,), by `_classes`:
        a stack with no associative row is octonionic throughout, with no rank SVD."""
        return _classes(self.off, self.associative)

    codes = property(lambda self: self.classes[0])

    @property
    def tag(self) -> str:
        """The class of a stack of one class, else ValueError."""
        if np.logical_or.reduce(self.codes != self.codes[0], None):
            raise ValueError("a stack is solved one class at a time, got rows of classes "
                             f"{[_TAGS[c] for c in np.unique(self.codes)]}")
        return _TAGS[self.codes[0]]

    @_lazy
    def roots(self) -> np.ndarray:
        """The family roots r1 >= r2 (n, 2), which `bases` reads without the generators."""
        return _roots(self.phi, self.alpha)

    @_lazy
    def families(self) -> tuple:
        """phi (n,), alpha (n, 8), the roots (n, 2) and the generators s_m (n, 2, 8), or
        DegenerateFamily where a row is associative."""
        if np.logical_or.reduce(self.associative, None):
            raise DegenerateFamily(
                "associator vanishes: no family generators s_m; eigensystem gives r and phi alone")
        return self.phi, self.alpha, self.roots, _generators(self.phi, self.alpha, self.roots)

    @_lazy
    def split(self) -> np.ndarray:
        """H (n, k, 8), the basis of `_subalgebra` keyed by the largest of `codes`: (1, i0) for
        complex and real stacks, (1, h1, h2, h1 h2) for the others."""
        return _subalgebra(self.off, np.maximum.reduce(self.codes, None))

    @_lazy
    def ell(self) -> np.ndarray:
        """ell (n, 8): the first unit e_i whose residual against `split`, projected off it twice
        as a block, is above NORMALIZE_TOL, normalized; for a quaternionic H, ell H is the rest."""
        H, resid = self.split, _EYE8[1:]
        for _ in range(2):
            resid = resid - (resid @ H.swapaxes(-1, -2)) @ H
        n = _norm(resid)
        found = n > NORMALIZE_TOL
        if not np.logical_and.reduce(np.logical_or.reduce(found, -1)):
            raise NotQuaternionic("no unit direction orthogonal to the subalgebra found")
        i = np.arange(len(H)), found.argmax(-1)
        return resid[i] * (1.0 / n[i])[:, None]

    @_lazy
    def bases(self) -> tuple[np.ndarray, np.ndarray]:
        """For a stack of one class, else ValueError: the family roots r (n, nfam) and orthonormal
        bases B (n, nfam, 8, k) of subspaces of O whose span in each slot A maps into itself,
        each eigenvalue of real multiplicity k there.  Octonionic: T_m, the eigenspace of K for
        r_m, starting with s_m / |s_m| (k = 4).  Associative: H of `split` with r = 0, and for
        quaternionic stacks ell H with -4 phi, the other root at alpha = 0 (k = 4, else 2)."""
        tag = self.tag
        if tag == OCTONIONIC:
            return self.roots, _family_bases(self.K)
        Hb = self.split.swapaxes(-1, -2)
        nfam = 2 if tag == QUATERNIONIC else 1
        r, B = np.zeros((len(Hb), nfam)), np.empty((len(Hb), nfam) + Hb.shape[1:])
        B[:, 0] = Hb
        if nfam == 2:   # 0 - 4 phi: +0.0, not -0.0, at phi = 0
            r[:, 1], B[:, 1] = 0.0 - 4.0 * self.phi, left_mul_matrix(self.ell) @ Hb
        return r, B

    @_lazy
    def K(self) -> np.ndarray:
        return _k(self.L)

    @_lazy
    def P(self) -> np.ndarray:
        """The family projectors (n, 2, 8, 8)."""
        ph, _, rs, _ = self.families
        return _projector(self.K[:, None], rs, ph[:, None])

    @_lazy
    def T(self) -> np.ndarray:
        """For a stack of one class, else ValueError: orthonormal rows (n, 4, 8), the first
        dim T of `classes` spanning T, then zero.  Octonionic: (1, a, b, c) by Gram-Schmidt,
        all four kept.  Associative: the first dim T rows of `split`, 1, then i0 or h1, h2."""
        if self.tag == OCTONIONIC:
            one = np.broadcast_to(_ONE, self.off.shape[:-2] + (1, 8))
            return _gram_schmidt(np.concatenate([one, self.off], axis=-2), 0.0)[0]
        T = np.zeros(self.off.shape[:-2] + (4, 8))
        T[:, :self.split.shape[1]] = self.split
        return np.where(np.arange(4)[:, None] < self.classes[1][:, None, None], T, 0.0)

    @_lazy
    def R(self) -> np.ndarray:
        return real_form(self.dia, self.off)

    @_lazy
    def trace(self) -> np.ndarray:
        return np.add.reduce(self.dia, -1)

    @_lazy
    def sigma(self) -> np.ndarray:
        return _sigma(self.dia, self.off)

    @_lazy
    def det(self) -> np.ndarray:
        return _det(self.dia, self.off)

    @_lazy
    def frobenius(self) -> np.ndarray:
        return np.sqrt(np.vecdot(self.dia, self.dia)
                       + 2.0 * np.add.reduce(np.vecdot(self.off, self.off), -1))

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
