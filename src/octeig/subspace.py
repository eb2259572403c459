"""Coefficient subspace T = span{1, a, b, c} and the K eigenspace machinery.

For a matrix whose off-diagonal entries have nonvanishing associator,
the octonions split into two orthogonal 4-spaces T_m = T s_m picked out
by the characteristic operator K, which is r_m on T_m: one eigh of K gives
both.  `spectral._Stack` computes that split once per stack, as its attributes `K`,
`roots`, `generators`, `P` and `bases`, the per-family subspaces every eigensystem is
taken on.  Here are the per-matrix functions that read them, `_subalgebra`, which a, b,
c generate where the split collapses, and the kernels with a caller besides `_Stack`
(`_projector`, `_gram_schmidt`).
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
    alpha,
    classify,
)
from .octonion import _CONJ, _ONE, Octonion, _finite, _norm, _product
from .tolerances import SINGULAR_CHANGE_TOL, SPAN_TOL

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
        if np.logical_and.reduce(kept, None):   # the same bits as the masked form below
            rows.append(v * (1.0 / n)[..., None])
        else:
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


def r_roots(A: Hermitian3) -> tuple[float, float]:
    """Roots r1 >= r2 of r^2 + 4 phi r - |alpha|^2 = 0, distinct when alpha != 0."""
    return tuple(fam.r for fam in family_contexts(A))


def s_elements(A: Hermitian3) -> tuple[Octonion, Octonion]:
    """Family generators s_m = (r_m + 4 phi + alpha) / (2 (r_m + 2 phi)); s1 + s2 = 1."""
    return tuple(fam.s for fam in family_contexts(A))


def family_contexts(A: Hermitian3) -> tuple[FamilyContext, FamilyContext]:
    """Both family contexts, m = 1 and m = 2, or DegenerateFamily where A is associative."""
    A._stack.generators   # which an associative matrix lacks
    return _family_contexts(A._stack)


def _family_contexts(S: "spectral._Stack") -> tuple:
    """Row 0's family contexts, one per family, as `FamilyContext`s of `_contexts`."""
    return tuple(FamilyContext(m, r, ph, Octonion(al), None if s is None else Octonion(s))
                 for m, r, ph, al, s in _contexts(S))


def _contexts(S: "spectral._Stack") -> list:
    """Row 0's family contexts as (m, r, phi, alpha, s), octonions as lists; alpha = 0 and no s
    unless octonionic.  Quaternionic: the class test's phi, r = 0 and -4 phi; else phi = 0."""
    if S.codes[0] == _TAGS.index(OCTONIONIC):
        ph, al, rs, s = (x[0].tolist() for x in (S.phi, S.alpha, S.roots, S.generators))
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


def _basis_change_deviation(A: "spectral._Stack", M: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """`basis_invariance_check` for stacked matrices A, M (n, 3, 3) and shifts (n, 3)."""
    s = A.generators
    moved = type(A)(None, M @ A.off + shifts[..., None] * _ONE).generators
    # det M < 0 swaps the two family labels
    moved = np.where((np.linalg.det(M) < 0)[..., None, None], moved[..., ::-1, :], moved)
    return _norm(moved - s).max(-1)
