"""Eigenvalues and orthonormal eigenbases, one per family.

The real eigenvalues solve the cubic

    lam^3 - tr(A) lam^2 + sigma(A) lam - det(A) = r

with r a root of the family quadratic, so each matrix carries two
3-eigenvalue families.  Every class takes one route, stacked over whole
arrays of matrices (`_Systems`; `eigensystem` is its case of one): each
family is one eigh of A on its invariant subspace, Q = kron(I3, B) with B
from `_Stack.bases`, then the coordinate rule, and a rank-one sweep for
repeated eigenvalues.  `eigenvectors` keeps the SVD nullspace
of R - lam I as the reference path; `lambda_roots` is a cross-check of
the cubic for the harness.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ComplexProjector, ComplexRoots, ExtractionFailure
from .hermitian import (
    OCTONIONIC,
    QUATERNIONIC,
    _TAGS,
    Hermitian3,
    MatrixClass,
    OctVector3,
    _arrays,
    _per_matrix,
    _vnorm,
    det,
    mat_vec,
    outer_entries,
    real_form,
    sigma,
    trace,
)
from .octonion import Octonion, inner
from .subspace import FamilyContext, _Stack, apply_blockwise, k_matrix

__all__ = [
    "EigenPair",
    "FamilyEigensystem",
    "EigenSystem",
    "lambda_roots",
    "k_vector",
    "realify24",
    "realify_rank_one",
    "real_nullspace",
    "eigenvectors",
    "eigensystem",
    "same_family",
    "family_dimension_probe",
]

_RANK_TOL = 1e-7
_CLUSTER_TOL = 1e-6
_NEWTON_TOL = 1e-12
# rounding error of the Horner evaluation of the cubic, relative to s^3
_HORNER_EPS = 8.0 * np.finfo(float).eps
_EYE24 = np.eye(24)
# the keys of FamilyEigensystem.residuals, in the order of `_family_residuals`
_RESIDUALS = ("eigen", "k_eigen", "identity_decomposition", "matrix_decomposition",
              "generalized_orthogonality")


@dataclass(frozen=True, eq=False)
class EigenPair:
    lam: float
    v: OctVector3
    family: int


@dataclass(frozen=True, eq=False)
class FamilyEigensystem:
    context: FamilyContext
    pairs: tuple
    residuals: dict

    def to_json(self) -> dict:
        out = self.context.to_json()
        out["eigenvalues"] = [float(p.lam) for p in self.pairs]
        out["eigenvectors"] = [p.v.to_json() for p in self.pairs]
        out["residuals"] = {k: float(v) for k, v in self.residuals.items()}
        return out


@dataclass(frozen=True, eq=False)
class EigenSystem:
    matrix_class: MatrixClass
    families: tuple

    @property
    def single_family(self) -> bool:
        return len(self.families) == 1

    def all_pairs(self):
        return [p for fam in self.families for p in fam.pairs]

    def to_json(self) -> dict:
        return {
            "class": self.matrix_class.tag,
            "dim_t": self.matrix_class.dim_t,
            "single_family": self.single_family,
            "families": [f.to_json() for f in self.families],
        }


def lambda_roots(A: Hermitian3, r: float) -> tuple[float, float, float]:
    """Three real roots, ascending, of lam^3 - tr lam^2 + sigma lam - (det + r) = 0.

    The unstacked case of `_lambda_roots`; raises ComplexRoots when the
    supplied r does not belong to this matrix.
    """
    return tuple(float(x) for x in _lambda_roots(trace(A), sigma(A), det(A) + r))


def _lambda_roots(tr, sg, target) -> np.ndarray:
    """Ascending real roots (..., 3) of lam^3 - tr lam^2 + sg lam - target, stacked.

    Solved with the trigonometric method for the all-real-roots case (the
    acos argument is clamped to absorb rounding), then each root gets up to
    two Newton polish steps on the original cubic.  A discriminant that is
    negative beyond tolerance means the target does not belong to the
    matrix and raises ComplexRoots.
    """
    b, c, d = (np.asarray(x, dtype=float) for x in (-tr, sg, -target))
    # depressed form t^3 + p t + q, lam = t - b/3
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    disc = -4.0 * p ** 3 - 27.0 * q * q
    bad = disc < -1e-9 * np.maximum(1.0, np.maximum(np.abs(p) ** 3, q * q))
    if np.any(bad):
        raise ComplexRoots(f"cubic discriminant {np.min(disc[bad]):.3e} is negative: "
                           "the family root r is inconsistent with this matrix")
    shift = -b / 3.0
    m = 2.0 * np.sqrt(np.maximum(-p, 0.0) / 3.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.arccos(np.clip(3.0 * q / (p * m), -1.0, 1.0)) / 3.0
        trig = shift[..., None] + m[..., None] * np.cos(
            theta[..., None] - 2.0 * np.pi * np.arange(3) / 3.0)
    # p >= 0: all roots collapse within rounding
    t0 = np.copysign(np.abs(q) ** (1.0 / 3.0), -q)
    x = np.where((p >= 0.0)[..., None], (shift + t0)[..., None], trig)
    # at a double root f' is rounding noise: a step needs f' above _NEWTON_TOL s^2,
    # s the size of the roots, and is kept only if |f| grows by no more than rounding
    s = np.maximum(np.abs(b), np.maximum(np.sqrt(np.abs(c)), np.abs(d) ** (1.0 / 3.0)))[..., None]
    b, c, d = b[..., None], c[..., None], d[..., None]
    fx = ((x + b) * x + c) * x + d
    for _ in range(2):
        dfx = (3.0 * x + 2.0 * b) * x + c
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - fx / dfx
        fn = ((xn + b) * xn + c) * xn + d
        step = ((np.abs(dfx) > _NEWTON_TOL * s * s)
                & (np.abs(fn) <= np.abs(fx) + _HORNER_EPS * s ** 3))
        x, fx = np.where(step, xn, x), np.where(step, fn, fx)
    return np.sort(x, axis=-1)


def k_vector(A: Hermitian3, x: OctVector3) -> OctVector3:
    """Matrix characteristic operator A(A(Ax)) - tr A(Ax) + sigma Ax - det x."""
    ax = mat_vec(A, x)
    a2x = mat_vec(A, ax)
    a3x = mat_vec(A, a2x)
    return a3x - a2x.scale(trace(A)) + ax.scale(sigma(A)) - x.scale(det(A))


@_per_matrix
def realify24(A: Hermitian3) -> np.ndarray:
    """Real 24x24 matrix of x -> A x under O^3 = R^24; symmetric for Hermitian A."""
    return real_form(*_arrays(A))


def realify_rank_one(V: np.ndarray) -> np.ndarray:
    """Stack of the 24x24 real forms of v v^dagger, one per column v of V."""
    return real_form(*outer_entries(V))


def real_nullspace(M: np.ndarray, rel_threshold: float = _RANK_TOL) -> np.ndarray:
    """Orthonormal nullspace basis (columns) by SVD with a relative rank cut (rank 0 for M = 0)."""
    _, s, vh = np.linalg.svd(M)
    rank = int(np.sum(s > rel_threshold * s[0])) if s.size else 0
    return vh[rank:].T


def _column_basis(cols: np.ndarray, rel_threshold: float = _RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column space, rank by relative SVD cut."""
    if cols.size == 0:
        return np.zeros((cols.shape[0], 0))
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, :int(np.sum(s > rel_threshold * s[0]))]


def _pick_representative(space: np.ndarray, block: int) -> np.ndarray:
    """Deterministic unit representative from each stacked orthonormal column basis (..., d, j).

    The first projection space @ space[idx] of norm above 1e-6 (that of row
    idx), trying coordinates 0, block, 2*block, ... first; the construction
    makes that coordinate positive, which fixes the sign.
    """
    order = np.argsort(np.arange(space.shape[-2]) % block != 0, stable=True)
    rows = space.reshape((-1,) + space.shape[-2:])[:, order]
    usable = np.sqrt(np.vecdot(rows, rows)) > 1e-6
    if not usable.any(-1).all():
        raise ExtractionFailure("could not pick a representative from the candidate subspace")
    row = rows[np.arange(len(rows)), usable.argmax(-1)]
    w = np.matvec(space, row.reshape(space.shape[:-2] + row.shape[-1:]))
    return w / np.sqrt(np.vecdot(w, w))[..., None]


def _sweep(space: np.ndarray, lam: float, multiplicity: int, Q: np.ndarray) -> list[np.ndarray]:
    """`multiplicity` representatives from an orthonormal basis of one eigenspace.

    Q (24 x dim) maps the coordinates of `space`, dim/3 per vector component,
    into O^3.  For repeated eigenvalues a Gram-Schmidt sweep subtracts the
    rank-one projection (v v^dagger) y, which is idempotent on this K
    eigenspace.
    """
    per = space.shape[1] // multiplicity
    reps = []
    for k in range(multiplicity):
        rep = _pick_representative(space, len(space) // 3)
        reps.append(rep)
        if k + 1 < multiplicity:
            B = Q.T @ realify_rank_one(Q @ rep[:, None])[0] @ Q
            space = _column_basis(space - B @ space)
            if space.shape[1] < per * (multiplicity - k - 1):
                raise ExtractionFailure(
                    f"generalized orthogonalization at lambda={lam:.6g} lost rank")
    return reps


def eigenvectors(A: Hermitian3, fam: FamilyContext, lam: float,
                 multiplicity: int = 1) -> list[EigenPair]:
    """Extract `multiplicity` orthonormal eigenpairs for one family eigenvalue.

    Reference path: the nullspace of the realified shifted matrix, with the
    family projector P_m applied blockwise (real dimension 4 per eigenvector).
    """
    null = real_nullspace(realify24(A) - lam * _EYE24)
    space = _column_basis(apply_blockwise(fam.projector(k_matrix(A)), null))
    if space.shape[1] < 4 * multiplicity:
        raise ExtractionFailure(
            f"family-{fam.m} eigenspace at lambda={lam:.6g} has dimension "
            f"{space.shape[1]}, expected {4 * multiplicity}"
        )
    return [EigenPair(lam=lam, v=OctVector3.from_coords(rep), family=fam.m)
            for rep in _sweep(space, lam, multiplicity, _EYE24)]


def _slotwise(B: np.ndarray) -> np.ndarray:
    """Q = kron(I3, B) (..., 24, 3k): the bases B (..., 8, k) applied in each octonion slot."""
    Q = np.einsum("ij,...ab->...iajb", np.eye(3), B)
    return Q.reshape(B.shape[:-2] + (24, 3 * B.shape[-1]))


def _eigenpairs(R: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (..., F, 3), ascending, and eigenvectors (..., F, 3, 24) of each family,
    from one stacked eigh of R (..., 1, 24, 24) on the span of Q (..., F, 24, 3k).

    Q spans an A-invariant subspace, each eigenvalue of real multiplicity k.
    Where each eigenvalue is its own cluster of k columns, the coordinate rule
    picks its eigenvector; a family with a larger cluster, a repeated
    eigenvalue, is swept cluster by cluster.
    """
    k = Q.shape[-1] // 3
    w, U = np.linalg.eigh(Q.swapaxes(-1, -2) @ R @ Q)
    tol = _CLUSTER_TOL * np.abs(w).max(-1, keepdims=True)
    simple = ((np.diff(w) > tol) == (np.arange(1, 3 * k) % k == 0)).all(-1)
    lams = np.add.reduce(w.reshape(w.shape[:-1] + (3, k)), -1) / k
    Us = U[simple]
    spaces = np.stack([Us[..., k * j:k * j + k] for j in range(3)], axis=-3)
    V = np.empty(lams.shape + (24,))
    V[simple] = np.matvec(Q[simple][..., None, :, :], _pick_representative(spaces, k))
    for i in zip(*np.nonzero(~simple)):
        groups = np.split(w[i], np.flatnonzero(np.diff(w[i]) > tol[i]) + 1)
        if any(len(g) % k for g in groups):
            raise ExtractionFailure(f"family-{i[-1] + 1} eigenvalue clusters of sizes "
                                    f"{[len(g) for g in groups]} are not all multiples of {k}")
        ends = np.cumsum([len(g) for g in groups])
        reps = [rep for g, end in zip(groups, ends)
                for rep in _sweep(U[i][:, end - len(g):end], np.mean(g), len(g) // k, Q[i])]
        lams[i] = [np.mean(g) for g in groups for _ in range(len(g) // k)]
        V[i] = np.matvec(Q[i], np.array(reps))
    return lams, V


def _hermitian_norm(dia: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Frobenius norm of Hermitian matrices from diagonals (..., 3) and a, b, c (..., 24)."""
    return np.sqrt(np.vecdot(dia, dia) + 2.0 * np.vecdot(off, off))


def _norm_scale(A: _Stack) -> np.ndarray:
    """||A||_F (n,), the residuals' scale, and 1 for A = 0, whose residuals are exact zeros."""
    return np.where(A.frobenius > 0.0, A.frobenius, 1.0)


def _family_residuals(A: _Stack, r: np.ndarray, lams: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The `_RESIDUALS` (n, F, 5) of eigenpairs lams (n, F, 3) and V (n, F, 3, 24)
    of stacked matrices A with family roots r (n, F).

    Normwise: the eigen and matrix residuals are divided by ||A||_F and the
    K residual by ||A||_F^3, so they do not change when A is scaled.
    """
    R = A.R[:, None]
    R2 = R @ R
    tr, sg, dt = (x[:, None, None, None] for x in (A.trace, A.sigma, A.det))
    K24 = R2 @ R - tr * R2 + sg * R - dt * _EYE24
    scale = _norm_scale(A)[:, None]
    Vc = V.swapaxes(-1, -2)
    dia, off = outer_entries(V.reshape(-1, 24).T)
    dia, off = dia.reshape(V.shape[:-1] + (3,)), off.reshape(V.shape[:-1] + (24,))
    ident = _hermitian_norm(dia.sum(-2) - 1.0, off.sum(-2))
    a_dia, a_off = A.dia[:, None], A.off.reshape(-1, 1, 24)
    amat = _hermitian_norm(np.vecmat(lams, dia) - a_dia, np.vecmat(lams, off) - a_off)
    # |(v_i v_i^dagger) v_j| for every i < j
    rank_one = real_form(dia, off.reshape(off.shape[:-1] + (3, 8)))
    cross = np.linalg.norm(rank_one @ Vc[..., None, :, :], axis=-2)
    return np.stack([
        np.linalg.norm(R @ Vc - Vc * lams[..., None, :], axis=-2).max(-1) / scale,
        np.linalg.norm(K24 @ Vc - r[..., None, None] * Vc, axis=-2).max(-1)
        / np.float_power(scale, 3),
        ident,
        amat / scale,
        cross[..., [0, 0, 1], [1, 2, 2]].max(-1),
    ], axis=-1)


class _Systems(_Stack):
    """Stacked matrices with their eigensystems: the rows of each class go through
    `_Stack.bases` and `_eigenpairs` together.  nfam (n,) is 2, or 1 for complex and
    real rows, which fill only the first family; per family (axis 1): the root r
    (n, 2), slot basis B (n, 2, 8, 4), eigenvalues lams (n, 2, 3), eigenvectors V
    (n, 2, 3, 3, 8) and, on first read, `_RESIDUALS` (n, 2, 5) of the `_groups`."""

    def __init__(self, dia: np.ndarray, off: np.ndarray):
        super().__init__(dia, off)
        n, code = len(dia), self.classes[0]
        self.nfam = np.where(code >= _TAGS.index(QUATERNIONIC), 2, 1)
        self.r, self.lams = np.zeros((n, 2)), np.zeros((n, 2, 3))
        self.B, self.V = np.zeros((n, 2, 8, 4)), np.zeros((n, 2, 3, 24))
        self._groups = []
        for c in sorted(set(code.tolist())):
            rows = code == c
            A = self if rows.all() else _Stack(dia[rows], off[rows])
            r, B = A.bases
            F, k = B.shape[1], B.shape[-1]
            lams, V = _eigenpairs(A.R[:, None], _slotwise(B))
            self.r[rows, :F], self.B[rows, :F, :, :k], self.lams[rows, :F] = r, B, lams
            self.V[rows, :F] = V
            self._groups.append((rows, F, r, lams, V))
        self.V = self.V.reshape(n, 2, 3, 3, 8)

    @cached_property
    def residuals(self) -> np.ndarray:
        # a mixed stack builds each class's stack again rather than keep it alive
        out = np.zeros((len(self.dia), 2, 5))
        for rows, F, *args in self._groups:
            A = self if rows.all() else _Stack(self.dia[rows], self.off[rows])
            out[rows, :F] = _family_residuals(A, *args)
        return out


@_per_matrix
def _systems(A: Hermitian3) -> _Systems:
    """A's eigensystem as a stack of one matrix."""
    dia, off = _arrays(A)
    return _Systems(dia[None], off[None])


def eigensystem(A: Hermitian3) -> EigenSystem:
    """Full eigenstructure, the n = 1 case of `_Systems`: two families for octonionic
    (r-labeled) and quaternionic (plain and lifted) matrices, one, flagged as such,
    for complex and real ones."""
    S = _systems(A)
    code, dim_t = (int(x[0]) for x in S.classes)
    contexts = S.contexts(0) if _TAGS[code] == OCTONIONIC else tuple(
        FamilyContext(m=m, r=float(r), phi=0.0, alpha=Octonion.zero(), s=None)
        for m, r in zip((1, 2), S.r[0, :S.nfam[0]]))
    families = tuple(
        FamilyEigensystem(fam, tuple(EigenPair(float(lam), OctVector3.from_coords(v), fam.m)
                                     for lam, v in zip(S.lams[0, f], S.V[0, f])),
                          dict(zip(_RESIDUALS, map(float, S.residuals[0, f]))))
        for f, fam in enumerate(contexts))
    return EigenSystem(matrix_class=MatrixClass(_TAGS[code], dim_t), families=families)


def _same_family(u: np.ndarray, w: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """`same_family` of stacked vectors u, w (n, 3, 8), without its class check."""
    resid = _Stack.outer(u).membership(w)
    return resid <= tol * np.maximum(_vnorm(w), 1e-300) * np.maximum(1.0, inner(u, u).sum(-1)) ** 2


def same_family(u: OctVector3, w: OctVector3, tol: float = 1e-8) -> bool:
    """Family membership predicate: u u^dagger (u u^dagger w) = (u^dagger u)(u u^dagger w).

    Defined for normalized u with a non-complex projector u u^dagger.
    """
    u, w = u.to_coords().reshape(1, 3, 8), w.to_coords().reshape(1, 3, 8)
    if _Stack.outer(u).classes[0][0] < _TAGS.index(QUATERNIONIC):
        raise ComplexProjector("u u^dagger is complex; the membership predicate is undefined")
    return bool(_same_family(u, w, tol)[0])


def _family_dimensions(v: np.ndarray, samples: int = 24, seed: int = 0) -> np.ndarray:
    """`family_dimension_probe` of each stacked vector v (n, 3, 8), by stacked SVDs."""
    B = _Stack.outer(v)
    _, s, vh = np.linalg.svd(B.R @ B.R - B.trace[:, None, None] * B.R)
    # the rows of vh past each rank span the nullspace; the others are zeroed
    null = vh * (s <= _RANK_TOL * s[:, :1])[..., None]
    gauss = np.random.default_rng(seed).standard_normal((24, samples))
    pts = null.swapaxes(-1, -2) @ (null @ gauss)
    s = np.linalg.svd(pts, compute_uv=False)
    return (s > _RANK_TOL * s[:, :1]).sum(-1)


def family_dimension_probe(v: OctVector3, samples: int = 24, seed: int = 0) -> int:
    """Estimated real dimension of the family determined by v: the rank, relative to its
    largest singular value, of random vectors projected onto the nullspace of the linear
    membership conditions (12 for a generic non-complex v)."""
    return int(_family_dimensions(v.to_coords().reshape(1, 3, 8), samples, seed)[0])
