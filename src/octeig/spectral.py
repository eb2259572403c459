"""Eigenvalues and orthonormal eigenbases, one per family.

The real eigenvalues solve the cubic

    lam^3 - tr(A) lam^2 + sigma(A) lam - det(A) = r

with r a root of the family quadratic, so each matrix carries two
3-eigenvalue families.  Every class takes one route: each family is one
eigh of A on its invariant subspace, spanned by the orthonormal columns of
the 24 x 3k map Q from `subspace.family_bases` (T_m in each slot for
octonionic matrices, H and ell H for quaternionic ones, span{1, i0} for
complex and real ones), followed by the coordinate rule and a rank-one
sweep for repeated eigenvalues.  `eigenvectors` keeps the SVD nullspace
of R - lam I as the reference path; `lambda_roots` is a cross-check of
the cubic for the harness.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ComplexProjector, ComplexRoots, ExtractionFailure
from .hermitian import (
    QUATERNIONIC,
    _TAGS,
    Hermitian3,
    MatrixClass,
    OctVector3,
    _alpha,
    _arrays,
    _classes,
    _per_matrix,
    classify,
    det,
    mat_vec,
    outer_entries,
    real_form,
    sigma,
    trace,
)
from .octonion import Octonion
from .subspace import (
    FamilyContext,
    _Stack,
    apply_blockwise,
    family_bases,
    k_matrix,
    quaternionic_split,
)

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
    """Orthonormal nullspace basis (columns) by SVD with a relative rank cut."""
    _, s, vh = np.linalg.svd(M)
    cut = rel_threshold * max(1.0, s[0] if s.size else 0.0)
    return vh[int(np.sum(s >= cut)):].T


def _column_basis(cols: np.ndarray, rel_threshold: float = _RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column space, rank by relative SVD cut."""
    if cols.size == 0:
        return np.zeros((cols.shape[0], 0))
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    cut = rel_threshold * max(1.0, s[0] if s.size else 0.0)
    rank = int(np.sum(s > cut))
    return u[:, :rank]


def _pick_representative(space: np.ndarray, block: int) -> np.ndarray:
    """Deterministic unit representative from an orthonormal column basis.

    Maximizes the coordinate functional of the first usable slot, trying
    the first coordinate of each vector component first (coordinates 0,
    block, 2*block, ...); the construction makes that coordinate positive,
    which fixes the sign.
    """
    dim = space.shape[0]
    order = list(range(0, dim, block)) + [i for i in range(dim) if i % block != 0]
    for idx in order:
        w = space @ space[idx, :]
        n = np.linalg.norm(w)
        if n > 1e-6:
            return w / n
    raise ExtractionFailure("could not pick a representative from the candidate subspace")


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
                    f"generalized orthogonalization at lambda={lam:.6g} lost rank"
                )
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


def _cluster(values) -> list[list[float]]:
    vals = sorted(values)
    tol = _CLUSTER_TOL * max(abs(v) for v in vals)
    groups = [[vals[0]]]
    for v in vals[1:]:
        if v - groups[-1][-1] <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    return groups


def _real_forms(A: Hermitian3) -> tuple[np.ndarray, np.ndarray]:
    """realify24(A), and the real form R^3 - tr R^2 + sigma R - det of k_vector."""
    R = realify24(A)
    R2 = R @ R
    return R, R2 @ R - trace(A) * R2 + sigma(A) * R - det(A) * _EYE24


def _hermitian_norm(dia: np.ndarray, off: np.ndarray) -> float:
    """Frobenius norm of a Hermitian matrix given by its diagonal and a, b, c."""
    return float(np.sqrt(dia @ dia + 2.0 * np.vdot(off, off)))


def _family_residuals(A: Hermitian3, forms, fam: FamilyContext, pairs) -> dict:
    """Residuals of one family's eigenpairs, on the real forms of `_real_forms`."""
    R, K24 = forms
    scale = max(1.0, A.frobenius())
    V = np.array([p.v.to_coords() for p in pairs]).T
    lams = np.array([p.lam for p in pairs])
    dia, off = outer_entries(V)
    ident = _hermitian_norm(dia.sum(0) - 1.0, off.sum(0))
    a_dia, a_off = _arrays(A)
    amat = _hermitian_norm(lams @ dia - a_dia, (lams @ off.reshape(-1, 24)).reshape(3, 8) - a_off)
    # |(v_i v_i^dagger) v_j| for every i < j
    cross = np.linalg.norm(real_form(dia, off) @ V, axis=1)
    return {
        "eigen": float(np.linalg.norm(R @ V - V * lams, axis=0).max()) / scale,
        "k_eigen": float(np.linalg.norm(K24 @ V - fam.r * V, axis=0).max()) / scale ** 3,
        "identity_decomposition": ident,
        "matrix_decomposition": amat / scale,
        "generalized_orthogonality": float(np.triu(cross, 1).max()),
    }


def _family_pairs(R: np.ndarray, fam: FamilyContext, Q: np.ndarray) -> list[EigenPair]:
    """The family's eigenpairs, ascending, from one eigh of R = realify24(A) on the span of Q.

    Q (24 x 3k) has orthonormal columns spanning an A-invariant subspace on
    which every eigenvalue has real multiplicity k; the coordinate rule and
    the sweep run on the 3k coordinates and Q maps the result into O^3.
    """
    w, U = np.linalg.eigh(Q.T @ R @ Q)
    k = Q.shape[1] // 3
    pairs = []
    start = 0
    for group in _cluster(w):
        size = len(group)
        if size % k != 0:
            raise ExtractionFailure(
                f"family-{fam.m} eigenvalue cluster of size {size} is not a multiple of {k}"
            )
        lam = float(np.mean(group))
        reps = _sweep(U[:, start:start + size], lam, size // k, Q)
        start += size
        pairs.extend(EigenPair(lam, OctVector3.from_coords(Q @ rep), fam.m) for rep in reps)
    return pairs


def eigensystem(A: Hermitian3) -> EigenSystem:
    """Full eigenstructure: one eigh of A on each family's invariant subspace.

    Octonionic matrices get the two r-labeled families; quaternionic ones
    the plain family plus the lifted one; complex and real matrices have a
    single family and are flagged as such.
    """
    forms = _real_forms(A)
    families = []
    for fam, Q in family_bases(A):
        pairs = _family_pairs(forms[0], fam, Q)
        families.append(FamilyEigensystem(fam, tuple(pairs), _family_residuals(A, forms, fam, pairs)))
    return EigenSystem(matrix_class=classify(A), families=tuple(families))


class _Systems(_Stack):
    """Stacked matrices with their eigensystems, one `eigensystem` call each;
    V (n, F, 3, 3, 8) and lams (n, F, 3) hold each family's eigenpairs in order."""

    def __init__(self, dia: np.ndarray, off: np.ndarray):
        super().__init__(dia, off)
        self.mats = [Hermitian3(*map(float, d), *map(Octonion, o)) for d, o in zip(dia, off)]
        self.systems = [eigensystem(A) for A in self.mats]
        fams = [[f.pairs for f in es.families] for es in self.systems]
        self.V = np.array([[[p.v.to_coords().reshape(3, 8) for p in f] for f in fs] for fs in fams])
        self.lams = np.array([[[p.lam for p in f] for f in fs] for fs in fams])

    @cached_property
    def split(self) -> tuple[np.ndarray, np.ndarray]:
        """H (n, 4, 8) and ell (n, 8) of each matrix's `quaternionic_split`."""
        H, ell = zip(*map(quaternionic_split, self.mats))
        return np.array([[h.coords for h in hb] for hb in H]), np.array([e.coords for e in ell])


def same_family(u: OctVector3, w: OctVector3, tol: float = 1e-8) -> bool:
    """Family membership predicate: u u^dagger (u u^dagger w) = (u^dagger u)(u u^dagger w).

    Defined for normalized u with a non-complex projector u u^dagger.
    """
    B = _Stack.outer(u.to_coords().reshape(1, 3, 8))
    if _classes(B.off, _alpha(B.off))[0][0] < _TAGS.index(QUATERNIONIC):
        raise ComplexProjector("u u^dagger is complex; the membership predicate is undefined")
    resid = B.membership(w.to_coords().reshape(1, 3, 8))[0]
    return bool(resid <= tol * max(w.norm(), 1e-300) * max(1.0, u.norm2()) ** 2)


def _membership_operator(v: OctVector3) -> np.ndarray:
    """24x24 matrix of w -> (vv^t)((vv^t) w) - (v^t v)(vv^t) w."""
    B = realify_rank_one(v.to_coords()[:, None])[0]
    return B @ B - v.norm2() * B


def family_dimension_probe(v: OctVector3, samples: int = 24, seed: int = 0) -> int:
    """Estimated real dimension of the family determined by v.

    Samples random vectors, projects them onto the nullspace of the
    linear membership conditions, and returns the rank of the sampled
    solution set (12 for a generic non-complex v).
    """
    null = real_nullspace(_membership_operator(v), rel_threshold=1e-7)
    if null.shape[1] == 0 or samples < 1:
        return 0
    rng = np.random.default_rng(seed)
    pts = null @ (null.T @ rng.standard_normal((24, samples)))
    s = np.linalg.svd(pts, compute_uv=False)
    return int(np.sum(s > 1e-7 * max(1.0, s[0])))
