"""Eigenvalues and orthonormal eigenbases, one per family.

The real eigenvalues solve the cubic

    lam^3 - tr(A) lam^2 + sigma(A) lam - det(A) = r

with r a root of the family quadratic, so an octonionic or quaternionic
matrix carries two 3-eigenvalue families, and a complex or real one a single
family.  `_Stack` is the one solver: stacked matrices of one class, whose attributes
compute every invariant (sigma, det, alpha, phi), the class test, the family roots
and generators, K, the family bases and the eigensystems, each on first use
(`eigensystem` is its case of one).  Each family is one eigh of A on
its invariant subspace, Q = kron(I3, B) with B from `_Stack.bases`, then the
coordinate rule, and for repeated eigenvalues a sweep that applies v v^dagger
through `_Stack.outer`.  `eigenvectors` keeps the SVD nullspace of R - lam I as
the reference path; `lambda_roots` is a cross-check of the cubic for the harness.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ComplexProjector, ComplexRoots, DegenerateFamily, ExtractionFailure,
                     NotQuaternionic)
from .hermitian import (OCTONIONIC, QUATERNIONIC, _TAGS, Hermitian3, MatrixClass, OctVector3,
                        _lazy, _vnorm, classify, det, mat_vec, real_form, sigma, trace)
from .octonion import _CONJ, _ONE, _finite, _left_mul, _norm, _product
from .subspace import (_EYE8, FamilyContext, _family_contexts, _gram_schmidt, _projector,
                       _read_only, _subalgebra, apply_blockwise, k_matrix)
from .tolerances import (ASSOCIATOR_TOL, CLUSTER_TOL, DISC_TOL, FAMILY_TOL, HORNER_EPS, NEWTON_TOL,
                         NORMALIZE_TOL, REAL_RANK_TOL, SPAN_TOL)

__all__ = [
    "EigenPair",
    "FamilyEigensystem",
    "EigenSystem",
    "lambda_roots",
    "k_vector",
    "realify24",
    "real_nullspace",
    "eigenvectors",
    "eigensystem",
    "same_family",
    "family_dimension_probe",
]

_EYE24 = np.eye(24)
_EYE3 = np.eye(3)
_E4 = np.eye(4)
# `_pick_representative`'s row order for coordinate blocks of 2, 4 and 8: 0, block, 2 * block,
# then the rest, and `_eigenpairs`' mask of the cluster edges between its 3 eigenvalues of
# multiplicity 2 or 4
_FIRST_ROWS = {k: np.argsort(np.arange(3 * k) % k != 0, stable=True) for k in (2, 4, 8)}
_EDGES = {k: np.arange(1, 3 * k) % k == 0 for k in (2, 4)}
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
        return _family_json(self.context.to_json(), [float(p.lam) for p in self.pairs],
                            [p.v.to_json() for p in self.pairs],
                            {k: float(v) for k, v in self.residuals.items()})


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
        return _eigen_json(self.matrix_class.tag, self.matrix_class.dim_t,
                           [f.to_json() for f in self.families])


def _family_json(context: dict, lams: list, vectors: list, residuals: dict) -> dict:
    """One family of the eigen report, from plain values: eigenvectors as 3x8 lists."""
    return {**context, "eigenvalues": lams, "eigenvectors": vectors, "residuals": residuals}


def _eigen_json(tag: str, dim_t: int, families: list) -> dict:
    """The eigen report's layout around its `_family_json` families."""
    return {"class": tag, "dim_t": dim_t, "single_family": len(families) == 1,
            "families": families}


def lambda_roots(A: Hermitian3, r: float) -> tuple[float, float, float]:
    """Three real roots, ascending, of lam^3 - tr lam^2 + sigma lam - (det + r) = 0.

    The unstacked case of `_lambda_roots`; raises ComplexRoots when the
    supplied r does not belong to this matrix, and ValueError when r is not finite.
    """
    r = _finite(r, "r")
    return tuple(float(x) for x in _lambda_roots(trace(A), sigma(A), det(A) + r))


def _lambda_roots(tr, sg, target) -> np.ndarray:
    """Ascending real roots (..., 3) of lam^3 - tr lam^2 + sg lam - target, stacked.

    Solved with the trigonometric method for the all-real-roots case (the
    acos argument is clamped to absorb rounding), then each root gets up to
    two Newton polish steps on the original cubic.  A discriminant below
    -DISC_TOL s^6, s the size of the roots, means the target does not belong
    to the matrix and raises ComplexRoots.
    """
    b, c, d = (np.asarray(x, dtype=float) for x in (-tr, sg, -target))
    s = np.maximum(np.abs(b), np.maximum(np.sqrt(np.abs(c)), np.abs(d) ** (1.0 / 3.0)))
    # depressed form t^3 + p t + q, lam = t - b/3
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    disc = -4.0 * p ** 3 - 27.0 * q * q
    bad = disc < -DISC_TOL * s ** 6
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
    # at a double root f' is rounding noise: a step needs f' above NEWTON_TOL s^2,
    # and is kept only if |f| grows by no more than rounding
    s, b, c, d = s[..., None], b[..., None], c[..., None], d[..., None]
    fx = ((x + b) * x + c) * x + d
    for _ in range(2):
        dfx = (3.0 * x + 2.0 * b) * x + c
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - fx / dfx
        fn = ((xn + b) * xn + c) * xn + d
        step = ((np.abs(dfx) > NEWTON_TOL * s * s)
                & (np.abs(fn) <= np.abs(fx) + HORNER_EPS * s ** 3))
        x, fx = np.where(step, xn, x), np.where(step, fn, fx)
    return np.sort(x, axis=-1)


def k_vector(A: Hermitian3, x: OctVector3) -> OctVector3:
    """Matrix characteristic operator A(A(Ax)) - tr A(Ax) + sigma Ax - det x."""
    ax = mat_vec(A, x)
    a2x = mat_vec(A, ax)
    a3x = mat_vec(A, a2x)
    return a3x - a2x.scale(trace(A)) + ax.scale(sigma(A)) - x.scale(det(A))


def realify24(A: Hermitian3) -> np.ndarray:
    """Real 24x24 matrix of x -> A x under O^3 = R^24; symmetric for Hermitian A."""
    return _read_only(A._stack.R[0])


def real_nullspace(M: np.ndarray, rel_threshold: float = REAL_RANK_TOL) -> np.ndarray:
    """Orthonormal nullspace basis (columns) by SVD with a relative rank cut (rank 0 for M = 0)."""
    rel_threshold = _finite(rel_threshold, "rel_threshold")
    _, s, vh = np.linalg.svd(M)
    rank = int(np.sum(s > rel_threshold * s[0])) if s.size else 0
    return vh[rank:].T


def _column_basis(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the column space, rank by relative SVD cut."""
    if cols.size == 0:
        return np.zeros((cols.shape[0], 0))
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, :int(np.sum(s > REAL_RANK_TOL * s[0]))]


def _pick_representative(space: np.ndarray, block: int) -> np.ndarray:
    """Deterministic unit representative from each stacked orthonormal column basis
    (..., 3 block, j), for blocks of 2, 4 or 8 coordinates.

    The first projection space @ space[idx] of norm above NORMALIZE_TOL (that of row
    idx), trying coordinates 0, block, 2*block first; the construction
    makes that coordinate positive, which fixes the sign.
    """
    rows = space.reshape((-1,) + space.shape[-2:])[:, _FIRST_ROWS[block]]
    usable = np.sqrt(np.vecdot(rows, rows)) > NORMALIZE_TOL
    if not np.logical_and.reduce(np.logical_or.reduce(usable, -1)):
        raise ExtractionFailure("could not pick a representative from the candidate subspace")
    row = rows[np.arange(len(rows)), usable.argmax(-1)]
    w = np.matvec(space, row.reshape(space.shape[:-2] + row.shape[-1:]))
    return w / np.sqrt(np.vecdot(w, w))[..., None]


def _sweep(space: np.ndarray, lam: float, multiplicity: int, Q: np.ndarray) -> list[np.ndarray]:
    """`multiplicity` representatives from an orthonormal basis of one eigenspace.

    Q (24 x dim) maps the coordinates of `space`, dim/3 per vector component,
    into O^3.  For repeated eigenvalues a Gram-Schmidt sweep subtracts the
    rank-one projection (v v^dagger) y, which is idempotent on this K
    eigenspace, applied through the 24x24 form of `_Stack.outer(v)`.
    """
    per = space.shape[1] // multiplicity
    reps = []
    for k in range(multiplicity):
        rep = _pick_representative(space, len(space) // 3)
        reps.append(rep)
        if k + 1 < multiplicity:
            B = Q.T @ _Stack.outer(Q @ rep).R[0] @ Q
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
    if multiplicity < 1:
        raise ValueError(f"multiplicity must be at least 1, got {multiplicity}")
    null = real_nullspace(realify24(A) - _finite(lam, "lam") * _EYE24)
    space = _column_basis(apply_blockwise(fam.projector(k_matrix(A)), null))
    if space.shape[1] < 4 * multiplicity:
        raise ExtractionFailure(
            f"family-{fam.m} eigenspace at lambda={lam:.6g} has dimension "
            f"{space.shape[1]}, expected {4 * multiplicity}"
        )
    return [EigenPair(lam=lam, v=OctVector3.from_coords(rep), family=fam.m)
            for rep in _sweep(space, lam, multiplicity, _EYE24)]


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
    tol = CLUSTER_TOL * np.maximum.reduce(np.abs(w), -1, keepdims=True)
    simple = np.logical_and.reduce((w[..., 1:] - w[..., :-1] > tol) == _EDGES[k], -1)
    lams = np.add.reduce(w.reshape(w.shape[:-1] + (3, k)), -1) / k
    # the coordinate rule on every family; one with a cluster is done again below
    spaces = U.reshape(U.shape[:-1] + (3, k)).swapaxes(-3, -2)
    V = np.matvec(Q[..., None, :, :], _pick_representative(spaces, k))
    if np.logical_and.reduce(simple, None):
        return lams, V
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


def _norm_scale(A: "_Stack") -> np.ndarray:
    """||A||_F (n,), the residuals' scale, and 1 for A = 0, whose residuals are exact zeros."""
    return np.where(A.frobenius > 0.0, A.frobenius, 1.0)


def _family_residuals(A: "_Stack", r: np.ndarray, lams: np.ndarray, V: np.ndarray,
                      vv: np.ndarray, keys=_RESIDUALS) -> np.ndarray:
    """The residuals `keys` (n, F, len(keys)), any of `_RESIDUALS`, of eigenpairs lams (n, F, 3),
    V (n, F, 3, 24) and their `_Stack.outers` vv of stacked matrices A with family roots
    r (n, F).  The K residual and generalized orthogonality are computed only if asked for.

    Normwise: the eigen and matrix residuals are divided by ||A||_F and the
    K residual by ||A||_F^3, so they do not change when A is scaled.
    """
    R = A.R[:, None, None]
    RV = np.matvec(R, V)
    scale = _norm_scale(A)[:, None]
    # the entries of each v v^dagger: |v_a|^2 on the diagonal, v_a conj(v_b) off it
    W = V.reshape(V.shape[:-1] + (3, 8))
    dia, off = np.vecdot(W, W), vv[..., [0, 2, 1], [1, 0, 2], :].reshape(V.shape)
    amat = _hermitian_norm(np.vecmat(lams, dia) - A.dia[:, None],
                           np.vecmat(lams, off) - A.off.reshape(-1, 1, 24))
    out = {"eigen": np.maximum.reduce(_norm(RV - lams[..., None] * V), -1) / scale,
           "identity_decomposition": _hermitian_norm(np.add.reduce(dia, -2) - 1.0,
                                                     np.add.reduce(off, -2)),
           "matrix_decomposition": amat / scale}
    if "k_eigen" in keys:
        R2V = np.matvec(R, RV)
        tr, sg, dt = (x[:, None, None, None] for x in (A.trace, A.sigma, A.det))
        KV = np.matvec(R, R2V) - tr * R2V + sg * RV - dt * V
        out["k_eigen"] = (np.maximum.reduce(_norm(KV - r[..., None, None] * V), -1)
                          / np.float_power(scale, 3))
    if "generalized_orthogonality" in keys:
        # |(v_i v_i^dagger) v_j| for every i < j, slot a the sum over b of (v_ia conj(v_ib)) v_jb
        pairs = _product(vv[..., [0, 0, 1], :, :, :], W[..., [1, 2, 2], None, :, :])
        out["generalized_orthogonality"] = np.maximum.reduce(_vnorm(np.add.reduce(pairs, -2)), -1)
    return np.concatenate([out[k][..., None] for k in keys], axis=-1)


class _Stack:
    """Stacked matrices, diagonals (n, 3) and off-diagonals (n, 3, 8), with their invariants
    and eigensystems, each computed on first use.  A caller that reads only invariants of the
    off-diagonals, of any stacked shape, may pass no diagonals.  The eigensystems are solved
    for a stack of one class, from `bases` and one `_eigenpairs` call.  nfam is 2, or 1 for
    complex and real stacks; per family (axis 1): the root r (n, nfam), slot basis B
    (n, nfam, 8, k), eigenvalues lams (n, nfam, 3), eigenvectors V (n, nfam, 3, 3, 8), their
    `outers` and `_RESIDUALS` (n, nfam, 5)."""

    def __init__(self, dia: np.ndarray, off: np.ndarray):
        self.dia, self.off = dia, off

    @classmethod
    def outer(cls, v: np.ndarray) -> "_Stack":
        """The rank-one matrices v v^dagger of vectors v (n, 3, 8)."""
        X = v.reshape(-1, 3, 8)
        # v1 conj(v2), v3 conj(v1), v2 conj(v3) from one contraction with the octonion table
        off = np.einsum("nskj,nsj->nsk", _left_mul(X[:, [0, 2, 1]]), X[:, [1, 0, 2]] * _CONJ)
        return cls(np.einsum("nsi,nsi->ns", X, X), off)

    def rows(self, lo: int, hi: int) -> "_Stack":
        """Rows lo:hi of a one-class stack, as `_masked_stack` returns it.  `_lazy` reads the
        view's `_view` and gives it this stack's invariants, sliced: the rows' own."""
        view = type(self)(self.dia[lo:hi], self.off[lo:hi])
        view._view = self, slice(lo, hi)
        return view

    @_lazy
    def L(self) -> np.ndarray:
        """The left multiplication matrices of a, b, c (n, 3, 8, 8)."""
        return _left_mul(self.off)

    @_lazy
    def alpha_phi(self) -> tuple[np.ndarray, np.ndarray]:
        """The associators [a, b, c] (n, 8) and phi (n,), from the products ab, bc and ba that
        L gives: (ab)c - a(bc), and (Re(c(ba)) - Re(a(bc))) / 2 as in `assoc3form`."""
        off, L = self.off, self.L
        a, b, c = off[..., 0, :], off[..., 1, :], off[..., 2, :]
        ba_bc = np.matvec(L[..., 1:2, :, :], off[..., ::2, :])
        ba, bc = ba_bc[..., 0, :], ba_bc[..., 1, :]
        return (_product(np.matvec(L[..., 0, :, :], b), c) - np.matvec(L[..., 0, :, :], bc),
                0.5 * (np.vecdot(c * _CONJ, ba) - np.vecdot(a * _CONJ, bc)))

    alpha = property(lambda self: self.alpha_phi[0])
    phi = property(lambda self: self.alpha_phi[1])

    @_lazy
    def associative(self) -> np.ndarray:
        """Where |alpha| <= ASSOCIATOR_TOL |a||b||c| (n,): both sides are homogeneous of degree 3,
        so the test does not depend on the matrix's scale."""
        n = _norm(self.off)
        return _norm(self.alpha) <= ASSOCIATOR_TOL * n[..., 0] * n[..., 1] * n[..., 2]

    @_lazy
    def classes(self) -> tuple[np.ndarray, np.ndarray]:
        """Each matrix's class, as an index into `_TAGS`, and dim T, both (n,): the one decision
        on the imaginary rank, which `_subalgebra` and `T` obey.  The rank counts singular values
        of the imaginary parts above SPAN_TOL times the largest, from one SVD, taken only where
        some row is `associative`.  An associative row is real, complex or quaternionic at rank
        0, 1 or more, and dim T = 1 + rank; an octonionic row has dim T = 4, since
        [a, b, c] != 0 makes 1, a, b, c independent."""
        assoc = self.associative
        if not np.logical_or.reduce(assoc, None):
            return np.full(assoc.shape, _TAGS.index(OCTONIONIC)), np.full(assoc.shape, 4)
        s = np.linalg.svd(self.off[..., 1:], compute_uv=False)
        rank = np.add.reduce(s > SPAN_TOL * s[..., :1], -1)
        return np.where(assoc, np.minimum(rank, 2), 3), np.where(assoc, 1 + rank, 4)

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
        """The family roots r1 >= r2 (n, 2) of r^2 + 4 phi r - |alpha|^2, which `bases` reads
        without the generators."""
        ph, al2 = self.phi, np.vecdot(self.alpha, self.alpha)
        # the root of sign opposite to phi does not cancel; Vieta gives the other
        far = -2.0 * ph - np.copysign(np.sqrt(4.0 * ph * ph + al2), ph)
        near = -al2 / np.where(far != 0.0, far, 1.0)   # 0 where phi = alpha = 0
        return np.stack([np.maximum(far, near), np.minimum(far, near)], -1)

    @_lazy
    def generators(self) -> np.ndarray:
        """The family generators s_m = (r_m + 4 phi + alpha) / (2 (r_m + 2 phi)) (n, 2, 8), or
        DegenerateFamily where a row is associative."""
        if np.logical_or.reduce(self.associative, None):
            raise DegenerateFamily(
                "associator vanishes: no family generators s_m; eigensystem gives r and phi alone")
        rs = self.roots
        # r_m + 4 phi = -r_other, without the cancellation of the sum
        num = -rs[..., ::-1, None] * _ONE + self.alpha[..., None, :]
        return num / (2.0 * (rs + 2.0 * self.phi[..., None]))[..., None]

    @_lazy
    def split(self) -> np.ndarray:
        """For a stack of one class, else ValueError: H (n, k, 8), the basis of `_subalgebra`,
        (1, i0) for complex and real stacks, (1, h1, h2, h1 h2) for the others."""
        return _subalgebra(self.off, _TAGS.index(self.tag))

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
            # one eigh of K, r1 > r2; a Householder reflection H of its coefficients turns each
            # basis U so that its first column is U U^T 1 / |U^T 1| = P_m 1 / |P_m 1| = s_m / |s_m|
            U = np.linalg.eigh(self.K)[1]
            U = U.reshape(U.shape[:-1] + (2, 4))[..., ::-1, :].swapaxes(-3, -2)
            c = U[..., 0, :]
            # t = +-1 with t c_0 <= 0: w = e_1 - t c / |c| does not cancel, and H e_1 = t c / |c|
            t = np.copysign(1.0, -c[..., 0])
            w = _E4[0] - c * (t / _norm(c))[..., None]
            H = _E4 - w[..., :, None] * (w / w[..., :1])[..., None, :]
            return self.roots, (U @ H) * t[..., None, None]
        Hb = self.split.swapaxes(-1, -2)
        nfam = 2 if tag == QUATERNIONIC else 1
        r, B = np.zeros((len(Hb), nfam)), np.empty((len(Hb), nfam) + Hb.shape[1:])
        B[:, 0] = Hb
        if nfam == 2:   # 0 - 4 phi: +0.0, not -0.0, at phi = 0
            r[:, 1], B[:, 1] = 0.0 - 4.0 * self.phi, _left_mul(self.ell) @ Hb
        return r, B

    r = property(lambda self: self.bases[0])
    B = property(lambda self: self.bases[1])
    nfam = property(lambda self: self.B.shape[1])

    @_lazy
    def _solved(self) -> tuple:
        """lams (n, nfam, 3) and V (n, nfam, 3, 24), as `_eigenpairs` returns them on
        Q = kron(I3, B) (n, nfam, 24, 3k): the bases B applied in each octonion slot."""
        B = self.B
        Q = _EYE3[:, None, :, None] * B[..., None, :, None, :]
        return _eigenpairs(self.R[:, None], Q.reshape(B.shape[:-2] + (24, 3 * B.shape[-1])))

    lams = property(lambda self: self._solved[0])
    V = property(lambda self: self._solved[1].reshape(self.lams.shape + (3, 8)))

    @_lazy
    def outers(self) -> np.ndarray:
        """v_a conj(v_b) (n, nfam, 3, 3, 3, 8) of each eigenvector v, the entries of v v^dagger."""
        return _product(self.V[..., :, None, :], (self.V * _CONJ)[..., None, :, :])

    @_lazy
    def residuals(self) -> np.ndarray:
        return self.residuals_of(_RESIDUALS)

    def residuals_of(self, keys) -> np.ndarray:
        """The residuals `keys` (n, nfam, len(keys)), each one of `_RESIDUALS`."""
        return _family_residuals(self, self.r, self.lams, self._solved[1], self.outers, keys)

    @_lazy
    def K(self) -> np.ndarray:
        """K (n, 8, 8): M + M^T - 2 M[0, 0] I with M = L_c L_b L_a, as L_abar L_bbar L_cbar = M^T
        and M[0, 0] = Re(c(ba)) = Re((cb)a)."""
        L = self.L
        M = L[..., 2, :, :] @ (L[..., 1, :, :] @ L[..., 0, :, :])
        return M + M.swapaxes(-1, -2) - 2.0 * M[..., :1, :1] * _EYE8

    @_lazy
    def P(self) -> np.ndarray:
        """The family projectors (n, 2, 8, 8), or DegenerateFamily where `generators` raises."""
        self.generators
        return _projector(self.K[:, None], self.roots, self.phi[:, None])

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
        """((tr A)^2 - tr(A^2)) / 2 (n,), with tr(A^2) the sum of Re(A_ij A_ji) over the 9 entries
        in row order; no hand-derived closed form.  aa = Re(a abar), aa_ = Re(abar a), and so on."""
        sq = self.dia * self.dia
        d, e, f = sq[..., 0], sq[..., 1], sq[..., 2]
        same = _product(self.off, self.off * _CONJ)[..., 0]
        swapped = _product(self.off * _CONJ, self.off)[..., 0]
        aa, bb, cc = same[..., 0], same[..., 1], same[..., 2]
        aa_, bb_, cc_ = swapped[..., 0], swapped[..., 1], swapped[..., 2]
        return 0.5 * (self.trace * self.trace - (d + aa + bb_ + aa_ + e + cc + bb + cc_ + f))

    @_lazy
    def det(self) -> np.ndarray:
        """def - d|c|^2 - e|b|^2 - f|a|^2 + 2 Re((cb)a) (n,)."""
        d, e, f = self.dia[..., 0], self.dia[..., 1], self.dia[..., 2]
        a, b, c = self.off[..., 0, :], self.off[..., 1, :], self.off[..., 2, :]
        n2 = np.vecdot(self.off, self.off)
        return (d * e * f - d * n2[..., 2] - e * n2[..., 1] - f * n2[..., 0]
                + 2.0 * _product(_product(c, b), a)[..., 0])

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


def eigensystem(A: Hermitian3) -> EigenSystem:
    """Full eigenstructure, the n = 1 case of `_Stack`: two families for octonionic
    (r-labeled) and quaternionic (plain and lifted, r = 0 and -4 phi) matrices, one, flagged
    as such, for complex and real ones."""
    S = A._stack
    families = tuple(
        FamilyEigensystem(fam, tuple(EigenPair(float(lam), OctVector3.from_coords(v), fam.m)
                                     for lam, v in zip(S.lams[0, f], S.V[0, f])),
                          dict(zip(_RESIDUALS, map(float, S.residuals[0, f]))))
        for f, fam in enumerate(_family_contexts(S)))
    return EigenSystem(matrix_class=classify(A), families=families)


def _same_family(u: np.ndarray, w: np.ndarray, tol: float = FAMILY_TOL) -> np.ndarray:
    """`same_family` of stacked vectors u, w (n, 3, 8) without its class check, by tol |u|^4 |w|."""
    resid = _Stack.outer(u).membership(w)
    return resid <= tol * _vnorm(w) * np.vecdot(u, u).sum(-1) ** 2


def _noncomplex(u: OctVector3) -> np.ndarray:
    """u's coordinates (1, 3, 8), after the class test of u u^dagger: raises ComplexProjector
    for a complex or real projector, whose membership condition holds identically."""
    u = u.to_coords().reshape(1, 3, 8)
    if _Stack.outer(u).codes[0] < _TAGS.index(QUATERNIONIC):
        raise ComplexProjector("u u^dagger is complex; the membership predicate is undefined")
    return u


def same_family(u: OctVector3, w: OctVector3, tol: float = FAMILY_TOL) -> bool:
    """Family membership predicate: u u^dagger (u u^dagger w) = (u^dagger u)(u u^dagger w).

    Defined for normalized u with a non-complex projector u u^dagger.
    """
    tol = _finite(tol, "tol")
    return bool(_same_family(_noncomplex(u), w.to_coords().reshape(1, 3, 8), tol)[0])


def _family_dimensions(v: np.ndarray, samples: int = 24) -> np.ndarray:
    """`family_dimension_probe` of each stacked vector v (n, 3, 8), without its class test: the
    nullity of the symmetric membership map R^2 - tr R, the count of its eigenvalues within
    REAL_RANK_TOL of the largest in size, from one stacked eigvalsh, capped at `samples`."""
    B = _Stack.outer(v)
    w = np.abs(np.linalg.eigvalsh(B.R @ B.R - B.trace[:, None, None] * B.R))
    return np.minimum((w <= REAL_RANK_TOL * w.max(-1, keepdims=True)).sum(-1), samples)


def family_dimension_probe(v: OctVector3, samples: int = 24, seed: int = 0) -> int:
    """Real dimension of the family determined by v, up to `samples`: the nullity, relative to
    the largest singular value, of the linear membership conditions (12 for a generic
    non-complex v).  Raises ComplexProjector, as `same_family` does, where v v^dagger is complex
    or real.  `seed` is accepted for compatibility and no longer needed: the count is exact,
    where a random probe of `samples` vectors gave the same number with probability one."""
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    return int(_family_dimensions(_noncomplex(v), samples)[0])
