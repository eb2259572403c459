"""Randomized verification harness: one named check per algebraic identity.

Every check draws its instances from a seeded PCG64 generator as whole stacks, one row
per sample, computes one scaled residual per sample with array code, and reports the
worst, so a report is reproducible bit-for-bit from (seed, samples, flags).  The 17
matrix checks draw first, then solve in groups on shared stacks of `_STACK_ROWS` rows;
the eigensystem checks share two pools whose eigensystems are one stack each.  `fuzz`
draws its (matrix, vector) samples as one block of the doubles that alternating
`random_hermitian`/`random_vector` calls would draw, and classifies them as one stack.
A masked uniform draw has its mask's class with probability one, so each sampler
draws once, class-tests the stack its checks read, and raises on another class.
"""

from dataclasses import dataclass
from functools import reduce
from inspect import isgeneratorfunction

import numpy as np

from .hermitian import (
    COMPLEX,
    OCTONIONIC,
    QUATERNIONIC,
    REAL,
    _TAGS,
    Hermitian3,
    OctVector3,
    _lazy,
    _vnorm,
)
from .octonion import _CONJ, _ONE, _finite, _left_mul, _norm, _product, Octonion
from .projection import _six_way
from .spectral import _RESIDUALS, _Stack, _family_dimensions, _lambda_roots, _same_family
from .subspace import _basis_change_deviation, _cd_residuals, _gram_schmidt, _span_distance
from .tolerances import ALGEBRA_FACTOR, DEFAULT_TOLERANCE, NORMALIZE_TOL

__all__ = [
    "CheckResult",
    "DEFAULT_TOLERANCE",
    "random_octonion",
    "random_vector",
    "random_hermitian",
    "run_verification",
    "run_fuzz",
    "FUZZ_CLASSES",
]

# tolerance factors other than 1; the two counting checks must count 0
_FACTORS = {**dict.fromkeys(("composition-norm", "alternativity", "conjugation-antihomomorphism",
                             "inner-product-coincidence", "trace-form-associativity",
                             "left-mul-isometry"), ALGEBRA_FACTOR),
            "same-family-reject": 0.0, "family-dimension": 0.0}

_COORD_MASKS = {
    OCTONIONIC: None,
    QUATERNIONIC: (0, 1, 2, 4),
    COMPLEX: (0, 1),
    REAL: (0,),
}
FUZZ_CLASSES = tuple(_COORD_MASKS)
# the family residuals fuzz reports, by check name: not the K residual or orthogonality
_FUZZ_RESIDUALS = {"eigen-equation": "eigen", "identity-decomposition": "identity_decomposition",
                   "matrix-decomposition": "matrix_decomposition"}


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
        }


def random_octonion(rng, mask=None) -> Octonion:
    c = rng.uniform(-1.0, 1.0, 8)
    return Octonion(c if mask is None else c * np.bincount(mask, minlength=8))


def random_vector(rng, mask=None) -> OctVector3:
    return OctVector3(tuple(random_octonion(rng, mask) for _ in range(3)))


def random_hermitian(rng, kind: str = OCTONIONIC) -> Hermitian3:
    """Random matrix of the requested class, entries uniform in [-1, 1], whose `_stack` is the
    stack its class was tested on; raises if masking the coordinates gave another class."""
    A = _draw_stack(rng, 1, _check_kind(kind))
    H = Hermitian3(*A.dia[0], *map(Octonion, A.off[0]))
    object.__setattr__(H, "_stack", A)
    return H


def _masked_stack(kind: str, dia: np.ndarray, off: np.ndarray) -> _Stack:
    """Drawn matrices as one stack, off-diagonals masked in place to class `kind`, after its
    one class test, whose associators the checks and pools read: another class raises."""
    mask = _COORD_MASKS[kind]
    if mask is not None:
        off *= np.bincount(mask, minlength=8)
    A = _Stack(dia, off)
    if (A.codes != _TAGS.index(kind)).any():
        raise RuntimeError(f"failed to sample a {kind} matrix")
    return A


def _draw_stack(rng, n: int, kind: str) -> _Stack:
    """n random matrices of class `kind`, diagonals (n, 3) drawn before off-diagonals (n, 3, 8)."""
    return _masked_stack(kind, rng.uniform(-1.0, 1.0, (n, 3)), rng.uniform(-1.0, 1.0, (n, 3, 8)))


# doubles per fuzz sample: a matrix (3 diagonal, then a, b, c) and a vector
_MATRIX, _SAMPLE = 27, 51


def _draw_fuzz(rng, n: int, kind: str) -> tuple[_Stack, np.ndarray]:
    """n fuzz samples as one `_Stack` and vectors (n, 24): the doubles of n alternating
    `random_hermitian(rng, kind)` and `random_vector(rng)` calls, drawn as one (n, 51) block."""
    rows = rng.uniform(-1.0, 1.0, (n, _SAMPLE))
    # contiguous copies, so the stacked kernels see the layout of freshly built arrays
    A = _masked_stack(kind, rows[:, :3].copy(), rows[:, 3:_MATRIX].reshape(n, 3, 8).copy())
    return A, rows[:, _MATRIX:].copy()


def _check_kind(kind: str) -> str:
    if kind not in _COORD_MASKS:
        raise ValueError(f"unknown matrix class {kind!r}; choose from {FUZZ_CLASSES}")
    return kind


def _check_tolerance(tolerance: float):
    if _finite(tolerance, "tolerance") <= 0.0:
        raise ValueError(f"tolerance: must be > 0, got {tolerance!r}")


def _check_samples(samples: int) -> int:
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    return samples


def _scale(*terms):
    """max(1, terms...) per sample: the checks' residual scales."""
    return reduce(np.maximum, terms, 1.0)


def _pool_residual(key: str):
    """Check reading the `key` residual of the octonionic pool's eigensystems, per family."""
    return lambda ctx: ctx.oct_pool.residuals[..., _RESIDUALS.index(key)]


class _Checks:
    """The run's generator, flags and draws, the pools that the eigensystem checks share, and
    the checks, in report order: each public attribute but `_TOOLS` is one check, named by its
    name with '-' for '_', and returns its residual per sample.  A matrix check is a generator:
    it makes its own draws, takes its matrices at `A = yield`, then yields the residual."""

    def __init__(self, seed: int, samples: int, det_offset: float = 0.0):
        self.rng = np.random.default_rng(seed)
        self.n = _check_samples(samples)
        self.rows = np.arange(self.n)
        self.det_offset = det_offset

    def uniform(self, *shape, n=None) -> np.ndarray:
        """n fresh samples (default: the run's count) of the given shape, uniform in [-1, 1]."""
        return self.rng.uniform(-1.0, 1.0, (n or self.n,) + shape)

    def family(self) -> tuple:
        """Each pool matrix's projector, eigenvectors and eigenvalues for a random family."""
        pool, fam = self.oct_pool, self.rng.integers(0, 2, self.n)
        return pool.P[self.rows, fam], pool.V[self.rows, fam], pool.lams[self.rows, fam]

    def project(self, P: np.ndarray, *shape) -> np.ndarray:
        """Fresh octonions (n, 8) or vectors (n, 3, 8) mapped by P (n, 8, 8) slotwise."""
        x = self.uniform(*shape, 8)
        return np.matvec(P if x.ndim == 2 else P[:, None], x)

    @_lazy
    def oct_pool(self) -> _Stack:
        return _draw_stack(np.random.default_rng(self.rng.integers(2 ** 63)), self.n, OCTONIONIC)

    @_lazy
    def quat_pool(self) -> _Stack:
        return _draw_stack(np.random.default_rng(self.rng.integers(2 ** 63)), max(1, self.n // 4),
                           QUATERNIONIC)

    def composition_norm(self):
        p, q = self.uniform(8), self.uniform(8)
        pq = _norm(p) * _norm(q)
        return np.abs(_norm(_product(p, q)) - pq) / np.where(pq > 0.0, pq, 1.0)

    def alternativity(self):
        p, q = self.uniform(8), self.uniform(8)
        np_, nq, pq = _norm(p), _norm(q), _product(p, q)
        # the associators (pp)q - p(pq) and (pq)q - p(qq)
        left, right = (_product(_product(p, p), q) - _product(p, pq),
                       _product(pq, q) - _product(p, _product(q, q)))
        return np.maximum(_norm(left), _norm(right)) / _scale(np_ ** 2 * nq, np_ * nq ** 2)

    def conjugation_antihomomorphism(self):
        e, p, q = np.eye(8), self.uniform(8), self.uniform(8)
        units, drawn = (_norm(_product(a, b) * _CONJ - _product(b * _CONJ, a * _CONJ))
                        for a, b in ((e[:, None], e[None, 1:]), (p, q)))
        return np.maximum(units.max(), drawn / _scale(_norm(p) * _norm(q)))

    def inner_product_coincidence(self):
        p, q = self.uniform(8), self.uniform(8)
        pc, qc = p * _CONJ, q * _CONJ
        form = 0.5 * (_product(p, qc) + _product(q, pc))[:, 0]
        form2 = 0.5 * (_product(pc, q) + _product(qc, p))[:, 0]
        ip = np.vecdot(p, q)
        return np.maximum(np.abs(form - ip), np.abs(form2 - ip)) / _scale(_norm(p) * _norm(q))

    def trace_form_associativity(self):
        x, y, z = self.uniform(8), self.uniform(8), self.uniform(8)
        return (np.abs(_product(_product(x, y), z)[:, 0] - _product(x, _product(y, z))[:, 0])
                / _scale(_norm(x) * _norm(y) * _norm(z)))

    def left_mul_isometry(self):
        q = self.uniform(8)
        L, n2 = _left_mul(q), np.vecdot(q, q)
        gram = L.swapaxes(-1, -2) @ L - n2[:, None, None] * np.eye(8)
        return np.abs(gram).max((-2, -1)) / _scale(n2)

    def sigma_closed_form(self):
        A = yield
        (d, e, f), n2 = A.dia.T, np.vecdot(A.off, A.off).T
        closed = d * e + e * f + f * d - n2[0] - n2[1] - n2[2]
        yield np.abs(A.sigma - closed) / _scale(np.abs(closed))

    def k_diagonality(self):
        x, A = self.uniform(3, 8), (yield)
        diff = A.k_act(x, self.det_offset) - np.matvec(A.K[:, None], x)
        yield _norm(diff) / (_scale(A.frobenius) ** 3 * _scale(_vnorm(x)))[:, None]

    def r_root_relations(self):
        A = yield
        (r1, r2), al2 = A.roots.T, np.vecdot(A.alpha, A.alpha)
        yield (np.maximum(np.abs(r1 + r2 + 4.0 * A.phi), np.abs(r1 * r2 + al2))
               / _scale(np.abs(r1), np.abs(r2), al2))

    def lambda_root_relations(self):
        A = yield
        tr, target = A.trace[:, None], A.det[:, None] + A.roots
        lams = _lambda_roots(tr, A.sigma[:, None], target)
        scale = _scale(np.abs(tr), np.abs(target), np.abs(lams).max(-1) ** 3)
        yield np.maximum(np.abs(lams.sum(-1) - tr), np.abs(lams.prod(-1) - target)) / scale

    def s_normalization(self):
        A = yield
        ph, al, rs, (s1, s2) = A.phi, A.alpha, A.roots, A.generators.swapaxes(0, 1)
        cross = _product(s1 * _CONJ, s2)
        coef = np.vecdot(cross, al) / np.vecdot(al, al)
        yield np.maximum.reduce([
            _norm(s1 + s2 - _ONE),
            _norm(s1 - s1 * _ONE - al / (2.0 * (rs[:, 0] + 2.0 * ph))[:, None]),  # Im s1
            _norm(cross - al * coef[:, None]) / _scale(_norm(cross))])

    def k_on_t(self):
        c, A = self.uniform(4), (yield)
        al, t = A.alpha, np.vecmat(c, A.T)   # a random element of each matrix's T
        yield _norm(np.matvec(A.K, t) - _product(t, al)) / _scale(_norm(t) * _norm(al))

    def k_on_t_perp(self):
        c, A = self.uniform(4), (yield)
        ph, al = A.phi, A.alpha
        u = _product(np.vecmat(c, A.T), al)
        rhs = -1.0 * _product(u, al + (4.0 * ph)[:, None] * _ONE)
        scale = _scale(_norm(u) * _norm(al), _norm(u) * np.abs(4 * ph))
        yield _norm(np.matvec(A.K, u) - rhs) / scale

    def k_operator_quadratic(self):
        p, A = self.uniform(8), (yield)
        ph, al = A.phi, A.alpha
        al2, kp = np.vecdot(al, al), np.matvec(A.K, p)
        resid = np.matvec(A.K, kp) + kp * (4.0 * ph)[:, None] - p * al2[:, None]
        yield _norm(resid) / _scale(al2 * _norm(p))

    def k_self_adjoint(self):
        p, q, A = self.uniform(8), self.uniform(8), (yield)
        yield (np.abs(np.vecdot(np.matvec(A.K, p), q) - np.vecdot(p, np.matvec(A.K, q)))
               / _scale(A.frobenius ** 3 * _norm(p) * _norm(q)))

    def k_projector_algebra(self):
        p, A = self.uniform(8), (yield)
        k = np.matvec(A.P, p[:, None])                  # k_m = P_m p
        Pk = np.matvec(A.P[:, :, None], k[:, None])     # P_m k_j at [m, j]
        yield np.maximum.reduce([
            _norm(k[:, 0] + k[:, 1] - p),
            _norm(Pk[:, [0, 1], [0, 1]] - k).max(-1),
            _norm(Pk[:, [0, 1], [1, 0]]).max(-1)]) / _scale(_norm(p))

    def cayley_dickson_table(self):
        c1, c2, A = self.uniform(4), self.uniform(4), (yield)
        t1, t2, al = np.vecmat(c1, A.T), np.vecmat(c2, A.T), A.alpha
        yield _cd_residuals(al, t1, t2).max(-1) / _scale(_norm(t1) * _norm(t2) * np.vecdot(al, al))

    def t_perp_is_t_alpha(self):
        A = yield
        ta, keep = _gram_schmidt(_product(A.T, A.alpha[:, None]))
        yield np.where(keep.all(-1), np.abs(A.T @ ta.swapaxes(-1, -2)).max((-2, -1)), np.inf)

    def t2_is_t1_alpha(self):
        A = yield
        al, s = A.alpha, A.generators
        # both families' bases T s_m in one call, along axis 1
        basis = _gram_schmidt(_product(A.T[:, None], s[:, :, None]))[0]
        lifted = _gram_schmidt(_product(basis[:, 0], al[:, None]))[0]
        proj2, projl = (B.swapaxes(-1, -2) @ B for B in (basis[:, 1], lifted))
        yield np.abs(proj2 - projl).max((-2, -1))

    def eigenspace_characterization(self):
        c, x, A = self.uniform(2, 4), self.uniform(2, 8), (yield)
        ph, al, rs = A.phi, A.alpha, A.roots
        # per family m, along axis 1: gen = r_m + 4 phi + alpha, and T gen
        gen = (rs + 4.0 * ph[:, None])[..., None] * _ONE + al[:, None]
        q = _product(np.vecmat(c, A.T[:, None]), gen)
        qm = np.matvec(A.P, x)
        span = _gram_schmidt(_product(A.T[:, None], gen[:, :, None]))[0]
        yield np.maximum(
            _norm(np.matvec(A.K[:, None], q) - q * rs[..., None]) / _scale(np.abs(rs) * _norm(q)),
            _span_distance(qm, span) / _scale(_norm(qm))).max(-1)

    def family_product_in_t(self):
        x, y, A = self.uniform(2, 8), self.uniform(2, 8), (yield)
        p, q = np.matvec(A.P, x), np.matvec(A.P, y)
        yield (_span_distance(_product(p, q * _CONJ), A.T[:, None])
               / _scale(_norm(p) * _norm(q))).max(-1)

    def family_associator_multiplier(self):
        c1, c2 = self.uniform(4), self.uniform(4)
        xa, xb, A = self.uniform(2, 8), self.uniform(2, 8), (yield)
        p1, p2 = np.vecmat(c1, A.T)[:, None], np.vecmat(c2, A.T)[:, None]
        qa, qb = np.matvec(A.P, xa), np.matvec(A.P, xb)
        p12 = _product(p1, p2)
        # the associator (p1 p2) q - p1 (p2 q) times q^-1
        pa, pb = (_product(_product(p12, q) - _product(p1, _product(p2, q)),
                           q * _CONJ / np.vecdot(q, q)[..., None]) for q in (qa, qb))
        usable = (_norm(qa) >= NORMALIZE_TOL) & (_norm(qb) >= NORMALIZE_TOL)
        yield (np.where(usable, _norm(pa - pb), 0.0) / _scale(_norm(p1) * _norm(p2))).max(-1)

    def basis_invariance(self):
        M = self.uniform(3, 3)
        while (bad := np.abs(np.linalg.det(M)) <= 0.05).any():
            M[bad] = self.uniform(3, 3, n=bad.sum())
        shifts, A = self.uniform(3), (yield)
        yield _basis_change_deviation(A, M, shifts)

    identity_decomposition = _pool_residual("identity_decomposition")
    matrix_decomposition = _pool_residual("matrix_decomposition")
    eigen_equation = _pool_residual("eigen")
    k_eigen_equation = _pool_residual("k_eigen")
    generalized_orthogonality = _pool_residual("generalized_orthogonality")

    def eigen_projection_idempotence(self):
        P, V, _ = self.family()
        v, y = V[np.arange(self.n), self.rng.integers(0, 3, self.n)], self.project(P, 3)
        return _Stack.outer(v).membership(y)[1] / _scale(_vnorm(y))

    def general_projection_idempotence(self):
        P = self.family()[0]
        y, z = self.project(P, 3), self.project(P, 3)
        return _Stack.outer(y).membership(z)[1] / _scale(np.vecdot(y, y).sum(-1) ** 2 * _vnorm(z))

    def restricted_projector_orthogonality(self):
        P, V, _ = self.family()
        u, v, y = _Stack.outer(V[:, 0]), _Stack.outer(V[:, 1]), self.project(P, 3)
        return _vnorm(u.act(v.act(y))) / _scale(_vnorm(y))

    def projection_eigen_invariance(self):
        (P, V, lams), pool = self.family(), self.oct_pool
        pair = np.arange(self.n), self.rng.integers(0, 3, self.n)
        v, lam, y = V[pair], lams[pair], self.project(P, 3)
        py = _Stack.outer(v).act(y)
        return _vnorm(pool.act(py) - py * lam[:, None, None]) / _scale(pool.frobenius * _vnorm(y))

    def vector_self_associator(self):
        v = self.uniform(3, 8)
        resid = _Stack.outer(v).act(v) - v * np.vecdot(v, v).sum(-1)[:, None, None]
        return _vnorm(resid) / _scale(_vnorm(v) ** 3)

    def family_r_relation(self):
        V, lams = self.family()[1], self.rng.uniform(-2.0, 2.0, (self.n, 3))
        # B = sum_k lam_k v_k v_k^dagger
        parts = _Stack.outer(V)
        B = _Stack(np.vecmat(lams, parts.dia.reshape(-1, 3, 3)),
                   np.vecmat(lams, parts.off.reshape(-1, 3, 24)).reshape(-1, 3, 8))
        r = (lams.prod(-1) - B.det)[:, None, None]
        resid = np.maximum.reduce([_vnorm(B.k_act(V[:, k]) - V[:, k] * r) for k in range(3)])
        return resid / _scale(B.frobenius) ** 3

    def rank_one_invariants(self):
        v = self.project(self.family()[0], 3)
        n = _vnorm(v)
        v = v * (1.0 / np.where(n >= NORMALIZE_TOL, n, 1.0))[:, None, None]
        B = _Stack.outer(v)
        resid = np.maximum.reduce([np.abs(B.trace - 1.0), np.abs(B.sigma),
                                   _vnorm(B.k_act(v) + v * B.det[:, None, None])])
        return np.where(n >= NORMALIZE_TOL, resid, 0.0)

    def outer_entry_identities(self):
        y = self.project(self.family()[0], 3)
        B, n = _Stack.outer(y), _vnorm(y)
        # B's a, b, c are y1 conj(y2), y3 conj(y1), y2 conj(y3), with norms d1 d2, d3 d1, d2 d3
        entries = _norm(B.off - _product(y[:, [0, 2, 1]], y[:, [1, 0, 2]] * _CONJ)).max(-1)
        norms = np.abs(np.vecdot(B.off, B.off) - B.dia[:, [0, 2, 1]] * B.dia[:, [1, 0, 2]]).max(-1)
        return np.maximum(entries / _scale(n ** 2), norms / _scale(n ** 4))

    def family_triple_contraction(self):
        P = self.family()[0]
        y, q = self.project(P, 3), self.project(P)
        B, qs = _Stack.outer(y), q[:, None]
        t = B.off[:, [2, 1, 0]]                     # t1 = c, t2 = b, t3 = a
        tc = t * _CONJ
        # for each cyclic (i, j, k): t_j (t_k q) = (conj(t_i) q) d_i and
        # conj(t_i)(conj(t_k) q) = (t_j q) d_j
        first = (_product(t[:, [1, 2, 0]], _product(t[:, [2, 0, 1]], qs))
                 - _product(tc, qs) * B.dia[..., None])
        second = (_product(tc, _product(tc[:, [2, 0, 1]], qs))
                  - _product(t[:, [1, 2, 0]], qs) * B.dia[:, [1, 2, 0], None])
        return (np.maximum(_norm(first), _norm(second)).max(-1)
                / _scale(_vnorm(y) ** 4 * _norm(q)))

    # the eigen projection identity again, on fresh draws
    same_family_accept = eigen_projection_idempotence

    def same_family_reject(self):
        pool = self.oct_pool
        i, j = self.rng.integers(0, 3, (2, self.n))
        u, w = pool.V[self.rows, 0, i], pool.V[self.rows, 1, j]
        return float(_same_family(u, w)[0].sum() + (~_same_family(u, u)[0]).sum())

    def family_dimension(self):
        V = self.oct_pool.V[:8]
        v = V[np.arange(len(V)), self.rng.integers(0, 2, len(V)), 0]
        return np.abs(_family_dimensions(_Stack.outer(v)) - 12)

    def quaternionic_lift(self):
        pool = self.quat_pool
        H, ell, conj_pool = pool.split, pool.ell, _Stack(pool.dia, pool.off * _CONJ)
        v, ell = self.uniform(3, 4, n=len(H)) @ H, ell[:, None]
        # A (ell v) = ell (Abar v) for quaternionic v
        lift = (_vnorm(pool.act(_product(ell, v)) - _product(ell, conj_pool.act(v)))
                / _scale(pool.frobenius * _vnorm(v)))
        # the spectrum over O is the union of both quaternionic spectra, from one cubic on
        # (trace, sigma, det) of A and Abar, each stacked as (n, 2)
        coefs = np.stack([(M.trace, M.sigma, M.det) for M in (pool, conj_pool)], -1)
        spectra = _lambda_roots(*coefs)
        gap = np.abs(np.sort(pool.lams, axis=-1) - spectra).max((-2, -1))
        return np.maximum(lift, gap / _scale(pool.frobenius))

    def quaternionic_split_orthogonality(self):
        H, ell = self.quat_pool.split, self.quat_pool.ell
        return np.maximum.reduce([
            _norm(_product(ell, ell) + _ONE),
            np.abs(np.vecdot(ell[:, None], H)).max(-1),
            np.abs(_product(ell[:, None], H) @ H.swapaxes(-1, -2)).max((-2, -1))])

    def quaternionic_six_way(self):
        pool = self.quat_pool
        H, x = pool.split, self.uniform(3, 8, n=len(pool.dia))
        parts, residuals, recon = _six_way(pool, x.reshape(-1, 24))
        own = np.maximum(recon, residuals.max((-2, -1)))
        # family-1 parts agree with the plain quaternionic expansion v (v^dagger x1)
        x1, v = np.matvec((H.swapaxes(-1, -2) @ H)[:, None], x)[:, None], pool.V[:, 0]
        classic = _product(v, _product(v * _CONJ, x1).sum(-2)[:, :, None])
        return np.maximum(own, _vnorm(classic - parts[:, 0].reshape(-1, 3, 3, 8)).max(-1)
                          / _scale(_vnorm(x)))

    def six_way_reconstruction(self):
        return np.where(self.oct_pool.nfam == 2, self._six_ways()[2], np.inf)

    def six_way_eigen_residuals(self):
        return self._six_ways()[1]

    def _six_ways(self):
        return _six_way(self.oct_pool, self.uniform(3, 8).reshape(-1, 24))


# the public attributes of `_Checks` that are not checks
_TOOLS = ("uniform", "family", "project", "oct_pool", "quat_pool")
_CHECKS = tuple((name, fn, _FACTORS.get(name, 1.0)) for name, fn in (
    (attr.replace("_", "-"), fn) for attr, fn in vars(_Checks).items()
    if not attr.startswith("_") and attr not in _TOOLS))
# the matrix checks, which are the generator functions among the checks, decided at import
_MATRIX_CHECKS = frozenset(fn for _, fn, _ in _CHECKS if isgeneratorfunction(fn))


# the most rows of a shared stack: one stack of all 17 matrix checks is slower at n = 100
_STACK_ROWS = 64


def _residuals(ctx: _Checks, checks) -> list:
    """The residuals of `checks`, `_Checks` functions, run in order on ctx.  A matrix check's n
    matrices are drawn as `_draw_stack` draws them, then its own draws run; m consecutive ones,
    out[-m:], share a class-tested stack of `_STACK_ROWS` rows at most (or n), each fed its rows."""
    out, group = [], []
    for fn in (*checks, None):   # None: the end, where the last group is solved
        primed = fn in _MATRIX_CHECKS
        if group and not (primed and (len(group) + 1) * ctx.n <= _STACK_ROWS):
            A, m = _masked_stack(OCTONIONIC, *map(np.concatenate, zip(*group))), len(group)
            out[-m:] = [g.send(A.rows(k * ctx.n, (k + 1) * ctx.n)) for k, g in enumerate(out[-m:])]
            group.clear()
        if fn is not None:
            out.append(fn(ctx))
        if primed:
            group.append((ctx.uniform(3), ctx.uniform(3, 8)))
            next(out[-1])
    return out


def run_verification(seed: int, samples: int, tolerance: float = DEFAULT_TOLERANCE,
                     det_offset: float = 0.0) -> list[CheckResult]:
    """Run every identity check on `samples` seeded random instances."""
    _check_tolerance(tolerance)
    _finite(det_offset, "det_offset")
    ctx = _Checks(seed, samples, det_offset=det_offset)
    results = []
    for (name, _, factor), res in zip(_CHECKS, _residuals(ctx, [fn for _, fn, _ in _CHECKS])):
        residual, tol = float(np.asarray(res).max()), tolerance * factor
        results.append(CheckResult(name, residual, tol, residual <= tol))
    return results


def run_fuzz(seed: int, samples: int, kind: str = OCTONIONIC,
             tolerance: float = DEFAULT_TOLERANCE) -> list[CheckResult]:
    """End-to-end eigensystem plus projection on random matrices of one class."""
    _check_kind(kind)
    _check_samples(samples)
    _check_tolerance(tolerance)
    pool, x = _draw_fuzz(np.random.default_rng(seed), samples, kind)
    _, residuals, recon = _six_way(pool, x)
    worst = dict(zip(_FUZZ_RESIDUALS, pool.residuals_of(_FUZZ_RESIDUALS.values()).max((0, 1))))
    worst["six-way-reconstruction"], worst["six-way-eigen-residuals"] = recon.max(), residuals.max()
    return [CheckResult(name=k, residual=float(v), tolerance=tolerance, passed=bool(v <= tolerance))
            for k, v in worst.items()]
