"""Randomized verification harness: one named check per algebraic identity.

Every check draws its instances from a seeded PCG64 generator as whole stacks,
one row per sample, computes one scaled residual per sample with array code,
and reports the worst, so a report is reproducible bit-for-bit from (seed,
samples, flags).  The eigensystem checks share two pools of matrices whose
eigensystems and six-way splits are computed as one stack each.  `fuzz` draws
all its (matrix, vector) samples as one block of the doubles that alternating
`random_hermitian`/`random_vector` calls would draw, classifies them as one
stack, and redraws from the first matrix of another class on.
"""

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .hermitian import (
    COMPLEX,
    OCTONIONIC,
    QUATERNIONIC,
    REAL,
    _TAGS,
    Hermitian3,
    OctVector3,
    _alpha,
    _associative,
    _classes,
    _vnorm,
)
from .octonion import _ONE, _norm, Octonion, associator, conj, inner, left_mul_matrix, mul
from .projection import _six_way
from .spectral import _RESIDUALS, _Systems, _family_dimensions, _lambda_roots, _same_family
from .subspace import _basis_change_deviation, _cd_residuals, _gram_schmidt, _span_distance, _Stack

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

DEFAULT_TOLERANCE = 1e-8
# tolerance factors other than 1: the core algebra identities are a few floating
# ops, so they get four extra digits, and the two counting checks must count 0
_FACTORS = {**dict.fromkeys(("composition-norm", "alternativity", "conjugation-antihomomorphism",
                             "inner-product-coincidence", "trace-form-associativity",
                             "left-mul-isometry"), 1e-4),
            "same-family-reject": 0.0, "family-dimension": 0.0}

_COORD_MASKS = {
    OCTONIONIC: None,
    QUATERNIONIC: (0, 1, 2, 4),
    COMPLEX: (0, 1),
    REAL: (0,),
}
FUZZ_CLASSES = tuple(_COORD_MASKS)


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
    """Random matrix of the requested class; entries uniform in [-1, 1]."""
    (d, e, f), (a, b, c) = (x[0] for x in _draw_hermitian(rng, 1, kind))
    return Hermitian3(d, e, f, Octonion(a), Octonion(b), Octonion(c))


def _rejected(off: np.ndarray, code: int) -> np.ndarray:
    """Where off-diagonals (..., 3, 8) are not of class `code`, an index into _TAGS: the
    same decision as `_classes(off, alpha)[0] != code`.  Code 3, octonionic, is decided
    by the associator alone, so only the lower classes pay for the rank SVD."""
    al = _alpha(off)
    if code == _TAGS.index(OCTONIONIC):
        return _associative(off, al)
    return _classes(off, al)[0] != code


def _draw_hermitian(rng, n: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals (n, 3) and off-diagonals (n, 3, 8) of n random matrices of class
    `kind`; as in `random_hermitian`, a draw of another class is drawn again."""
    mask, code = _COORD_MASKS[kind], _TAGS.index(kind)
    keep = 1.0 if mask is None else np.bincount(mask, minlength=8)
    dia, off = np.empty((n, 3)), np.empty((n, 3, 8))
    todo = np.arange(n)
    for _ in range(100):
        dia[todo] = rng.uniform(-1.0, 1.0, (todo.size, 3))
        off[todo] = rng.uniform(-1.0, 1.0, (todo.size, 3, 8)) * keep
        todo = todo[_rejected(off[todo], code)]
        if not todo.size:
            return dia, off
    raise RuntimeError(f"failed to sample a {kind} matrix")


# doubles per fuzz sample: a matrix (3 diagonal, then a, b, c) and a vector
_MATRIX, _SAMPLE = 27, 51


def _draw_samples(rng, n: int, kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals (n, 3), off-diagonals (n, 3, 8) and vectors (n, 24) of n fuzz samples:
    the doubles of n alternating `random_hermitian(rng, kind)` and `random_vector(rng)`
    calls, drawn as one (n, 51) block and classified as one stack.

    At the first row j whose matrix is of another class, rows < j are kept, the
    generator is put back to its state before the block and replays j * 51 + 27
    doubles, which redraws that matrix as `random_hermitian` does, and the rows
    from j on are drawn again; 100 draws of one matrix fail as there.
    """
    mask, code = _COORD_MASKS[kind], _TAGS.index(kind)
    keep = 1.0 if mask is None else np.tile(np.bincount(mask, minlength=8), 3)
    rows = np.empty((n, _SAMPLE))
    done, tries = 0, 0
    while True:
        state = rng.bit_generator.state
        block = rows[done:]
        block[:] = rng.uniform(-1.0, 1.0, block.shape)
        block[:, 3:_MATRIX] *= keep
        bad = np.flatnonzero(_rejected(block[:, 3:_MATRIX].reshape(-1, 3, 8), code))
        if not bad.size:
            break
        j = int(bad[0])
        tries = tries + 1 if j == 0 else 1
        if tries == 100:
            raise RuntimeError(f"failed to sample a {kind} matrix")
        done += j
        rng.bit_generator.state = state
        rng.random(j * _SAMPLE + _MATRIX)
    # contiguous copies, so the stacked kernels see the layout of freshly built arrays
    return (rows[:, :3].copy(), rows[:, 3:_MATRIX].reshape(n, 3, 8).copy(),
            rows[:, _MATRIX:].copy())


def _check_samples(samples: int) -> int:
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    return samples


class _Context:
    """The run's generator and flags, and the pools shared by the eigensystem checks."""

    def __init__(self, seed: int, samples: int, det_offset: float = 0.0):
        self.rng = np.random.default_rng(seed)
        self.n = _check_samples(samples)
        self.det_offset = det_offset

    def uniform(self, *shape, n=None) -> np.ndarray:
        """n fresh samples (default: the run's count) of the given shape, uniform in [-1, 1]."""
        return self.rng.uniform(-1.0, 1.0, (n or self.n,) + shape)

    def matrices(self) -> _Stack:
        return _Stack(*_draw_hermitian(self.rng, self.n, OCTONIONIC))

    def t_element(self, A: _Stack) -> np.ndarray:
        """A random element of each matrix's T: uniform coefficients on its basis rows."""
        return np.vecmat(self.uniform(4), A.T)

    def family(self) -> tuple:
        """Each pool matrix's projector, eigenvectors and eigenvalues for a random family."""
        pool, fam = self.oct_pool, self.rng.integers(0, 2, self.n)
        return pool.P[pool.rows, fam], pool.V[pool.rows, fam], pool.lams[pool.rows, fam]

    def project(self, P: np.ndarray, *shape) -> np.ndarray:
        """Fresh octonions (n, 8) or vectors (n, 3, 8) mapped by P (n, 8, 8) slotwise."""
        x = self.uniform(*shape, 8)
        return np.matvec(P if x.ndim == 2 else P[:, None], x)

    @cached_property
    def oct_pool(self) -> _Systems:
        return _Systems(*_draw_hermitian(np.random.default_rng(self.rng.integers(2 ** 63)),
                                         self.n, OCTONIONIC))

    @cached_property
    def quat_pool(self) -> _Systems:
        return _Systems(*_draw_hermitian(np.random.default_rng(self.rng.integers(2 ** 63)),
                                         max(1, self.n // 4), QUATERNIONIC))


def _scale(*terms):
    """max(1, terms...) per sample: the checks' residual scales."""
    return reduce(np.maximum, terms, 1.0)


def _pool_residual(key: str):
    """Check reading the `key` residual of the octonionic pool's eigensystems, per family."""
    return lambda ctx: ctx.oct_pool.residuals[..., _RESIDUALS.index(key)]


class _Checks(_Context):
    """The checks, in report order: each public attribute is one check, named
    by its name with '-' for '_', and returns its residual per sample."""

    def composition_norm(self):
        p, q = self.uniform(8), self.uniform(8)
        pq = _norm(p) * _norm(q)
        return np.abs(_norm(mul(p, q)) - pq) / np.maximum(1e-300, pq)

    def alternativity(self):
        p, q = self.uniform(8), self.uniform(8)
        np_, nq = _norm(p), _norm(q)
        return (np.maximum(_norm(associator(p, p, q)), _norm(associator(p, q, q)))
                / _scale(np_ ** 2 * nq, np_ * nq ** 2))

    def conjugation_antihomomorphism(self):
        e, p, q = np.eye(8), self.uniform(8), self.uniform(8)
        units, drawn = (_norm(conj(mul(a, b)) - mul(conj(b), conj(a)))
                        for a, b in ((e[:, None], e[None, 1:]), (p, q)))
        return np.maximum(units.max(), drawn / _scale(_norm(p) * _norm(q)))

    def inner_product_coincidence(self):
        p, q = self.uniform(8), self.uniform(8)
        form = 0.5 * (mul(p, conj(q)) + mul(q, conj(p)))[:, 0]
        form2 = 0.5 * (mul(conj(p), q) + mul(conj(q), p))[:, 0]
        ip = inner(p, q)
        return np.maximum(np.abs(form - ip), np.abs(form2 - ip)) / _scale(_norm(p) * _norm(q))

    def trace_form_associativity(self):
        x, y, z = self.uniform(8), self.uniform(8), self.uniform(8)
        return (np.abs(mul(mul(x, y), z)[:, 0] - mul(x, mul(y, z))[:, 0])
                / _scale(_norm(x) * _norm(y) * _norm(z)))

    def left_mul_isometry(self):
        q = self.uniform(8)
        L, n2 = left_mul_matrix(q), inner(q, q)
        gram = L.swapaxes(-1, -2) @ L - n2[:, None, None] * np.eye(8)
        return np.abs(gram).max((-2, -1)) / _scale(n2)

    def sigma_closed_form(self):
        A = self.matrices()
        (d, e, f), n2 = A.dia.T, inner(A.off, A.off).T
        closed = d * e + e * f + f * d - n2[0] - n2[1] - n2[2]
        return np.abs(A.sigma - closed) / _scale(np.abs(closed))

    def k_diagonality(self):
        A, x = self.matrices(), self.uniform(3, 8)
        diff = A.k_act(x, self.det_offset) - np.matvec(A.K[:, None], x)
        return _norm(diff) / (_scale(A.frobenius) ** 3 * _scale(_vnorm(x)))[:, None]

    def r_root_relations(self):
        ph, al, rs, _ = self.matrices().families
        (r1, r2), al2 = rs.T, inner(al, al)
        return (np.maximum(np.abs(r1 + r2 + 4.0 * ph), np.abs(r1 * r2 + al2))
                / _scale(np.abs(r1), np.abs(r2), al2))

    def lambda_root_relations(self):
        A = self.matrices()
        tr, target = A.trace[:, None], A.det[:, None] + A.families[2]
        lams = _lambda_roots(tr, A.sigma[:, None], target)
        scale = _scale(np.abs(tr), np.abs(target), np.abs(lams).max(-1) ** 3)
        return np.maximum(np.abs(lams.sum(-1) - tr), np.abs(lams.prod(-1) - target)) / scale

    def s_normalization(self):
        ph, al, rs, s = self.matrices().families
        s1, s2 = s[:, 0], s[:, 1]
        cross = mul(conj(s1), s2)
        coef = inner(cross, al) / inner(al, al)
        return np.maximum.reduce([
            _norm(s1 + s2 - _ONE),
            _norm(s1 - s1 * _ONE - al / (2.0 * (rs[:, 0] + 2.0 * ph))[:, None]),  # Im s1
            _norm(cross - al * coef[:, None]) / _scale(_norm(cross))])

    def k_on_t(self):
        A = self.matrices()
        al, t = A.families[1], self.t_element(A)
        return _norm(np.matvec(A.K, t) - mul(t, al)) / _scale(_norm(t) * _norm(al))

    def k_on_t_perp(self):
        A = self.matrices()
        ph, al = A.families[:2]
        u = mul(self.t_element(A), al)
        rhs = -1.0 * mul(u, al + (4.0 * ph)[:, None] * _ONE)
        scale = _scale(_norm(u) * _norm(al), _norm(u) * np.abs(4 * ph))
        return _norm(np.matvec(A.K, u) - rhs) / scale

    def k_operator_quadratic(self):
        A, p = self.matrices(), self.uniform(8)
        ph, al = A.families[:2]
        al2, kp = inner(al, al), np.matvec(A.K, p)
        resid = np.matvec(A.K, kp) + kp * (4.0 * ph)[:, None] - p * al2[:, None]
        return _norm(resid) / _scale(al2 * _norm(p))

    def k_self_adjoint(self):
        A, p, q = self.matrices(), self.uniform(8), self.uniform(8)
        return (np.abs(inner(np.matvec(A.K, p), q) - inner(p, np.matvec(A.K, q)))
                / _scale(A.frobenius ** 3 * _norm(p) * _norm(q)))

    def k_projector_algebra(self):
        A, p = self.matrices(), self.uniform(8)
        k = np.matvec(A.P, p[:, None])                  # k_m = P_m p
        Pk = np.matvec(A.P[:, :, None], k[:, None])     # P_m k_j at [m, j]
        return np.maximum.reduce([
            _norm(k[:, 0] + k[:, 1] - p),
            _norm(Pk[:, [0, 1], [0, 1]] - k).max(-1),
            _norm(Pk[:, [0, 1], [1, 0]]).max(-1)]) / _scale(_norm(p))

    def cayley_dickson_table(self):
        A = self.matrices()
        t1, t2, al = self.t_element(A), self.t_element(A), A.families[1]
        return _cd_residuals(al, t1, t2).max(-1) / _scale(_norm(t1) * _norm(t2) * inner(al, al))

    def t_perp_is_t_alpha(self):
        A = self.matrices()
        ta, keep = _gram_schmidt(mul(A.T, A.families[1][:, None]))
        return np.where(keep.all(-1), np.abs(A.T @ ta.swapaxes(-1, -2)).max((-2, -1)), np.inf)

    def t2_is_t1_alpha(self):
        A = self.matrices()
        _, al, _, s = A.families
        basis1, basis2 = (_gram_schmidt(mul(A.T, s[:, m, None]))[0] for m in (0, 1))
        lifted = _gram_schmidt(mul(basis1, al[:, None]))[0]
        proj2, projl = (B.swapaxes(-1, -2) @ B for B in (basis2, lifted))
        return np.abs(proj2 - projl).max((-2, -1))

    def eigenspace_characterization(self):
        A = self.matrices()
        ph, al, rs, _ = A.families
        # per family m, along axis 1: gen = r_m + 4 phi + alpha, and T gen
        gen = (rs + 4.0 * ph[:, None])[..., None] * _ONE + al[:, None]
        q = mul(np.vecmat(self.uniform(2, 4), A.T[:, None]), gen)
        qm = np.matvec(A.P, self.uniform(2, 8))
        span = _gram_schmidt(mul(A.T[:, None], gen[:, :, None]))[0]
        return np.maximum(
            _norm(np.matvec(A.K[:, None], q) - q * rs[..., None]) / _scale(np.abs(rs) * _norm(q)),
            _span_distance(qm, span) / _scale(_norm(qm))).max(-1)

    def family_product_in_t(self):
        A = self.matrices()
        p, q = np.matvec(A.P, self.uniform(2, 8)), np.matvec(A.P, self.uniform(2, 8))
        return (_span_distance(mul(p, conj(q)), A.T[:, None]) / _scale(_norm(p) * _norm(q))).max(-1)

    def family_associator_multiplier(self):
        A = self.matrices()
        p1, p2 = self.t_element(A)[:, None], self.t_element(A)[:, None]
        qa, qb = np.matvec(A.P, self.uniform(2, 8)), np.matvec(A.P, self.uniform(2, 8))
        pa, pb = (mul(associator(p1, p2, q), conj(q) / inner(q, q)[..., None]) for q in (qa, qb))
        usable = (_norm(qa) >= 1e-6) & (_norm(qb) >= 1e-6)
        return (np.where(usable, _norm(pa - pb), 0.0) / _scale(_norm(p1) * _norm(p2))).max(-1)

    def basis_invariance(self):
        A, M = self.matrices(), self.uniform(3, 3)
        while (bad := np.abs(np.linalg.det(M)) <= 0.05).any():
            M[bad] = self.uniform(3, 3, n=bad.sum())
        return _basis_change_deviation(A.off, M, self.uniform(3))

    identity_decomposition = _pool_residual("identity_decomposition")
    matrix_decomposition = _pool_residual("matrix_decomposition")
    eigen_equation = _pool_residual("eigen")
    k_eigen_equation = _pool_residual("k_eigen")
    generalized_orthogonality = _pool_residual("generalized_orthogonality")

    def eigen_projection_idempotence(self):
        P, V, _ = self.family()
        v, y = V[np.arange(self.n), self.rng.integers(0, 3, self.n)], self.project(P, 3)
        return _Stack.outer(v).membership(y) / _scale(_vnorm(y))

    def general_projection_idempotence(self):
        P = self.family()[0]
        y, z = self.project(P, 3), self.project(P, 3)
        return _Stack.outer(y).membership(z) / _scale(inner(y, y).sum(-1) ** 2 * _vnorm(z))

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
        resid = _Stack.outer(v).act(v) - v * inner(v, v).sum(-1)[:, None, None]
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
        v = v * (1.0 / np.where(n >= 1e-6, n, 1.0))[:, None, None]
        B = _Stack.outer(v)
        resid = np.maximum.reduce([np.abs(B.trace - 1.0), np.abs(B.sigma),
                                   _vnorm(B.k_act(v) + v * B.det[:, None, None])])
        return np.where(n >= 1e-6, resid, 0.0)

    def outer_entry_identities(self):
        y = self.project(self.family()[0], 3)
        B, n = _Stack.outer(y), _vnorm(y)
        # B's a, b, c are y1 conj(y2), y3 conj(y1), y2 conj(y3), with norms d1 d2, d3 d1, d2 d3
        entries = _norm(B.off - mul(y[:, [0, 2, 1]], conj(y[:, [1, 0, 2]]))).max(-1)
        norms = np.abs(inner(B.off, B.off) - B.dia[:, [0, 2, 1]] * B.dia[:, [1, 0, 2]]).max(-1)
        return np.maximum(entries / _scale(n ** 2), norms / _scale(n ** 4))

    def family_triple_contraction(self):
        P = self.family()[0]
        y, q = self.project(P, 3), self.project(P)
        B, qs = _Stack.outer(y), q[:, None]
        t = B.off[:, [2, 1, 0]]                     # t1 = c, t2 = b, t3 = a
        # for each cyclic (i, j, k): t_j (t_k q) = (conj(t_i) q) d_i and
        # conj(t_i)(conj(t_k) q) = (t_j q) d_j
        first = mul(t[:, [1, 2, 0]], mul(t[:, [2, 0, 1]], qs)) - mul(conj(t), qs) * B.dia[..., None]
        second = (mul(conj(t), mul(conj(t[:, [2, 0, 1]]), qs))
                  - mul(t[:, [1, 2, 0]], qs) * B.dia[:, [1, 2, 0], None])
        return (np.maximum(_norm(first), _norm(second)).max(-1)
                / _scale(_vnorm(y) ** 4 * _norm(q)))

    # the eigen projection identity again, on fresh draws
    same_family_accept = eigen_projection_idempotence

    def same_family_reject(self):
        pool = self.oct_pool
        i, j = self.rng.integers(0, 3, (2, self.n))
        u, w = pool.V[pool.rows, 0, i], pool.V[pool.rows, 1, j]
        return float(_same_family(u, w).sum() + (~_same_family(u, u)).sum())

    def family_dimension(self):
        V = self.oct_pool.V[:8]
        v = V[np.arange(len(V)), self.rng.integers(0, 2, len(V)), 0]
        return np.abs(_family_dimensions(v, samples=24) - 12)

    def quaternionic_lift(self):
        pool = self.quat_pool
        (H, ell), conj_pool = pool.split, _Stack(pool.dia, conj(pool.off))
        v, ell = self.uniform(3, 4, n=len(H)) @ H, ell[:, None]
        # A (ell v) = ell (Abar v) for quaternionic v
        lift = (_vnorm(pool.act(mul(ell, v)) - mul(ell, conj_pool.act(v)))
                / _scale(pool.frobenius * _vnorm(v)))
        # the spectrum over O is the union of both quaternionic spectra
        spectra = np.stack([_lambda_roots(M.trace, M.sigma, M.det) for M in (pool, conj_pool)], 1)
        gap = np.abs(np.sort(pool.lams, axis=-1) - spectra).max((-2, -1))
        return np.maximum(lift, gap / _scale(pool.frobenius))

    def quaternionic_split_orthogonality(self):
        H, ell = self.quat_pool.split
        return np.maximum.reduce([
            _norm(mul(ell, ell) + _ONE),
            np.abs(inner(ell[:, None], H)).max(-1),
            np.abs(mul(ell[:, None], H) @ H.swapaxes(-1, -2)).max((-2, -1))])

    def quaternionic_six_way(self):
        pool = self.quat_pool
        H, x = pool.split[0], self.uniform(3, 8, n=len(pool.dia))
        parts, residuals, recon = _six_way(pool, x.reshape(-1, 24))
        own = np.maximum(recon, residuals.max((-2, -1)))
        # family-1 parts agree with the plain quaternionic expansion v (v^dagger x1)
        x1, v = np.matvec((H.swapaxes(-1, -2) @ H)[:, None], x)[:, None], pool.V[:, 0]
        classic = mul(v, mul(conj(v), x1).sum(-2)[:, :, None])
        return np.maximum(own, _vnorm(classic - parts[:, 0].reshape(-1, 3, 3, 8)).max(-1)
                          / _scale(_vnorm(x)))

    def six_way_reconstruction(self):
        return np.where(self.oct_pool.nfam == 2, self._six_ways()[2], np.inf)

    def six_way_eigen_residuals(self):
        return self._six_ways()[1]

    def _six_ways(self):
        return _six_way(self.oct_pool, self.uniform(3, 8).reshape(-1, 24))


_CHECKS = tuple((name, fn, _FACTORS.get(name, 1.0)) for name, fn in (
    (attr.replace("_", "-"), fn) for attr, fn in vars(_Checks).items() if not attr.startswith("_")))


def run_verification(seed: int, samples: int, tolerance: float = DEFAULT_TOLERANCE,
                     det_offset: float = 0.0) -> list[CheckResult]:
    """Run every identity check on `samples` seeded random instances."""
    ctx = _Checks(seed, samples, det_offset=det_offset)
    results = []
    for name, fn, factor in _CHECKS:
        residual, tol = float(np.max(fn(ctx))), tolerance * factor
        results.append(CheckResult(name, residual, tol, residual <= tol))
    return results


def run_fuzz(seed: int, samples: int, kind: str = OCTONIONIC,
             tolerance: float = DEFAULT_TOLERANCE) -> list[CheckResult]:
    """End-to-end eigensystem plus projection on random matrices of one class."""
    if kind not in _COORD_MASKS:
        raise ValueError(f"unknown matrix class {kind!r}; choose from {FUZZ_CLASSES}")
    _check_samples(samples)
    dia, off, x = _draw_samples(np.random.default_rng(seed), samples, kind)
    pool = _Systems(dia, off)
    _, residuals, recon = _six_way(pool, x)
    worst = {name: pool.residuals[..., _RESIDUALS.index(key)].max() for name, key in (
        ("eigen-equation", "eigen"), ("identity-decomposition", "identity_decomposition"),
        ("matrix-decomposition", "matrix_decomposition"))}
    worst["six-way-reconstruction"], worst["six-way-eigen-residuals"] = recon.max(), residuals.max()
    return [CheckResult(name=k, residual=float(v), tolerance=tolerance, passed=bool(v <= tolerance))
            for k, v in worst.items()]
