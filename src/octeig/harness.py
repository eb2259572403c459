"""Randomized verification harness: one named check per algebraic identity.

Every check draws its instances from a seeded PCG64 generator, computes a
worst scaled residual, and compares against its tolerance, so a report is
reproducible bit-for-bit from (seed, samples, flags).
"""

from dataclasses import dataclass

import numpy as np

from .hermitian import (
    COMPLEX,
    OCTONIONIC,
    QUATERNIONIC,
    REAL,
    Hermitian3,
    OctVector3,
    alpha,
    classify,
    det,
    hermitian_combination,
    mat_vec,
    outer,
    phi,
    sigma,
    trace,
)
from .octonion import Octonion, associator, inner, left_mul_matrix
from .projection import quaternionic_six_way, six_way, subalgebra_part
from .spectral import (
    eigensystem,
    family_dimension_probe,
    k_vector,
    lambda_roots,
    same_family,
)
from .subspace import (
    basis_invariance_check,
    cd_table_check,
    conj_matrix,
    k_scalar,
    orthonormalize,
    project_km,
    project_km_vec,
    quaternionic_split,
    r_roots,
    s_elements,
    span_distance,
    t_basis,
)

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
# core algebra identities are a few floating ops, so they get four extra digits
_ALGEBRA_FACTOR = 1e-4

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
    if mask is not None:
        keep = np.zeros(8)
        keep[list(mask)] = 1.0
        c = c * keep
    return Octonion(c)


def random_vector(rng, mask=None) -> OctVector3:
    return OctVector3(tuple(random_octonion(rng, mask) for _ in range(3)))


def random_hermitian(rng, kind: str = OCTONIONIC) -> Hermitian3:
    """Random matrix of the requested class; entries uniform in [-1, 1]."""
    mask = _COORD_MASKS[kind]
    for _ in range(100):
        d, e, f = rng.uniform(-1.0, 1.0, 3)
        A = Hermitian3(d, e, f,
                       random_octonion(rng, mask),
                       random_octonion(rng, mask),
                       random_octonion(rng, mask))
        if classify(A).tag == kind:
            return A
    raise RuntimeError(f"failed to sample a {kind} matrix")


def _t_element(rng, A) -> Octonion:
    tb = t_basis(A)
    coeffs = rng.uniform(-1.0, 1.0, len(tb.vectors))
    acc = Octonion.zero()
    for c, b in zip(coeffs, tb.vectors):
        acc = acc + b * float(c)
    return acc


def _check_samples(samples: int) -> int:
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    return samples


class _Context:
    """Shared sampled instances so eigensystem work is done once per run."""

    def __init__(self, seed: int, samples: int, det_offset: float = 0.0):
        self.rng = np.random.default_rng(seed)
        self.n = _check_samples(samples)
        self.det_offset = det_offset
        self._oct_pool = None
        self._quat_pool = None

    @property
    def oct_pool(self):
        if self._oct_pool is None:
            rng = np.random.default_rng(self.rng.integers(2 ** 63))
            self._oct_pool = []
            for _ in range(self.n):
                A = random_hermitian(rng, OCTONIONIC)
                self._oct_pool.append((A, eigensystem(A)))
        return self._oct_pool

    @property
    def quat_pool(self):
        if self._quat_pool is None:
            rng = np.random.default_rng(self.rng.integers(2 ** 63))
            self._quat_pool = []
            for _ in range(max(1, self.n // 4)):
                A = random_hermitian(rng, QUATERNIONIC)
                self._quat_pool.append((A, eigensystem(A)))
        return self._quat_pool


def _check_composition_norm(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        p = random_octonion(ctx.rng)
        q = random_octonion(ctx.rng)
        worst = max(worst, abs((p * q).norm() - p.norm() * q.norm())
                    / max(1e-300, p.norm() * q.norm()))
    return worst


def _check_alternativity(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        p = random_octonion(ctx.rng)
        q = random_octonion(ctx.rng)
        scale = max(1.0, p.norm() ** 2 * q.norm(), p.norm() * q.norm() ** 2)
        worst = max(worst, associator(p, p, q).norm() / scale,
                    associator(p, q, q).norm() / scale)
    return worst


def _check_conj_antihom(ctx):
    worst = 0.0
    for i in range(8):
        for j in range(1, 8):
            p, q = Octonion.unit(i), Octonion.unit(j)
            worst = max(worst, ((p * q).conj() - q.conj() * p.conj()).norm())
    for _ in range(ctx.n):
        p = random_octonion(ctx.rng)
        q = random_octonion(ctx.rng)
        worst = max(worst, ((p * q).conj() - q.conj() * p.conj()).norm()
                    / max(1.0, p.norm() * q.norm()))
    return worst


def _check_inner_coincidence(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        p = random_octonion(ctx.rng)
        q = random_octonion(ctx.rng)
        form = 0.5 * ((p * q.conj()).real + (q * p.conj()).real)
        form2 = 0.5 * ((p.conj() * q).real + (q.conj() * p).real)
        scale = max(1.0, p.norm() * q.norm())
        worst = max(worst, abs(form - inner(p, q)) / scale,
                    abs(form2 - inner(p, q)) / scale)
    return worst


def _check_trace_form(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        x, y, z = (random_octonion(ctx.rng) for _ in range(3))
        scale = max(1.0, x.norm() * y.norm() * z.norm())
        worst = max(worst, abs(((x * y) * z).real - (x * (y * z)).real) / scale)
    return worst


def _check_left_mul_isometry(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        q = random_octonion(ctx.rng)
        L = left_mul_matrix(q)
        worst = max(worst, float(np.abs(L.T @ L - q.norm2() * np.eye(8)).max())
                    / max(1.0, q.norm2()))
    return worst


def _check_sigma_closed_form(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        A = random_hermitian(ctx.rng, OCTONIONIC)
        closed = (A.d * A.e + A.e * A.f + A.f * A.d
                  - A.a.norm2() - A.b.norm2() - A.c.norm2())
        worst = max(worst, abs(sigma(A) - closed) / max(1.0, abs(closed)))
    return worst


def _check_k_diagonality(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        A = random_hermitian(ctx.rng, OCTONIONIC)
        x = random_vector(ctx.rng)
        ax = mat_vec(A, x)
        a2x = mat_vec(A, ax)
        a3x = mat_vec(A, a2x)
        kx = (a3x - a2x.scale(trace(A)) + ax.scale(sigma(A))
              - x.scale(det(A) + ctx.det_offset))
        scale = max(1.0, A.frobenius()) ** 3 * max(1.0, x.norm())
        for slot in range(3):
            diff = (kx.components[slot] - k_scalar(A, x.components[slot])).norm()
            worst = max(worst, diff / scale)
    return worst


def _check_r_root_relations(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        A = random_hermitian(ctx.rng, OCTONIONIC)
        r1, r2 = r_roots(A)
        al2 = alpha(A).norm2()
        scale = max(1.0, abs(r1), abs(r2), al2)
        worst = max(worst, abs(r1 + r2 + 4.0 * phi(A)) / scale,
                    abs(r1 * r2 + al2) / scale)
    return worst


def _check_lambda_root_relations(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        A = random_hermitian(ctx.rng, OCTONIONIC)
        for r in r_roots(A):
            lams = lambda_roots(A, r)
            target = det(A) + r
            scale = max(1.0, abs(trace(A)), abs(target), max(abs(l) for l in lams) ** 3)
            worst = max(worst, abs(sum(lams) - trace(A)) / scale,
                        abs(lams[0] * lams[1] * lams[2] - target) / scale)
    return worst


def _check_s_normalization(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        A = random_hermitian(ctx.rng, OCTONIONIC)
        s1, s2 = s_elements(A)
        al = alpha(A)
        r1, _ = r_roots(A)
        worst = max(worst, (s1 + s2 - Octonion.from_real(1.0)).norm())
        worst = max(worst, (s1.imag() - al / (2.0 * (r1 + 2.0 * phi(A)))).norm())
        cross = s1.conj() * s2
        coef = inner(cross, al) / al.norm2()
        worst = max(worst, (cross - al * coef).norm() / max(1.0, cross.norm()))
    return worst


def _check_k_on_t(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        A = random_hermitian(ctx.rng, OCTONIONIC)
        al = alpha(A)
        t = _t_element(ctx.rng, A)
        scale = max(1.0, t.norm() * al.norm())
        worst = max(worst, (k_scalar(A, t) - t * al).norm() / scale)
    return worst


def _check_k_on_t_perp(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        A = random_hermitian(ctx.rng, OCTONIONIC)
        al = alpha(A)
        u = _t_element(ctx.rng, A) * al
        rhs = -1.0 * (u * (al + Octonion.from_real(4.0 * phi(A))))
        scale = max(1.0, u.norm() * al.norm(), u.norm() * abs(4 * phi(A)))
        worst = max(worst, (k_scalar(A, u) - rhs).norm() / scale)
    return worst


def _check_k_quadratic(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        A = random_hermitian(ctx.rng, OCTONIONIC)
        p = random_octonion(ctx.rng)
        al2 = alpha(A).norm2()
        kp = k_scalar(A, p)
        resid = (k_scalar(A, kp) + kp * (4.0 * phi(A)) - p * al2).norm()
        worst = max(worst, resid / max(1.0, al2 * p.norm()))
    return worst


def _check_k_self_adjoint(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        A = random_hermitian(ctx.rng, OCTONIONIC)
        p = random_octonion(ctx.rng)
        q = random_octonion(ctx.rng)
        scale = max(1.0, A.frobenius() ** 3 * p.norm() * q.norm())
        worst = max(worst, abs(inner(k_scalar(A, p), q) - inner(p, k_scalar(A, q))) / scale)
    return worst


def _check_projector_algebra(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        A = random_hermitian(ctx.rng, OCTONIONIC)
        p = random_octonion(ctx.rng)
        k1 = project_km(A, 1, p)
        k2 = project_km(A, 2, p)
        scale = max(1.0, p.norm())
        worst = max(worst, (k1 + k2 - p).norm() / scale)
        worst = max(worst, (project_km(A, 1, k1) - k1).norm() / scale,
                    (project_km(A, 2, k2) - k2).norm() / scale)
        worst = max(worst, project_km(A, 1, k2).norm() / scale,
                    project_km(A, 2, k1).norm() / scale)
    return worst


def _check_cd_table(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        A = random_hermitian(ctx.rng, OCTONIONIC)
        t1 = _t_element(ctx.rng, A)
        t2 = _t_element(ctx.rng, A)
        scale = max(1.0, t1.norm() * t2.norm() * alpha(A).norm2())
        worst = max(worst, max(cd_table_check(A, t1, t2)) / scale)
    return worst


def _check_t_perp(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        A = random_hermitian(ctx.rng, OCTONIONIC)
        al = alpha(A)
        tb = t_basis(A).vectors
        ta = orthonormalize([b * al for b in tb])
        if len(ta) != 4:
            return float("inf")
        gram = np.array([[inner(x, y) for y in ta] for x in tb])
        worst = max(worst, float(np.abs(gram).max()))
    return worst


def _check_t2_is_t1_alpha(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        A = random_hermitian(ctx.rng, OCTONIONIC)
        al = alpha(A)
        s1, s2 = s_elements(A)
        tb = t_basis(A).vectors
        basis1 = orthonormalize([b * s1 for b in tb])
        basis2 = orthonormalize([b * s2 for b in tb])
        lifted = orthonormalize([b * al for b in basis1])
        p2 = sum(np.outer(b.coords, b.coords) for b in basis2)
        pl = sum(np.outer(b.coords, b.coords) for b in lifted)
        worst = max(worst, float(np.abs(p2 - pl).max()))
    return worst


def _check_eigenspace_characterization(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        A = random_hermitian(ctx.rng, OCTONIONIC)
        al = alpha(A)
        ph = phi(A)
        tb = t_basis(A).vectors
        for m, r in zip((1, 2), r_roots(A)):
            gen = Octonion.from_real(r + 4.0 * ph) + al
            t = _t_element(ctx.rng, A)
            q = t * gen
            scale = max(1.0, abs(r) * q.norm())
            worst = max(worst, (k_scalar(A, q) - q * r).norm() / scale)
            qm = project_km(A, m, random_octonion(ctx.rng))
            span = orthonormalize([b * gen for b in tb])
            worst = max(worst, span_distance(qm, span) / max(1.0, qm.norm()))
    return worst


def _check_family_product_in_t(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        A = random_hermitian(ctx.rng, OCTONIONIC)
        tb = t_basis(A).vectors
        for m in (1, 2):
            p = project_km(A, m, random_octonion(ctx.rng))
            q = project_km(A, m, random_octonion(ctx.rng))
            worst = max(worst, span_distance(p * q.conj(), tb)
                        / max(1.0, p.norm() * q.norm()))
    return worst


def _check_family_associator_multiplier(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        A = random_hermitian(ctx.rng, OCTONIONIC)
        p1 = _t_element(ctx.rng, A)
        p2 = _t_element(ctx.rng, A)
        for m in (1, 2):
            qa = project_km(A, m, random_octonion(ctx.rng))
            qb = project_km(A, m, random_octonion(ctx.rng))
            if qa.norm() < 1e-6 or qb.norm() < 1e-6:
                continue
            pa = associator(p1, p2, qa) * qa.inverse()
            pb = associator(p1, p2, qb) * qb.inverse()
            worst = max(worst, (pa - pb).norm() / max(1.0, p1.norm() * p2.norm()))
    return worst


def _check_basis_invariance(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        A = random_hermitian(ctx.rng, OCTONIONIC)
        while True:
            M = ctx.rng.uniform(-1.0, 1.0, (3, 3))
            if abs(np.linalg.det(M)) > 0.05:
                break
        shifts = ctx.rng.uniform(-1.0, 1.0, 3)
        worst = max(worst, basis_invariance_check(A, M, shifts=shifts))
    return worst


def _pool_residual(key: str):
    """Check reading the worst `key` residual of the octonionic pool's eigensystems."""
    return lambda ctx: max(max(f.residuals[key] for f in es.families) for _, es in ctx.oct_pool)


def _check_theorem_eigen_projection(ctx):
    worst = 0.0
    for A, es in ctx.oct_pool:
        fam = es.families[int(ctx.rng.integers(0, 2))]
        v = fam.pairs[int(ctx.rng.integers(0, 3))].v
        y = project_km_vec(A, fam.context.m, random_vector(ctx.rng))
        B = outer(v)
        by = mat_vec(B, y)
        worst = max(worst, (mat_vec(B, by) - by.scale(v.norm2())).norm()
                    / max(1.0, y.norm()))
    return worst


def _check_theorem_general_projection(ctx):
    worst = 0.0
    for A, _ in ctx.oct_pool:
        m = int(ctx.rng.integers(1, 3))
        y = project_km_vec(A, m, random_vector(ctx.rng))
        z = project_km_vec(A, m, random_vector(ctx.rng))
        B = outer(y)
        bz = mat_vec(B, z)
        scale = max(1.0, y.norm2() ** 2 * z.norm())
        worst = max(worst, (mat_vec(B, bz) - bz.scale(y.norm2())).norm() / scale)
    return worst


def _check_restricted_projector(ctx):
    worst = 0.0
    for A, es in ctx.oct_pool:
        fam = es.families[int(ctx.rng.integers(0, 2))]
        u, v = fam.pairs[0].v, fam.pairs[1].v
        y = project_km_vec(A, fam.context.m, random_vector(ctx.rng))
        worst = max(worst, mat_vec(outer(u), mat_vec(outer(v), y)).norm()
                    / max(1.0, y.norm()))
    return worst


def _check_projection_eigen_invariance(ctx):
    worst = 0.0
    for A, es in ctx.oct_pool:
        fam = es.families[int(ctx.rng.integers(0, 2))]
        pair = fam.pairs[int(ctx.rng.integers(0, 3))]
        y = project_km_vec(A, fam.context.m, random_vector(ctx.rng))
        py = mat_vec(outer(pair.v), y)
        scale = max(1.0, A.frobenius() * y.norm())
        worst = max(worst, (mat_vec(A, py) - py.scale(pair.lam)).norm() / scale)
    return worst


def _check_vector_self_associator(ctx):
    worst = 0.0
    for _ in range(ctx.n):
        v = random_vector(ctx.rng)
        resid = (mat_vec(outer(v), v) - v.scale(v.norm2())).norm()
        worst = max(worst, resid / max(1.0, v.norm() ** 3))
    return worst


def _check_family_r_relation(ctx):
    worst = 0.0
    for A, es in ctx.oct_pool:
        fam = es.families[int(ctx.rng.integers(0, 2))]
        lams = ctx.rng.uniform(-2.0, 2.0, 3)
        B = hermitian_combination(zip(lams, (p.v for p in fam.pairs)))
        r = float(np.prod(lams)) - det(B)
        for p in fam.pairs:
            kb = k_vector(B, p.v)
            scale = max(1.0, B.frobenius()) ** 3
            worst = max(worst, (kb - p.v.scale(r)).norm() / scale)
    return worst


def _check_rank_one_invariants(ctx):
    worst = 0.0
    for A, _ in ctx.oct_pool:
        v = project_km_vec(A, int(ctx.rng.integers(1, 3)), random_vector(ctx.rng))
        if v.norm() < 1e-6:
            continue
        v = v.scale(1.0 / v.norm())
        B = outer(v)
        worst = max(worst, abs(trace(B) - 1.0), abs(sigma(B)))
        worst = max(worst, (k_vector(B, v) + v.scale(det(B))).norm())
    return worst


def _check_outer_entry_identities(ctx):
    worst = 0.0
    for A, _ in ctx.oct_pool:
        m = int(ctx.rng.integers(1, 3))
        y = project_km_vec(A, m, random_vector(ctx.rng))
        y1, y2, y3 = y.components
        B = outer(y)
        t1, t2, t3 = B.c, B.b, B.a
        d1, d2, d3 = B.d, B.e, B.f
        scale = max(1.0, y.norm() ** 2)
        worst = max(worst, (t3 - y1 * y2.conj()).norm() / scale,
                    (t1 - y2 * y3.conj()).norm() / scale,
                    (t2 - y3 * y1.conj()).norm() / scale)
        scale2 = max(1.0, y.norm() ** 4)
        worst = max(worst, abs(t3.norm2() - d1 * d2) / scale2,
                    abs(t1.norm2() - d2 * d3) / scale2,
                    abs(t2.norm2() - d3 * d1) / scale2)
    return worst


def _check_family_triple_contraction(ctx):
    worst = 0.0
    for A, _ in ctx.oct_pool:
        m = int(ctx.rng.integers(1, 3))
        y = project_km_vec(A, m, random_vector(ctx.rng))
        B = outer(y)
        t1, t2, t3 = B.c, B.b, B.a
        d1, d2, d3 = B.d, B.e, B.f
        q = project_km(A, m, random_octonion(ctx.rng))
        scale = max(1.0, y.norm() ** 4 * q.norm())
        cyc = [((t2, t3, d1, t1), (t1, t3, d2, t2)),
               ((t3, t1, d2, t2), (t2, t1, d3, t3)),
               ((t1, t2, d3, t3), (t3, t2, d1, t1))]
        for (a1, a2, dd, tt), (b1, b2, ee, ss) in cyc:
            worst = max(worst, (a1 * (a2 * q) - (tt.conj() * q) * dd).norm() / scale)
            worst = max(worst, (b1.conj() * (b2.conj() * q) - (ss * q) * ee).norm() / scale)
    return worst


def _check_same_family_accept(ctx):
    worst = 0.0
    for A, es in ctx.oct_pool:
        fam = es.families[int(ctx.rng.integers(0, 2))]
        u = fam.pairs[int(ctx.rng.integers(0, 3))].v
        w = project_km_vec(A, fam.context.m, random_vector(ctx.rng))
        B = outer(u)
        bw = mat_vec(B, w)
        worst = max(worst, (mat_vec(B, bw) - bw.scale(u.norm2())).norm()
                    / max(1.0, w.norm()))
    return worst


def _check_same_family_reject(ctx):
    wrong = 0
    for _, es in ctx.oct_pool:
        u = es.families[0].pairs[int(ctx.rng.integers(0, 3))].v
        w = es.families[1].pairs[int(ctx.rng.integers(0, 3))].v
        if same_family(u, w):
            wrong += 1
        if not same_family(u, u):
            wrong += 1
    return float(wrong)


def _check_family_dimension(ctx):
    worst = 0.0
    count = min(len(ctx.oct_pool), 8)
    for A, es in ctx.oct_pool[:count]:
        v = es.families[int(ctx.rng.integers(0, 2))].pairs[0].v
        worst = max(worst, abs(family_dimension_probe(v, samples=24) - 12))
    return worst


def _check_quaternionic_lift(ctx):
    worst = 0.0
    for A, es in ctx.quat_pool:
        hbasis, ell = quaternionic_split(A)
        Ab = conj_matrix(A)
        # A (ell v) = ell (Abar v) for quaternionic v
        coeffs = ctx.rng.uniform(-1.0, 1.0, (3, 4))
        v = OctVector3(tuple(
            sum((h * float(c) for h, c in zip(hbasis, row)), Octonion.zero())
            for row in coeffs
        ))
        lv = OctVector3(tuple(ell * comp for comp in v.components))
        lhs = mat_vec(A, lv)
        rhs = OctVector3(tuple(ell * comp for comp in mat_vec(Ab, v).components))
        worst = max(worst, (lhs - rhs).norm() / max(1.0, A.frobenius() * v.norm()))
        # spectrum over O is the union of both quaternionic spectra
        lams1 = sorted(p.lam for p in es.families[0].pairs)
        lams2 = sorted(p.lam for p in es.families[1].pairs)
        ref1 = sorted(lambda_roots(A, 0.0))
        ref2 = sorted(lambda_roots(Ab, 0.0))
        scale = max(1.0, A.frobenius())
        worst = max(worst, max(abs(a - b) for a, b in zip(lams1, ref1)) / scale)
        worst = max(worst, max(abs(a - b) for a, b in zip(lams2, ref2)) / scale)
    return worst


def _check_quaternionic_split_orthogonality(ctx):
    worst = 0.0
    for A, _ in ctx.quat_pool:
        hbasis, ell = quaternionic_split(A)
        worst = max(worst, (ell * ell + Octonion.from_real(1.0)).norm())
        for h in hbasis:
            worst = max(worst, abs(inner(ell, h)))
            for g in hbasis:
                worst = max(worst, abs(inner(ell * h, g)))
    return worst


def _check_quaternionic_six_way(ctx):
    worst = 0.0
    for A, es in ctx.quat_pool:
        x = random_vector(ctx.rng)
        dec = quaternionic_six_way(A, x, system=es)
        worst = max(worst, dec.reconstruction_residual, max(dec.eigen_residuals))
        # family-1 parts agree with the plain quaternionic expansion
        x1 = subalgebra_part(quaternionic_split(A)[0], x)
        for pair, part in zip(es.families[0].pairs, dec.parts[:3]):
            classic = pair.v.right_mul(pair.v.dagger_dot(x1))
            worst = max(worst, (classic - part.component).norm() / max(1.0, x.norm()))
    return worst


def _check_six_way_reconstruction(ctx):
    worst = 0.0
    for A, es in ctx.oct_pool:
        x = random_vector(ctx.rng)
        dec = six_way(A, x, system=es)
        if len(dec.parts) != 6:
            return float("inf")
        worst = max(worst, dec.reconstruction_residual)
    return worst


def _check_six_way_eigen_residuals(ctx):
    worst = 0.0
    for A, es in ctx.oct_pool:
        x = random_vector(ctx.rng)
        dec = six_way(A, x, system=es)
        worst = max(worst, max(dec.eigen_residuals))
    return worst


_CHECKS = (
    ("composition-norm", _check_composition_norm, _ALGEBRA_FACTOR),
    ("alternativity", _check_alternativity, _ALGEBRA_FACTOR),
    ("conjugation-antihomomorphism", _check_conj_antihom, _ALGEBRA_FACTOR),
    ("inner-product-coincidence", _check_inner_coincidence, _ALGEBRA_FACTOR),
    ("trace-form-associativity", _check_trace_form, _ALGEBRA_FACTOR),
    ("left-mul-isometry", _check_left_mul_isometry, _ALGEBRA_FACTOR),
    ("sigma-closed-form", _check_sigma_closed_form, 1.0),
    ("k-diagonality", _check_k_diagonality, 1.0),
    ("r-root-relations", _check_r_root_relations, 1.0),
    ("lambda-root-relations", _check_lambda_root_relations, 1.0),
    ("s-normalization", _check_s_normalization, 1.0),
    ("k-on-t", _check_k_on_t, 1.0),
    ("k-on-t-perp", _check_k_on_t_perp, 1.0),
    ("k-operator-quadratic", _check_k_quadratic, 1.0),
    ("k-self-adjoint", _check_k_self_adjoint, 1.0),
    ("k-projector-algebra", _check_projector_algebra, 1.0),
    ("cayley-dickson-table", _check_cd_table, 1.0),
    ("t-perp-is-t-alpha", _check_t_perp, 1.0),
    ("t2-is-t1-alpha", _check_t2_is_t1_alpha, 1.0),
    ("eigenspace-characterization", _check_eigenspace_characterization, 1.0),
    ("family-product-in-t", _check_family_product_in_t, 1.0),
    ("family-associator-multiplier", _check_family_associator_multiplier, 1.0),
    ("basis-invariance", _check_basis_invariance, 1.0),
    ("identity-decomposition", _pool_residual("identity_decomposition"), 1.0),
    ("matrix-decomposition", _pool_residual("matrix_decomposition"), 1.0),
    ("eigen-equation", _pool_residual("eigen"), 1.0),
    ("k-eigen-equation", _pool_residual("k_eigen"), 1.0),
    ("generalized-orthogonality", _pool_residual("generalized_orthogonality"), 1.0),
    ("eigen-projection-idempotence", _check_theorem_eigen_projection, 1.0),
    ("general-projection-idempotence", _check_theorem_general_projection, 1.0),
    ("restricted-projector-orthogonality", _check_restricted_projector, 1.0),
    ("projection-eigen-invariance", _check_projection_eigen_invariance, 1.0),
    ("vector-self-associator", _check_vector_self_associator, 1.0),
    ("family-r-relation", _check_family_r_relation, 1.0),
    ("rank-one-invariants", _check_rank_one_invariants, 1.0),
    ("outer-entry-identities", _check_outer_entry_identities, 1.0),
    ("family-triple-contraction", _check_family_triple_contraction, 1.0),
    ("same-family-accept", _check_same_family_accept, 1.0),
    ("same-family-reject", _check_same_family_reject, 0.0),
    ("family-dimension", _check_family_dimension, 0.0),
    ("quaternionic-lift", _check_quaternionic_lift, 1.0),
    ("quaternionic-split-orthogonality", _check_quaternionic_split_orthogonality, 1.0),
    ("quaternionic-six-way", _check_quaternionic_six_way, 1.0),
    ("six-way-reconstruction", _check_six_way_reconstruction, 1.0),
    ("six-way-eigen-residuals", _check_six_way_eigen_residuals, 1.0),
)


def run_verification(seed: int, samples: int, tolerance: float = DEFAULT_TOLERANCE,
                     det_offset: float = 0.0) -> list[CheckResult]:
    """Run every identity check on `samples` seeded random instances."""
    ctx = _Context(seed, samples, det_offset=det_offset)
    results = []
    for name, fn, factor in _CHECKS:
        tol = tolerance * factor
        residual = float(fn(ctx))
        results.append(CheckResult(name=name, residual=residual, tolerance=tol,
                                   passed=residual <= tol))
    return results


def run_fuzz(seed: int, samples: int, kind: str = OCTONIONIC,
             tolerance: float = DEFAULT_TOLERANCE) -> list[CheckResult]:
    """End-to-end eigensystem plus projection on random matrices of one class."""
    if kind not in _COORD_MASKS:
        raise ValueError(f"unknown matrix class {kind!r}; choose from {FUZZ_CLASSES}")
    _check_samples(samples)
    rng = np.random.default_rng(seed)
    names = {"eigen-equation": "eigen", "identity-decomposition": "identity_decomposition",
             "matrix-decomposition": "matrix_decomposition"}
    worst = dict.fromkeys([*names, "six-way-reconstruction", "six-way-eigen-residuals"], 0.0)
    for _ in range(samples):
        A = random_hermitian(rng, kind)
        es = eigensystem(A)
        dec = six_way(A, random_vector(rng), system=es)
        found = {name: max(f.residuals[key] for f in es.families) for name, key in names.items()}
        found["six-way-reconstruction"] = dec.reconstruction_residual
        found["six-way-eigen-residuals"] = max(dec.eigen_residuals)
        for name, value in found.items():
            worst[name] = max(worst[name], value)
    return [CheckResult(name=k, residual=v, tolerance=tolerance, passed=v <= tolerance)
            for k, v in worst.items()]
