"""The stacked verification checks against per-octonion references.

Each reference below is the loop a check ran before the checks became
array expressions: it draws the same arrays from a context seeded the same
way, walks them one sample at a time with Octonion, OctVector3 and
Hermitian3 arithmetic, and must find the same worst residual.
"""

import functools
import hashlib
import json
import math
import sys

import numpy as np
import pytest

from octeig import harness, hermitian, octonion, spectral, subspace
from octeig.cli import main
from octeig.harness import (
    _CHECKS,
    _Checks,
    _draw_fuzz,
    _draw_stack,
    _residuals,
    run_fuzz,
    run_verification,
)
from octeig.hermitian import (
    _TAGS,
    Hermitian3,
    OctVector3,
    _classes,
    _det,
    _sigma,
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
from octeig.octonion import Octonion, associator, inner, left_mul_matrix
from octeig.projection import quaternionic_six_way, six_way
from octeig.spectral import (
    _Stack,
    eigensystem,
    family_dimension_probe,
    k_vector,
    lambda_roots,
    same_family,
)
from octeig.subspace import (
    basis_invariance_check,
    conj_matrix,
    family_projector,
    k_matrix,
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

# the report's checks and tolerance factors, in report order
NAMES_AND_FACTORS = [
    ("composition-norm", 1e-4), ("alternativity", 1e-4),
    ("conjugation-antihomomorphism", 1e-4), ("inner-product-coincidence", 1e-4),
    ("trace-form-associativity", 1e-4), ("left-mul-isometry", 1e-4),
    ("sigma-closed-form", 1.0), ("k-diagonality", 1.0), ("r-root-relations", 1.0),
    ("lambda-root-relations", 1.0), ("s-normalization", 1.0), ("k-on-t", 1.0),
    ("k-on-t-perp", 1.0), ("k-operator-quadratic", 1.0), ("k-self-adjoint", 1.0),
    ("k-projector-algebra", 1.0), ("cayley-dickson-table", 1.0), ("t-perp-is-t-alpha", 1.0),
    ("t2-is-t1-alpha", 1.0), ("eigenspace-characterization", 1.0),
    ("family-product-in-t", 1.0), ("family-associator-multiplier", 1.0),
    ("basis-invariance", 1.0), ("identity-decomposition", 1.0),
    ("matrix-decomposition", 1.0), ("eigen-equation", 1.0), ("k-eigen-equation", 1.0),
    ("generalized-orthogonality", 1.0), ("eigen-projection-idempotence", 1.0),
    ("general-projection-idempotence", 1.0), ("restricted-projector-orthogonality", 1.0),
    ("projection-eigen-invariance", 1.0), ("vector-self-associator", 1.0),
    ("family-r-relation", 1.0), ("rank-one-invariants", 1.0),
    ("outer-entry-identities", 1.0), ("family-triple-contraction", 1.0),
    ("same-family-accept", 1.0), ("same-family-reject", 0.0), ("family-dimension", 0.0),
    ("quaternionic-lift", 1.0), ("quaternionic-split-orthogonality", 1.0),
    ("quaternionic-six-way", 1.0), ("six-way-reconstruction", 1.0),
    ("six-way-eigen-residuals", 1.0),
]

MASKS = {"octonionic": None, "quaternionic": (0, 1, 2, 4), "complex": (0, 1), "real": (0,)}


def octs(a):
    return [Octonion(x) for x in a]


def vecs(a):
    return [OctVector3.from_coords(x) for x in a]


def mats(stack):
    return [Hermitian3(*map(float, d), *map(Octonion, o)) for d, o in zip(stack.dia, stack.off)]


def matrices(ctx):
    """A matrix check's n octonionic matrices, drawn as `_residuals` draws them."""
    return _draw_stack(ctx.rng, ctx.n, "octonionic")


def combine(coeffs, basis):
    acc = Octonion.zero()
    for c, b in zip(coeffs, basis):
        acc = acc + b * float(c)
    return acc


def t_elements(ctx, As):
    return [combine(c, t_basis(A).vectors) for c, A in zip(ctx.uniform(4), As)]


def families(ctx):
    """The family index per pool matrix, drawn as `_Checks.family` draws it."""
    return ctx.rng.integers(0, 2, ctx.n)


def ref_composition_norm(ctx):
    worst = 0.0
    for p, q in zip(octs(ctx.uniform(8)), octs(ctx.uniform(8))):
        worst = max(worst, abs((p * q).norm() - p.norm() * q.norm())
                    / max(1e-300, p.norm() * q.norm()))
    return worst


def ref_alternativity(ctx):
    worst = 0.0
    for p, q in zip(octs(ctx.uniform(8)), octs(ctx.uniform(8))):
        scale = max(1.0, p.norm() ** 2 * q.norm(), p.norm() * q.norm() ** 2)
        worst = max(worst, associator(p, p, q).norm() / scale,
                    associator(p, q, q).norm() / scale)
    return worst


def ref_conj_antihom(ctx):
    worst = 0.0
    for i in range(8):
        for j in range(1, 8):
            p, q = Octonion.unit(i), Octonion.unit(j)
            worst = max(worst, ((p * q).conj() - q.conj() * p.conj()).norm())
    for p, q in zip(octs(ctx.uniform(8)), octs(ctx.uniform(8))):
        worst = max(worst, ((p * q).conj() - q.conj() * p.conj()).norm()
                    / max(1.0, p.norm() * q.norm()))
    return worst


def ref_inner_coincidence(ctx):
    worst = 0.0
    for p, q in zip(octs(ctx.uniform(8)), octs(ctx.uniform(8))):
        form = 0.5 * ((p * q.conj()).real + (q * p.conj()).real)
        form2 = 0.5 * ((p.conj() * q).real + (q.conj() * p).real)
        scale = max(1.0, p.norm() * q.norm())
        worst = max(worst, abs(form - inner(p, q)) / scale, abs(form2 - inner(p, q)) / scale)
    return worst


def ref_trace_form(ctx):
    worst = 0.0
    for x, y, z in zip(octs(ctx.uniform(8)), octs(ctx.uniform(8)), octs(ctx.uniform(8))):
        scale = max(1.0, x.norm() * y.norm() * z.norm())
        worst = max(worst, abs(((x * y) * z).real - (x * (y * z)).real) / scale)
    return worst


def ref_left_mul_isometry(ctx):
    worst = 0.0
    for q in octs(ctx.uniform(8)):
        L = left_mul_matrix(q)
        worst = max(worst, float(np.abs(L.T @ L - q.norm2() * np.eye(8)).max())
                    / max(1.0, q.norm2()))
    return worst


def ref_sigma_closed_form(ctx):
    worst = 0.0
    for A in mats(matrices(ctx)):
        closed = (A.d * A.e + A.e * A.f + A.f * A.d
                  - A.a.norm2() - A.b.norm2() - A.c.norm2())
        worst = max(worst, abs(old_sigma(A) - closed) / max(1.0, abs(closed)))
    return worst


def ref_k_diagonality(ctx):
    worst = 0.0
    for A, x in zip(mats(matrices(ctx)), vecs(ctx.uniform(3, 8))):
        ax = mat_vec(A, x)
        a2x = mat_vec(A, ax)
        a3x = mat_vec(A, a2x)
        kx = (a3x - a2x.scale(trace(A)) + ax.scale(old_sigma(A))
              - x.scale(old_det(A) + ctx.det_offset))
        scale = max(1.0, A.frobenius()) ** 3 * max(1.0, x.norm())
        for slot in range(3):
            diff = (kx.components[slot] - k_scalar(A, x.components[slot])).norm()
            worst = max(worst, diff / scale)
    return worst


def ref_r_root_relations(ctx):
    worst = 0.0
    for A in mats(matrices(ctx)):
        r1, r2 = old_roots(A)
        al2 = old_alpha(A).norm2()
        scale = max(1.0, abs(r1), abs(r2), al2)
        worst = max(worst, abs(r1 + r2 + 4.0 * old_phi(A)) / scale, abs(r1 * r2 + al2) / scale)
    return worst


def ref_lambda_root_relations(ctx):
    worst = 0.0
    for A in mats(matrices(ctx)):
        for r in r_roots(A):
            lams = lambda_roots(A, r)
            target = det(A) + r
            scale = max(1.0, abs(trace(A)), abs(target), max(abs(x) for x in lams) ** 3)
            worst = max(worst, abs(sum(lams) - trace(A)) / scale,
                        abs(lams[0] * lams[1] * lams[2] - target) / scale)
    return worst


def ref_s_normalization(ctx):
    worst = 0.0
    for A in mats(matrices(ctx)):
        s1, s2 = s_elements(A)
        al = alpha(A)
        r1, _ = r_roots(A)
        worst = max(worst, (s1 + s2 - Octonion.from_real(1.0)).norm())
        worst = max(worst, (s1.imag() - al / (2.0 * (r1 + 2.0 * phi(A)))).norm())
        cross = s1.conj() * s2
        coef = inner(cross, al) / al.norm2()
        worst = max(worst, (cross - al * coef).norm() / max(1.0, cross.norm()))
    return worst


def ref_k_on_t(ctx):
    worst = 0.0
    As = mats(matrices(ctx))
    for A, t in zip(As, t_elements(ctx, As)):
        al = alpha(A)
        scale = max(1.0, t.norm() * al.norm())
        worst = max(worst, (k_scalar(A, t) - t * al).norm() / scale)
    return worst


def ref_k_on_t_perp(ctx):
    worst = 0.0
    As = mats(matrices(ctx))
    for A, t in zip(As, t_elements(ctx, As)):
        al = alpha(A)
        u = t * al
        rhs = -1.0 * (u * (al + Octonion.from_real(4.0 * phi(A))))
        scale = max(1.0, u.norm() * al.norm(), u.norm() * abs(4 * phi(A)))
        worst = max(worst, (k_scalar(A, u) - rhs).norm() / scale)
    return worst


def ref_k_quadratic(ctx):
    worst = 0.0
    for A, p in zip(mats(matrices(ctx)), octs(ctx.uniform(8))):
        al2 = alpha(A).norm2()
        kp = k_scalar(A, p)
        resid = (k_scalar(A, kp) + kp * (4.0 * phi(A)) - p * al2).norm()
        worst = max(worst, resid / max(1.0, al2 * p.norm()))
    return worst


def ref_k_self_adjoint(ctx):
    worst = 0.0
    for A, p, q in zip(mats(matrices(ctx)), octs(ctx.uniform(8)), octs(ctx.uniform(8))):
        scale = max(1.0, A.frobenius() ** 3 * p.norm() * q.norm())
        worst = max(worst, abs(inner(k_scalar(A, p), q) - inner(p, k_scalar(A, q))) / scale)
    return worst


def ref_projector_algebra(ctx):
    worst = 0.0
    for A, p in zip(mats(matrices(ctx)), octs(ctx.uniform(8))):
        k1 = project_km(A, 1, p)
        k2 = project_km(A, 2, p)
        scale = max(1.0, p.norm())
        worst = max(worst, (k1 + k2 - p).norm() / scale)
        worst = max(worst, (project_km(A, 1, k1) - k1).norm() / scale,
                    (project_km(A, 2, k2) - k2).norm() / scale)
        worst = max(worst, project_km(A, 1, k2).norm() / scale,
                    project_km(A, 2, k1).norm() / scale)
    return worst


def ref_cd_table(ctx):
    worst = 0.0
    As = mats(matrices(ctx))
    for A, t1, t2 in zip(As, t_elements(ctx, As), t_elements(ctx, As)):
        scale = max(1.0, t1.norm() * t2.norm() * alpha(A).norm2())
        worst = max(worst, max(old_cd_table(A, t1, t2)) / scale)
    return worst


def ref_t_perp(ctx):
    worst = 0.0
    for A in mats(matrices(ctx)):
        al = alpha(A)
        tb = t_basis(A).vectors
        ta = orthonormalize([b * al for b in tb])
        if len(ta) != 4:
            return float("inf")
        gram = np.array([[inner(x, y) for y in ta] for x in tb])
        worst = max(worst, float(np.abs(gram).max()))
    return worst


def ref_t2_is_t1_alpha(ctx):
    worst = 0.0
    for A in mats(matrices(ctx)):
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


def ref_eigenspace_characterization(ctx):
    worst = 0.0
    As = mats(matrices(ctx))
    coeffs, draws = ctx.uniform(2, 4), ctx.uniform(2, 8)
    for A, cs, ps in zip(As, coeffs, draws):
        al, ph, tb = alpha(A), phi(A), t_basis(A).vectors
        for m, r in zip((1, 2), r_roots(A)):
            gen = Octonion.from_real(r + 4.0 * ph) + al
            q = combine(cs[m - 1], tb) * gen
            scale = max(1.0, abs(r) * q.norm())
            worst = max(worst, (k_scalar(A, q) - q * r).norm() / scale)
            qm = project_km(A, m, Octonion(ps[m - 1]))
            span = orthonormalize([b * gen for b in tb])
            worst = max(worst, span_distance(qm, span) / max(1.0, qm.norm()))
    return worst


def ref_family_product_in_t(ctx):
    worst = 0.0
    As = mats(matrices(ctx))
    for A, ps, qs in zip(As, ctx.uniform(2, 8), ctx.uniform(2, 8)):
        tb = t_basis(A).vectors
        for m in (1, 2):
            p = project_km(A, m, Octonion(ps[m - 1]))
            q = project_km(A, m, Octonion(qs[m - 1]))
            worst = max(worst, span_distance(p * q.conj(), tb) / max(1.0, p.norm() * q.norm()))
    return worst


def ref_family_associator_multiplier(ctx):
    worst = 0.0
    As = mats(matrices(ctx))
    p1s, p2s = t_elements(ctx, As), t_elements(ctx, As)
    for A, p1, p2, qas, qbs in zip(As, p1s, p2s, ctx.uniform(2, 8), ctx.uniform(2, 8)):
        for m in (1, 2):
            qa = project_km(A, m, Octonion(qas[m - 1]))
            qb = project_km(A, m, Octonion(qbs[m - 1]))
            if qa.norm() < 1e-6 or qb.norm() < 1e-6:
                continue
            pa = associator(p1, p2, qa) * qa.inverse()
            pb = associator(p1, p2, qb) * qb.inverse()
            worst = max(worst, (pa - pb).norm() / max(1.0, p1.norm() * p2.norm()))
    return worst


def ref_basis_invariance(ctx):
    As = mats(matrices(ctx))
    M = ctx.uniform(3, 3)
    while (bad := np.abs(np.linalg.det(M)) <= 0.05).any():
        M[bad] = ctx.uniform(3, 3, n=bad.sum())
    return max(basis_invariance_check(A, m, shifts=s)
               for A, m, s in zip(As, M, ctx.uniform(3)))


def systems(stack):
    """Each matrix of a pool with its eigensystem, one `eigensystem` call per matrix."""
    return [(A, eigensystem(A)) for A in mats(stack)]


def pool_residual(key):
    return lambda ctx: max(max(f.residuals[key] for f in es.families)
                           for _, es in pool(ctx))


def pool(ctx):
    return systems(ctx.oct_pool)


def ref_theorem_eigen_projection(ctx):
    worst = 0.0
    fams, ks, ys = families(ctx), ctx.rng.integers(0, 3, ctx.n), vecs(ctx.uniform(3, 8))
    for (A, es), f, k, y in zip(pool(ctx), fams, ks, ys):
        fam = es.families[f]
        v = fam.pairs[k].v
        y = project_km_vec(A, fam.context.m, y)
        B = outer(v)
        by = mat_vec(B, y)
        worst = max(worst, (mat_vec(B, by) - by.scale(v.norm2())).norm() / max(1.0, y.norm()))
    return worst


def ref_theorem_general_projection(ctx):
    worst = 0.0
    fams, ys, zs = families(ctx), vecs(ctx.uniform(3, 8)), vecs(ctx.uniform(3, 8))
    for (A, _), f, y, z in zip(pool(ctx), fams, ys, zs):
        y = project_km_vec(A, f + 1, y)
        z = project_km_vec(A, f + 1, z)
        B = outer(y)
        bz = mat_vec(B, z)
        scale = max(1.0, y.norm2() ** 2 * z.norm())
        worst = max(worst, (mat_vec(B, bz) - bz.scale(y.norm2())).norm() / scale)
    return worst


def ref_restricted_projector(ctx):
    worst = 0.0
    for (A, es), f, y in zip(pool(ctx), families(ctx), vecs(ctx.uniform(3, 8))):
        fam = es.families[f]
        u, v = fam.pairs[0].v, fam.pairs[1].v
        y = project_km_vec(A, fam.context.m, y)
        worst = max(worst, mat_vec(outer(u), mat_vec(outer(v), y)).norm() / max(1.0, y.norm()))
    return worst


def ref_projection_eigen_invariance(ctx):
    worst = 0.0
    fams, ks, ys = families(ctx), ctx.rng.integers(0, 3, ctx.n), vecs(ctx.uniform(3, 8))
    for (A, es), f, k, y in zip(pool(ctx), fams, ks, ys):
        fam = es.families[f]
        pair = fam.pairs[k]
        y = project_km_vec(A, fam.context.m, y)
        py = mat_vec(outer(pair.v), y)
        scale = max(1.0, A.frobenius() * y.norm())
        worst = max(worst, (mat_vec(A, py) - py.scale(pair.lam)).norm() / scale)
    return worst


def ref_vector_self_associator(ctx):
    worst = 0.0
    for v in vecs(ctx.uniform(3, 8)):
        resid = (mat_vec(outer(v), v) - v.scale(v.norm2())).norm()
        worst = max(worst, resid / max(1.0, v.norm() ** 3))
    return worst


def ref_family_r_relation(ctx):
    worst = 0.0
    fams, all_lams = families(ctx), ctx.rng.uniform(-2.0, 2.0, (ctx.n, 3))
    for (_, es), f, lams in zip(pool(ctx), fams, all_lams):
        fam = es.families[f]
        B = hermitian_combination(zip(lams, (p.v for p in fam.pairs)))
        r = float(np.prod(lams)) - det(B)
        for p in fam.pairs:
            kb = k_vector(B, p.v)
            worst = max(worst, (kb - p.v.scale(r)).norm() / max(1.0, B.frobenius()) ** 3)
    return worst


def ref_rank_one_invariants(ctx):
    worst = 0.0
    for (A, _), f, v in zip(pool(ctx), families(ctx), vecs(ctx.uniform(3, 8))):
        v = project_km_vec(A, f + 1, v)
        if v.norm() < 1e-6:
            continue
        v = v.scale(1.0 / v.norm())
        B = outer(v)
        worst = max(worst, abs(trace(B) - 1.0), abs(sigma(B)))
        worst = max(worst, (k_vector(B, v) + v.scale(det(B))).norm())
    return worst


def ref_outer_entry_identities(ctx):
    worst = 0.0
    for (A, _), f, y in zip(pool(ctx), families(ctx), vecs(ctx.uniform(3, 8))):
        y = project_km_vec(A, f + 1, y)
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


def ref_family_triple_contraction(ctx):
    worst = 0.0
    fams, ys, qs = families(ctx), vecs(ctx.uniform(3, 8)), octs(ctx.uniform(8))
    for (A, _), f, y, q in zip(pool(ctx), fams, ys, qs):
        y = project_km_vec(A, f + 1, y)
        B = outer(y)
        t1, t2, t3 = B.c, B.b, B.a
        d1, d2, d3 = B.d, B.e, B.f
        q = project_km(A, f + 1, q)
        scale = max(1.0, y.norm() ** 4 * q.norm())
        cyc = [((t2, t3, d1, t1), (t1, t3, d2, t2)),
               ((t3, t1, d2, t2), (t2, t1, d3, t3)),
               ((t1, t2, d3, t3), (t3, t2, d1, t1))]
        for (a1, a2, dd, tt), (b1, b2, ee, ss) in cyc:
            worst = max(worst, (a1 * (a2 * q) - (tt.conj() * q) * dd).norm() / scale)
            worst = max(worst, (b1.conj() * (b2.conj() * q) - (ss * q) * ee).norm() / scale)
    return worst


def ref_same_family_reject(ctx):
    wrong = 0
    for (_, es), i, j in zip(pool(ctx), *ctx.rng.integers(0, 3, (2, ctx.n))):
        u = es.families[0].pairs[i].v
        w = es.families[1].pairs[j].v
        wrong += same_family(u, w) + (not same_family(u, u))
    return float(wrong)


def ref_family_dimension(ctx):
    first = [es for _, es in pool(ctx)][:8]
    fams = ctx.rng.integers(0, 2, len(first))
    return max(abs(family_dimension_probe(es.families[f].pairs[0].v, samples=24) - 12)
               for es, f in zip(first, fams))


def quat_pool(ctx):
    return systems(ctx.quat_pool)


def ref_quaternionic_lift(ctx):
    worst = 0.0
    nq = len(ctx.quat_pool.dia)
    for (A, es), coeffs in zip(quat_pool(ctx), ctx.uniform(3, 4, n=nq)):
        hbasis, ell = quaternionic_split(A)
        Ab = conj_matrix(A)
        v = OctVector3(tuple(combine(row, hbasis) for row in coeffs))
        lv = OctVector3(tuple(ell * comp for comp in v.components))
        rhs = OctVector3(tuple(ell * comp for comp in mat_vec(Ab, v).components))
        worst = max(worst, (mat_vec(A, lv) - rhs).norm() / max(1.0, A.frobenius() * v.norm()))
        lams1 = sorted(p.lam for p in es.families[0].pairs)
        lams2 = sorted(p.lam for p in es.families[1].pairs)
        ref1, ref2 = sorted(lambda_roots(A, 0.0)), sorted(lambda_roots(Ab, 0.0))
        scale = max(1.0, A.frobenius())
        worst = max(worst, max(abs(a - b) for a, b in zip(lams1, ref1)) / scale)
        worst = max(worst, max(abs(a - b) for a, b in zip(lams2, ref2)) / scale)
    return worst


def ref_quaternionic_split_orthogonality(ctx):
    worst = 0.0
    for A, _ in quat_pool(ctx):
        hbasis, ell = quaternionic_split(A)
        worst = max(worst, (ell * ell + Octonion.from_real(1.0)).norm())
        for h in hbasis:
            worst = max(worst, abs(inner(ell, h)))
            for g in hbasis:
                worst = max(worst, abs(inner(ell * h, g)))
    return worst


def ref_quaternionic_six_way(ctx):
    worst = 0.0
    nq = len(ctx.quat_pool.dia)
    for (A, es), x in zip(quat_pool(ctx), vecs(ctx.uniform(3, 8, n=nq))):
        dec = quaternionic_six_way(A, x, system=es)
        worst = max(worst, dec.reconstruction_residual, max(dec.eigen_residuals))
        H = np.array([h.coords for h in quaternionic_split(A)[0]])
        x1 = OctVector3.from_coords(x.to_coords().reshape(3, 8) @ (H.T @ H))
        for pair, part in zip(es.families[0].pairs, dec.parts[:3]):
            classic = pair.v.right_mul(pair.v.dagger_dot(x1))
            worst = max(worst, (classic - part.component).norm() / max(1.0, x.norm()))
    return worst


def six_ways(ctx):
    return [six_way(A, x, system=es) for (A, es), x in zip(pool(ctx), vecs(ctx.uniform(3, 8)))]


def ref_six_way_reconstruction(ctx):
    decs = six_ways(ctx)
    if any(len(dec.parts) != 6 for dec in decs):
        return float("inf")
    return max(dec.reconstruction_residual for dec in decs)


def ref_six_way_eigen_residuals(ctx):
    return max(max(dec.eigen_residuals) for dec in six_ways(ctx))


REFERENCES = {
    "composition-norm": ref_composition_norm,
    "alternativity": ref_alternativity,
    "conjugation-antihomomorphism": ref_conj_antihom,
    "inner-product-coincidence": ref_inner_coincidence,
    "trace-form-associativity": ref_trace_form,
    "left-mul-isometry": ref_left_mul_isometry,
    "sigma-closed-form": ref_sigma_closed_form,
    "k-diagonality": ref_k_diagonality,
    "r-root-relations": ref_r_root_relations,
    "lambda-root-relations": ref_lambda_root_relations,
    "s-normalization": ref_s_normalization,
    "k-on-t": ref_k_on_t,
    "k-on-t-perp": ref_k_on_t_perp,
    "k-operator-quadratic": ref_k_quadratic,
    "k-self-adjoint": ref_k_self_adjoint,
    "k-projector-algebra": ref_projector_algebra,
    "cayley-dickson-table": ref_cd_table,
    "t-perp-is-t-alpha": ref_t_perp,
    "t2-is-t1-alpha": ref_t2_is_t1_alpha,
    "eigenspace-characterization": ref_eigenspace_characterization,
    "family-product-in-t": ref_family_product_in_t,
    "family-associator-multiplier": ref_family_associator_multiplier,
    "basis-invariance": ref_basis_invariance,
    "identity-decomposition": pool_residual("identity_decomposition"),
    "matrix-decomposition": pool_residual("matrix_decomposition"),
    "eigen-equation": pool_residual("eigen"),
    "k-eigen-equation": pool_residual("k_eigen"),
    "generalized-orthogonality": pool_residual("generalized_orthogonality"),
    "eigen-projection-idempotence": ref_theorem_eigen_projection,
    "general-projection-idempotence": ref_theorem_general_projection,
    "restricted-projector-orthogonality": ref_restricted_projector,
    "projection-eigen-invariance": ref_projection_eigen_invariance,
    "vector-self-associator": ref_vector_self_associator,
    "family-r-relation": ref_family_r_relation,
    "rank-one-invariants": ref_rank_one_invariants,
    "outer-entry-identities": ref_outer_entry_identities,
    "family-triple-contraction": ref_family_triple_contraction,
    "same-family-accept": ref_theorem_eigen_projection,
    "same-family-reject": ref_same_family_reject,
    "family-dimension": ref_family_dimension,
    "quaternionic-lift": ref_quaternionic_lift,
    "quaternionic-split-orthogonality": ref_quaternionic_split_orthogonality,
    "quaternionic-six-way": ref_quaternionic_six_way,
    "six-way-reconstruction": ref_six_way_reconstruction,
    "six-way-eigen-residuals": ref_six_way_eigen_residuals,
}


# the scalar invariants as they were computed before they became the
# unstacked case of the stacked ones, with octonion products throughout

def old_sigma(A):
    rows = A.entries()
    t = trace(A)
    return 0.5 * (t * t - sum((rows[i][j] * rows[j][i]).real
                              for i in range(3) for j in range(3)))


def old_det(A):
    return (A.d * A.e * A.f - A.d * A.c.norm2() - A.e * A.b.norm2() - A.f * A.a.norm2()
            + 2.0 * ((A.c * A.b) * A.a).real)


def old_alpha(A):
    return (A.a * A.b) * A.c - A.a * (A.b * A.c)


def old_phi(A):
    bc = A.b.conj()
    return 0.5 * ((A.a * (bc * A.c)).real - (A.c * (bc * A.a)).real)


def old_roots(A):
    ph, al2 = old_phi(A), old_alpha(A).norm2()
    far = -2.0 * ph - math.copysign(math.sqrt(4.0 * ph * ph + al2), ph)
    near = -al2 / far
    return max(far, near), min(far, near)


def old_cd_table(A, t1, t2):
    al = old_alpha(A)
    n2 = al.norm2()
    return ((t1 * (t2 * al) - (t2 * t1) * al).norm(),
            ((t1 * al) * t2 - (t1 * t2.conj()) * al).norm(),
            ((t1 * al) * (t2 * al) + (t2.conj() * t1) * n2).norm())


def test_names_order_and_factors_unchanged():
    assert [(name, factor) for name, _, factor in _CHECKS] == NAMES_AND_FACTORS
    results = run_verification(seed=0, samples=2, tolerance=1e-6)
    assert [(r.name, r.tolerance) for r in results] == [
        (name, 1e-6 * factor) for name, factor in NAMES_AND_FACTORS]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_checks_match_the_per_octonion_references(seed):
    stacked, reference = _Checks(seed, 20), _Checks(seed, 20)
    for name, fn, _ in _CHECKS:
        got = float(np.max(_residuals(stacked, [fn])[0]))
        want = float(REFERENCES[name](reference))
        assert abs(got - want) <= 1e-13, (name, got, want)
        # the two contexts must still draw in step
        assert stacked.rng.bit_generator.state == reference.rng.bit_generator.state, name


def test_k_diagonality_matches_its_reference_off_the_identity():
    # with the determinant offset the residual is of order 1e-4, so the
    # two computations are compared relative to it
    for seed in range(3):
        stacked, reference = _Checks(seed, 20, 1e-3), _Checks(seed, 20, 1e-3)
        got = float(np.max(_residuals(stacked, [_Checks.k_diagonality])[0]))
        want = ref_k_diagonality(reference)
        assert want > 1e-5
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("kind", list(MASKS))
def test_stacked_invariants_equal_the_scalar_ones(kind):
    drawn = _draw_stack(np.random.default_rng(5), 40, kind)
    dia, off = drawn.dia, drawn.off
    As = mats(_Stack(dia, off))
    bare = _Stack(None, off)
    codes, dim_t = _classes(off, bare.associative)
    for i, A in enumerate(As):
        assert classify(A).tag == kind == _TAGS[codes[i]]
        assert classify(A).dim_t == dim_t[i]
        assert _sigma(dia, off)[i] == sigma(A)
        assert _det(dia, off)[i] == det(A)
        assert bare.phi[i] == phi(A)
        assert np.array_equal(bare.alpha[i], alpha(A).coords)
        # and the scalar ones agree with the octonion-product formulas
        assert sigma(A) == pytest.approx(old_sigma(A), rel=1e-14, abs=1e-15)
        assert det(A) == pytest.approx(old_det(A), rel=1e-14, abs=1e-15)
        assert phi(A) == pytest.approx(old_phi(A), rel=1e-14, abs=1e-15)
        assert np.allclose(alpha(A).coords, old_alpha(A).coords, rtol=0, atol=1e-15)
    if kind != "octonionic":
        return
    stack = _Stack(dia, off)
    ph, al, rs, s = stack.families
    for i, A in enumerate(As):
        assert np.allclose(rs[i], r_roots(A), rtol=1e-14, atol=0)
        assert np.allclose(rs[i], old_roots(A), rtol=1e-13, atol=1e-15)
        assert np.allclose(s[i], [q.coords for q in s_elements(A)], rtol=0, atol=1e-15)
        assert np.allclose(stack.K[i], k_matrix(A), rtol=0, atol=1e-14)
        units = [Octonion.unit(j) for j in range(8)]
        assert np.allclose(stack.K[i], np.array([k_scalar(A, u).coords for u in units]).T,
                           rtol=0, atol=1e-13)
        for m in (1, 2):
            assert np.allclose(stack.P[i, m - 1], family_projector(A, m), rtol=0, atol=1e-14)
        assert np.allclose(stack.T[i], [q.coords for q in t_basis(A).vectors], rtol=0, atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_every_check_passes_at_100_samples(seed):
    failed = [r.name for r in run_verification(seed=seed, samples=100) if not r.passed]
    assert failed == []


@pytest.mark.parametrize("seed", range(5))
def test_det_offset_fails_k_diagonality_alone(seed):
    results = run_verification(seed=seed, samples=20, det_offset=1e-3)
    assert [r.name for r in results if not r.passed] == ["k-diagonality"]


def test_reports_repeat_exactly():
    first = [r.to_json() for r in run_verification(seed=7, samples=12)]
    assert first == [r.to_json() for r in run_verification(seed=7, samples=12)]


def test_orthonormalize_repeats_the_octonion_loop_bit_for_bit(rng):
    def loop(vectors, tol=1e-9):
        basis = []
        for q in vectors:
            v = q
            for _ in range(2):
                for b in basis:
                    v = v - b * inner(b, v)
            if v.norm() > tol * q.norm():
                basis.append(v * (1.0 / v.norm()))
        return basis

    for _ in range(200):
        scale = 10.0 ** rng.uniform(-8, 8)
        vectors = octs(rng.uniform(-1, 1, (int(rng.integers(1, 6)), 8)) * scale)
        if rng.uniform() < 0.3:
            vectors.append(vectors[0] * 2.0 + vectors[-1])
        got, want = orthonormalize(vectors), loop(vectors)
        assert [q.coords.tobytes() for q in got] == [q.coords.tobytes() for q in want]


def test_verify_derives_each_drawn_stack_once(monkeypatch):
    # one run_verification(0, 8): alpha and phi once per solved stack (the 17 matrix checks
    # share 3 stacks of at most 64 rows, then the 2 pools) and once for the stack
    # basis_invariance moves; Gram-Schmidt without the Octonion-dispatching inner, once per
    # row-set stack (T once for each of the 2 shared stacks that read it, and both families
    # of t2-is-t1-alpha in one call); the family dimension as one eigenvalue count, with no
    # SVD and no random probe
    seen = {"alpha_phi": 0, "gram_schmidt": 0, "inner": [], "svd": [], "eigvalsh": [], "rng": []}

    def alpha_phi(*args, real=hermitian._alpha_phi):
        seen["alpha_phi"] += 1
        return real(*args)

    def gram_schmidt(*args, real=subspace._gram_schmidt):
        seen["gram_schmidt"] += 1
        return real(*args)

    def caller(key, real):
        def wrapped(*args, **kwargs):
            seen[key].append(sys._getframe(1).f_code.co_name)
            return real(*args, **kwargs)
        return wrapped

    for mod in (hermitian, spectral):
        monkeypatch.setattr(mod, "_alpha_phi", alpha_phi)
    for mod in (spectral, harness):
        monkeypatch.setattr(mod, "_gram_schmidt", gram_schmidt)
    for mod in (octonion, subspace, harness):
        monkeypatch.setattr(mod, "inner", caller("inner", octonion.inner), raising=False)
    monkeypatch.setattr(np.linalg, "svd", caller("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "eigvalsh", caller("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np.random, "default_rng", caller("rng", np.random.default_rng))
    run_verification(0, 8)
    assert seen["alpha_phi"] == 6
    assert seen["gram_schmidt"] == 6
    assert "_gram_schmidt" not in seen["inner"]
    assert "_family_dimensions" not in seen["svd"] + seen["rng"]
    assert seen["eigvalsh"].count("_family_dimensions") == 1


@pytest.mark.parametrize("n", [1, 8, 20])
def test_shared_stacks_keep_the_report_bytes(monkeypatch, n):
    # a bound of 1 row solves each of the 17 matrix checks on a stack of its own, one of 17 n
    # rows all of them on one; the pools are 2 stacks more
    solved = []

    def masked_stack(kind, dia, off, real=harness._masked_stack):
        solved.append(len(dia))
        return real(kind, dia, off)

    monkeypatch.setattr(harness, "_masked_stack", masked_stack)
    want = json.dumps([r.to_json() for r in run_verification(3, n)])
    for rows, stacks in ((1, 19), (17 * n, 3)):
        monkeypatch.setattr(harness, "_STACK_ROWS", rows)
        solved.clear()
        assert json.dumps([r.to_json() for r in run_verification(3, n)]) == want, rows
        assert len(solved) == stacks, rows


@pytest.mark.parametrize("rows", [1, 64])
def test_an_associative_row_still_fails_the_draw(monkeypatch, rows):
    # the second check's matrices have a real row 1, alone on its stack or shared
    drawn = []

    def uniform(self, *shape, n=None, real=harness._Checks.uniform):
        x = real(self, *shape, n=n)
        drawn.append(shape)
        if drawn.count((3, 8)) == 2 and shape == (3, 8):
            x[1, :, 1:] = 0.0
        return x

    monkeypatch.setattr(harness._Checks, "uniform", uniform)
    monkeypatch.setattr(harness, "_STACK_ROWS", rows)
    with pytest.raises(RuntimeError, match="^failed to sample a octonionic matrix$"):
        _residuals(_Checks(0, 4), [_Checks.sigma_closed_form, _Checks.r_root_relations])


def test_a_wrong_family_dimension_fails_its_check_alone(monkeypatch):
    # with no rank cut the count finds no null eigenvalue: dimension 0, not 12
    monkeypatch.setattr(spectral, "REAL_RANK_TOL", 0.0)
    assert [r.name for r in run_verification(0, 8) if not r.passed] == ["family-dimension"]


def test_the_class_test_reads_the_cached_associator_mask(monkeypatch):
    calls = []

    def associative(*args, real=hermitian._associative):
        calls.append(len(args[0]))
        return real(*args)

    for mod in (hermitian, spectral):
        monkeypatch.setattr(mod, "_associative", associative)
    for kind in MASKS:
        drawn = _draw_stack(np.random.default_rng(7), 5, kind)
        dia, off = drawn.dia, drawn.off
        calls.clear()
        S = _Stack(dia, off)
        S.codes, S.classes
        assert calls == [5], kind


@pytest.mark.parametrize("kind", MASKS)
def test_a_one_class_stack_keeps_the_eigenpairs_it_solved(monkeypatch, kind):
    # no zero arrays and no scatter: lams and V are what _eigenpairs returned, uncopied
    returned = []

    def eigenpairs(*args, real=spectral._eigenpairs):
        returned.append(real(*args))
        return returned[-1]

    monkeypatch.setattr(spectral, "_eigenpairs", eigenpairs)
    drawn = _draw_stack(np.random.default_rng(8), 6, kind)
    S = _Stack(drawn.dia, drawn.off)
    S.V
    (lams, V), = returned
    assert S.lams is lams
    nfam = 2 if kind in ("octonionic", "quaternionic") else 1
    assert S.V.shape == (6, nfam, 3, 3, 8) and np.shares_memory(S.V, V)


def fuzz_reference(seed, samples, kind):
    """`run_fuzz`'s worst residuals, from `eigensystem` and `six_way` on one sample at a time."""
    drawn, x = _draw_fuzz(np.random.default_rng(seed), samples, kind)
    worst = dict.fromkeys(["eigen-equation", "identity-decomposition", "matrix-decomposition",
                           "six-way-reconstruction", "six-way-eigen-residuals"], 0.0)
    for d, o, v in zip(drawn.dia, drawn.off, x):
        A = Hermitian3(*d, *map(Octonion, o))
        dec = six_way(A, OctVector3.from_coords(v))
        for fam in eigensystem(A).families:
            for name, key in (("eigen-equation", "eigen"),
                              ("identity-decomposition", "identity_decomposition"),
                              ("matrix-decomposition", "matrix_decomposition")):
                worst[name] = max(worst[name], fam.residuals[key])
        worst["six-way-reconstruction"] = max(worst["six-way-reconstruction"],
                                              dec.reconstruction_residual)
        worst["six-way-eigen-residuals"] = max(worst["six-way-eigen-residuals"],
                                               *dec.eigen_residuals)
    return worst


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("kind", MASKS)
def test_fuzz_matches_the_per_sample_reference(kind, seed):
    # a stacked row is the single-matrix call bit for bit, so the worst residuals are equal
    got = run_fuzz(seed, 12, kind)
    want = fuzz_reference(seed, 12, kind)
    assert [(r.name, r.residual) for r in got] == list(want.items())
    assert all(r.passed for r in got)


# sha256 of `fuzz --samples 25 --out` reports, and of the JSON of run_verification(0, 20)
FUZZ_DIGESTS = {
    ("octonionic", 0): "480ff3fa10bff7f62e1d570c42c4f8f6c64f202ac18af7543292a82833f9b4cd",
    ("octonionic", 1): "d1dce6474a8781b4b8a2f24d9e661cdc5b207ca0e61e9961c2a4765067cf8f35",
    ("octonionic", 2): "0aec7b083f8ee7169578b7bc38e2a4c9f60b91b89058d2600016c022f2984fe9",
    ("quaternionic", 0): "5a4b02a2023f163e82360db79ced46c854d470b349e33a4acd34f3aa5be1fe40",
    ("quaternionic", 1): "be22d510c79f0c43747841fb5d44cf9b4f15fb10449850cb47ff5b8dc420f3d7",
    ("quaternionic", 2): "01e495b684addcf4efc9d9c3a3d3395a627e636295d9a945dde2a9998d9daa66",
    ("complex", 0): "fef36202064d70f2560b221c8e0677a58d785f31999fc8c1915fb87973f22a4a",
    ("complex", 1): "58c34f60eeb071d4e0a19d717ebde1a1a097895d0449c5b6ad63e869b098a70b",
    ("complex", 2): "bb5c08b3f57b2a981026334f4d8a30437afd90c3bca6f0aad7b98befd09c4e4c",
    ("real", 0): "47eb6e81f2d53cd151df06e13eab2fae25c00774b9903e539b8661398c03fe67",
    ("real", 1): "e81c89152b8589de65b0fe9d0bc1a6ff326eb656c75f90ea7c1c205a55959ca6",
    ("real", 2): "e44ed931aaee730cd73eb95413605b51517c066ed5d25653d7a51b0ef76145e3",
}
VERIFY_DIGEST = "3bd29c9a6ad0266bf86fc296e882c288d26e2fbc0c964153192dc5d40b691da6"


def test_fuzz_and_verify_reports_keep_their_bytes(tmp_path, capsys):
    out = tmp_path / "fuzz.json"
    for (kind, seed), digest in FUZZ_DIGESTS.items():
        assert main(["fuzz", "--class", kind, "--seed", str(seed), "--samples", "25",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (kind, seed)
    capsys.readouterr()
    text = json.dumps([r.to_json() for r in run_verification(0, 20)])
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_DIGEST


def test_fuzz_forms_the_outer_products_once_and_no_k_residual(monkeypatch):
    # the split and the family residuals read one block per stack; fuzz reports neither the
    # K residual nor generalized orthogonality, so it computes neither, and no sigma
    formed, asked, stacks = [], [], []

    @functools.wraps(spectral._Stack.outers.func)
    def outers(self, real=spectral._Stack.outers.func):
        formed.append(self)
        return real(self)

    def family_residuals(A, *args, real=spectral._family_residuals):
        asked.append(args[-1])
        stacks.append(A)
        return real(A, *args)

    monkeypatch.setattr(spectral._Stack, "outers", hermitian._lazy(outers))
    monkeypatch.setattr(spectral, "_family_residuals", family_residuals)
    for kind in MASKS:
        del formed[:], asked[:], stacks[:]
        run_fuzz(0, 8, kind)
        assert len(formed) == 1, kind
        assert [tuple(keys) for keys in asked] == [
            ("eigen", "identity_decomposition", "matrix_decomposition")], kind
        assert "sigma" not in vars(stacks[0]), kind
    # verify forms one block per pool: the octonionic one for its residuals and two splits
    formed.clear()
    run_verification(0, 8)
    assert sorted(len(S.dia) for S in formed) == [2, 8]
