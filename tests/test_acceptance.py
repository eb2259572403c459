"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  Tolerances are fixed here and match the documented
contract; sample counts are the contractual ones.
"""

import numpy as np

from octeig.harness import random_hermitian, random_octonion, random_vector
from octeig.hermitian import (
    OctVector3,
    alpha,
    det,
    hermitian_combination,
    mat_vec,
    outer,
    phi,
    trace,
)
from octeig.octonion import Octonion, associator, inner
from octeig.projection import quaternionic_six_way, six_way
from octeig.spectral import eigensystem, k_vector, lambda_roots
from octeig.subspace import (
    basis_invariance_check,
    k_scalar,
    orthonormalize,
    project_km,
    project_km_vec,
    r_roots,
    s_elements,
    t_basis,
)
from octeig.tolerances import ZERO_PART_TOL


def _report(criterion: str, worst: float, tol: float):
    ok = worst <= tol
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} "
          f"(worst residual {worst:.3e}, tolerance {tol:.1e})")
    assert ok, f"{criterion}: worst residual {worst:.3e} exceeds {tol:.1e}"


def _t_element(rng, A):
    tb = t_basis(A)
    acc = Octonion.zero()
    for c, b in zip(rng.uniform(-1, 1, len(tb.vectors)), tb.vectors):
        acc = acc + b * float(c)
    return acc


def test_c01_algebra_suite():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10_000):
        p = random_octonion(rng)
        q = random_octonion(rng)
        comp = abs((p * q).norm() - p.norm() * q.norm()) / (p.norm() * q.norm())
        scale = max(1.0, p.norm() ** 2 * q.norm(), p.norm() * q.norm() ** 2)
        alt = max(associator(p, p, q).norm(), associator(p, q, q).norm()) / scale
        worst = max(worst, comp, alt)
    _report("C1 algebra suite (composition + alternativity, 1e4 pairs)", worst, 1e-12)


def test_c02_root_identities():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(500):
        A = random_hermitian(rng, "octonionic")
        r1, r2 = r_roots(A)
        scale = max(1.0, abs(r1), abs(r2))
        worst = max(worst, abs(r1 + r2 + 4 * phi(A)) / scale,
                    abs(r1 * r2 + alpha(A).norm2()) / scale ** 2)
        for r in (r1, r2):
            lams = lambda_roots(A, r)
            target = det(A) + r
            sc = max(1.0, abs(trace(A)), abs(target))
            worst = max(worst, abs(sum(lams) - trace(A)) / sc,
                        abs(np.prod(lams) - target) / sc)
    _report("C2 root identities (500 matrices)", worst, 1e-8)


def test_c03_k_identities():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        A = random_hermitian(rng, "octonionic")
        p = random_octonion(rng)
        q = random_octonion(rng)
        x = random_vector(rng)
        al = alpha(A)
        ph = phi(A)
        # matrix form is diagonal and matches the scalar form
        kx = k_vector(A, x)
        scale3 = max(1.0, A.frobenius()) ** 3 * max(1.0, x.norm())
        for slot in range(3):
            worst = max(worst, (kx.components[slot]
                                - k_scalar(A, x.components[slot])).norm() / scale3)
        # operator quadratic
        kp = k_scalar(A, p)
        worst = max(worst, (k_scalar(A, kp) + kp * (4 * ph) - p * al.norm2()).norm()
                    / max(1.0, al.norm2() * p.norm()))
        # action on T and on T alpha
        t = _t_element(rng, A)
        worst = max(worst, (k_scalar(A, t) - t * al).norm()
                    / max(1.0, t.norm() * al.norm()))
        u = t * al
        rhs = -1.0 * (u * (al + Octonion.from_real(4 * ph)))
        worst = max(worst, (k_scalar(A, u) - rhs).norm()
                    / max(1.0, u.norm() * (al.norm() + abs(4 * ph))))
        # self-adjointness
        worst = max(worst, abs(inner(k_scalar(A, p), q) - inner(p, k_scalar(A, q)))
                    / max(1.0, A.frobenius() ** 3 * p.norm() * q.norm()))
    _report("C3 characteristic operator identities (100 instances)", worst, 1e-8)


def test_c04_projector_algebra():
    rng = np.random.default_rng(104)
    one = Octonion.from_real(1.0)
    worst = 0.0
    for _ in range(100):
        A = random_hermitian(rng, "octonionic")
        p = random_octonion(rng)
        k1 = project_km(A, 1, p)
        k2 = project_km(A, 2, p)
        scale = max(1.0, p.norm())
        worst = max(worst, (k1 + k2 - p).norm() / scale)
        worst = max(worst, (project_km(A, 1, k1) - k1).norm() / scale,
                    (project_km(A, 2, k2) - k2).norm() / scale)
        worst = max(worst, project_km(A, 1, k2).norm() / scale,
                    project_km(A, 2, k1).norm() / scale)
        s1, s2 = s_elements(A)
        worst = max(worst, (s1 + s2 - one).norm())
        # T2 = T1 alpha as spans
        al = alpha(A)
        tb = t_basis(A).vectors
        b1 = orthonormalize([b * s1 for b in tb])
        b2 = orthonormalize([b * s2 for b in tb])
        lifted = orthonormalize([b * al for b in b1])
        p2 = sum(np.outer(b.coords, b.coords) for b in b2)
        pl = sum(np.outer(b.coords, b.coords) for b in lifted)
        worst = max(worst, float(np.abs(p2 - pl).max()))
    _report("C4 projector algebra (100 instances)", worst, 1e-8)


def test_c05_eigendecompositions(octonionic_pool):
    worst = 0.0
    for A, es in octonionic_pool:
        for fam in es.families:
            worst = max(worst, fam.residuals["identity_decomposition"],
                        fam.residuals["matrix_decomposition"],
                        fam.residuals["generalized_orthogonality"])
    _report("C5 eigendecompositions (200 matrices)", worst, 1e-8)


def test_c06_theorems(octonionic_pool):
    rng = np.random.default_rng(106)
    worst = 0.0
    for A, es in octonionic_pool:
        fam = es.families[int(rng.integers(0, 2))]
        m = fam.context.m
        # eigenvector form
        v = fam.pairs[int(rng.integers(0, 3))].v
        y = project_km_vec(A, m, random_vector(rng))
        B = outer(v)
        by = mat_vec(B, y)
        worst = max(worst, (mat_vec(B, by) - by.scale(v.norm2())).norm()
                    / max(1.0, y.norm()))
        # general form: y, z only in the K eigenspace, no eigenvector needed
        y2 = project_km_vec(A, m, random_vector(rng))
        z = project_km_vec(A, m, random_vector(rng))
        B2 = outer(y2)
        bz = mat_vec(B2, z)
        worst = max(worst, (mat_vec(B2, bz) - bz.scale(y2.norm2())).norm()
                    / max(1.0, y2.norm2() ** 2 * z.norm()))
    _report("C6 projection theorems (200 instances each)", worst, 1e-8)


def test_c07_six_way(octonionic_pool):
    rng = np.random.default_rng(107)
    worst = 0.0
    for A, es in octonionic_pool:
        x = random_vector(rng)
        dec = six_way(A, x, system=es)
        assert len(dec.parts) == 6
        worst = max(worst, dec.reconstruction_residual, max(dec.eigen_residuals))
    _report("C7 six-way projection (200 instances)", worst, 1e-8)


def test_c08_family_r_relation(octonionic_pool):
    rng = np.random.default_rng(108)
    worst = 0.0
    for A, es in octonionic_pool[:100]:
        fam = es.families[int(rng.integers(0, 2))]
        lams = rng.uniform(-2.0, 2.0, 3)
        B = hermitian_combination(zip(lams, (p.v for p in fam.pairs)))
        r = float(np.prod(lams)) - det(B)
        scale = max(1.0, B.frobenius()) ** 3
        for p in fam.pairs:
            worst = max(worst, (k_vector(B, p.v) - p.v.scale(r)).norm() / scale)
    _report("C8 family relation r = product(lam) - det (100 triples)", worst, 1e-8)


def test_c09_quaternionic_path(quaternionic_pool):
    from octeig.subspace import conj_matrix

    rng = np.random.default_rng(109)
    worst = 0.0
    not_multiple = 0
    for A, es in quaternionic_pool:
        # spectrum over O is the union of the two quaternionic spectra
        ref1 = lambda_roots(A, 0.0)
        ref2 = lambda_roots(conj_matrix(A), 0.0)
        got1 = sorted(p.lam for p in es.families[0].pairs)
        got2 = sorted(p.lam for p in es.families[1].pairs)
        scale = max(1.0, A.frobenius())
        worst = max(worst, max(abs(a - b) for a, b in zip(got1, sorted(ref1))) / scale)
        worst = max(worst, max(abs(a - b) for a, b in zip(got2, sorted(ref2))) / scale)
        # lifted eigenvectors pass the decomposition checks
        for fam in es.families:
            worst = max(worst, max(fam.residuals.values()))
        # projections of the purely octonionic piece are eigenvectors but
        # generically not right multiples of the lifted eigenvectors
        x = random_vector(rng)
        dec = quaternionic_six_way(A, x, system=es)
        worst = max(worst, dec.reconstruction_residual, max(dec.eigen_residuals))
        for pair, part in zip(es.families[1].pairs, dec.parts[3:]):
            if part.component.norm() < 1e-6:
                continue
            cols = np.array([
                pair.v.right_mul(Octonion.unit(k)).to_coords() for k in range(8)
            ]).T
            sol, *_ = np.linalg.lstsq(cols, part.component.to_coords(), rcond=None)
            rel = (np.linalg.norm(cols @ sol - part.component.to_coords())
                   / part.component.norm())
            if rel > 1e-6:
                not_multiple += 1
    assert not_multiple >= len(quaternionic_pool)
    _report("C9 quaternionic path (50 matrices)", worst, 1e-8)


def test_c10_basis_invariance():
    rng = np.random.default_rng(110)
    worst = 0.0
    seen_negative = 0
    for _ in range(100):
        A = random_hermitian(rng, "octonionic")
        while True:
            M = rng.uniform(-1.0, 1.0, (3, 3))
            if abs(np.linalg.det(M)) > 0.05:
                break
        seen_negative += np.linalg.det(M) < 0
        worst = max(worst, basis_invariance_check(A, M, shifts=rng.uniform(-1, 1, 3)))
    assert seen_negative > 20  # both orientations actually exercised
    _report("C10 basis invariance of the family generators (100 changes)", worst, 1e-8)


def test_c11_proof_identities(octonionic_pool):
    rng = np.random.default_rng(111)
    worst = 0.0
    for A, _ in octonionic_pool[:100]:
        m = int(rng.integers(1, 3))
        y = project_km_vec(A, m, random_vector(rng))
        y1, y2, y3 = y.components
        B = outer(y)
        t1, t2, t3 = B.c, B.b, B.a
        d1, d2, d3 = B.d, B.e, B.f
        # outer-product component identities (t entries and the norm
        # products |t_k|^2 = d_i d_j implied by the composition rule)
        scale2 = max(1.0, y.norm() ** 2)
        worst = max(worst, (t3 - y1 * y2.conj()).norm() / scale2,
                    (t1 - y2 * y3.conj()).norm() / scale2,
                    (t2 - y3 * y1.conj()).norm() / scale2)
        scale4 = max(1.0, y.norm() ** 4)
        worst = max(worst, abs(t3.norm2() - d1 * d2) / scale4,
                    abs(t1.norm2() - d2 * d3) / scale4,
                    abs(t2.norm2() - d3 * d1) / scale4)
        # triple contractions with an arbitrary family element, plus cyclics
        q = project_km(A, m, random_octonion(rng))
        scale = max(1.0, y.norm() ** 4 * q.norm())
        contractions = (
            (t2 * (t3 * q), (t1.conj() * q) * d1),
            (t3 * (t1 * q), (t2.conj() * q) * d2),
            (t1 * (t2 * q), (t3.conj() * q) * d3),
            (t1.conj() * (t3.conj() * q), (t2 * q) * d2),
            (t2.conj() * (t1.conj() * q), (t3 * q) * d3),
            (t3.conj() * (t2.conj() * q), (t1 * q) * d1),
        )
        for lhs, rhs in contractions:
            worst = max(worst, (lhs - rhs).norm() / scale)
        # vector self-associator
        v = random_vector(rng)
        worst = max(worst, (mat_vec(outer(v), v) - v.scale(v.norm2())).norm()
                    / max(1.0, v.norm() ** 3))
    _report("C11 proof-section identities (100 instances)", worst, 1e-8)


def test_c12_negative_control():
    from octeig.harness import run_verification

    results = run_verification(seed=42, samples=10, det_offset=1e-3)
    by_name = {r.name: r for r in results}
    bad = by_name["k-diagonality"]
    ok = (not bad.passed) and bad.residual > bad.tolerance
    print(f"\n[acceptance] C12 negative control (det + 1e-3): "
          f"{'PASS' if ok else 'FAIL'} (k-diagonality residual {bad.residual:.3e} "
          f"exceeds {bad.tolerance:.1e})")
    assert ok
    # the corruption must not silence any other check
    others = [r for r in results if r.name != "k-diagonality"]
    assert all(r.passed for r in others)


def _one_family_split(A, fam, x):
    """x expanded along one family's pairs, (v_i v_i^dagger) x, each part below ZERO_PART_TOL |x|
    zeroed as the six-way split zeroes it: the sum's relative error, and the worst normwise
    eigen residual |A p - lam p| / (||A||_F |p|) of the nonzero parts."""
    parts = [(p.lam, mat_vec(outer(p.v), x)) for p in fam.pairs]
    parts = [(lam, part) for lam, part in parts if part.norm() >= ZERO_PART_TOL * x.norm()]
    total = OctVector3.from_coords(sum(part.to_coords() for _, part in parts))
    worst = max((mat_vec(A, part) - part.scale(lam)).norm() / (A.frobenius() * part.norm())
                for lam, part in parts)
    return (total - x).norm() / x.norm(), worst


def test_c13_one_family_is_not_enough():
    # each family decomposes the identity, so one family's parts sum to x; but only for x in
    # that family's span are they eigenvectors, and the six-way split needs both families
    worst_sum, generic, own, six = 0.0, np.inf, 0.0, 0.0
    for seed in range(4):
        for kind in ("octonionic", "quaternionic"):
            rng = np.random.default_rng(seed)
            A = random_hermitian(rng, kind)
            fam, x = eigensystem(A).families[0], random_vector(rng)
            (sum_x, resid_x), (sum_v, resid_v) = (_one_family_split(A, fam, y)
                                                  for y in (x, fam.pairs[0].v))
            worst_sum = max(worst_sum, sum_x, sum_v)
            generic, own = min(generic, resid_x), max(own, resid_v)
            six = max(six, max(six_way(A, x).eigen_residuals))
    print(f"\n[acceptance] C13 one family: parts sum to x within {worst_sum:.1e}; "
          f"generic x, smallest worst part residual {generic:.2f}")
    assert worst_sum <= 1e-14
    assert generic > 0.05
    _report("C13 one family suffices for its own eigenvector (8 matrices)", own, 1e-13)
    _report("C13 the six-way parts are eigenvectors (8 matrices)", six, 1e-13)
