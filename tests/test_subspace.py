import dataclasses
import json

import numpy as np
import pytest

from octeig.cli import main
from octeig.errors import (
    AmbiguousSubalgebra,
    DegenerateFamily,
    NotQuaternionic,
    OcteigError,
    SingularChange,
)
from octeig.hermitian import (
    _TAGS,
    Hermitian3,
    OctVector3,
    alpha,
    classify,
    det,
    mat_vec,
    phi,
    sigma,
)
from octeig.harness import _draw_stack
from octeig.octonion import Octonion, _product, associator, inner
from octeig.spectral import _Stack, realify24
from octeig.subspace import (
    _gram_schmidt,
    _subalgebra,
    basis_invariance_check,
    cd_table_check,
    conj_matrix,
    family_context,
    family_contexts,
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

E = [Octonion.unit(i) for i in range(8)]
# the class test's codes, which key `_subalgebra`
QUATERNIONIC_CODE, COMPLEX_CODE = _TAGS.index("quaternionic"), _TAGS.index("complex")


def rand_oct(rng, mask=None):
    c = rng.uniform(-1, 1, 8)
    if mask is not None:
        keep = np.zeros(8)
        keep[list(mask)] = 1
        c = c * keep
    return Octonion(c)


def rand_herm(rng, mask=None):
    return Hermitian3(*rng.uniform(-1, 1, 3),
                      rand_oct(rng, mask), rand_oct(rng, mask), rand_oct(rng, mask))


def t_element(rng, A):
    tb = t_basis(A)
    acc = Octonion.zero()
    for c, b in zip(rng.uniform(-1, 1, len(tb.vectors)), tb.vectors):
        acc = acc + b * float(c)
    return acc


# the matrix with a=e1, b=e2, c=e3 has phi = 0 and |alpha|^2 = 4,
# so its family quadratic reads r^2 = 4
FLAT = Hermitian3(0.3, -0.7, 1.1, E[1], E[2], E[3])


def test_t_basis_orthonormal(rng):
    A = rand_herm(rng)
    tb = t_basis(A)
    assert tb.dim == 4
    for i, u in enumerate(tb.vectors):
        for j, v in enumerate(tb.vectors):
            assert inner(u, v) == pytest.approx(float(i == j), abs=1e-12)
    for q in (Octonion.from_real(1.0), A.a, A.b, A.c):
        assert span_distance(q, tb.vectors) < 1e-12 * max(1.0, q.norm())


def test_r_roots_flat_case():
    r1, r2 = r_roots(FLAT)
    assert r1 == pytest.approx(2.0, abs=1e-12)
    assert r2 == pytest.approx(-2.0, abs=1e-12)


def test_r_roots_degenerate(rng):
    Aq = rand_herm(rng, mask=(0, 1, 2, 4))
    with pytest.raises(DegenerateFamily):
        r_roots(Aq)


def test_r_roots_vieta(rng):
    for _ in range(300):
        A = rand_herm(rng)
        r1, r2 = r_roots(A)
        assert r1 >= r2
        assert r1 > 0 > r2
        scale = max(1.0, abs(r1), abs(r2))
        assert abs(r1 + r2 + 4 * phi(A)) < 1e-9 * scale
        assert abs(r1 * r2 + alpha(A).norm2()) < 1e-9 * scale ** 2
    # nudged off a quaternionic subalgebra, one root is |alpha|^2 / (4 phi)
    # against -4 phi: taken as -2 phi + sqrt(4 phi^2 + |alpha|^2) it cancels
    nudged = 0
    for eps in (1e-6, 1e-7, 1e-8) * 20:
        A = rand_herm(rng, mask=(0, 1, 2, 4))
        coords = A.c.coords.copy()
        coords[rng.choice((3, 5, 6, 7))] += eps
        A = Hermitian3(A.d, A.e, A.f, A.a, A.b, Octonion(coords))
        if classify(A).tag != "octonionic":
            continue
        nudged += 1
        r1, r2 = r_roots(A)
        al2 = alpha(A).norm2()
        assert r1 > 0 > r2
        assert abs(r1 * r2 + al2) <= 1e-12 * al2
    assert nudged >= 40


def test_s_elements_flat_case():
    s1, s2 = s_elements(FLAT)
    # phi = 0, alpha = -2 e6: s_m = (r_m + alpha)/(2 r_m) = (1 -/+ e6)/2
    assert np.allclose(s1.coords, (0.5 * (Octonion.from_real(1.0) - E[6])).coords)
    assert np.allclose(s2.coords, (0.5 * (Octonion.from_real(1.0) + E[6])).coords)
    assert np.allclose(s1.conj().coords, s2.coords)


def test_s_elements_properties(rng):
    one = Octonion.from_real(1.0)
    for _ in range(200):
        A = rand_herm(rng)
        s1, s2 = s_elements(A)
        assert (s1 + s2 - one).norm() < 1e-12
        al = alpha(A)
        r1, _ = r_roots(A)
        assert (s1.imag() - al / (2 * (r1 + 2 * phi(A)))).norm() < 1e-12 * max(1.0, al.norm())
        cross = s1.conj() * s2
        coef = inner(cross, al) / al.norm2()
        assert (cross - al * coef).norm() < 1e-9 * max(1.0, cross.norm())


def test_k_scalar_on_identity_gives_alpha(rng):
    # 1 is in T, so K[1] = 1 * alpha
    A = rand_herm(rng)
    assert (k_scalar(A, Octonion.from_real(1.0)) - alpha(A)).norm() < 1e-12


def test_k_scalar_on_t(rng):
    for _ in range(200):
        A = rand_herm(rng)
        t = t_element(rng, A)
        al = alpha(A)
        assert (k_scalar(A, t) - t * al).norm() < 1e-9 * max(1.0, t.norm() * al.norm())


def test_k_scalar_on_t_perp(rng):
    for _ in range(200):
        A = rand_herm(rng)
        al = alpha(A)
        u = t_element(rng, A) * al
        rhs = -1.0 * (u * (al + Octonion.from_real(4 * phi(A))))
        scale = max(1.0, u.norm() * (al.norm() + abs(4 * phi(A))))
        assert (k_scalar(A, u) - rhs).norm() < 1e-9 * scale


def test_k_operator_quadratic(rng):
    for _ in range(100):
        A = rand_herm(rng)
        p = rand_oct(rng)
        kp = k_scalar(A, p)
        resid = k_scalar(A, kp) + kp * (4 * phi(A)) - p * alpha(A).norm2()
        assert resid.norm() < 1e-8 * max(1.0, alpha(A).norm2() * p.norm())


def test_k_self_adjoint(rng):
    for _ in range(100):
        A = rand_herm(rng)
        p, q = rand_oct(rng), rand_oct(rng)
        scale = max(1.0, A.frobenius() ** 3 * p.norm() * q.norm())
        assert abs(inner(k_scalar(A, p), q) - inner(p, k_scalar(A, q))) < 1e-9 * scale


def test_projectors(rng):
    for _ in range(100):
        A = rand_herm(rng)
        p = rand_oct(rng)
        k1, k2 = project_km(A, 1, p), project_km(A, 2, p)
        scale = max(1.0, p.norm())
        assert (k1 + k2 - p).norm() < 1e-9 * scale
        assert (project_km(A, 1, k1) - k1).norm() < 1e-9 * scale
        assert (project_km(A, 2, k2) - k2).norm() < 1e-9 * scale
        assert project_km(A, 1, k2).norm() < 1e-9 * scale
        assert project_km(A, 2, k1).norm() < 1e-9 * scale


def test_projector_image_in_tm(rng):
    A = rand_herm(rng)
    tb = t_basis(A)
    for m, s in zip((1, 2), s_elements(A)):
        basis_m = orthonormalize([b * s for b in tb.vectors])
        q = project_km(A, m, rand_oct(rng))
        assert span_distance(q, basis_m) < 1e-9 * max(1.0, q.norm())


def test_cd_table_trivial_case():
    one = Octonion.from_real(1.0)
    res = cd_table_check(FLAT, one, one)
    # third identity reduces to alpha^2 = -|alpha|^2
    assert max(res) < 1e-12


def test_cd_table_random(rng):
    for _ in range(100):
        A = rand_herm(rng)
        t1, t2 = t_element(rng, A), t_element(rng, A)
        scale = max(1.0, t1.norm() * t2.norm() * alpha(A).norm2())
        assert max(cd_table_check(A, t1, t2)) < 1e-9 * scale


def test_cd_table_precondition_matters(rng):
    # an argument outside T generically breaks the identities
    A = rand_herm(rng)
    tb = t_basis(A).vectors
    outside = None
    for i in range(1, 8):
        if span_distance(E[i], tb) > 0.3:
            outside = E[i]
            break
    assert outside is not None
    assert max(cd_table_check(A, outside, t_element(rng, A))) > 1e-4


def test_quaternionic_split_known_subalgebra(rng):
    A = Hermitian3(1.0, 2.0, -0.5, E[1], E[2], E[4])
    hbasis, ell = quaternionic_split(A)
    assert np.allclose(ell.coords, E[3].coords)
    span = [Octonion.from_real(1.0), E[1], E[2], E[4]]
    for h in hbasis:
        assert span_distance(h, span) < 1e-12
    assert (ell * ell + Octonion.from_real(1.0)).norm() < 1e-12


def test_quaternionic_split_products_orthogonal(rng):
    for _ in range(50):
        A = rand_herm(rng, mask=(0, 1, 2, 4))
        hbasis, ell = quaternionic_split(A)
        for h in hbasis:
            for g in hbasis:
                assert abs(inner(ell * h, g)) < 1e-12


def test_quaternionic_split_rejects_real_and_complex(rng):
    with pytest.raises(AmbiguousSubalgebra):
        quaternionic_split(Hermitian3.diagonal(1, 2, 3))
    with pytest.raises(AmbiguousSubalgebra):
        quaternionic_split(rand_herm(rng, mask=(0, 1)))
    with pytest.raises(NotQuaternionic):
        quaternionic_split(rand_herm(rng))


def test_quaternionic_split_pivots_on_the_largest_parts(tmp_path):
    # a's and b's imaginary parts are nearly parallel, c's is the largest: h1 follows c and
    # h2 the residual of a, not the 3e-4 residual of b against a
    a = np.array([0.0, -0.6, 0.0, 0.0, 0.08, 0.0, 0.0, 0.0])
    b = -0.78 * a + 3e-4 * E[2].coords
    c = np.array([0.0, 0.77, -0.61, 0.0, 0.98, 0.0, 0.0, 0.0])
    H = _subalgebra(np.array([[a, b, c]]), QUATERNIONIC_CODE)
    assert np.allclose(H[0, 1], c / np.linalg.norm(c), rtol=0.0, atol=1e-15)
    assert abs(inner(H[0, 2], a)) > 0.5 * np.linalg.norm(a)
    # a second direction at 1e-10 of the largest part is below the class test's cut, and that
    # test alone decides the rank: the matrix is complex and takes the complex route
    flat = Hermitian3(0.3, -0.2, 0.5, *map(Octonion, (a, -0.78 * a + 1e-10 * E[2].coords, 2 * a)))
    assert classify(flat).tag == "complex"
    mat, out = tmp_path / "m.json", tmp_path / "out.json"
    mat.write_text(json.dumps(flat.to_json()))
    assert main(["eigen", str(mat), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["routed_path"] == "complex"


def test_the_complex_unit_leads_with_a_positive_coordinate(rng):
    # i0 is the largest imaginary part, normalized, signed so that its first nonzero
    # coordinate is positive however small; an entry's zero coordinate stays exactly zero
    parts = rng.uniform(-1, 1, (40, 3, 8)) * (rng.uniform(size=(40, 1, 8)) < 0.5)
    parts[0] = [E[0].coords, 1e-14 * E[2].coords - E[5].coords, np.zeros(8)]
    parts[1] = [-2.0 ** -500 * E[3].coords, np.zeros(8), np.zeros(8)]
    parts[2] = [E[0].coords, np.zeros(8), 2.0 * E[0].coords]
    for off in (parts, -parts):
        i0 = _subalgebra(off, COMPLEX_CODE)[:, 1]
        imag = off * (np.arange(8) > 0)
        sizes = np.linalg.norm(imag, axis=-1)
        for u, p, n in zip(i0, imag, sizes):
            if not n.any():
                assert np.array_equal(u, E[1].coords)
                continue
            assert u[u != 0.0][0] > 0.0
            assert np.array_equal(u != 0.0, p[n.argmax()] != 0.0)
            assert np.allclose(np.abs(u), np.abs(p[n.argmax()]) / n.max(), rtol=1e-14, atol=0)
    # a coordinate of 1e-14 before one of -1 leads, and a part of 2^-500 is a direction
    i0 = _subalgebra(parts[:2], COMPLEX_CODE)[:, 1]
    assert i0[:, [2, 3, 5]].tolist() == [[1e-14, 0, -1], [0, 1, 0]]


def test_conj_matrix(rng):
    assert conj_matrix(Hermitian3.diagonal(1, 2, 3)).frobenius() == pytest.approx(
        Hermitian3.diagonal(1, 2, 3).frobenius())
    A = Hermitian3(1, 2, 3, E[1], Octonion.zero(), Octonion.zero())
    assert np.allclose(conj_matrix(A).a.coords, (-E[1]).coords)
    with pytest.raises(NotQuaternionic):
        conj_matrix(rand_herm(rng))


def test_conj_matrix_lift_identity(rng):
    for _ in range(50):
        A = rand_herm(rng, mask=(0, 1, 2, 4))
        hbasis, ell = quaternionic_split(A)
        Ab = conj_matrix(A)
        v = OctVector3(tuple(rand_oct(rng, mask=(0, 1, 2, 4)) for _ in range(3)))
        lv = OctVector3(tuple(ell * c for c in v.components))
        lhs = mat_vec(A, lv)
        rhs = OctVector3(tuple(ell * c for c in mat_vec(Ab, v).components))
        assert (lhs - rhs).norm() < 1e-9 * max(1.0, A.frobenius() * v.norm())


def test_basis_invariance(rng):
    A = rand_herm(rng)
    assert basis_invariance_check(A, np.eye(3)) == 0.0
    assert basis_invariance_check(A, 2.0 * np.eye(3)) < 1e-9
    swap = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert basis_invariance_check(A, swap) < 1e-9
    for _ in range(100):
        while True:
            M = rng.uniform(-1, 1, (3, 3))
            if abs(np.linalg.det(M)) > 0.05:
                break
        assert basis_invariance_check(A, M, shifts=rng.uniform(-1, 1, 3)) < 1e-8


def test_basis_invariance_singular(rng):
    A = rand_herm(rng)
    with pytest.raises(SingularChange):
        basis_invariance_check(A, np.ones((3, 3)))


@pytest.mark.parametrize("M, shifts, match", [
    ([[np.nan, 0, 0], [0, 1, 0], [0, 0, 1]], (0, 0, 0), "finite real 3x3"),
    ([[np.inf, 0, 0], [0, 1, 0], [0, 0, 1]], (0, 0, 0), "finite real 3x3"),
    (np.eye(3), (np.inf, 0, 0), "3 finite real numbers"),
    (np.eye(3), np.zeros((2, 3)), "3 finite real numbers"),
    (np.eye(3), (1, 2), "3 finite real numbers"),
], ids=["nan-in-M", "inf-in-M", "inf-shift", "shifts-2x3", "two-shifts"])
def test_basis_invariance_rejects_malformed_input(rng, M, shifts, match):
    # a non-finite or misshapen change of basis or shift is a ValueError, not a nan,
    # a SingularChange or a broadcast error
    A = rand_herm(rng)
    with pytest.raises(ValueError, match=match):
        basis_invariance_check(A, M, shifts=shifts)


def test_family_context_serialization(rng):
    A = rand_herm(rng)
    ctx = family_context(A, 1)
    data = ctx.to_json()
    assert data["m"] == 1
    assert len(data["alpha"]) == 8 and len(data["s"]) == 8
    assert abs(ctx.r ** 2 + 4 * ctx.phi * ctx.r - ctx.alpha.norm2()) < 1e-9


def test_prop41_multiplier_independent_of_q(rng):
    for _ in range(100):
        A = rand_herm(rng)
        p1, p2 = t_element(rng, A), t_element(rng, A)
        for m in (1, 2):
            qa = project_km(A, m, rand_oct(rng))
            qb = project_km(A, m, rand_oct(rng))
            pa = associator(p1, p2, qa) * qa.inverse()
            pb = associator(p1, p2, qb) * qb.inverse()
            assert (pa - pb).norm() < 1e-8 * max(1.0, p1.norm() * p2.norm())


def test_k_matrix_matches_k_scalar_on_units(rng):
    for _ in range(50):
        A = rand_herm(rng)
        K = k_matrix(A)
        scale = max(1.0, A.frobenius()) ** 3
        for i in range(8):
            assert np.abs(K[:, i] - k_scalar(A, E[i]).coords).max() < 1e-13 * scale


def test_family_projector_on_units(rng):
    for _ in range(50):
        A = rand_herm(rng)
        ph = phi(A)
        for m, r in zip((1, 2), r_roots(A)):
            P = family_projector(A, m)
            for i in range(8):
                ref = (k_scalar(A, E[i]) + E[i] * (r + 4 * ph)) / (2 * (r + 2 * ph))
                assert np.abs(P[:, i] - ref.coords).max() < 1e-12
            assert np.abs(P @ P - P).max() < 1e-10
        assert np.abs(family_projector(A, 1) + family_projector(A, 2) - np.eye(8)).max() < 1e-12


def test_project_km_vec_is_componentwise(rng):
    A = rand_herm(rng)
    x = OctVector3(tuple(rand_oct(rng) for _ in range(3)))
    for m in (1, 2):
        y = project_km_vec(A, m, x)
        for got, comp in zip(y.components, x.components):
            assert (got - project_km(A, m, comp)).norm() < 1e-14


def test_family_contexts_match_family_context(rng):
    A = rand_herm(rng)
    both = family_contexts(A)
    for m in (1, 2):
        assert both[m - 1].to_json() == family_context(A, m).to_json()
    with pytest.raises(ValueError):
        family_context(A, 3)


# every function that reads the matrix's stack, with its extra arguments
CACHED = (
    (classify, ()), (sigma, ()), (det, ()), (phi, ()), (alpha, ()),
    (family_contexts, ()), (k_matrix, ()),
    (family_projector, (1,)), (family_projector, (2,)),
    (t_basis, ()), (quaternionic_split, ()), (realify24, ()),
)


def bits(value):
    """A cached value as nested tuples of exact bit patterns, for equality."""
    if isinstance(value, Octonion):
        return value.coords.tobytes()
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        value = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if isinstance(value, float):
        return value.hex()
    return value


# where the arrays a function returns sit in the stack: it returns views of them
SHARED = {
    realify24: lambda S, got: (got, S.R), k_matrix: lambda S, got: (got, S.K),
    family_projector: lambda S, got: (got, S.P), alpha: lambda S, got: (got.coords, S.alpha),
    quaternionic_split: lambda S, got: (got[0][1].coords, S.split),
}


def stack_state(A):
    """What the matrix's stack holds: each attribute and the identity of its value."""
    return {k: id(v) for k, v in vars(A._stack).items()}


@pytest.mark.parametrize("mask", [None, (0, 1, 2, 4), (0, 1), (0,)])
def test_cached_values_equal_a_fresh_computation(rng, mask, monkeypatch):
    A = rand_herm(rng, mask)
    for fn, args in CACHED:
        try:
            # a copy of the fields builds a fresh stack
            want = fn(dataclasses.replace(A), *args)
        except OcteigError as exc:
            for _ in range(2):
                with pytest.raises(type(exc)):
                    fn(A, *args)
            continue
        got = fn(A, *args)
        with monkeypatch.context() as patch:
            # a second call does no new work: no SVD, eigh or K, nothing new in the stack
            state = stack_state(A)
            for owner, name in ((np.linalg, "svd"), (np.linalg, "eigh"), (_Stack.K, "func")):
                patch.setattr(owner, name, lambda *a, **k: pytest.fail("recomputed"))
            again = fn(A, *args)
            assert stack_state(A) == state
        assert bits(again) == bits(got) == bits(want)
        if fn in SHARED:
            assert np.shares_memory(*SHARED[fn](A._stack, got))


def test_cached_arrays_are_read_only(rng):
    A = rand_herm(rng)
    arrays = (realify24(A), k_matrix(A), family_projector(A, 1), family_projector(A, 2))
    for value in arrays:
        with pytest.raises(ValueError):
            value[0, 0] = 1.0


def test_degenerate_family_raised_on_every_call(rng):
    A = rand_herm(rng, mask=(0, 1, 2, 4))
    for _ in range(2):
        with pytest.raises(DegenerateFamily):
            family_contexts(A)


@pytest.mark.parametrize("mask, families", [(None, 2), ((0, 1, 2, 4), 2), ((0, 1), 1), ((0,), 1)])
def test_family_bases_span_invariant_subspaces(rng, mask, families):
    As = [rand_herm(rng, mask) for _ in range(10)]
    dia, off = (np.concatenate([getattr(A._stack, a) for A in As]) for a in ("dia", "off"))
    r, B = _Stack(dia, off).bases
    k = 4 if families == 2 else 2
    assert r.shape == (10, families) and B.shape == (10, families, 8, k)
    for A, rs, bs in zip(As, r, B):
        R = realify24(A)
        # quaternionic: the roots of r^2 + 4 phi r = 0, the family quadratic at alpha = 0
        roots = r_roots(A) if mask is None else (0.0, -4.0 * phi(A))
        if mask is not None:
            # the determinant gap det(Abar) - det(A), an independent reference for the last root
            gap = det(conj_matrix(A)) - det(A)
            assert abs(rs[-1] - gap) <= 1e-14 * A.frobenius() ** 3
        for m, (r_m, b) in enumerate(zip(rs, bs), start=1):
            assert r_m == roots[m - 1]
            Q = np.kron(np.eye(3), b)
            assert np.abs(Q.T @ Q - np.eye(3 * k)).max() < 1e-13
            # A maps the span of Q into itself
            assert np.abs(R @ Q - Q @ (Q.T @ R @ Q)).max() < 1e-13 * A.frobenius()
            if mask is None:
                # octonionic: T_m in each slot, starting with P_m 1 = s_m
                P = family_projector(A, m)
                assert np.abs(Q @ Q.T - np.kron(np.eye(3), P)).max() < 1e-12
                s_m = family_context(A, m).s
                assert np.abs(b[:, 0] - s_m.coords / s_m.norm()).max() < 1e-12


@pytest.mark.parametrize("n", [1, 3, 8, 41])
def test_stacked_gram_schmidt_equals_per_family_calls_bit_for_bit(n):
    # the t2-is-t1-alpha check orthonormalizes T s_1 and T s_2 as one (n, 2, 4, 8) stack
    A = _draw_stack(np.random.default_rng(n), n, "octonionic")
    s = A.generators
    X = _product(A.T[:, None], s[:, :, None])
    X[0, 1, 3] = 2.0 * X[0, 1, 0] + X[0, 1, 1]  # a row to drop
    Q, keep = _gram_schmidt(X)
    for m in (0, 1):
        Xm = _product(A.T, s[:, m, None])
        if m == 1:
            Xm[0, 3] = 2.0 * Xm[0, 0] + Xm[0, 1]
        assert Xm.tobytes() == X[:, m].tobytes()
        Qm, keep_m = _gram_schmidt(Xm)
        assert Qm.tobytes() == Q[:, m].tobytes() and keep_m.tolist() == keep[:, m].tolist()
    assert not keep[0, 1, 3]
