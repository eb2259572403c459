from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octeig.errors import ComplexProjector, ComplexRoots, DegenerateFamily, ExtractionFailure
from octeig.hermitian import (
    Hermitian3,
    OctVector3,
    classify,
    det,
    hermitian_combination,
    mat_vec,
    outer,
    phi,
    sigma,
    trace,
)
from octeig.harness import _draw_stack, random_hermitian
from octeig.octonion import _CONJ, Octonion, inner
from octeig.spectral import (
    EigenPair,
    _column_basis,
    _RESIDUALS,
    _Stack,
    _family_dimensions,
    _family_residuals,
    _lambda_roots,
    _pick_representative,
    eigensystem,
    eigenvectors,
    family_dimension_probe,
    k_vector,
    lambda_roots,
    real_nullspace,
    realify24,
    same_family,
)
from octeig.subspace import (
    conj_matrix,
    family_context,
    k_matrix,
    k_scalar,
    project_km_vec,
    quaternionic_split,
    r_roots,
)
from octeig.tolerances import DEFAULT_TOLERANCE, REAL_RANK_TOL

E = [Octonion.unit(i) for i in range(8)]


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


def rand_vec(rng):
    return OctVector3((rand_oct(rng), rand_oct(rng), rand_oct(rng)))


def test_lambda_roots_trivial():
    assert lambda_roots(Hermitian3.identity(), 0.0) == pytest.approx((1.0, 1.0, 1.0))
    assert lambda_roots(Hermitian3.diagonal(1, 2, 3), 0.0) == pytest.approx((1.0, 2.0, 3.0))


def test_lambda_roots_vieta(rng):
    for _ in range(300):
        A = rand_herm(rng)
        for r in r_roots(A):
            lams = lambda_roots(A, r)
            assert lams[0] <= lams[1] <= lams[2]
            target = det(A) + r
            scale = max(1.0, abs(trace(A)), abs(target))
            assert abs(sum(lams) - trace(A)) < 1e-8 * scale
            assert abs(np.prod(lams) - target) < 1e-8 * scale
            for lam in lams:
                resid = lam ** 3 - trace(A) * lam ** 2 + sigma(A) * lam - target
                assert abs(resid) < 1e-8 * max(1.0, abs(lam) ** 3)


def test_lambda_roots_rejects_bogus_r(rng):
    # a huge r pushes the cubic into the one-real-root regime
    A = rand_herm(rng)
    with pytest.raises(ComplexRoots):
        lambda_roots(A, 1e6)


@pytest.mark.parametrize("r", [float("nan"), float("inf"), float("-inf")])
def test_lambda_roots_rejects_non_finite_r(rng, r):
    with pytest.raises(ValueError, match=f"^r: must be a finite number, got {r!r}$"):
        lambda_roots(rand_herm(rng), r)


def test_k_vector_identity_matrix(rng):
    x = rand_vec(rng)
    assert k_vector(Hermitian3.identity(), x).norm() < 1e-12


def test_k_vector_diagonality(rng):
    for _ in range(100):
        A = rand_herm(rng)
        x = rand_vec(rng)
        kx = k_vector(A, x)
        scale = max(1.0, A.frobenius()) ** 3 * max(1.0, x.norm())
        for slot in range(3):
            assert (kx.components[slot] - k_scalar(A, x.components[slot])).norm() < 1e-8 * scale


def test_realify24(rng):
    assert np.allclose(realify24(Hermitian3.identity()), np.eye(24))
    for _ in range(50):
        A = rand_herm(rng)
        M = realify24(A)
        assert np.abs(M - M.T).max() < 1e-12
        x = rand_vec(rng)
        assert np.allclose(M @ x.to_coords(), mat_vec(A, x).to_coords())


def test_real_nullspace(rng):
    M = np.diag([1.0, 2.0, 0.0, 3.0, 0.0])
    N = real_nullspace(M)
    assert N.shape == (5, 2)
    assert np.abs(M @ N).max() < 1e-12


def test_eigenvector_forward_construction(rng):
    # build a rank-one matrix from a known family vector and recover it
    for _ in range(20):
        A = rand_herm(rng)
        v = project_km_vec(A, 1, rand_vec(rng))
        v = v.scale(1.0 / v.norm())
        B = outer(v)
        # v's family under B is the one whose r equals -det(B)
        target = -det(B)
        fams = [family_context(B, m) for m in (1, 2)]
        fam = min(fams, key=lambda f: abs(f.r - target))
        assert abs(fam.r - target) < 1e-8
        pairs = eigenvectors(B, fam, 1.0, multiplicity=1)
        w = pairs[0].v
        assert (outer(w) - B).frobenius() < 1e-8
        assert (mat_vec(B, w) - w).norm() < 1e-8


def test_eigenvectors_near_diagonal(rng):
    # diagonally dominant matrices keep eigenvectors near the axes
    eps = 1e-3
    A = Hermitian3(1.0, 2.0, 3.0,
                   E[1] * eps, E[2] * eps, E[3] * eps)
    es = eigensystem(A)
    for fam in es.families:
        for k, pair in enumerate(fam.pairs):
            coords = pair.v.to_coords()
            # almost all of the mass sits in the k-th vector slot
            assert np.linalg.norm(coords[8 * k:8 * k + 8]) > 0.999


def test_eigensystem_random(rng, octonionic_pool):
    for A, es in octonionic_pool[:50]:
        assert len(es.all_pairs()) == 6
        for fam in es.families:
            assert max(fam.residuals.values()) < 1e-8
            for pair in fam.pairs:
                assert abs(pair.v.norm() - 1.0) < 1e-10
                # K eigenvalue matches the family label
                kv = k_vector(A, pair.v)
                assert (kv - pair.v.scale(fam.context.r)).norm() < 1e-8 * max(
                    1.0, A.frobenius() ** 3)


def test_eigensystem_sum_rules(octonionic_pool):
    for A, es in octonionic_pool[:50]:
        for fam in es.families:
            lams = [p.lam for p in fam.pairs]
            assert abs(sum(lams) - trace(A)) < 1e-8 * max(1.0, abs(trace(A)))
            prod_pairs = sum(lams[i] * lams[j] for i in range(3) for j in range(i + 1, 3))
            assert abs(prod_pairs - sigma(A)) < 1e-7 * max(1.0, abs(sigma(A)))
            assert abs(np.prod(lams) - det(A) - fam.context.r) < 1e-8 * max(
                1.0, abs(det(A) + fam.context.r))


def test_eigensystem_repeated_eigenvalue(rng):
    # rank-one matrices have a doubly degenerate zero eigenvalue in the
    # family of their generating vector
    A = rand_herm(rng)
    v = project_km_vec(A, 2, rand_vec(rng))
    v = v.scale(1.0 / v.norm())
    B = outer(v)
    es = eigensystem(B)
    fam = min(es.families, key=lambda f: abs(f.context.r + det(B)))
    lams = sorted(p.lam for p in fam.pairs)
    assert abs(lams[0]) < 1e-7 and abs(lams[1]) < 1e-7
    assert lams[2] == pytest.approx(1.0, abs=1e-9)
    assert fam.residuals["identity_decomposition"] < 1e-8
    assert fam.residuals["generalized_orthogonality"] < 1e-8


def test_eigensystem_quaternionic_routing(rng, quaternionic_pool):
    from octeig.subspace import conj_matrix

    for A, es in quaternionic_pool[:20]:
        assert es.matrix_class.tag == "quaternionic"
        assert len(es.families) == 2
        # spectrum over O = spectrum of A over H union spectrum of conj(A)
        ref1 = lambda_roots(A, 0.0)
        ref2 = lambda_roots(conj_matrix(A), 0.0)
        got1 = [p.lam for p in es.families[0].pairs]
        got2 = [p.lam for p in es.families[1].pairs]
        assert np.allclose(sorted(got1), sorted(ref1), atol=1e-9)
        assert np.allclose(sorted(got2), sorted(ref2), atol=1e-9)
        for fam in es.families:
            assert max(fam.residuals.values()) < 1e-8
        # independent oracle: the 24x24 realification carries each of the
        # six eigenvalues with real multiplicity 4
        spec24 = np.linalg.eigvalsh(realify24(A))
        expected = np.sort(np.repeat(np.sort(got1 + got2), 4))
        assert np.allclose(spec24, expected, atol=1e-8)


def test_quaternionic_contexts_give_the_family_projectors(quaternionic_pool):
    # the contexts carried phi = 0, so P_1 was 0 / 0 and P_2 = K / (2 r2) not idempotent;
    # K = -4 phi P_{ell H} makes (K + 4 phi) / (4 phi) and K / (-4 phi) the projectors
    for A, es in quaternionic_pool:
        K, R = k_matrix(A), realify24(A)
        P1, P2 = (fam.context.projector(K) for fam in es.families)
        for P in (P1, P2):
            assert np.abs(P @ P - P).max() <= 1e-13
        assert np.abs(P1 + P2 - np.eye(8)).max() <= 1e-13
        for fam in es.families:
            for lam, group in groupby(fam.pairs, key=lambda p: p.lam):
                for pair in eigenvectors(A, fam.context, lam, multiplicity=len(list(group))):
                    v = pair.v.to_coords()
                    resid = np.linalg.norm(R @ v - lam * v)
                    assert resid <= 1e-12 * A.frobenius() * np.linalg.norm(v)


def test_family_two_is_minus_four_phi_bit_for_bit(quaternionic_pool):
    # r2 = -4 phi gave -0.0 at phi = +0.0; it keeps the bits of -4 phi at every other phi,
    # and b parallel to c gives phi = +0.0 exactly, so r2 = +0.0 there
    flat = [Hermitian3(0.5, -0.25, 1.0, E[1] * t, E[2] + E[0] * t, E[2] * (2.0 * t))
            for t in (1.0, -0.5, 3.0)]
    assert [phi(A).hex() for A in flat] == [(0.0).hex()] * 3
    for A, es in quaternionic_pool + [(A, eigensystem(A)) for A in flat]:
        r1, r2 = (float(fam.context.r) for fam in es.families)
        assert r1.hex() == (0.0).hex()
        assert r2.hex() == (0.0 if phi(A) == 0.0 else -4.0 * phi(A)).hex()


@pytest.mark.parametrize("tag, offdiagonals", [
    ("complex", (E[1], E[1] * 0.5, E[0] * 2.0 - E[1])),
    ("real", (E[0], E[0] * -3.0, E[0] * 0.25)),
    ("quaternionic", (E[1], E[2], E[2] * 2.0)),   # b parallel to c: phi = 0
])
def test_a_context_at_a_double_root_has_no_projector(tag, offdiagonals):
    # r + 2 phi = 0 divided the projector by zero: a RuntimeWarning, then numpy's
    # LinAlgError from the nullspace SVD of eigenvectors()
    A = Hermitian3(0.5, -0.25, 1.0, *offdiagonals)
    es = eigensystem(A)
    assert es.matrix_class.tag == tag
    for fam in es.families:
        assert fam.context.r + 2.0 * fam.context.phi == 0.0
        with pytest.raises(DegenerateFamily):
            fam.context.projector(k_matrix(A))
        with pytest.raises(DegenerateFamily):
            eigenvectors(A, fam.context, fam.pairs[0].lam)


def test_eigensystem_complex_routing(rng):
    A = rand_herm(rng, mask=(0, 1))
    es = eigensystem(A)
    assert es.matrix_class.tag == "complex"
    assert es.single_family
    assert len(es.families[0].pairs) == 3
    assert max(es.families[0].residuals.values()) < 1e-10


def test_eigensystem_real_routing():
    es = eigensystem(Hermitian3.diagonal(1, 2, 3))
    assert es.matrix_class.tag == "real"
    assert es.single_family
    assert [p.lam for p in es.families[0].pairs] == pytest.approx([1.0, 2.0, 3.0])


def test_eigenvectors_extraction_failure(rng):
    A = rand_herm(rng)
    fam = family_context(A, 1)
    with pytest.raises(ExtractionFailure):
        eigenvectors(A, fam, 1e5, multiplicity=1)


@pytest.mark.parametrize("multiplicity", [0, -1])
def test_eigenvectors_need_a_multiplicity_of_at_least_one(octonionic_pool, multiplicity):
    # 0 divided by zero in the sweep, and -1 returned no pairs
    A, es = octonionic_pool[0]
    fam = es.families[0]
    with pytest.raises(ValueError, match=f"^multiplicity must be at least 1, got {multiplicity}$"):
        eigenvectors(A, fam.context, fam.pairs[0].lam, multiplicity=multiplicity)


def test_same_family(octonionic_pool, rng):
    hits = 0
    for A, es in octonionic_pool[:40]:
        u = es.families[0].pairs[0].v
        w_in = es.families[0].pairs[2].v
        w_out = es.families[1].pairs[1].v
        assert same_family(u, u)
        assert same_family(u, w_in)
        assert not same_family(u, w_out)
        # orthogonal vectors with (uu^dagger) w = 0 count as same family
        null = real_nullspace(realify24(outer(u)))
        w0 = OctVector3.from_coords(null[:, 0])
        assert same_family(u, w0)
        hits += 1
    assert hits == 40


def test_same_family_complex_projector(rng):
    v = OctVector3((E[1], Octonion.zero(), Octonion.zero()))
    with pytest.raises(ComplexProjector):
        same_family(v, v)


def test_family_dimension_probe(octonionic_pool):
    for A, es in octonionic_pool[:8]:
        v = es.families[0].pairs[0].v
        assert family_dimension_probe(v, samples=30) == 12
        # capped at `samples`, as the rank of that many random probes was
        assert family_dimension_probe(v, samples=5) == 5
    with pytest.raises(ValueError):
        family_dimension_probe(v, samples=-1)


def test_orthogonal_complement_dimension(octonionic_pool):
    # vectors annihilated by vv^dagger form an 8-dimensional space
    for A, es in octonionic_pool[:8]:
        v = es.families[1].pairs[0].v
        null = real_nullspace(realify24(outer(v)))
        assert null.shape[1] == 8


def test_phase_family_dimension(octonionic_pool):
    # unit right multiples of v: the lambda = 1 eigenspace of vv^dagger
    # within v's family is 4-dimensional, and all of it shares vv^dagger
    for A, es in octonionic_pool[:8]:
        v = es.families[0].pairs[0].v
        B = outer(v)
        target = -det(B)
        fam = min((family_context(B, m) for m in (1, 2)), key=lambda f: abs(f.r - target))
        null = real_nullspace(realify24(B) - np.eye(24))
        filtered = np.array([
            project_km_vec(B, fam.m, OctVector3.from_coords(null[:, k])).to_coords()
            for k in range(null.shape[1])
        ]).T
        s = np.linalg.svd(filtered, compute_uv=False)
        dim = int(np.sum(s > 1e-7 * max(1.0, s[0])))
        assert dim == 4
        # any unit vector of that space reproduces the same projector
        u = OctVector3.from_coords(filtered[:, 0] / np.linalg.norm(filtered[:, 0]))
        assert (outer(u) - B).frobenius() < 1e-8


def test_eigensystem_json(octonionic_pool):
    _, es = octonionic_pool[0]
    data = es.to_json()
    assert data["class"] == "octonionic"
    assert len(data["families"]) == 2
    fam = data["families"][0]
    assert len(fam["eigenvalues"]) == 3
    assert len(fam["eigenvectors"]) == 3
    assert len(fam["eigenvectors"][0]) == 3
    assert len(fam["eigenvectors"][0][0]) == 8
    assert set(fam["residuals"]) == {
        "eigen", "k_eigen", "identity_decomposition",
        "matrix_decomposition", "generalized_orthogonality",
    }


def assert_matches_nullspace_reference(A, es):
    # eigenvectors() keeps the SVD nullspace as the extraction source;
    # pairs of one repeated eigenvalue share its (mean) lambda
    for fam in es.families:
        for lam, group in groupby(fam.pairs, key=lambda p: p.lam):
            group = list(group)
            ref = eigenvectors(A, fam.context, lam, multiplicity=len(group))
            for got, want in zip(group, ref):
                assert np.abs(got.v.to_coords() - want.v.to_coords()).max() < 1e-10


def test_eigensystem_matches_nullspace_reference(octonionic_pool):
    for A, es in octonionic_pool:
        assert_matches_nullspace_reference(A, es)
    # two eigenvalues near 2, one per family, 4e-9 apart: the eigh columns
    # of both form one 8-dimensional cluster that only P_m tells apart
    A = Hermitian3(1.0, 2.0, 3.0, E[1] * 1e-3, E[2] * 1e-3, E[3] * 1e-3)
    assert_matches_nullspace_reference(A, eigensystem(A))


def test_eigensystem_rank_one_matches_nullspace_reference(rng):
    for m in (1, 2, 1, 2, 1, 2):
        v = project_km_vec(rand_herm(rng), m, rand_vec(rng))
        B = outer(v.scale(1.0 / v.norm()))
        es = eigensystem(B)
        assert sorted(len(list(g)) for fam in es.families
                      for _, g in groupby(fam.pairs, key=lambda p: p.lam)) == [1, 1, 1, 1, 2]
        assert_matches_nullspace_reference(B, es)


def reference_residuals(A, fam, pairs):
    """The residuals of `eigensystem`, evaluated with octonion products; normwise."""
    scale = A.frobenius()
    ident = hermitian_combination((1.0, p.v) for p in pairs) - Hermitian3.identity()
    amat = hermitian_combination((p.lam, p.v) for p in pairs) - A
    return {
        "eigen": max((mat_vec(A, p.v) - p.v.scale(p.lam)).norm() for p in pairs) / scale,
        "k_eigen": max((k_vector(A, p.v) - p.v.scale(fam.r)).norm() for p in pairs) / scale ** 3,
        "identity_decomposition": ident.frobenius(),
        "matrix_decomposition": amat.frobenius() / scale,
        "generalized_orthogonality": max(
            mat_vec(outer(p.v), q.v).norm() for i, p in enumerate(pairs) for q in pairs[i + 1:]),
    }


def test_residuals_match_octonion_reference(rng, octonionic_pool, quaternionic_pool):
    cases = octonionic_pool[:50] + quaternionic_pool[:20]
    for _ in range(10):
        A = rand_herm(rng, mask=(0, 1))
        cases.append((A, eigensystem(A)))
    for A, es in cases:
        for fam in es.families:
            ref = reference_residuals(A, fam.context, fam.pairs)
            assert set(ref) == set(fam.residuals)
            for key, want in ref.items():
                assert abs(fam.residuals[key] - want) <= 1e-12 + 1e-9 * want


def test_residual_formulas_off_the_spectrum(rng, octonionic_pool):
    # on arbitrary unit vectors every residual is of order one, so the
    # array formulas are compared with the reference at full scale
    for A, es in octonionic_pool[:10]:
        pairs = [EigenPair(lam, rand_vec(rng).normalized(), 1) for lam in rng.uniform(-2, 2, 3)]
        fam = es.families[0].context
        ref = reference_residuals(A, fam, pairs)
        V = np.array([[[p.v.to_coords() for p in pairs]]])
        lams = np.array([[[p.lam for p in pairs]]])
        # the outer products v_a conj(v_b), from octonion products
        vv = np.array([[[[[(a * b.conj()).coords for b in p.v.components]
                          for a in p.v.components] for p in pairs]]])
        got = dict(zip(_RESIDUALS,
                       _family_residuals(A._stack, np.array([[fam.r]]), lams, V, vv)[0, 0]))
        for key, want in ref.items():
            assert want > 1e-3
            assert abs(got[key] - want) <= 1e-12 * want


def test_realify_rank_one(rng):
    # the sweep's one rank-one kernel: the 24x24 forms of v v^dagger
    V = np.array([rand_vec(rng).to_coords() for _ in range(4)])
    forms = _Stack.outer(V).R
    assert forms.shape == (4, 24, 24)
    for k in range(4):
        v = OctVector3.from_coords(V[k])
        assert np.abs(forms[k] - realify24(outer(v))).max() < 1e-14
        y = rand_vec(rng)
        assert np.allclose(forms[k] @ y.to_coords(), mat_vec(outer(v), y).to_coords(), atol=1e-13)


def assert_scales_linearly(kind, seed, exponent):
    A = random_hermitian(np.random.default_rng(seed), kind)
    s = 10.0 ** exponent
    es, es_s = eigensystem(A), eigensystem(A.scale(s))
    assert es_s.matrix_class.tag == kind
    for fam, fam_s in zip(es.families, es_s.families):
        for p, p_s in zip(fam.pairs, fam_s.pairs):
            assert abs(p_s.lam - s * p.lam) <= 1e-12 * s * A.frobenius()
        assert max(fam_s.residuals.values()) <= 1e-8


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(-8.0, 8.0))
def test_eigensystem_scales_linearly(seed, exponent):
    assert_scales_linearly("octonionic", seed, exponent)


def assert_backward_stable(A, kind):
    es = eigensystem(A)
    assert es.matrix_class.tag == kind
    R = realify24(A)
    for p in es.all_pairs():
        v = p.v.to_coords()
        assert np.linalg.norm(R @ v - p.lam * v) <= 1e-13 * A.frobenius() * np.linalg.norm(v)


@pytest.mark.parametrize("kind, seed, scale", [("octonionic", 1, 1e-6), ("quaternionic", 3, 1e-10)])
def test_small_matrices_keep_their_class(kind, seed, scale):
    # an absolute class cut routed these to the quaternionic and the real
    # path, whose eigenpairs had a backward error of 0.19 and 0.42 while the
    # reported residuals, divided by max(1, |A|), stayed tiny
    assert_backward_stable(random_hermitian(np.random.default_rng(seed), kind).scale(scale), kind)


def test_small_complex_matrix_keeps_its_direction(rng):
    # an absolute cut on the imaginary parts fell back to e1 below 1e-12,
    # a wrong direction for entries in span{1, e2}
    for scale in (1.0, 1e-13, 1e-20):
        assert_backward_stable(rand_herm(rng, mask=(0, 2)).scale(scale), "complex")


@pytest.mark.parametrize("kind", ["quaternionic", "complex", "real"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(-8.0, 3.0))
def test_eigensystem_scales_linearly_in_every_class(kind, seed, exponent):
    # eigenvalues 1e-6 apart used to fall into one cluster at s = 1e-6
    assert_scales_linearly(kind, seed, exponent)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(-11.0, -7.0),
       kind=st.sampled_from(["quaternionic", "complex", "real"]))
def test_the_class_test_alone_decides_the_imaginary_rank(seed, exponent, kind):
    # imaginary parts in span{e1, e2, e4}, parallel to u up to one shared residual along w of
    # relative size 10^exponent, across the class test's 1e-9 cut; a complex matrix keeps
    # only u and a real one neither.  The route follows the class, and solves it
    rng = np.random.default_rng(seed)
    u, w = np.linalg.qr(rng.uniform(-1, 1, (3, 2)))[0].T
    t, s = rng.uniform(-1, 1, (2, 3, 1))
    imag = {"quaternionic": t * u + 10.0 ** exponent * s * w, "complex": t * u, "real": 0.0}[kind]
    off = np.zeros((3, 8))
    off[:, 0] = rng.uniform(-1, 1, 3)
    off[:, [1, 2, 4]] = imag
    A = Hermitian3(*rng.uniform(-1, 1, 3), *map(Octonion, off))
    es = eigensystem(A)
    assert len(es.families) == (2 if classify(A).tag == "quaternionic" else 1)
    assert max(max(fam.residuals.values()) for fam in es.families) <= DEFAULT_TOLERANCE


def test_eigensystem_near_quaternionic_boundary(rng):
    # nudged off the subalgebra by 1e-9..1e-6: routed octonionic, with one
    # family root r ~ |alpha|^2 / phi tiny against the other
    nudges = 0
    for eps in 10.0 ** np.linspace(-9, -6, 150):
        A = rand_herm(rng, mask=(0, 1, 2, 4))
        coords = A.c.coords.copy()
        coords[rng.choice((3, 5, 6, 7))] += eps
        A = Hermitian3(A.d, A.e, A.f, A.a, A.b, Octonion(coords))
        if classify(A).tag != "octonionic":
            continue
        nudges += 1
        es = eigensystem(A)
        assert max(max(fam.residuals.values()) for fam in es.families) <= 1e-12
    assert nudges >= 100


def test_lambda_roots_keep_scaled_double_roots():
    # at a double root f' is rounding noise; a Newton step on it used to
    # jump from -100 to -109 once the matrix was scaled by 100
    for s in (1.0, 1e2, 1e3, 1e4, 1e6):
        A = Hermitian3(0.0, 0.0, 0.0, E[1], E[2], E[3]).scale(s)
        r1, r2 = r_roots(A)
        assert lambda_roots(A, r1) == pytest.approx((-s, -s, 2 * s), rel=1e-12)
        assert lambda_roots(A, r2) == pytest.approx((-2 * s, s, s), rel=1e-12)
        es = eigensystem(A)
        assert max(max(fam.residuals.values()) for fam in es.families) < 1e-8


def test_eigensystem_scaled_rank_one(rng):
    # the repeated eigenvalue 0 of s v v^dagger survives the polish at s = 1e3
    for _ in range(100):
        B = outer(rand_vec(rng).normalized()).scale(1e3)
        es = eigensystem(B)
        lams = sorted(p.lam for p in es.all_pairs())
        assert max(max(fam.residuals.values()) for fam in es.families) < 1e-8
        assert lams[-1] == pytest.approx(1e3, rel=1e-12)


# The quaternionic route as it was before it moved onto the real 24x24
# form: the 12x12 form of A and of conj(A) built by octonion products in
# the basis h, with the sweep on Octonion objects.  Reference only.

def _subalgebra_coords(q, basis):
    return np.array([inner(h, q) for h in basis])


def _subalgebra_left_mul(q, basis):
    return np.array([_subalgebra_coords(q * h, basis) for h in basis]).T


def _from_subalgebra_coords(coords, basis):
    acc = Octonion.zero()
    for x, h in zip(coords, basis):
        acc = acc + h * float(x)
    return acc


def _cluster(values):
    vals = sorted(values)
    tol = 1e-6 * max(abs(v) for v in vals)
    groups = [[vals[0]]]
    for v in vals[1:]:
        if v - groups[-1][-1] <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    return groups


def _quat_hermitian_eig(A, hbasis):
    rows = A.entries()
    M = np.zeros((12, 12))
    for i in range(3):
        for j in range(3):
            M[4 * i:4 * i + 4, 4 * j:4 * j + 4] = _subalgebra_left_mul(rows[i][j], hbasis)
    evals, evecs = np.linalg.eigh(0.5 * (M + M.T))
    out = []
    start = 0
    for group in _cluster(evals):
        size = len(group)
        assert size % 4 == 0
        lam = float(np.mean(group))
        space = evecs[:, start:start + size]
        start += size

        def to_vec(col):
            return OctVector3(tuple(
                _from_subalgebra_coords(col[4 * i:4 * i + 4], hbasis) for i in range(3)))

        for k in range(size // 4):
            rep = _pick_representative(space, 4)
            v = to_vec(rep)
            out.append((lam, v))
            if 4 * (k + 1) < size:
                reduced = np.empty_like(space)
                for j in range(space.shape[1]):
                    y = to_vec(space[:, j])
                    proj = v.right_mul(v.dagger_dot(y))
                    reduced[:, j] = np.concatenate([
                        _subalgebra_coords(comp, hbasis) for comp in (y - proj).components])
                space = _column_basis(reduced)
    out.sort(key=lambda t: t[0])
    return out


def reference_quaternionic(A):
    """(lambda, coordinates) per family: A on H^3, then conj(A) lifted by ell."""
    hbasis, ell = quaternionic_split(A)
    fam1 = [(lam, v.to_coords()) for lam, v in _quat_hermitian_eig(A, hbasis)]
    fam2 = [(lam, OctVector3(tuple(ell * c for c in u.components)).to_coords())
            for lam, u in _quat_hermitian_eig(conj_matrix(A), hbasis)]
    return fam1, fam2


def assert_matches_quaternionic_reference(A):
    es = eigensystem(A)
    assert es.matrix_class.tag == "quaternionic"
    for fam, ref in zip(es.families, reference_quaternionic(A)):
        assert len(fam.pairs) == len(ref) == 3
        for pair, (lam, coords) in zip(fam.pairs, ref):
            assert abs(pair.lam - lam) <= 1e-12
            assert np.abs(pair.v.to_coords() - coords).max() <= 1e-12


def test_quaternionic_eigensystem_matches_reference(rng, quaternionic_pool):
    for A, _ in quaternionic_pool:
        assert_matches_quaternionic_reference(A)
    # nudged off the subalgebra by 1e-12..1e-10: still routed quaternionic
    for eps in 10.0 ** np.linspace(-12, -10, 12):
        A = rand_herm(rng, mask=(0, 1, 2, 4))
        coords = A.c.coords.copy()
        coords[rng.choice((3, 5, 6, 7))] += eps
        assert_matches_quaternionic_reference(Hermitian3(A.d, A.e, A.f, A.a, A.b, Octonion(coords)))
    # rank one: the repeated eigenvalue 0 is an 8-column cluster in each family
    for _ in range(12):
        v = OctVector3(tuple(rand_oct(rng, mask=(0, 1, 2, 4)) for _ in range(3)))
        B = outer(v.normalized())
        es = eigensystem(B)
        assert [len(list(g)) for _, g in groupby(es.families[0].pairs, key=lambda p: p.lam)] == [2, 1]
        assert_matches_quaternionic_reference(B)


def test_reference_eigenvectors_of_a_small_matrix():
    # the nullspace and column-space cuts were tol * max(1, s[0]), an absolute
    # floor: at this scale every singular value fell under it, and the
    # reference returned vectors with backward error up to 0.96
    A = random_hermitian(np.random.default_rng(1)).scale(1e-8)
    R = realify24(A)
    for fam in eigensystem(A).families:
        for p in fam.pairs:
            v = eigenvectors(A, fam.context, p.lam)[0].v.to_coords()
            assert np.linalg.norm(R @ v - p.lam * v) <= 1e-13 * A.frobenius() * np.linalg.norm(v)


def test_family_dimension_probe_does_not_depend_on_the_scale(octonionic_pool):
    # with the absolute floor a vector scaled by 1e-3 had a 24-dimensional family
    for _, es in octonionic_pool[:4]:
        v = es.families[1].pairs[2].v
        assert [family_dimension_probe(v.scale(s)) for s in (1e-6, 1e-3, 1.0, 1e3)] == [12] * 4
    assert real_nullspace(np.zeros((3, 3))).shape == (3, 3)


def svd_family_dimensions(v, samples=24, seed=0):
    """The probe's reference formulation: the nullspace of the membership map R^2 - tr R from a
    full SVD, cut at REAL_RANK_TOL of the largest singular value, and the rank of the samples
    projected onto it, null^T (null g)."""
    B = _Stack.outer(v)
    _, s, vh = np.linalg.svd(B.R @ B.R - B.trace[:, None, None] * B.R)
    null = vh * (s <= REAL_RANK_TOL * s[:, :1])[..., None]
    gauss = np.random.default_rng(seed).standard_normal((24, samples))
    s = np.linalg.svd(null.swapaxes(-1, -2) @ (null @ gauss), compute_uv=False)
    return (s > REAL_RANK_TOL * s[:, :1]).sum(-1)


CLASS_MASKS = {"octonionic": None, "quaternionic": (0, 1, 2, 4), "complex": (0, 1), "real": (0,)}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(-8.0, 8.0),
       kind=st.sampled_from(sorted(CLASS_MASKS)))
def test_family_dimensions_from_eigh_equal_the_svd_formulation(seed, exponent, kind):
    # the map is symmetric, so its |eigenvalues| are its singular values and one eigh gives
    # the nullspace; complex and real vectors make it rounding noise, cut the same way
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1, 1, (6, 3, 8)) * 10.0 ** exponent
    if CLASS_MASKS[kind] is not None:
        v = v * np.isin(np.arange(8), CLASS_MASKS[kind])
    dims = _family_dimensions(_Stack.outer(v))
    assert dims.tolist() == svd_family_dimensions(v).tolist()
    if kind == "octonionic":
        assert dims.tolist() == [12] * 6
        assert family_dimension_probe(OctVector3.from_coords(v[0].ravel())) == 12


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_family_dimension_probe_rejects_complex_projectors(scale):
    # v v^dagger of a complex or real v meets the membership condition identically, so its map
    # is rounding noise, whose count was [24 0 0 0 0 8] for real vectors at 1e-8
    rng = np.random.default_rng(21)
    for kind in ("complex", "real"):
        for _ in range(5):
            v = rng.uniform(-1, 1, (3, 8)) * np.isin(np.arange(8), CLASS_MASKS[kind]) * scale
            with pytest.raises(ComplexProjector):
                family_dimension_probe(OctVector3.from_coords(v.ravel()))
    for _ in range(5):
        assert family_dimension_probe(OctVector3.from_coords(rng.uniform(-1, 1, 24) * scale)) == 12


@pytest.mark.parametrize("n", [1, 3, 8, 41])
def test_stacked_lambda_roots_equal_separate_calls_bit_for_bit(n):
    # the quaternionic-lift check solves the spectra of A and of its conjugate in one call
    A = _draw_stack(np.random.default_rng(n), n, "quaternionic")
    Abar = _Stack(A.dia, A.off * _CONJ)
    stacked = _lambda_roots(*np.stack([(M.trace, M.sigma, M.det) for M in (A, Abar)], -1))
    for m, M in enumerate((A, Abar)):
        assert stacked[:, m].tobytes() == _lambda_roots(M.trace, M.sigma, M.det).tobytes()
