import dataclasses

import numpy as np
import pytest

from octeig.hermitian import (
    COMPLEX,
    OCTONIONIC,
    QUATERNIONIC,
    REAL,
    Hermitian3,
    OctVector3,
    alpha,
    classify,
    det,
    mat_vec,
    outer,
    outer_entries,
    phi,
    real_form,
    sigma,
    trace,
)
from octeig.octonion import Octonion, assoc3form
from octeig.spectral import realify24
from octeig.subspace import k_scalar, quaternionic_split

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


def test_hermiticity_by_reconstruction(rng):
    A = rand_herm(rng)
    rows = A.entries()
    for i in range(3):
        for j in range(3):
            assert np.allclose(rows[i][j].coords, rows[j][i].conj().coords)
    assert trace(A) == A.d + A.e + A.f


def test_trace_values(rng):
    assert trace(Hermitian3.identity()) == 3.0
    assert trace(Hermitian3.diagonal(2, -1, 5)) == 6.0
    v = rand_vec(rng).normalized()
    assert trace(outer(v)) == pytest.approx(1.0, abs=1e-12)


def test_sigma_values(rng):
    assert sigma(Hermitian3.identity()) == pytest.approx(3.0)
    d, e, f = 1.5, -2.0, 0.25
    assert sigma(Hermitian3.diagonal(d, e, f)) == pytest.approx(d * e + e * f + f * d)
    v = rand_vec(rng).normalized()
    assert sigma(outer(v)) == pytest.approx(0.0, abs=1e-12)


def test_sigma_closed_form(rng):
    for _ in range(300):
        A = rand_herm(rng)
        closed = (A.d * A.e + A.e * A.f + A.f * A.d
                  - A.a.norm2() - A.b.norm2() - A.c.norm2())
        assert abs(sigma(A) - closed) < 1e-9 * max(1.0, abs(closed))


def test_det_diagonal():
    assert det(Hermitian3.identity()) == pytest.approx(1.0)
    assert det(Hermitian3.diagonal(2, -3, 5)) == pytest.approx(-30.0)


def left_mul_in_basis(q, basis):
    """Matrix of p -> q p on the real span of an orthonormal basis, by octonion products."""
    return np.array([[(q * h).coords @ g.coords for h in basis] for g in basis])


def test_det_quaternionic_against_realified_spectrum(rng):
    # oracle: the 12x12 realification of a quaternionic Hermitian matrix has
    # each eigenvalue with multiplicity 4; their product is the determinant
    for _ in range(50):
        A = rand_herm(rng, mask=(0, 1, 2, 4))
        if classify(A).tag != QUATERNIONIC:
            continue
        hbasis, _ = quaternionic_split(A)
        rows = A.entries()
        M = np.zeros((12, 12))
        for i in range(3):
            for j in range(3):
                M[4 * i:4 * i + 4, 4 * j:4 * j + 4] = left_mul_in_basis(rows[i][j], hbasis)
        evals = np.linalg.eigvalsh(0.5 * (M + M.T))
        moore = evals[0] * evals[4] * evals[8]
        assert det(A) == pytest.approx(moore, abs=1e-9)


def test_det_validated_by_k_diagonality(rng):
    # the decisive determinant check: the matrix characteristic operator is
    # diagonal only with the correct determinant constant
    for _ in range(100):
        A = rand_herm(rng)
        x = rand_vec(rng)
        ax = mat_vec(A, x)
        a2x = mat_vec(A, ax)
        a3x = mat_vec(A, a2x)
        kx = a3x - a2x.scale(trace(A)) + ax.scale(sigma(A)) - x.scale(det(A))
        scale = max(1.0, A.frobenius()) ** 3 * max(1.0, x.norm())
        for slot in range(3):
            assert (kx.components[slot] - k_scalar(A, x.components[slot])).norm() < 1e-8 * scale


def test_phi_delegates(rng):
    A = rand_herm(rng)
    assert phi(A) == assoc3form(A.a, A.b, A.c)
    swapped = Hermitian3(A.d, A.e, A.f, A.b, A.a, A.c)
    assert phi(swapped) == pytest.approx(-phi(A), abs=1e-12)


def test_subalgebra_classes_kill_alpha_not_phi(rng):
    # quaternionic entries associate, so alpha vanishes; the 3-form is
    # generically maximal there (it calibrates associative triples)
    A = rand_herm(rng, mask=(0, 1, 2, 4))
    assert alpha(A).norm() < 1e-13
    # on a complex subalgebra both invariants vanish
    C = rand_herm(rng, mask=(0, 1))
    assert alpha(C).norm() < 1e-13
    assert phi(C) == pytest.approx(0.0, abs=1e-13)


def test_alpha_cases(rng):
    A = Hermitian3(0, 0, 0, E[1], E[2], E[4])
    assert alpha(A).norm() == 0.0
    B = Hermitian3(0, 0, 0, E[1], E[2], E[3])
    assert np.allclose(alpha(B).coords, (-2.0 * E[6]).coords)
    C = rand_herm(rng, mask=(0, 1))
    assert alpha(C).norm() < 1e-13


def test_classify(rng):
    assert classify(Hermitian3.diagonal(1, 2, 3)) == (REAL, 1)
    ac = Hermitian3(1, 2, 3, E[1], E[1], E[1])
    assert classify(ac) == (COMPLEX, 2)
    aq = Hermitian3(1, 2, 3, E[1], E[2], E[4])
    assert classify(aq) == (QUATERNIONIC, 4)
    ao = Hermitian3(1, 2, 3, E[1], E[2], E[3])
    assert classify(ao) == (OCTONIONIC, 4)
    # complex with offset imaginary parts still complex
    a = Octonion([0.5, 2.0, 0, 0, 0, 0, 0, 0])
    b = Octonion([-1.0, 0.7, 0, 0, 0, 0, 0, 0])
    assert classify(Hermitian3(1, 2, 3, a, b, a)).tag == COMPLEX


def test_mat_vec_diagonal(rng):
    x = rand_vec(rng)
    assert (mat_vec(Hermitian3.identity(), x) - x).norm() < 1e-15
    D = Hermitian3.diagonal(2, 3, 5)
    y = mat_vec(D, x)
    assert np.allclose(y.components[0].coords, (x.components[0] * 2).coords)
    assert np.allclose(y.components[1].coords, (x.components[1] * 3).coords)
    assert np.allclose(y.components[2].coords, (x.components[2] * 5).coords)


def test_mat_vec_matches_realification(rng):
    for _ in range(100):
        A = rand_herm(rng)
        x = rand_vec(rng)
        assert np.allclose(realify24(A) @ x.to_coords(), mat_vec(A, x).to_coords())


def test_invariants_stable_under_reconstruction(rng):
    A = rand_herm(rng)
    rows = A.entries()
    B = Hermitian3(rows[0][0].real, rows[1][1].real, rows[2][2].real,
                   rows[0][1], rows[2][0], rows[1][2])
    assert phi(B) == phi(A)
    assert np.allclose(alpha(B).coords, alpha(A).coords)


def test_outer_is_hermitian_rank_one(rng):
    v = rand_vec(rng)
    B = outer(v)
    # (vv^dagger) v = v (v^dagger v)
    assert (mat_vec(B, v) - v.scale(v.norm2())).norm() < 1e-12 * v.norm() ** 3


def test_json_roundtrip_and_errors(rng):
    A = rand_herm(rng)
    B = Hermitian3.from_json(A.to_json())
    assert (A - B).frobenius() == 0.0
    data = A.to_json()
    del data["c"]
    with pytest.raises(ValueError, match="missing field 'c'"):
        Hermitian3.from_json(data)
    data = A.to_json()
    data["a"] = [1, 2, 3]
    with pytest.raises(ValueError, match="'a'"):
        Hermitian3.from_json(data)


def test_vector_json(rng):
    x = rand_vec(rng)
    y = OctVector3.from_json(x.to_json())
    assert (x - y).norm() == 0.0
    with pytest.raises(ValueError):
        OctVector3.from_json([[0.0] * 8, [0.0] * 8])


def test_json_rejects_non_finite(rng):
    data = rand_herm(rng).to_json()
    data["d"] = float("nan")
    with pytest.raises(ValueError, match="field 'd': must be a finite number"):
        Hermitian3.from_json(data)
    data = rand_herm(rng).to_json()
    data["b"][3] = float("-inf")
    with pytest.raises(ValueError, match="field 'b': octonion coordinates must be finite"):
        Hermitian3.from_json(data)
    data = rand_herm(rng).to_json()
    data["e"] = None
    with pytest.raises(ValueError, match="field 'e'"):
        Hermitian3.from_json(data)
    rows = rand_vec(rng).to_json()
    rows[2][0] = float("inf")
    with pytest.raises(ValueError, match="component 2: octonion coordinates must be finite"):
        OctVector3.from_json(rows)


def test_outer_entries_match_outer(rng):
    vs = [rand_vec(rng) for _ in range(5)]
    dia, off = outer_entries(np.array([v.to_coords() for v in vs]).T)
    for k, v in enumerate(vs):
        B = outer(v)
        assert np.allclose(dia[k], [B.d, B.e, B.f], rtol=0, atol=1e-14)
        assert np.allclose(off[k], [B.a.coords, B.b.coords, B.c.coords], rtol=0, atol=1e-14)


def test_real_form_is_realify24(rng):
    A = rand_herm(rng)
    M = real_form(np.array([A.d, A.e, A.f]), np.array([A.a.coords, A.b.coords, A.c.coords]))
    assert np.array_equal(M, realify24(A))
    stacked = real_form(np.zeros((2, 5, 3)), np.zeros((2, 5, 3, 8)))
    assert stacked.shape == (2, 5, 24, 24)


def test_constructors_copy_their_input(rng):
    # the per-matrix cache relies on a matrix never changing after it is built
    arr = rng.uniform(-1, 1, 8)
    coords = rng.uniform(-1, 1, 24)
    q = Octonion(arr)
    v = OctVector3.from_coords(coords)
    A = Hermitian3(1.0, 2.0, 3.0, q, *v.components[:2])
    want_q, want_v, want_det = arr.copy(), coords.copy(), det(A)
    arr[:] = 0.0
    coords[:] = 0.0
    assert np.array_equal(q.coords, want_q)
    assert np.array_equal(v.to_coords(), want_v)
    assert det(A) == want_det == det.__wrapped__(A)


def test_derived_matrices_do_not_share_the_cache(rng):
    A = rand_herm(rng)
    B = rand_herm(rng)
    R = realify24(A)
    det(A), sigma(A), classify(A), alpha(A)
    for C in (A.scale(2.0), A + B, A - B, dataclasses.replace(A, d=A.d + 1.0)):
        assert realify24(C) is not R
        assert np.array_equal(realify24(C), realify24.__wrapped__(C))
        assert det(C) == det.__wrapped__(C)
        assert sigma(C) == sigma.__wrapped__(C)
        assert classify(C) == classify.__wrapped__(C)
        assert np.array_equal(alpha(C).coords, alpha.__wrapped__(C).coords)
