import numpy as np
import pytest

from octeig.octonion import (
    Octonion,
    assoc3form,
    associator,
    conj,
    inner,
    left_mul_matrix,
    mul,
)

E = [Octonion.unit(i) for i in range(8)]
ONE = Octonion.from_real(1.0)

# the seven quaternionic triples of the cyclic table convention
TRIPLES = [(1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3)]


def rand_oct(rng):
    return Octonion(rng.uniform(-1, 1, 8))


def test_identity_element(rng):
    p = rand_oct(rng)
    assert np.allclose(mul(ONE, p).coords, p.coords)
    assert np.allclose(mul(p, ONE).coords, p.coords)


@pytest.mark.parametrize("i,j,k", TRIPLES)
def test_table_triples(i, j, k):
    assert np.allclose(mul(E[i], E[j]).coords, E[k].coords)
    assert np.allclose(mul(E[j], E[k]).coords, E[i].coords)
    assert np.allclose(mul(E[k], E[i]).coords, E[j].coords)
    assert np.allclose(mul(E[j], E[i]).coords, (-E[k]).coords)


def test_defining_entry():
    assert np.allclose(mul(E[1], E[2]).coords, E[4].coords)


def test_imaginary_units_square_to_minus_one():
    for i in range(1, 8):
        assert np.allclose(mul(E[i], E[i]).coords, (-ONE).coords)


def test_composition_norm(rng):
    for _ in range(10_000):
        p, q = rand_oct(rng), rand_oct(rng)
        assert abs(mul(p, q).norm() - p.norm() * q.norm()) < 1e-12 * p.norm() * q.norm()


def test_alternativity(rng):
    for _ in range(10_000):
        p, q = rand_oct(rng), rand_oct(rng)
        scale = max(1.0, p.norm() ** 2 * q.norm(), p.norm() * q.norm() ** 2)
        assert associator(p, p, q).norm() < 1e-12 * scale
        assert associator(p, q, q).norm() < 1e-12 * scale


def test_conj_basics():
    assert np.allclose(conj(ONE).coords, ONE.coords)
    assert np.allclose(conj(E[3]).coords, (-E[3]).coords)


def test_conj_antihomomorphism_exhaustive():
    for i in range(8):
        for j in range(1, 8):
            lhs = conj(mul(E[i], E[j]))
            rhs = mul(conj(E[j]), conj(E[i]))
            assert np.allclose(lhs.coords, rhs.coords)


def test_conj_involution(rng):
    p = rand_oct(rng)
    assert np.allclose(conj(conj(p)).coords, p.coords)


def test_inner_units():
    assert inner(E[2], E[2]) == 1.0
    assert inner(E[1], E[2]) == 0.0


def test_inner_matches_algebraic_form(rng):
    # oracle: evaluate (p qbar + q pbar)/2 and (pbar q + qbar p)/2 with mul
    for _ in range(10_000):
        p, q = rand_oct(rng), rand_oct(rng)
        f1 = 0.5 * (mul(p, conj(q)) + mul(q, conj(p))).real
        f2 = 0.5 * (mul(conj(p), q) + mul(conj(q), p)).real
        assert abs(f1 - inner(p, q)) < 1e-12 * max(1.0, p.norm() * q.norm())
        assert abs(f2 - inner(p, q)) < 1e-12 * max(1.0, p.norm() * q.norm())


def test_associator_quaternionic_triple_vanishes():
    assert associator(E[1], E[2], E[4]).norm() == 0.0


def test_associator_antisymmetry(rng):
    a, b, c = rand_oct(rng), rand_oct(rng), rand_oct(rng)
    z = associator(a, b, c) + associator(b, a, c)
    assert z.norm() < 1e-12 * max(1.0, a.norm() * b.norm() * c.norm())


def test_associator_table_value():
    # (e1 e2) e3 - e1 (e2 e3) = e4 e3 - e1 e5 = -e6 - e6
    expected = -2.0 * E[6]
    assert np.allclose(associator(E[1], E[2], E[3]).coords, expected.coords)


def test_associator_purely_imaginary(rng):
    a, b, c = rand_oct(rng), rand_oct(rng), rand_oct(rng)
    assert abs(associator(a, b, c).real) < 1e-12 * a.norm() * b.norm() * c.norm()


def test_assoc3form_values():
    # direct table evaluation: e1((-e2) e4) = e1(-e1) = 1, e4((-e2) e1) = e4 e4 = -1
    assert assoc3form(E[1], E[2], E[4]) == pytest.approx(1.0, abs=1e-15)
    assert assoc3form(E[1], E[2], E[3]) == pytest.approx(0.0, abs=1e-15)


def test_assoc3form_antisymmetric(rng):
    a, c = rand_oct(rng), rand_oct(rng)
    assert assoc3form(a, a, c) == pytest.approx(0.0, abs=1e-13)
    b = rand_oct(rng)
    assert assoc3form(a, b, c) == pytest.approx(-assoc3form(b, a, c), abs=1e-12)


def test_assoc3form_kills_real_arguments(rng):
    b, c = rand_oct(rng).imag(), rand_oct(rng).imag()
    assert assoc3form(ONE, b, c) == pytest.approx(0.0, abs=1e-13)


def test_left_mul_matrix_identity():
    assert np.allclose(left_mul_matrix(ONE), np.eye(8))


def test_left_mul_matrix_consistency(rng):
    assert np.allclose(left_mul_matrix(E[1]) @ E[2].coords, mul(E[1], E[2]).coords)
    for _ in range(200):
        q, x = rand_oct(rng), rand_oct(rng)
        assert np.allclose(left_mul_matrix(q) @ x.coords, mul(q, x).coords)


def test_left_mul_matrix_isometry(rng):
    for _ in range(200):
        q = rand_oct(rng)
        L = left_mul_matrix(q)
        assert np.abs(L.T @ L - q.norm2() * np.eye(8)).max() < 1e-12 * max(1.0, q.norm2())


def test_trace_form_associativity(rng):
    for _ in range(1000):
        x, y, z = rand_oct(rng), rand_oct(rng), rand_oct(rng)
        lhs = mul(mul(x, y), z).real
        rhs = mul(x, mul(y, z)).real
        assert abs(lhs - rhs) < 1e-12 * max(1.0, x.norm() * y.norm() * z.norm())


def test_inverse(rng):
    p = rand_oct(rng)
    assert (mul(p, p.inverse()) - ONE).norm() < 1e-13
    with pytest.raises(ZeroDivisionError):
        Octonion.zero().inverse()


def test_json_roundtrip(rng):
    p = rand_oct(rng)
    assert np.allclose(Octonion.from_json(p.to_json()).coords, p.coords)
    with pytest.raises(ValueError):
        Octonion.from_json([1.0, 2.0])


def test_immutability(rng):
    p = rand_oct(rng)
    q = rand_oct(rng)
    for r in (p, p + q, p - q, -p, p * q, p * 2.0, 2.0 * p, p / 2.0, p.conj(), p.imag()):
        with pytest.raises(ValueError):
            r.coords[0] = 5.0


def test_left_mul_matrix_batched(rng):
    coords = rng.uniform(-1, 1, (2, 3, 8))
    stack = left_mul_matrix(coords)
    assert stack.shape == (2, 3, 8, 8)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(stack[idx], left_mul_matrix(Octonion(coords[idx])))


def test_json_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        Octonion.from_json([0.0] * 7 + [float("nan")])
