import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from octeig.hermitian import OctVector3
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


def _normal(x: np.ndarray) -> bool:
    """Every nonzero entry of x is a finite, normal double."""
    a = np.abs(x[x != 0.0])
    return bool(np.all((a >= np.finfo(float).tiny) & (a < np.inf)))


def _spread(rng, n: int) -> np.ndarray:
    """n coordinates of binary exponents -20..20, about a fifth of them zero."""
    return np.ldexp(rng.uniform(-1, 1, n), rng.integers(-20, 21, n)) * (rng.random(n) < 0.8)


@pytest.mark.parametrize("x", [1e-200, 1e-160, 1e200, 1e-300, 1e300])
def test_inverse_of_a_tiny_or_huge_octonion(x):
    # |q|^2 underflowed to 0 or a subnormal, or overflowed, before q was scaled by 2^-e
    inv = Octonion([x] + [0.0] * 7).inverse().coords
    assert inv[0] == pytest.approx(1.0 / x, rel=1e-15) and not inv[1:].any()
    unit = OctVector3.from_coords(np.full(24, x)).normalized().to_coords()
    np.testing.assert_allclose(unit, 24 ** -0.5, rtol=1e-15)


@pytest.mark.parametrize("x", [1e-310, -5e-324])
def test_an_inverse_beyond_the_float_range_raises(x):
    # |q| < 1 / DBL_MAX: 1 / |q| overflows, and no octonion with an infinite coordinate escapes
    with pytest.raises(OverflowError, match="out of the float range"):
        Octonion([x] + [0.0] * 7).inverse()
    unit = OctVector3.from_coords(np.full(24, x)).normalized().to_coords()
    np.testing.assert_allclose(unit, np.sign(x) * 24 ** -0.5, rtol=1e-15)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-1000, 1000))
def test_inverse_and_normalized_commute_with_powers_of_two(seed, k):
    # bit for bit, wherever the coordinates and the results are normal numbers
    rng = np.random.default_rng(seed)
    q, v = _spread(rng, 8), _spread(rng, 24)
    assume(q.any() and v.any() and _normal(np.ldexp(q, k)) and _normal(np.ldexp(v, k)))
    inv, scaled_inv = (Octonion(np.ldexp(q, j)).inverse().coords for j in (0, k))
    assume(_normal(inv) and _normal(scaled_inv))
    assert np.array_equal(scaled_inv, np.ldexp(inv, -k))
    unit = OctVector3.from_coords(v).normalized().to_coords()
    assert np.array_equal(OctVector3.from_coords(np.ldexp(v, k)).normalized().to_coords(), unit)


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("i", [0, 5])
def test_constructor_rejects_non_finite(bad, i):
    coords = np.linspace(-1.0, 1.0, 8)
    coords[i] = bad
    for given in (coords, coords.tolist()):
        with pytest.raises(ValueError, match=r"^octonion coordinates must be finite, got \["):
            Octonion(given)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("i", [0, 7])
@pytest.mark.parametrize("shape", [(8,), (2, 3, 8)])
def test_array_functions_reject_non_finite(bad, i, shape):
    good = np.linspace(-1.0, 1.0, int(np.prod(shape))).reshape(shape)
    x = good.copy()
    x.reshape(-1, 8)[-1, i] = bad   # the last row alone
    calls = [lambda: left_mul_matrix(x), lambda: conj(x), lambda: mul(good, x),
             lambda: mul(x, good), lambda: inner(good, x), lambda: associator(good, good, x),
             lambda: assoc3form(good, x, good)]
    prefix = "octonion coordinates must be finite, got "
    for call in calls:
        with pytest.raises(ValueError, match=rf"^{prefix}\[") as err:
            call()
        # the coordinates as `_shown` cuts them, at most 200 characters
        shown = str(err.value)[len(prefix):]
        assert len(shown) <= 200 and (len(shape) == 1) == (not shown.endswith("..."))


@pytest.mark.parametrize("shape", [(3,), (7,), (2, 9)])
def test_array_functions_reject_a_last_axis_other_than_8(shape):
    x, good = np.ones(shape), np.ones(shape[:-1] + (8,))
    calls = [lambda: left_mul_matrix(x), lambda: conj(x), lambda: mul(x, x), lambda: mul(good, x),
             lambda: inner(x, x), lambda: associator(x, x, x), lambda: assoc3form(good, good, x)]
    for call in calls:
        with pytest.raises(ValueError, match="^octonion needs 8 coordinates, got shape "
                                             + re.escape(str(shape)) + "$"):
            call()


@pytest.mark.parametrize("i", [-1, 8, 1.5, True, np.int64(3)])
def test_unit_takes_an_integer_index_in_0_to_7(i):
    # a numpy integer is an integer; a bool is not, though numpy reads a bool index as "all"
    if isinstance(i, np.integer):
        assert Octonion.unit(i).coords.tolist() == np.eye(8)[3].tolist()
        return
    with pytest.raises(ValueError, match="^unit index must be an integer in 0..7, got "
                                         + re.escape(repr(i)) + "$"):
        Octonion.unit(i)


def test_array_functions_reject_octonions_mixed_with_arrays():
    # both orders, and a mix of three, raise the same ValueError before any product
    q, x = Octonion.unit(1), np.ones(8)
    calls = {"mul": [lambda: mul(x, q), lambda: mul(q, x)],
             "inner": [lambda: inner(x, q), lambda: inner(q, x)],
             "associator": [lambda: associator(q, x, q), lambda: associator(x, q, x)]}
    for name, mixed in calls.items():
        for call in mixed:
            with pytest.raises(ValueError, match=f"^{name} takes Octonions or coordinate "
                                                 "arrays, not a mix$"):
                call()
