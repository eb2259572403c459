"""An exact certificate of the two-family theorem on integer matrices.

With c(lam) = lam^3 - tr lam^2 + sigma lam - det, the families are the roots
of c(lam) = r_m, where r1 + r2 = -4 phi and r1 r2 = -|alpha|^2, so the real
24x24 form R24 of A has the characteristic polynomial

    det(lam I - R24(A)) = (c(lam)^2 + 4 phi c(lam) - |alpha|^2)^4.

For an integer matrix both sides are exact.  R24, tr, sigma, det, phi and
alpha are built here in integer arithmetic from `perfbench/oracle.py`'s
octonion table, which shares no code with octeig; octeig is then checked
against them: its invariants equal the exact numbers, and its eigenvalues lie
within 1e-14 ||A||_2 of the sextic's roots, found at 40 digits.
"""

import importlib.util
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy

from octeig import (Hermitian3, Octonion, OctVector3, alpha, classify, det, eigensystem, outer, phi,
                    sigma)

_spec = importlib.util.spec_from_file_location(
    "perfbench_oracle", Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

# (i, j, k, sign) of each nonzero entry of the oracle's table: (pq)_k = sum of sign p_i q_j
TERMS = [(i, j, k, int(t)) for (i, j, k), t in np.ndenumerate(oracle.TABLE) if t]
LAM = sympy.Symbol("lam")
MASKS = {"octonionic": range(8), "quaternionic": (0, 1, 2, 4), "complex": (0, 1), "real": (0,)}


def _mul(p, q) -> list:
    out = [0] * 8
    for i, j, k, sign in TERMS:
        out[k] += sign * p[i] * q[j]
    return out


def _conj(p) -> list:
    return [p[0]] + [-x for x in p[1:]]


def _dot(p, q):
    return sum(x * y for x, y in zip(p, q))


def exact_invariants(m: dict) -> dict:
    """tr, sigma, det, phi and |alpha|^2 of an integer matrix in octeig's JSON layout, exact."""
    d, e, f = (int(m[k]) for k in "def")
    a, b, c = ([int(x) for x in m[k]] for k in "abc")
    assert [d, e, f, *a, *b, *c] == [m[k] for k in "def"] + m["a"] + m["b"] + m["c"]
    na, nb, nc = _dot(a, a), _dot(b, b), _dot(c, c)
    bc, ba = _mul(b, c), _mul(b, a)
    al = [x - y for x, y in zip(_mul(_mul(a, b), c), _mul(a, bc))]
    return {"tr": d + e + f,
            "sigma": d * e + e * f + f * d - na - nb - nc,
            "det": d * e * f - d * nc - e * nb - f * na + 2 * _mul(_mul(c, b), a)[0],
            "phi": sympy.Rational(_dot(_conj(c), ba) - _dot(_conj(a), bc), 2),
            "alpha2": _dot(al, al)}


def _coords(rng, kind: str, m: int = 2) -> np.ndarray:
    """Three octonions (3, 8) with integer coordinates in [-m, m] on the class's subalgebra."""
    x = np.zeros((3, 8))
    x[:, list(MASKS[kind])] = rng.integers(-m, m + 1, (3, len(MASKS[kind])))
    return x


def _draw(rng, kind: str) -> Hermitian3:
    return Hermitian3(*map(float, rng.integers(-3, 4, 3)), *map(Octonion, _coords(rng, kind)))


# (entry, unit) of each +-1 that nudges an integer matrix of a class off it: e7 off the
# quaternionic (1, e1, e2, e4), e2, e3 and e5 off the complex (1, e1), and e1, e2 and e3, which
# are not a quaternionic triple, off the real
NUDGES = {"quaternionic": ((2, 7),), "complex": ((0, 2), (1, 3), (2, 5)),
          "real": ((0, 1), (1, 2), (2, 3))}


def _near(rng, kind: str, m: int) -> Hermitian3:
    """An octonionic matrix near class `kind`: `_coords` in [-m, m] plus the +-1 of `NUDGES`,
    and diagonals in [-m, m]."""
    x = _coords(rng, kind, m)
    for entry, unit in NUDGES[kind]:
        x[entry, unit] = rng.choice([-1.0, 1.0])
    return Hermitian3(*map(float, rng.integers(-m, m + 1, 3)), *map(Octonion, x))


def _matrices() -> list:
    rng = np.random.default_rng(7)
    cases = []
    for kind in MASKS:
        cases += [(f"{kind}-{i}", _draw(rng, kind)) for i in range(4)]
        cases.append((f"{kind}-outer", outer(OctVector3.from_coords(_coords(rng, kind).ravel()))))
    # quaternionic with c = 2b, so phi = 0 and the two roots r meet at 0
    q = _draw(rng, "quaternionic")
    cases.append(("quaternionic-b-parallel-c", Hermitian3(q.d, q.e, q.f, q.a, q.b, q.b * 2.0)))
    # octonionic, an associator of size 1 against entries of size m: the class boundary
    cases += [(f"octonionic-near-{kind}-{m}", _near(rng, kind, m))
              for m in (500, 50) for kind in NUDGES]
    return cases


CASES = _matrices()


@pytest.mark.parametrize("name,A", CASES, ids=[name for name, _ in CASES])
def test_two_family_certificate(name, A):
    m = A.to_json()
    inv = exact_invariants(m)
    R24 = oracle.realify(m)
    charpoly = sympy.Matrix(R24.astype(int).tolist()).charpoly(LAM)
    c = sympy.Poly([1, -inv["tr"], inv["sigma"], -inv["det"]], LAM, domain="QQ")
    sextic = c ** 2 + 4 * inv["phi"] * c - inv["alpha2"]
    assert charpoly.all_coeffs() == (sextic ** 4).all_coeffs()

    # octeig's invariants are the exact numbers: every intermediate is a small integer or a half
    assert (det(A), sigma(A), phi(A), alpha(A).norm2()) == tuple(
        float(inv[k]) for k in ("det", "sigma", "phi", "alpha2"))
    # alpha = 0 off the octonionic class, and phi = 0 too for complex, real and b parallel to c
    kind = name.split("-")[0]
    assert (inv["alpha2"] == 0) == (kind != "octonionic")
    assert inv["phi"] == 0 or kind in ("octonionic", "quaternionic") and "parallel" not in name
    # a nudged matrix is octonionic by the class test too, however small its associator
    assert "near" not in name or classify(A).tag == "octonionic"

    # the sextic's roots at 40 digits, each square-free factor solved alone
    with mpmath.workdps(40):
        roots = []
        for factor, k in sextic.sqf_list()[1]:
            coeffs = [mpmath.mpf(x.p) / x.q for x in factor.all_coeffs()]
            found = mpmath.polyroots(coeffs, maxsteps=2000, extraprec=200)
            roots += [float(mpmath.re(z)) for z in found] * k
    roots = np.sort(roots)
    lams = [p.lam for p in eigensystem(A).all_pairs()]
    lams = np.sort(lams * (6 // len(lams)))
    norm2 = np.abs(roots).max()
    assert np.abs(lams - roots).max() <= 1e-14 * norm2
