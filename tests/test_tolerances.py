"""The tolerance policy: every numeric cut is named in `octeig.tolerances`, and each
cut compares quantities of the same degree, so its decision does not depend on scale."""

import io
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octeig import tolerances
from octeig.errors import ComplexRoots, FamilyMismatch, SingularChange
from octeig.harness import random_hermitian
from octeig.hermitian import Hermitian3, classify, det, sigma, trace
from octeig.octonion import Octonion
from octeig.projection import project_along
from octeig.spectral import _same_family, eigensystem, lambda_roots
from octeig.subspace import basis_invariance_check, t_basis

SRC = Path(__file__).resolve().parents[1] / "src" / "octeig"
MASKS = {"octonionic": range(8), "quaternionic": (0, 1, 2, 4), "complex": (0, 1), "real": (0,)}
SCALES = (1e-12, 1e-8, 1e-4, 1e-3, 1e-2, 1.0, 1e2, 1e4, 1e10)


def stated_cuts(path: Path):
    """(line, text) of each numeric literal with a negative exponent and of each
    max(1, ...) or maximum(1.0, ...) scale floor; comments and docstrings are not code."""
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
    toks = [t for t in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
            if t.type not in skip]
    for i, t in enumerate(toks):
        if t.type == tokenize.NUMBER and re.search(r"[eE]-", t.string):
            yield t.start[0], t.string
        floor = [u.string for u in toks[i:i + 4]]
        # the verify pools' size max(1, n // 4) is a count, not a tolerance
        if (floor[:2] in (["max", "("], ["maximum", "("]) and floor[2:] in (["1", ","], ["1.0", ","])
                and "self.n // 4" not in t.line):
            yield t.start[0], t.line.strip()


def test_every_tolerance_is_stated_in_the_policy_module():
    found = [(p.name, line, text) for p in sorted(SRC.glob("*.py")) if p.name != "tolerances.py"
             for line, text in stated_cuts(p)]
    assert found == []
    # and each name there has a user
    code = "".join(p.read_text() for p in SRC.glob("*.py") if p.name != "tolerances.py")
    names = [n for n in vars(tolerances) if n.isupper()]
    assert [n for n in names if not re.search(rf"\b{n}\b", code)] == []


def test_the_policy_test_sees_a_stated_cut(tmp_path):
    src = tmp_path / "m.py"
    src.write_text('"""1e-9 in a docstring."""\n# 1e-6 in a comment\n'
                   "x = y < 1e-9 * max(1.0, z)\nn = max(1, self.n // 4)\nw = np.maximum(1, v)\n")
    assert list(stated_cuts(src)) == [(3, "1e-9"), (3, "x = y < 1e-9 * max(1.0, z)"),
                                      (5, "w = np.maximum(1, v)")]


def beyond_the_family_range(A: Hermitian3) -> float:
    """An r past the range of the cubic's values between its critical points: the local
    maximum plus half the spread, so that lambda_roots must find two complex roots."""
    tr, sg, dt = trace(A), sigma(A), det(A)
    crit = np.roots([3.0, -2.0 * tr, sg]).real
    vals = crit ** 3 - tr * crit ** 2 + sg * crit - dt
    return vals.max() + 0.5 * (vals.max() - vals.min())


@pytest.mark.parametrize("scale", SCALES)
def test_an_inconsistent_r_raises_at_every_scale(scale):
    # at 1e-3 the floor max(1, |p|^3, q^2) turned the discriminant test off
    A = random_hermitian(np.random.default_rng(2)).scale(scale)
    with pytest.raises(ComplexRoots):
        lambda_roots(A, beyond_the_family_range(A))
    r = eigensystem(A).families[0].context.r
    assert np.allclose(lambda_roots(A, r), [p.lam for p in eigensystem(A).families[0].pairs],
                       rtol=0.0, atol=1e-9 * scale)


@pytest.mark.parametrize("scale", [1e-5, 1e-3, 1.0, 1e3])
def test_a_scaled_identity_is_a_regular_change_of_basis(scale):
    # 1e-5 I raised SingularChange against the floor max(1, max |M_ij|^3)
    A = random_hermitian(np.random.default_rng(2))
    assert basis_invariance_check(A, scale * np.eye(3)) < 1e-12
    for M in (np.zeros((3, 3)), scale * np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0, 0, 1]])):
        with pytest.raises(SingularChange):
            basis_invariance_check(A, M)


@pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 1e2])
def test_project_along_rejects_the_other_family_at_every_scale(scale):
    # at |v| = 0.01 the floor max(1, |v|^2)^3 let a vector of the other family through
    es = eigensystem(random_hermitian(np.random.default_rng(2)))
    v, own, other = es.families[0].pairs[0].v, es.families[0].pairs[1].v, es.families[1].pairs[0].v
    with pytest.raises(FamilyMismatch):
        project_along(v.scale(scale), other)
    assert project_along(v.scale(scale), own).norm() < 1e-12 * scale ** 2


@pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 1e2])
def test_same_family_does_not_depend_on_the_scale_of_u(scale):
    V = eigensystem(random_hermitian(np.random.default_rng(2))).families
    u = np.stack([V[0].pairs[0].v.to_coords().reshape(3, 8)] * 2) * scale
    w = np.stack([V[0].pairs[1].v.to_coords(), V[1].pairs[0].v.to_coords()]).reshape(2, 3, 8)
    assert _same_family(u, w).tolist() == [True, False]


def test_dim_t_of_one_matrix_at_many_scales():
    # the scales at which dim T read 4, 4, 4, 1, 1, 4, 3 while the row 1 did not scale
    A = random_hermitian(np.random.default_rng(1))
    for s in (1.0, 1e-4, 1e-8, 1e-10, 1e-12, 1e4, 1e10):
        assert (classify(A.scale(s)).tag, classify(A.scale(s)).dim_t) == ("octonionic", 4)
    # a tiny entry still counts as a direction, in classify as in t_basis
    B = Hermitian3(0.0, 0.0, 0.0, Octonion.unit(1) * 1e-12, Octonion.unit(2), Octonion.zero())
    assert classify(B).dim_t == t_basis(B).dim == 3


@pytest.mark.parametrize("kind", MASKS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(-12.0, 12.0),
       zeroed=st.lists(st.booleans(), min_size=3, max_size=3))
def test_dim_t_does_not_depend_on_the_scale(kind, seed, exponent, zeroed):
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1, 1, (3, 8)) * np.isin(np.arange(8), MASKS[kind])
    off[zeroed] = 0.0
    A = Hermitian3(*rng.uniform(-1, 1, 3), *map(Octonion, off))
    dim = classify(A).dim_t
    for s in (10.0 ** exponent, 2.0 ** round(exponent * np.log2(10.0))):
        assert classify(A.scale(s)).dim_t == dim == t_basis(A.scale(s)).dim
