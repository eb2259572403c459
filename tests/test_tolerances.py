"""The tolerance policy: every numeric cut is named in `octeig.tolerances`, and each
cut compares quantities of the same degree, so its decision does not depend on scale."""

import io
import json
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from octeig import tolerances
from octeig.cli import main
from octeig.errors import ComplexRoots, FamilyMismatch, SingularChange
from octeig.harness import random_hermitian, random_vector
from octeig.hermitian import Hermitian3, OctVector3, classify, det, sigma, trace
from octeig.octonion import Octonion
from octeig.projection import project_along, six_way
from octeig.spectral import (_same_family, eigensystem, family_dimension_probe, lambda_roots,
                             same_family)
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


@pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 1e2, *(2.0 ** k for k in (
    -600, -300, -100, 100, 300, 600))])
def test_project_along_rejects_the_other_family_at_every_scale(scale):
    # at |v| = 0.01 the floor max(1, |v|^2)^3 let a vector of the other family through, and
    # at |v| <= 2^-100 the K residual against |v|^6 |y| did
    es = eigensystem(random_hermitian(np.random.default_rng(2)))
    v, own, other = es.families[0].pairs[0].v, es.families[0].pairs[1].v, es.families[1].pairs[0].v
    with pytest.raises(FamilyMismatch):
        project_along(v.scale(scale), other)
    # (v v^dagger) own vanishes against |v|^2 |own|: (v s v s^dagger) (own / s) / s is it,
    # with every square in range
    assert project_along(v.scale(scale), own.scale(1.0 / scale)).scale(1.0 / scale).norm() < 1e-12


@pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 1e2])
def test_same_family_does_not_depend_on_the_scale_of_u(scale):
    V = eigensystem(random_hermitian(np.random.default_rng(2))).families
    u = np.stack([V[0].pairs[0].v.to_coords().reshape(3, 8)] * 2) * scale
    w = np.stack([V[0].pairs[1].v.to_coords(), V[1].pairs[0].v.to_coords()]).reshape(2, 3, 8)
    assert _same_family(u, w)[0].tolist() == [True, False]


def ldexp_vector(v: OctVector3, k: int) -> OctVector3:
    return OctVector3.from_coords(np.ldexp(v.to_coords(), k))


def normal_at(v: OctVector3, k: int) -> bool:
    """Every nonzero coordinate of v 2^k is a normal float."""
    c = np.abs(np.ldexp(v.to_coords(), k))
    return bool(np.all((c == 0.0) | ((c >= np.finfo(float).tiny) & (c <= np.finfo(float).max))))


@pytest.mark.parametrize("kind", ["octonionic", "quaternionic"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-1000, 1000), j=st.integers(-500, 500))
def test_vectors_at_any_scale(tmp_path_factory, kind, seed, k, j):
    # every map and test of a vector is homogeneous, and a power of two scales it exactly:
    # x 2^-600 gave six zero parts, and x 2^600 NaN residuals; v 2^-300 a 24-dimensional
    # family and v 2^300 a LinAlgError; w 2^-540 and 2^520 a false same family
    rng = np.random.default_rng(seed)
    A = random_hermitian(rng, kind)
    x, es = random_vector(rng), eigensystem(A)
    (v, own), other = [p.v for p in es.families[0].pairs[:2]], es.families[1].pairs[0].v
    base = six_way(A, x)
    y = OctVector3.from_coords(sum(p.component.to_coords() for p in base.parts[:3]))  # v's family
    assume(all(normal_at(z, k) for z in (x, own, other, y)) and normal_at(v, j))
    xk, vj = ldexp_vector(x, k), ldexp_vector(v, j)

    scaled = six_way(A, xk)
    assert [p.component.to_coords().tolist() for p in scaled.parts] == [
        np.ldexp(p.component.to_coords(), k).tolist() for p in base.parts]
    assert (scaled.eigen_residuals, scaled.reconstruction_residual) == (
        base.eigen_residuals, base.reconstruction_residual)

    tmp = tmp_path_factory.mktemp("vector-scale")
    (tmp / "m.json").write_text(json.dumps(A.to_json()))
    reports = []
    for name, z in (("x", x), ("xk", xk)):
        (tmp / f"{name}.json").write_text(json.dumps(z.to_json()))
        code = main(["project", str(tmp / "m.json"), str(tmp / f"{name}.json"),
                     "--out", str(tmp / f"{name}-out.json")])
        reports.append((code, json.loads((tmp / f"{name}-out.json").read_text())))
    (code, report), (code_k, report_k) = reports
    assert code_k == code == (0 if kind == "octonionic" else 2)
    assert [p["component"] for p in report_k["parts"]] == [
        np.ldexp(p["component"], k).tolist() for p in report["parts"]]
    for key in ("eigen_residuals", "reconstruction_residual", "worst_residual", "pass"):
        assert report_k[key] == report[key]

    assert (same_family(vj, ldexp_vector(own, k)), same_family(vj, ldexp_vector(other, k))) == (
        True, False)
    assert family_dimension_probe(vj) == family_dimension_probe(v) == 12
    with pytest.raises(FamilyMismatch):
        project_along(vj, ldexp_vector(other, k))
    with np.errstate(over="ignore"):
        want = np.ldexp(project_along(v, y).to_coords(), 2 * j + k)
        if np.isfinite(want).all():
            assert project_along(vj, ldexp_vector(y, k)).to_coords().tolist() == want.tolist()
        else:
            with pytest.raises(OverflowError, match="out of the float range"):
                project_along(vj, ldexp_vector(y, k))


def test_a_part_beyond_the_float_range_raises(tmp_path, capsys):
    # the eigenvector (2, 1, 1) / sqrt(6) of this real matrix takes 4/3 of x = c (1, 1, 1) into
    # its first slot: at c = 1.5e308 that part was inf, written as Infinity with "pass": true
    A = Hermitian3(2.0, 1.0, 1.0, Octonion.from_real(1.0), Octonion.from_real(1.0),
                   Octonion.zero())
    (tmp_path / "m.json").write_text(json.dumps(A.to_json()))

    def project(c):
        x = OctVector3((Octonion.from_real(c),) * 3)
        (tmp_path / "x.json").write_text(json.dumps(x.to_json()))
        out = tmp_path / f"out-{c}.json"
        code = main(["project", str(tmp_path / "m.json"), str(tmp_path / "x.json"),
                     "--out", str(out)])
        return x, code, out, capsys.readouterr().err

    x, code, out, err = project(1e308)
    parts = np.array([p.component.to_coords() for p in six_way(A, x).parts])
    assert np.abs(parts).max() == pytest.approx(4.0 / 3.0 * 1e308)
    assert (code, json.loads(out.read_text())["pass"]) == (2, True)   # 2: the real path
    x, code, out, err = project(1.5e308)
    with pytest.raises(OverflowError, match="a six-way part is out of the float range"):
        six_way(A, x)
    assert (code, err, out.exists()) == (
        1, f"error: {tmp_path / 'x.json'}: a six-way part is out of the float range\n", False)


def test_dim_t_of_one_matrix_at_many_scales():
    # the scales at which dim T read 4, 4, 4, 1, 1, 4, 3 while the row 1 did not scale
    A = random_hermitian(np.random.default_rng(1))
    for s in (1.0, 1e-4, 1e-8, 1e-10, 1e-12, 1e4, 1e10):
        assert (classify(A.scale(s)).tag, classify(A.scale(s)).dim_t) == ("octonionic", 4)
    # an imaginary part below the rank cut is no direction, in classify as in t_basis: B is
    # complex, and its T is (1, e2)
    B = Hermitian3(0.0, 0.0, 0.0, Octonion.unit(1) * 1e-12, Octonion.unit(2), Octonion.zero())
    assert (classify(B).tag, classify(B).dim_t, t_basis(B).dim) == ("complex", 2, 2)


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


# a, b, c of three families on the class test's rank cut, at theta = 10^U[-12, -6]
E1, E2, ONE, ZERO = np.eye(8)[1], np.eye(8)[2], np.eye(8)[0], np.zeros(8)
ON_THE_CUT = {"a = theta e1, b = e2": lambda t: (t * E1, E2, ZERO),
              "a = 1, b = 1 + theta e1": lambda t: (ONE, ONE + t * E1, ZERO),
              "a = e1, b = c = theta e2": lambda t: (E1, t * E2, t * E2)}
DIM_T = {"real": (1,), "complex": (2,), "quaternionic": (3, 4), "octonionic": (4,)}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=st.sampled_from([*ON_THE_CUT, *MASKS]), seed=st.integers(0, 2 ** 32 - 1),
       u=st.floats(0.0, 1.0), zeroed=st.lists(st.booleans(), min_size=3, max_size=3))
def test_dim_t_is_the_class_tests_in_classify_t_basis_and_the_report(tmp_path_factory, case,
                                                                      seed, u, zeroed):
    # classify, t_basis and the eigen report read one decision on the imaginary rank: every
    # class at 10^U[-8, 8] with rows zeroed at random, and the families on the cut
    rng = np.random.default_rng(seed)
    if case in MASKS:
        off = rng.uniform(-1, 1, (3, 8)) * np.isin(np.arange(8), MASKS[case])
        off[zeroed] = 0.0
        off *= 10.0 ** (16.0 * u - 8.0)
    else:
        off = np.array(ON_THE_CUT[case](10.0 ** (6.0 * u - 12.0)))
    A = Hermitian3(*rng.uniform(-1, 1, 3), *map(Octonion, off))
    tag, dim_t = classify(A)
    assert t_basis(A).dim == dim_t and dim_t in DIM_T[tag], (tag, dim_t)
    mat = tmp_path_factory.mktemp("dim_t") / "m.json"
    mat.write_text(json.dumps(A.to_json()))
    main(["eigen", str(mat), "--out", str(mat.with_name("eigen.json"))])
    report = json.loads(mat.with_name("eigen.json").read_text())
    assert (report["class"], report["dim_t"]) == (tag, dim_t)
