"""The stacked eigensystem and six-way split against their one-matrix case.

`eigensystem` and `six_way` run the stacked pipeline on a stack of one
matrix; every row of a larger stack, which holds one class, must give the
same bits.  The residuals are normwise, so scaling A leaves them unchanged.
"""

import hashlib
import json
from itertools import groupby

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from octeig import subspace
from octeig.cli import main
from octeig.errors import DegenerateFamily, OcteigError
from octeig.harness import _draw_stack, random_hermitian, random_vector
from octeig.hermitian import _TAGS, _lazy, Hermitian3, OctVector3, classify, det, outer, sigma
from octeig.octonion import Octonion
from octeig.projection import _six_way, six_way
from octeig.spectral import _RESIDUALS, _Stack, eigensystem, eigenvectors
from octeig.subspace import quaternionic_split
from octeig.tolerances import ZERO_PART_TOL

KINDS = ("octonionic", "quaternionic", "complex", "real")
SCALES = (1e-8, 1e-3, 1.0, 1e3, 1e8)


def cluster_cases(rng):
    """Matrices with a repeated family eigenvalue, so the sweep runs."""
    v = OctVector3(tuple(Octonion(rng.uniform(-1, 1, 8) * (np.arange(8) < 2)) for _ in range(3)))
    v = v.normalized()
    return [
        Hermitian3.identity(),
        Hermitian3.diagonal(1, 1, 2),
        # complex, eigenvalues 1, 1, 2 from I + v v^dagger
        Hermitian3.identity() + outer(v),
        outer(random_vector(rng).normalized()),
    ]


def stack(mats):
    """The matrices' diagonals (n, 3) and off-diagonals (n, 3, 8), from their stacks of one."""
    return (np.concatenate([A._stack.dia for A in mats]),
            np.concatenate([A._stack.off for A in mats]))


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def assert_row_equals_single(S, i, A, parts, part_residuals, recon, x):
    es = eigensystem(A)
    assert S.classes[0][i] == _TAGS.index(es.matrix_class.tag)
    assert S.nfam == len(es.families)
    for f, fam in enumerate(es.families):
        assert bits(S.r[i, f]) == bits(fam.context.r)
        assert bits(S.lams[i, f]) == bits([p.lam for p in fam.pairs])
        assert bits(S.V[i, f]) == bits([p.v.to_coords().reshape(3, 8) for p in fam.pairs])
        assert bits(S.residuals[i, f]) == bits([fam.residuals[k] for k in _RESIDUALS])
    dec = six_way(A, OctVector3.from_coords(x))
    assert bits(parts[i].reshape(-1, 24)) == bits([p.component.to_coords() for p in dec.parts])
    assert bits(part_residuals[i].ravel()) == bits(dec.eigen_residuals)
    assert bits(recon[i]) == bits(dec.reconstruction_residual)


def test_stacked_rows_equal_the_single_matrix_call():
    rng = np.random.default_rng(41)
    groups = [[random_hermitian(rng, kind).scale(s) for s in SCALES for _ in range(2)]
              for kind in KINDS]
    # the cluster cases, one stack per class
    tag = lambda A: classify(A).tag
    groups += [list(g) for _, g in groupby(sorted(cluster_cases(rng), key=tag), key=tag)]
    for mats in groups:
        S = _Stack(*stack(mats))
        X = rng.uniform(-1, 1, (len(mats), 24))
        parts, part_residuals, recon = _six_way(S, X)
        for i, (A, x) in enumerate(zip(mats, X)):
            assert_row_equals_single(S, i, A, parts, part_residuals, recon, x)


def test_octonionic_rows_match_the_nullspace_reference():
    # `eigenvectors` takes the SVD nullspace of R - lam I, labelled by P_m
    rng = np.random.default_rng(42)
    mats = [random_hermitian(rng).scale(s) for s in SCALES for _ in range(4)]
    mats.append(outer(random_vector(rng).normalized()))
    S = _Stack(*stack(mats))
    for i, A in enumerate(mats):
        for fam in eigensystem(A).families:
            f = fam.context.m - 1
            for lam, group in groupby(enumerate(fam.pairs), key=lambda p: p[1].lam):
                group = list(group)
                ref = eigenvectors(A, fam.context, lam, multiplicity=len(group))
                for (j, _), want in zip(group, ref):
                    assert np.abs(S.V[i, f, j].ravel() - want.v.to_coords()).max() <= 1e-12


def test_six_way_from_the_stack_equals_six_way_on_the_eigensystem():
    rng = np.random.default_rng(43)
    mats = [random_hermitian(rng, kind).scale(s) for kind in KINDS for s in (1e-3, 1.0, 1e3)]
    for A in mats + cluster_cases(rng):
        x = random_vector(rng)
        es = eigensystem(A)
        got, want = six_way(A, x), six_way(A, x, system=es)
        # the split reads the stack's pairs, which are the eigensystem's bit for bit
        assert got.matrix_class == want.matrix_class == es.matrix_class.tag
        assert [(p.family, p.lam) for p in got.parts] == [(p.family, p.lam) for p in es.all_pairs()]
        for f, fam in enumerate(es.families):
            assert bits([p.v.to_coords() for p in fam.pairs]) == bits(A._stack.V[0, f].reshape(3, 24))
        assert [p.family for p in got.parts] == [p.family for p in want.parts]
        assert bits([p.lam for p in got.parts]) == bits([p.lam for p in want.parts])
        assert bits([p.component.to_coords() for p in got.parts]) == bits(
            [p.component.to_coords() for p in want.parts])
        assert bits(got.eigen_residuals) == bits(want.eigen_residuals)
        assert bits(got.reconstruction_residual) == bits(want.reconstruction_residual)
        assert got.to_json() == want.to_json()


def test_six_way_leaves_the_family_residuals_unread(monkeypatch):
    # the split reports part residuals only; the family residuals wait for eigensystem,
    # and an octonionic matrix runs no rank SVD at all: its dim T is 4 by the class test
    rng = np.random.default_rng(44)
    svd, calls = np.linalg.svd, []

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for drawn in [random_hermitian(rng, kind) for kind in KINDS] + cluster_cases(rng):
        A = Hermitian3.from_json(drawn.to_json())   # a fresh stack: its class test runs below
        calls.clear()
        tag = classify(A).tag
        assert len(calls) == int(tag != "octonionic"), tag
        six_way(A, random_vector(rng))
        S = A._stack
        assert "residuals" not in S.__dict__
        assert eigensystem(A).matrix_class == classify(A)
        assert "residuals" in S.__dict__


def test_octonionic_stacks_run_no_svd(monkeypatch):
    rng = np.random.default_rng(45)
    dia, off = stack([random_hermitian(rng, "octonionic") for _ in range(5)])

    def no_svd(*args, **kwargs):
        raise AssertionError("rank SVD on an octonionic stack")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    S = _Stack(dia, off)
    assert S.codes.tolist() == [_TAGS.index("octonionic")] * 5
    _six_way(S, rng.uniform(-1, 1, (5, 24)))


def test_codes_agree_with_the_class_test():
    rng = np.random.default_rng(47)
    mats = [random_hermitian(rng, kind) for kind in KINDS for _ in range(3)] + cluster_cases(rng)
    nudged = Hermitian3.from_json({**mats[3].to_json(), "b": [*mats[3].b.coords[:6], 1e-11, 0.0]})
    zero = Hermitian3.diagonal(0, 0, 0)
    for rows in (mats, mats[:3], mats[:4], mats[3:], [nudged], [zero], [zero, mats[0]]):
        # each row of a stack, mixed or not, has the class and dim T of its stack of one
        classes = _Stack(*stack(rows)).classes
        assert [(_TAGS[c], d) for c, d in zip(*classes)] == [tuple(classify(A)) for A in rows]


def test_one_stack_per_matrix(monkeypatch):
    # every helper reads the matrix's one stack: one K per matrix, and one class SVD per
    # associative matrix, none for an octonionic one
    calls = {"stack": 0, "svd": 0, "k": 0, "eigh": 0}

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(_Stack, "__init__", counted("stack", _Stack.__init__))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(_Stack.K, "func", counted("k", _Stack.K.func))
    rng = np.random.default_rng(48)
    for kind in KINDS:
        # counted from the draw on: the matrix keeps the stack its class was tested on
        calls.update(stack=0, svd=0, k=0, eigh=0)
        A, x = random_hermitian(rng, kind), random_vector(rng)
        classify(A), det(A), sigma(A)
        # the stack solves its eigensystem only when one is read
        assert calls == {"stack": 1, "svd": int(kind != "octonionic"), "k": 0, "eigh": 0}, kind
        if kind == "octonionic":
            subspace.family_contexts(A), subspace.k_matrix(A)
            subspace.family_projector(A, 1), subspace.family_projector(A, 2)
        eigensystem(A)
        if kind == "octonionic":
            six_way(A, x)
        assert (calls["stack"], calls["svd"], calls["k"]) == (
            1, int(kind != "octonionic"), int(kind == "octonionic")), kind


def test_a_drawn_matrix_derives_alpha_and_phi_once(monkeypatch):
    # the class test of the draw, classify and the eigensystem read one set of associators
    calls, alpha_phi = [], _Stack.alpha_phi.func

    def counted(*args):
        calls.append(1)
        return alpha_phi(*args)

    monkeypatch.setattr(_Stack.alpha_phi, "func", counted)
    for kind in KINDS:
        calls.clear()
        A = random_hermitian(np.random.default_rng(7), kind)
        classify(A), eigensystem(A)
        assert len(calls) == 1, kind


def test_the_octonionic_solve_takes_one_eigh_of_k_and_no_rank_one_forms(monkeypatch):
    # the family bases come from one eigh of K, not from eigh(P_m) and a QR, and the split
    # from two stacked octonion products, not from the 24x24 forms of v v^dagger, which only
    # `_Stack.outer` builds
    seen = {"eigh": [], "qr": 0, "P": 0, "rank_one": 0}

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    def eigh(a, *args, real_eigh=np.linalg.eigh, **kwargs):
        seen["eigh"].append(a)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
    monkeypatch.setattr(_Stack, "P", property(counted("P", _Stack.P.func)))
    monkeypatch.setattr(_Stack, "outer", classmethod(counted("rank_one", _Stack.outer.__func__)))
    rng = np.random.default_rng(49)
    for A, x in [(random_hermitian(rng), random_vector(rng)) for _ in range(3)]:
        seen.update(eigh=[], qr=0, P=0, rank_one=0)
        eigensystem(A), six_way(A, x)
        K, sub = seen.pop("eigh")
        assert seen == {"qr": 0, "P": 0, "rank_one": 0}
        assert K.shape == (1, 8, 8) and bits(K) == bits(A._stack.K)
        assert sub.shape == (1, 2, 12, 12)
    # the counter sees the forms the sweep builds for a repeated eigenvalue
    seen.update(eigh=[], rank_one=0)
    eigensystem(Hermitian3.diagonal(1, 1, 2))
    assert seen["rank_one"] == 1


def test_a_stack_given_the_octonionic_class_still_tests_the_associator():
    # an octonionic row 0 does not stand for the stack: an associative row raises
    rng = np.random.default_rng(50)
    for kind in ("quaternionic", "complex", "real"):
        S = _Stack(*stack([random_hermitian(rng), random_hermitian(rng, kind)]))
        with pytest.raises(DegenerateFamily):
            S.generators


def test_a_stack_of_two_classes_is_not_solved():
    rng = np.random.default_rng(52)
    for first, second in (("octonionic", "quaternionic"), ("quaternionic", "complex"),
                          ("complex", "real"), ("real", "octonionic")):
        dia, off = stack([random_hermitian(rng, first), random_hermitian(rng, second)])
        # the family bases and eigenvectors, and the split and T, which key on the one class
        for name in ("bases", "V", "split", "T"):
            with pytest.raises(ValueError, match="one class at a time"):
                getattr(_Stack(dia, off), name)


def outcome(S, name):
    """The bytes and shapes of S's lazy `name`, an array or a tuple of them, or the string `tag`,
    or what it raised."""
    try:
        value = getattr(S, name)
    except (ValueError, OcteigError) as exc:
        return type(exc), str(exc)
    if isinstance(value, str):
        return value
    values = value if isinstance(value, tuple) else [value]
    return [(x.shape, x.dtype, x.tobytes()) for x in values]


@pytest.mark.parametrize("kind", KINDS)
def test_a_row_view_equals_a_fresh_stack_of_its_rows(kind):
    # each invariant is computed row by row, so rows 4:9 of a stack of 12 are the invariants
    # of those 5 rows alone, byte for byte; the view reads them from the stack, and raises
    # what a fresh stack raises
    drawn = _draw_stack(np.random.default_rng(9), 12, kind)
    lazies = [k for cls in _Stack.__mro__ for k, v in vars(cls).items() if isinstance(v, _lazy)]
    S = _Stack(drawn.dia.copy(), drawn.off.copy())
    view, fresh = S.rows(4, 9), _Stack(drawn.dia[4:9].copy(), drawn.off[4:9].copy())
    for name in lazies:
        assert outcome(view, name) == outcome(fresh, name), name
        assert name in vars(S) or name not in vars(view), name


@pytest.mark.parametrize("kind", ["complex", "real"])
def test_a_one_family_stack_has_one_family_axis(kind):
    rng = np.random.default_rng(53)
    n = 5
    S = _Stack(*stack([random_hermitian(rng, kind) for _ in range(n)]))
    assert type(S.nfam) is int and S.nfam == 1
    assert S.r.shape == (n, 1) and S.B.shape == (n, 1, 8, 2)
    assert S.lams.shape == (n, 1, 3) and S.V.shape == (n, 1, 3, 3, 8)
    assert S.outers.shape == (n, 1, 3, 3, 3, 8) and S.residuals.shape == (n, 1, 5)
    parts, part_residuals, recon = _six_way(S, rng.uniform(-1, 1, (n, 24)))
    assert parts.shape == (n, 1, 3, 24) and part_residuals.shape == (n, 1, 3)
    assert recon.shape == (n,)


def nudged(seed, exponent, nudge):
    """An octonionic matrix times 10^exponent; with a nudge, a quaternionic one whose a moves
    off the subalgebra by 10^nudge |a| along the unit direction orthogonal to it."""
    rng = np.random.default_rng(seed)
    if nudge is None:
        return random_hermitian(rng).scale(10.0 ** exponent)
    Q = random_hermitian(rng, "quaternionic")
    ell = quaternionic_split(Q)[1]
    return Hermitian3(Q.d, Q.e, Q.f, Q.a + ell * (10.0 ** nudge * Q.a.norm()), Q.b,
                      Q.c).scale(10.0 ** exponent)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(-8.0, 8.0),
       nudge=st.none() | st.floats(-8.0, -3.0))
def test_family_bases_span_the_eigenspaces_of_k(seed, exponent, nudge):
    # K is formed with rounding of eps |a||b||c|, which the subspaces feel over the gap
    # r1 - r2, and the direction of s_m over |s_m| besides
    A = nudged(seed, exponent, nudge)
    S = A._stack
    assume(_TAGS[S.codes[0]] == "octonionic")
    rs, s = S.roots[0], S.generators[0]
    eps = np.finfo(float).eps
    size = A.a.norm() * A.b.norm() * A.c.norm()
    for m, B in enumerate(S.B[0]):
        s_norm = np.linalg.norm(s[m])
        assert np.abs(B.T @ B - np.eye(4)).max() <= 64 * eps
        assert np.abs(B[:, 0] - s[m] / s_norm).max() <= 64 * eps * size / (rs[0] - rs[1]) / s_norm
        assert np.abs(S.K[0] @ B - rs[m] * B).max() <= 64 * eps * size
        assert np.abs(B @ B.T - subspace.family_projector(A, m + 1)).max() <= (
            64 * eps * size / (rs[0] - rs[1]))


def assert_parts_are_the_rank_one_forms(A, x):
    # the split as it was: x_1 = Q_1 Q_1^T x, Q_1 = kron(I3, B_1), and each part the 24x24
    # real form of v v^dagger applied to its family's piece
    S = A._stack
    parts = _six_way(S, x[None])[0][0]
    Q = np.kron(np.eye(3), S.B[0, 0])
    x1 = Q @ (Q.T @ x) if S.nfam == 2 else x
    forms = _Stack.outer(S.V[0]).R.reshape(S.nfam, 3, 24, 24)
    want = np.matvec(forms, np.stack([x1, x - x1][:S.nfam])[:, None])
    zero = ~parts.any(-1)
    eps, size = np.finfo(float).eps, np.linalg.norm(x)
    assert np.abs(parts - want).max(-1)[~zero].max(initial=0.0) <= 16 * eps * size
    assert np.linalg.norm(want, axis=-1)[zero].max(initial=0.0) <= ZERO_PART_TOL * size


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(-8.0, 8.0),
       x_exponent=st.floats(-3.0, 3.0))
def test_six_way_parts_are_the_rank_one_forms(kind, seed, exponent, x_exponent):
    rng = np.random.default_rng(seed)
    A = random_hermitian(rng, kind).scale(10.0 ** exponent)
    assert_parts_are_the_rank_one_forms(A, random_vector(rng).to_coords() * 10.0 ** x_exponent)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(-8.0, 8.0),
       nudge=st.floats(-8.0, -3.0))
def test_six_way_parts_near_the_quaternionic_boundary_are_the_rank_one_forms(seed, exponent,
                                                                             nudge):
    A = nudged(seed, exponent, nudge)
    assert_parts_are_the_rank_one_forms(A, random_vector(np.random.default_rng(seed)).to_coords())


def test_six_way_parts_of_clusters_are_the_rank_one_forms():
    rng = np.random.default_rng(51)
    for A in cluster_cases(rng):
        assert_parts_are_the_rank_one_forms(A, random_vector(rng).to_coords())


# sha256 of the `eigen` and of the `project` reports of the four cluster cases, one after
# another, with the vector drawn after them; all four run the sweep
CLUSTER_DIGESTS = {
    (0, "eigen"): "504e1d0bf8b296116e7dbd2dc0502a2a4e8a322c0008df7a0a602c95acb3a251",
    (0, "project"): "2dcb148307d210dbef92cbb4ffec4d9fa342ae5f3c57b07f9dbbb11356e91562",
    (1, "eigen"): "454d942d384171c0591d593c35b730097be80396b03796a8339fc209ba5c35aa",
    (1, "project"): "c799152af4ed8181c39da3596dc4f2d396395f3327581f2ca51368682d40714b",
    (2, "eigen"): "ecacdcc32b249caf6b177f635e49da54aea62eef8c7fa3324eee87cabcd9c18a",
    (2, "project"): "15a92220b91d3aa233ff81e934584108493119bffccf535e5449a3b5a13b4dc9",
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cluster_reports_keep_their_bytes(tmp_path, capsys, seed):
    rng = np.random.default_rng(seed)
    cases, x = cluster_cases(rng), random_vector(rng)
    vec, out = tmp_path / "x.json", tmp_path / "out.json"
    vec.write_text(json.dumps(x.to_json()))
    for command in ("eigen", "project"):
        digest, codes = hashlib.sha256(), []
        for k, A in enumerate(cases):
            mat = tmp_path / f"m{k}.json"
            mat.write_text(json.dumps(A.to_json()))
            vecs = [str(vec)] if command == "project" else []
            codes.append(main([command, str(mat), *vecs, "--out", str(out)]))
            digest.update(out.read_bytes())
        # real, real and complex are routed; v v^dagger of a random v is octonionic
        assert codes == [2, 2, 2, 0], command
        assert digest.hexdigest() == CLUSTER_DIGESTS[seed, command]
    capsys.readouterr()


def residuals(A, x):
    es, dec = eigensystem(A), six_way(A, x)
    return np.array([*(f.residuals[k] for f in es.families for k in _RESIDUALS),
                     dec.reconstruction_residual, *dec.eigen_residuals])


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(-8.0, 8.0))
def test_residuals_do_not_depend_on_the_scale(kind, seed, exponent):
    # residuals divided by max(1, ||A||) shrank with A below ||A|| = 1
    rng = np.random.default_rng(seed)
    A, x = random_hermitian(rng, kind), random_vector(rng)
    base = residuals(A, x)
    # a power of two scales every floating-point step exactly
    assert bits(residuals(A.scale(2.0 ** round(exponent * np.log2(10.0))), x)) == bits(base)
    # any other scale moves them by rounding only
    ratio = residuals(A.scale(10.0 ** exponent), x) / base
    assert np.all((ratio >= 1 / 64) & (ratio <= 64))
