import dataclasses
import json
import pickle
from copy import deepcopy

import numpy as np
import pytest

from octeig.harness import _Checks, random_hermitian, random_vector, run_fuzz, run_verification
from octeig.hermitian import (
    COMPLEX,
    OCTONIONIC,
    QUATERNIONIC,
    REAL,
    Hermitian3,
    OctVector3,
    _lazy,
    alpha,
    classify,
    det,
    mat_vec,
    outer,
    phi,
    real_form,
    sigma,
    trace,
)
from octeig.octonion import Octonion, assoc3form
from octeig.projection import project_along, six_way
from octeig.spectral import (_Stack, eigensystem, eigenvectors, lambda_roots, real_nullspace,
                             realify24, same_family)
from octeig.subspace import family_context, k_scalar, orthonormalize, quaternionic_split

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


def with_big_c(A):
    return Hermitian3(A.d, A.e, A.f, A.a, A.b, Octonion(np.full(8, 1e308)))


NON_FINITE = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")}


@pytest.mark.parametrize("bad", NON_FINITE.values(), ids=NON_FINITE)
@pytest.mark.parametrize("field", ["d", "f", "a", "c"])
def test_constructor_rejects_non_finite(rng, bad, field):
    # the constructor words the fault as from_json does
    fields = rand_herm(rng).to_json()
    if field in "def":
        fields[field] = bad
        want = f"field '{field}': must be a finite number, got {bad!r}"
    else:
        fields[field][3] = bad
        want = f"field '{field}': octonion coordinates must be finite, got {fields[field]!r}"
    for make in (lambda: Hermitian3.from_json(fields),
                 lambda: Hermitian3(*(fields[k] if k in "def" else Octonion._of(
                     np.array(fields[k])) for k in "defabc"))):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == want


@pytest.mark.parametrize("field", ["a", "b", "c"])
@pytest.mark.parametrize("bad", [[0.0] * 8, np.zeros(8)], ids=["list", "ndarray"])
def test_constructor_rejects_an_entry_that_is_not_an_octonion(field, bad):
    z = Octonion.zero()
    entries = {"a": z, "b": z, "c": z, field: bad}
    with pytest.raises(ValueError, match=rf"^field '{field}': Hermitian3 needs an Octonion, "
                                         rf"got {type(bad).__name__}$"):
        Hermitian3(0.0, 0.0, 0.0, entries["a"], entries["b"], entries["c"])


@pytest.mark.parametrize("make", [
    lambda A: Hermitian3.diagonal(1.0, float("nan"), 2.0),
    lambda A: A.scale(float("inf")),
    lambda A: A.scale(1e300).scale(1e300),
    lambda A: Hermitian3.diagonal(1e308, 0.0, 0.0) + Hermitian3.diagonal(1e308, 0.0, 0.0),
    lambda A: with_big_c(A) + with_big_c(A),
], ids=["diagonal", "scale-inf", "scale-overflow", "add-diagonal-overflow", "add-overflow"])
def test_derived_matrices_reject_non_finite(rng, make):
    # the sum's or product's octonions overflow silently in numpy here, and raise in the check
    A = rand_herm(rng)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite number|must be finite"):
        make(A)


def octonionic_matrix():
    return random_hermitian(np.random.default_rng(8))


def an_eigenvector():
    return eigensystem(octonionic_matrix()).families[0].pairs[0].v


# each float argument of the API: the call on a value, and the argument's name in the message
SCALAR_ARGUMENTS = {
    "octonion-times": (lambda x: E[1] * x, "factor"),
    "times-octonion": (lambda x: x * E[1], "factor"),
    "octonion-over": (lambda x: E[1] / x, "divisor"),
    "from-real": (Octonion.from_real, "x"),
    "vector-scale": (lambda x: OctVector3.from_coords(np.ones(24)).scale(x), "t"),
    "matrix-scale": (lambda x: Hermitian3.identity().scale(x), "t"),
    "verify-tolerance": (lambda x: run_verification(0, 2, tolerance=x), "tolerance"),
    "verify-det-offset": (lambda x: run_verification(0, 2, det_offset=x), "det_offset"),
    "fuzz-tolerance": (lambda x: run_fuzz(0, 2, tolerance=x), "tolerance"),
    "same-family": (lambda x: same_family(an_eigenvector(), an_eigenvector(), tol=x), "tol"),
    "project-along": (lambda x: project_along(an_eigenvector(), an_eigenvector(), tol=x), "tol"),
    "orthonormalize": (lambda x: orthonormalize([E[1], E[2]], tol=x), "tol"),
    "real-nullspace": (lambda x: real_nullspace(np.eye(3), x), "rel_threshold"),
    "eigenvectors": (lambda x: eigenvectors(octonionic_matrix(),
                                            family_context(octonionic_matrix(), 1), x), "lam"),
    "lambda-roots": (lambda x: lambda_roots(octonionic_matrix(), x), "r"),
}


@pytest.mark.parametrize("bad", NON_FINITE.values(), ids=NON_FINITE)
@pytest.mark.parametrize("name", SCALAR_ARGUMENTS)
def test_a_non_finite_scalar_argument_is_a_value_error(bad, name):
    # a NaN or infinite scalar gave a NaN octonion, vector or report, an empty or full basis,
    # or numpy's LinAlgError; it is checked at the call, in Hermitian3.scale's words
    call, label = SCALAR_ARGUMENTS[name]
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == f"{label}: must be a finite number, got {bad!r}"


def test_a_scalar_argument_out_of_its_range_is_an_error():
    # a tolerance at or below 0 failed every check; a zero divisor gave infinite coordinates
    for run in (run_verification, run_fuzz):
        for tolerance in (-1.0, 0.0, -0.0):
            with pytest.raises(ValueError, match=f"^tolerance: must be > 0, got {tolerance!r}$"):
                run(0, 2, tolerance=tolerance)
    for zero in (0.0, -0.0, 0):
        with pytest.raises(ZeroDivisionError, match="^octonion division by zero$"):
            E[1] / zero
    # a finite scalar keeps its result, bit for bit
    q = Octonion(np.random.default_rng(3).uniform(-1, 1, 8))
    assert np.array_equal((q * 3.5).coords, q.coords * 3.5)
    assert np.array_equal((q / 3.5).coords, q.coords / 3.5)
    assert np.array_equal(Octonion.from_real(-2.5).coords, -2.5 * E[0].coords)


def test_outer_entries_match_outer(rng):
    vs = [rand_vec(rng) for _ in range(5)]
    B = _Stack.outer(np.array([v.to_coords() for v in vs]))
    dia, off = B.dia, B.off
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


@pytest.mark.parametrize("slot", [0, 2])
@pytest.mark.parametrize("bad", NON_FINITE.values(), ids=NON_FINITE)
def test_from_coords_rejects_non_finite(rng, bad, slot):
    # every vector of the API is built by from_coords or from checked octonions, so none
    # reaches six_way, mat_vec or the eigenvector code with a NaN; worded as from_json
    rows = rng.uniform(-1, 1, (3, 8))
    rows[slot, 5] = bad
    want = f"component {slot}: octonion coordinates must be finite, got {rows[slot].tolist()!r}"
    for make in (lambda: OctVector3.from_json(rows.tolist()),
                 lambda: OctVector3.from_coords(rows.ravel())):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == want


def test_constructors_copy_their_input(rng):
    # the per-matrix stack relies on a matrix never changing after it is built
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
    # a copy of the fields builds a fresh stack
    assert det(A) == want_det == det(dataclasses.replace(A))


def test_from_coords_wraps_one_read_only_copy(rng):
    for coords in (rng.uniform(-1, 1, 24), rng.uniform(-1, 1, (8, 3)).T):
        want = coords.copy()
        v = OctVector3.from_coords(coords)
        coords[...] = 0.0
        assert np.array_equal(v.to_coords(), want.ravel())
        for q in v.components:
            assert not q.coords.flags.writeable
            with pytest.raises(ValueError):
                q.coords[0] = 1.0
    with pytest.raises(ValueError):
        OctVector3.from_coords(np.zeros(23))


def test_derived_matrices_do_not_share_the_cache(rng):
    A = rand_herm(rng)
    B = rand_herm(rng)
    R = realify24(A)
    det(A), sigma(A), classify(A), alpha(A)
    for C in (A.scale(2.0), A + B, A - B, dataclasses.replace(A, d=A.d + 1.0)):
        fresh = dataclasses.replace(C)
        assert C._stack is not A._stack and not np.shares_memory(realify24(C), R)
        assert np.array_equal(realify24(C), realify24(fresh))
        assert det(C) == det(fresh)
        assert sigma(C) == sigma(fresh)
        assert classify(C) == classify(fresh)
        assert np.array_equal(alpha(C).coords, alpha(fresh).coords)


def test_octonions_and_vectors_cannot_be_changed(rng):
    # rebinding a and b to zero would leave this octonionic matrix's stack stale:
    # a fresh one is complex, with another determinant
    A = random_hermitian(np.random.default_rng(3))
    want = det(A), classify(A)
    v = OctVector3.from_coords(rng.uniform(-1, 1, 24))
    for obj, name, value in ((A.a, "coords", np.zeros(8)), (A.b, "coords", np.zeros(8)),
                             (v, "components", v.components[::-1]), (A.a, "other", 1.0)):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert (det(A), classify(A)) == want == (det(dataclasses.replace(A)),
                                             classify(dataclasses.replace(A)))
    # copies are rebuilt through the constructors
    for copy in (lambda x: pickle.loads(pickle.dumps(x)), deepcopy):
        q, w, B = copy(A.a), copy(v), copy(A)
        assert np.array_equal(q.coords, A.a.coords) and not q.coords.flags.writeable
        assert np.array_equal(w.to_coords(), v.to_coords())
        assert (det(B), classify(B)) == want


def test_a_copy_does_not_carry_the_solved_stack():
    # the stack of a solved matrix held its eigensystem and split: 581 pickled bytes fresh,
    # 11,898 after eigensystem and six_way
    rng = np.random.default_rng(4)
    A, x = random_hermitian(rng), random_vector(rng)
    fresh = len(pickle.dumps(A))
    es, dec = eigensystem(A), six_way(A, x)
    assert len(pickle.dumps(A)) == fresh
    for copy in (lambda x: pickle.loads(pickle.dumps(x)), deepcopy):
        B = copy(A)
        assert "_stack" not in vars(B)
        again, split = eigensystem(B), six_way(B, x)
        assert json.dumps(again.to_json()) == json.dumps(es.to_json())
        assert json.dumps(split.to_json()) == json.dumps(dec.to_json())
        assert "_stack" in vars(B) and "_stack" in vars(A)


def test_lazy_attributes_are_computed_once_without_a_lock(monkeypatch):
    calls = []

    class Probe:
        @_lazy
        def value(self):
            """The probe's value."""
            calls.append(self)
            return object()

    # on the class: the descriptor itself, whose func tests may wrap; no lock to take
    assert isinstance(Probe.value, _lazy) and Probe.value.__doc__ == "The probe's value."
    assert Probe.value.func.__name__ == "value" and not hasattr(Probe.value, "lock")
    a, b = Probe(), Probe()
    first = a.value
    assert vars(a) == {"value": first} and calls == [a]
    # a second read finds the instance's __dict__ and calls nothing, not even the descriptor
    monkeypatch.setattr(_lazy, "__get__", lambda *args: pytest.fail("descriptor called"))
    assert a.value is first and calls == [a]
    monkeypatch.undo()
    assert b.value is not first and calls == [a, b]
    # every cached attribute of the stack, the harness checks and the matrix is one
    for cls, names in ((Hermitian3, ["_stack"]), (_Checks, ["oct_pool", "quat_pool"]),
                       (_Stack, ["L", "alpha_phi", "associative", "classes", "roots",
                                 "generators", "split", "ell", "bases", "_solved", "outers",
                                 "residuals", "K", "P", "T", "R", "trace", "sigma", "det",
                                 "frobenius"])):
        for name in names:
            assert isinstance(vars(cls)[name], _lazy) and callable(vars(cls)[name].func), name
    # the matrix's stack stays out of a pickle or a deep copy
    A = random_hermitian(np.random.default_rng(5))
    assert A._stack is A._stack and "_stack" in vars(A)
    for copy in (lambda x: pickle.loads(pickle.dumps(x)), deepcopy):
        assert "_stack" not in vars(copy(A))
