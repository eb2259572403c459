"""The stacked eigensystem and six-way split against their one-matrix case.

`eigensystem` and `six_way` run the stacked pipeline on a stack of one
matrix; every row of a larger stack, of one class or mixed, must give the
same bits.  The residuals are normwise, so scaling A leaves them unchanged.
"""

from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octeig.harness import random_hermitian, random_vector
from octeig.hermitian import _TAGS, Hermitian3, OctVector3, _arrays, outer
from octeig.octonion import Octonion
from octeig.projection import _six_way, six_way
from octeig.spectral import _RESIDUALS, _systems, _Systems, eigensystem, eigenvectors

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
    dia, off = zip(*map(_arrays, mats))
    return np.array(dia), np.array(off)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def assert_row_equals_single(S, i, A, parts, part_residuals, recon, x):
    es = eigensystem(A)
    assert S.classes[0][i] == _TAGS.index(es.matrix_class.tag)
    assert S.nfam[i] == len(es.families)
    for f, fam in enumerate(es.families):
        assert bits(S.r[i, f]) == bits(fam.context.r)
        assert bits(S.lams[i, f]) == bits([p.lam for p in fam.pairs])
        assert bits(S.V[i, f]) == bits([p.v.to_coords().reshape(3, 8) for p in fam.pairs])
        assert bits(S.residuals[i, f]) == bits([fam.residuals[k] for k in _RESIDUALS])
    dec = six_way(A, OctVector3.from_coords(x))
    n = 3 * len(es.families)
    assert bits(parts[i].reshape(6, 24)[:n]) == bits([p.component.to_coords() for p in dec.parts])
    assert bits(part_residuals[i].ravel()[:n]) == bits(dec.eigen_residuals)
    assert bits(recon[i]) == bits(dec.reconstruction_residual)


@pytest.mark.parametrize("order", ["one-class-stacks", "mixed-stack"])
def test_stacked_rows_equal_the_single_matrix_call(order):
    rng = np.random.default_rng(41)
    groups = [[random_hermitian(rng, kind).scale(s) for s in SCALES for _ in range(2)]
              for kind in KINDS]
    groups.append(cluster_cases(rng))
    if order == "mixed-stack":
        mats = [A for g in groups for A in g]
        groups = [[mats[i] for i in rng.permutation(len(mats))]]
    for mats in groups:
        S = _Systems(*stack(mats))
        X = rng.uniform(-1, 1, (len(mats), 24))
        parts, part_residuals, recon = _six_way(S, X)
        for i, (A, x) in enumerate(zip(mats, X)):
            assert_row_equals_single(S, i, A, parts, part_residuals, recon, x)


def test_octonionic_rows_match_the_nullspace_reference():
    # `eigenvectors` takes the SVD nullspace of R - lam I, labelled by P_m
    rng = np.random.default_rng(42)
    mats = [random_hermitian(rng).scale(s) for s in SCALES for _ in range(4)]
    mats.append(outer(random_vector(rng).normalized()))
    S = _Systems(*stack(mats))
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
            assert bits([p.v.to_coords() for p in fam.pairs]) == bits(_systems(A).V[0, f].reshape(3, 24))
        assert [p.family for p in got.parts] == [p.family for p in want.parts]
        assert bits([p.lam for p in got.parts]) == bits([p.lam for p in want.parts])
        assert bits([p.component.to_coords() for p in got.parts]) == bits(
            [p.component.to_coords() for p in want.parts])
        assert bits(got.eigen_residuals) == bits(want.eigen_residuals)
        assert bits(got.reconstruction_residual) == bits(want.reconstruction_residual)
        assert got.to_json() == want.to_json()


def test_six_way_leaves_the_family_residuals_unread():
    # the split reports part residuals only; the family residuals wait for eigensystem
    rng = np.random.default_rng(44)
    for A in [random_hermitian(rng, kind) for kind in KINDS] + cluster_cases(rng):
        six_way(A, random_vector(rng))
        assert "residuals" not in _systems(A).__dict__
        eigensystem(A)
        assert "residuals" in _systems(A).__dict__


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
