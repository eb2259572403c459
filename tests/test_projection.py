import numpy as np
import pytest

from octeig.errors import FamilyMismatch, NotQuaternionic
from octeig.hermitian import Hermitian3, OctVector3, mat_vec, outer
from octeig.octonion import Octonion, inner
from octeig.projection import (
    matrix_fingerprint,
    project_along,
    quaternionic_six_way,
    six_way,
    subalgebra_part,
)
from octeig.subspace import project_km_vec, quaternionic_split


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


def rand_vec(rng, mask=None):
    return OctVector3(tuple(rand_oct(rng, mask) for _ in range(3)))


def test_project_along_self(octonionic_pool):
    _, es = octonionic_pool[0]
    v = es.families[0].pairs[1].v
    assert (project_along(v, v) - v).norm() < 1e-12


def test_project_along_orthogonal(octonionic_pool):
    _, es = octonionic_pool[1]
    fam = es.families[0]
    u, v = fam.pairs[0].v, fam.pairs[1].v
    assert project_along(v, u).norm() < 1e-10


def test_project_along_idempotent(rng, octonionic_pool):
    for A, es in octonionic_pool[:30]:
        fam = es.families[rng.integers(0, 2)]
        v = fam.pairs[rng.integers(0, 3)].v
        y = project_km_vec(A, fam.context.m, rand_vec(rng))
        py = project_along(v, y)
        assert (project_along(v, py) - py).norm() < 1e-8 * max(1.0, y.norm())


def test_project_along_family_mismatch(rng, octonionic_pool):
    A, es = octonionic_pool[2]
    v = es.families[0].pairs[0].v
    y = project_km_vec(A, 2, rand_vec(rng))  # wrong family
    with pytest.raises(FamilyMismatch):
        project_along(v, y)


def test_six_way_eigenvector_input(rng, octonionic_pool):
    A, es = octonionic_pool[3]
    v = es.families[1].pairs[2].v
    dec = six_way(A, v, system=es)
    norms = [p.component.norm() for p in dec.parts]
    big = [n for n in norms if n > 1e-9]
    assert len(big) == 1
    idx = norms.index(big[0])
    assert (dec.parts[idx].component - v).norm() < 1e-8
    assert dec.parts[idx].family == 2


def test_six_way_random(rng, octonionic_pool):
    for A, es in octonionic_pool[:50]:
        x = rand_vec(rng)
        dec = six_way(A, x, system=es)
        assert len(dec.parts) == 6
        assert dec.reconstruction_residual < 1e-8
        assert max(dec.eigen_residuals) < 1e-8
        # parts ordered family 1 then 2, eigenvalues ascending
        fams = [p.family for p in dec.parts]
        assert fams == [1, 1, 1, 2, 2, 2]
        lams = [p.lam for p in dec.parts]
        assert lams[0] <= lams[1] <= lams[2] and lams[3] <= lams[4] <= lams[5]


def test_six_way_linearity(rng, octonionic_pool):
    A, es = octonionic_pool[4]
    x, y = rand_vec(rng), rand_vec(rng)
    dx = six_way(A, x, system=es)
    dy = six_way(A, y, system=es)
    dxy = six_way(A, x + y, system=es)
    for px, py, pxy in zip(dx.parts, dy.parts, dxy.parts):
        assert (px.component + py.component - pxy.component).norm() < 1e-8


def test_six_way_pipeline_idempotence(rng, octonionic_pool):
    A, es = octonionic_pool[5]
    x = rand_vec(rng)
    dec = six_way(A, x, system=es)
    for idx, part in enumerate(dec.parts):
        if part.component.norm() < 1e-9:
            continue
        again = six_way(A, part.component, system=es)
        for jdx, p2 in enumerate(again.parts):
            if jdx == idx:
                assert (p2.component - part.component).norm() < 1e-8
            else:
                assert p2.component.norm() < 1e-8 * max(1.0, part.component.norm())


def test_six_way_k_consistency(rng, octonionic_pool):
    from octeig.spectral import k_vector

    A, es = octonionic_pool[6]
    x = rand_vec(rng)
    dec = six_way(A, x, system=es)
    for part in dec.parts:
        if part.component.norm() < 1e-9:
            continue
        r = es.families[part.family - 1].context.r
        kv = k_vector(A, part.component)
        assert (kv - part.component.scale(r)).norm() < 1e-8 * max(
            1.0, A.frobenius() ** 3 * part.component.norm())


def test_quaternionic_six_way(rng, quaternionic_pool):
    for A, es in quaternionic_pool[:20]:
        x = rand_vec(rng)
        dec = six_way(A, x, system=es)
        assert dec.matrix_class == "quaternionic"
        assert len(dec.parts) == 6
        assert dec.reconstruction_residual < 1e-8
        assert max(dec.eigen_residuals) < 1e-8


def test_quaternionic_six_way_pure_input(rng, quaternionic_pool):
    A, es = quaternionic_pool[0]
    hbasis, ell = quaternionic_split(A)
    # quaternionic x: family-2 parts vanish
    coeffs = rng.uniform(-1, 1, (3, 4))
    x = OctVector3(tuple(
        sum((h * float(c) for h, c in zip(hbasis, row)), Octonion.zero())
        for row in coeffs
    ))
    dec = quaternionic_six_way(A, x, system=es)
    for part in dec.parts[3:]:
        assert part.component.norm() < 1e-9
    # x = ell*u for an eigenvector u of conj(A): single nonzero part
    u = [p for p in es.families[1].pairs][1].v
    dec2 = quaternionic_six_way(A, u, system=es)
    norms = [p.component.norm() for p in dec2.parts]
    assert sum(n > 1e-8 for n in norms) == 1


def test_quaternionic_expansion_matches_classic(rng, quaternionic_pool):
    # family-1 parts equal v (v^dagger x1); family-2 parts equal the rank-one
    # projection of the purely octonionic piece
    A, es = quaternionic_pool[1]
    hbasis, ell = quaternionic_split(A)
    x = rand_vec(rng)

    def h_part(q):
        acc = Octonion.zero()
        for h in hbasis:
            acc = acc + h * inner(h, q)
        return acc

    x1 = OctVector3(tuple(h_part(q) for q in x.components))
    lx2 = x - x1
    dec = quaternionic_six_way(A, x, system=es)
    for pair, part in zip(es.families[0].pairs, dec.parts[:3]):
        classic = pair.v.right_mul(pair.v.dagger_dot(x1))
        assert (classic - part.component).norm() < 1e-9 * max(1.0, x.norm())
    for pair, part in zip(es.families[1].pairs, dec.parts[3:]):
        direct = mat_vec(outer(pair.v), lx2)
        assert (direct - part.component).norm() < 1e-12


def test_quaternionic_lifted_part_not_right_multiple(rng, quaternionic_pool):
    # the family-2 parts are eigenvectors without being right multiples of
    # the lifted eigenvectors
    found_generic = 0
    for A, es in quaternionic_pool[:10]:
        x = rand_vec(rng)
        dec = quaternionic_six_way(A, x, system=es)
        for pair, part in zip(es.families[1].pairs, dec.parts[3:]):
            if part.component.norm() < 1e-6:
                continue
            resid = (mat_vec(A, part.component)
                     - part.component.scale(part.lam)).norm()
            assert resid < 1e-9 * max(1.0, part.component.norm() * A.frobenius())
            cols = np.array([
                pair.v.right_mul(Octonion.unit(k)).to_coords() for k in range(8)
            ]).T
            sol, *_ = np.linalg.lstsq(cols, part.component.to_coords(), rcond=None)
            rel = np.linalg.norm(cols @ sol - part.component.to_coords()) / part.component.norm()
            if rel > 1e-6:
                found_generic += 1
    assert found_generic > 10


def test_quaternionic_six_way_rejects_other_classes(rng):
    with pytest.raises(NotQuaternionic):
        quaternionic_six_way(rand_herm(rng), rand_vec(rng))


def test_complex_path_three_parts(rng):
    A = rand_herm(rng, mask=(0, 1))
    x = rand_vec(rng)
    dec = six_way(A, x)
    assert len(dec.parts) == 3
    assert dec.reconstruction_residual < 1e-10
    assert max(dec.eigen_residuals) < 1e-10


def test_near_degenerate_routing(rng):
    # entries a hair above the quaternionic threshold still go end to end
    Q = (0, 1, 2, 4)
    base = rand_herm(rng, mask=Q)
    bump = Octonion([0, 0, 0, 1e-7, 0, 0, 0, 0])
    A = Hermitian3(base.d, base.e, base.f, base.a + bump, base.b, base.c)
    x = rand_vec(rng)
    dec = six_way(A, x)
    assert dec.reconstruction_residual < 1e-6
    assert max(dec.eigen_residuals) < 1e-6


def test_zero_parts_are_exact(rng, octonionic_pool):
    A, es = octonionic_pool[7]
    v = es.families[0].pairs[0].v
    dec = six_way(A, v, system=es)
    zero_parts = [p for p in dec.parts if p.component.norm() == 0.0]
    assert len(zero_parts) == 5


def test_serialization(rng, octonionic_pool):
    A, es = octonionic_pool[8]
    x = rand_vec(rng)
    dec = six_way(A, x, system=es)
    data = dec.to_json()
    assert len(data["parts"]) == 6
    assert data["fingerprint"] == matrix_fingerprint(A)
    assert len(data["parts"][0]["component"]) == 3
    assert data["reconstruction_residual"] < 1e-8


def test_subalgebra_part(rng):
    A = rand_herm(rng, mask=(0, 1, 2, 4))
    hbasis, ell = quaternionic_split(A)
    x = rand_vec(rng)
    x1 = subalgebra_part(hbasis, x)
    for q, q1 in zip(x.components, x1.components):
        ref = Octonion.zero()
        for h in hbasis:
            ref = ref + h * inner(h, q)
        assert (q1 - ref).norm() < 1e-14
        # the remainder is orthogonal to the subalgebra
        assert max(abs(inner(h, q - q1)) for h in hbasis) < 1e-14
