"""The harness's samplers: the bulk fuzz draw against the per-sample calls it
replaces, a draw of another class raising, the rejection test against the full
class test, and pinned streams."""

import hashlib
import re

import numpy as np
import pytest

from octeig.harness import (
    FUZZ_CLASSES,
    _CHECKS,
    _COORD_MASKS,
    _Checks,
    _draw_fuzz,
    _masked_stack,
    _residuals,
    random_hermitian,
    random_vector,
    run_fuzz,
    run_verification,
)
from octeig.hermitian import _TAGS, _lazy
from octeig.spectral import _Stack


def interleaved(rng, n, kind):
    """The arrays of n alternating random_hermitian / random_vector calls."""
    mats, vecs = zip(*((random_hermitian(rng, kind), random_vector(rng)) for _ in range(n)))
    dia, off = (np.concatenate([getattr(A._stack, a) for A in mats]) for a in ("dia", "off"))
    return dia, off, np.array([v.to_coords() for v in vecs])


def draw_samples(rng, n, kind):
    """Diagonals (n, 3), off-diagonals (n, 3, 8) and vectors (n, 24) of `_draw_fuzz`."""
    A, x = _draw_fuzz(rng, n, kind)
    return A.dia, A.off, x


def assert_same_draws(seed, n, kind):
    bulk, calls = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = draw_samples(bulk, n, kind), interleaved(calls, n, kind)
    assert [a.shape for a in got] == [(n, 3), (n, 3, 8), (n, 24)]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    # and the generator is left where the calls leave it
    assert bulk.bit_generator.state == calls.bit_generator.state


@pytest.mark.parametrize("kind", FUZZ_CLASSES)
@pytest.mark.parametrize("n", [1, 8, 25])
def test_bulk_draw_equals_the_interleaved_calls(kind, n):
    for seed in (0, 1, 2, 1234):
        assert_same_draws(seed, n, kind)


@pytest.mark.parametrize("kind", FUZZ_CLASSES)
@pytest.mark.parametrize("cut", [0.0, -0.8])
def test_a_rejected_draw_raises(monkeypatch, kind, cut):
    # a stand-in class test that turns down half or nine in ten of the matrices, by
    # content: a draw with a rejected matrix raises after its one class test, and a
    # draw without one is what the interleaved calls draw
    calls, code = [], _TAGS.index(kind)

    def codes(A):
        calls.append(len(A.off))
        return np.where(A.off[..., 0, 0] > cut, (code + 1) % len(_TAGS), code)

    monkeypatch.setattr(_Stack, "codes", _lazy(codes))
    raised = 0
    for seed in (0, 1, 2):
        for n in (1, 8, 25):
            # the real part of a is coordinate 3 of a sample's 51 doubles, in every class
            rejected = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 51))[:, 3] > cut
            for draw in (lambda: _draw_fuzz(np.random.default_rng(seed), n, kind),
                         lambda: run_fuzz(seed, n, kind)):
                calls.clear()
                if rejected.any():
                    with pytest.raises(RuntimeError, match=f"failed to sample a {kind} matrix"):
                        draw()
                else:
                    draw()
                assert calls == [n]
            calls.clear()
            if rejected[0]:
                with pytest.raises(RuntimeError, match=f"failed to sample a {kind} matrix"):
                    random_hermitian(np.random.default_rng(seed), kind)
            else:
                random_hermitian(np.random.default_rng(seed), kind)
            assert calls == [1]
            if not rejected.any():
                assert_same_draws(seed, n, kind)
            raised += int(rejected.any())
    assert raised > 0


@pytest.mark.parametrize("kind", FUZZ_CLASSES)
def test_rejecting_a_class_makes_its_samplers_raise_after_one_draw(monkeypatch, kind):
    # a stand-in class test that records each drawn stack's class and turns down `kind`
    calls, tested = [], _Stack.classes.func

    def classes(A):
        found, dim_t = tested(A)
        calls.append(int(found[0]))
        return np.where(found == _TAGS.index(kind), (found + 1) % len(_TAGS), found), dim_t

    monkeypatch.setattr(_Stack, "classes", _lazy(classes))
    for draw in (lambda: random_hermitian(np.random.default_rng(0), kind),
                 lambda: run_fuzz(0, 8, kind)):
        calls.clear()
        with pytest.raises(RuntimeError, match=f"failed to sample a {kind} matrix"):
            draw()
        assert calls == [_TAGS.index(kind)]
    # verify draws octonionic matrices, then its quaternionic pool, and no other class
    calls.clear()
    if kind in ("octonionic", "quaternionic"):
        with pytest.raises(RuntimeError, match=f"failed to sample a {kind} matrix"):
            run_verification(0, 8)
        assert calls.count(_TAGS.index(kind)) == 1
    else:
        assert all(c.passed for c in run_verification(0, 8))
        assert _TAGS.index(kind) not in calls


def test_rejection_test_agrees_with_the_class_test():
    rng = np.random.default_rng(99)
    rows = [rng.uniform(-1, 1, (40, 3, 8))]
    for mask in ((0, 1, 2, 4), (0, 1), (0,), (0, 3, 5, 6)):
        rows.append(rng.uniform(-1, 1, (40, 3, 8)) * np.isin(np.arange(8), mask))
    # quaternionic entries nudged off the subalgebra by 1e-13..1e-5, across the
    # 1e-9 |a||b||c| associator cut
    nudged = rng.uniform(-1, 1, (200, 3, 8)) * np.isin(np.arange(8), (0, 1, 2, 4))
    nudged[np.arange(200), rng.integers(0, 3, 200), rng.choice([3, 5, 6, 7], 200)] += (
        10.0 ** rng.uniform(-13, -5, 200))
    rows += [nudged, np.zeros((1, 3, 8))]
    off = np.concatenate(rows)
    off = np.concatenate([off, off * 10.0 ** rng.uniform(-8, 8, (len(off), 1, 1))])
    codes = _Stack(None, off).codes
    assert set(codes.tolist()) == {0, 1, 2, 3}
    assert (codes[-400:] == 3).sum() > 50 and (codes[-400:] == 2).sum() > 50
    # each row, tested alone, gets the code that the stacked test gave it
    alone = [_Stack(None, off[i:i + 1]).codes[0] for i in range(len(off))]
    assert np.array_equal(alone, codes)
    # the harness's rejection test accepts a row as `kind` exactly where its code is `kind`,
    # on the rows that kind's coordinate mask leaves as they are
    for kind in FUZZ_CLASSES:
        mask = _COORD_MASKS[kind]
        keep = np.ones(8) if mask is None else np.bincount(mask, minlength=8)
        rows = np.flatnonzero((off * keep == off).all((-2, -1)))
        accepted = []
        for i in rows:
            try:
                _masked_stack(kind, None, off[i:i + 1].copy())
                accepted.append(True)
            except RuntimeError:
                accepted.append(False)
        assert np.array_equal(accepted, codes[rows] == _TAGS.index(kind)), kind
        assert any(accepted)


def test_codes_of_a_stack_without_diagonals():
    # an all-octonionic stack decides its classes, and dim T = 4, by the associator alone,
    # from the off-diagonals, of any stacked shape
    off = np.random.default_rng(5).uniform(-1, 1, (2, 6, 3, 8))
    for rows in (off[0], off):
        A = _Stack(None, rows)
        assert not A.associative.any()
        codes, dim_t = A.classes
        assert codes.shape == dim_t.shape == rows.shape[:-2]
        assert (codes == _TAGS.index("octonionic")).all() and (dim_t == 4).all()


def test_an_unknown_class_raises_before_anything_is_drawn():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    message = re.escape(f"unknown matrix class 'foo'; choose from {FUZZ_CLASSES}")
    for draw in (lambda: random_hermitian(rng, "foo"), lambda: run_fuzz(0, 2, kind="foo")):
        with pytest.raises(ValueError, match=message):
            draw()
    assert rng.bit_generator.state == state


def digest(*arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


# sha256 of the float64 bytes of what each sampler draws; a change here changes every
# report drawn from that sampler for a given seed
FUZZ_DIGESTS = {
    "octonionic": "dcdcecfea9d735374eaa94f279abcfbf171f711d6832c4ecdd14584a2dfd4c9e",
    "quaternionic": "0883c5d6674972672c2a88781e4cb794294bc399ddc233678bf243d8710f7c7f",
    "complex": "e7205ebbaa0e00dde595a172f6f60cf14c8de58788ee93d3a0f6e69a333c7fa0",
    "real": "e5c73f21a617e5789fd1abc92f0302634619bc248faf64f5e42a03536bd9557c",
}
# the octonionic and the quaternionic pool of a verify run, seed 0, 8 samples
VERIFY_POOL_DIGESTS = ("d1f4ea6ce673e64775b6333d145f2c3d1dc26f506d36b4b2f1892809fd97441c",
                       "7fb9416cdfceb4d5f4d541282a1c4942b815370ba3ad2d2b237c4e634cc933c8")


@pytest.mark.parametrize("kind", FUZZ_CLASSES)
def test_fuzz_draws_keep_their_stream(kind):
    assert digest(*draw_samples(np.random.default_rng(1), 25, kind)) == FUZZ_DIGESTS[kind]


def test_verify_pools_keep_their_stream():
    ctx = _Checks(0, 8)
    _residuals(ctx, [fn for _, fn, _ in _CHECKS])
    got = tuple(digest(pool.dia, pool.off) for pool in (ctx.oct_pool, ctx.quat_pool))
    assert got == VERIFY_POOL_DIGESTS
