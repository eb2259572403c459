"""The harness's samplers: the bulk fuzz draw against the per-sample calls it
replaces, the rejection test against the full class test, and pinned streams."""

import hashlib

import numpy as np
import pytest

from octeig import harness
from octeig.harness import (
    FUZZ_CLASSES,
    _CHECKS,
    _Checks,
    _draw_samples,
    _rejected,
    random_hermitian,
    random_vector,
    run_fuzz,
)
from octeig.hermitian import _TAGS, _alpha, _arrays, _classes


def interleaved(rng, n, kind):
    """The arrays of n alternating random_hermitian / random_vector calls."""
    mats, vecs = zip(*((random_hermitian(rng, kind), random_vector(rng)) for _ in range(n)))
    dia, off = (np.array(a) for a in zip(*map(_arrays, mats)))
    return dia, off, np.array([v.to_coords() for v in vecs])


def assert_same_draws(seed, n, kind):
    bulk, calls = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = _draw_samples(bulk, n, kind), interleaved(calls, n, kind)
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
def test_rejected_rows_are_drawn_again_as_random_hermitian_does(monkeypatch, kind, cut):
    # a stand-in class test that turns down half or nine in ten of the matrices, by
    # content, so both samplers see the same verdict on the same draw; at nine in ten
    # a run rejects far more than 100 draws, but no one matrix 100 times
    verdicts = []

    def most(off, code):
        out = off[..., 0, 0] > cut
        verdicts.extend(out.tolist())
        return out

    monkeypatch.setattr(harness, "_rejected", most)
    for seed in (0, 1, 2):
        for n in (1, 8, 25):
            assert_same_draws(seed, n, kind)
    assert sum(verdicts) > 100


@pytest.mark.parametrize("kind", FUZZ_CLASSES)
def test_a_hundred_rejected_draws_raise(monkeypatch, kind):
    blocks = []

    def all_but_the_first(off, code):
        blocks.append(off[:, 0, 0].copy())
        return off[:, 0, 0] != blocks[0][0]

    monkeypatch.setattr(harness, "_rejected", all_but_the_first)
    with pytest.raises(RuntimeError, match=f"failed to sample a {kind} matrix"):
        run_fuzz(0, 8, kind)
    # sample 0 is kept; sample 1 is drawn once in the first block and 99 times again
    assert [len(b) for b in blocks] == [8] + [7] * 99

    monkeypatch.setattr(harness, "_rejected", lambda off, code: np.ones(len(off), dtype=bool))
    with pytest.raises(RuntimeError, match=f"failed to sample a {kind} matrix"):
        run_fuzz(0, 1, kind)
    with pytest.raises(RuntimeError, match=f"failed to sample a {kind} matrix"):
        random_hermitian(np.random.default_rng(0), kind)


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
    codes = _classes(off, _alpha(off))[0]
    assert set(codes.tolist()) == {0, 1, 2, 3}
    assert (codes[-400:] == 3).sum() > 50 and (codes[-400:] == 2).sum() > 50
    for code in range(len(_TAGS)):
        assert np.array_equal(_rejected(off, code), codes != code), _TAGS[code]


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
    assert digest(*_draw_samples(np.random.default_rng(1), 25, kind)) == FUZZ_DIGESTS[kind]


def test_verify_pools_keep_their_stream():
    ctx = _Checks(0, 8)
    for _, fn, _ in _CHECKS:
        fn(ctx)
    got = tuple(digest(pool.dia, pool.off) for pool in (ctx.oct_pool, ctx.quat_pool))
    assert got == VERIFY_POOL_DIGESTS
