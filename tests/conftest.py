import numpy as np
import pytest

from octeig import cli, eigensystem
from octeig.harness import random_hermitian


@pytest.fixture(autouse=True)
def fresh_solve():
    """Each test starts without the CLI's kept solve: the `files` fixture draws the same
    matrices in every test, so a test that patches a kernel would otherwise read a stack
    that an earlier test solved."""
    cli._solve.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def octonionic_pool():
    """200 random octonionic matrices with precomputed eigensystems.

    Shared by the eigendecomposition, theorem, and projection suites so
    the extraction work is done once per session.
    """
    gen = np.random.default_rng(777)
    pool = []
    for _ in range(200):
        A = random_hermitian(gen, "octonionic")
        pool.append((A, eigensystem(A)))
    return pool


@pytest.fixture(scope="session")
def quaternionic_pool():
    gen = np.random.default_rng(778)
    pool = []
    for _ in range(50):
        A = random_hermitian(gen, "quaternionic")
        pool.append((A, eigensystem(A)))
    return pool
