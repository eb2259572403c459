"""Forward error against the 40-digit reference of `reference.py`: every class at 2^+-60 and
the cluster cases of `test_stacked.py`.  An eigenvalue is within 1e-14 ||A||_2 of the true
one, and an eigenvector's distance from its true eigenspace within twice the Davis-Kahan
bound of its reported residual."""

import numpy as np
import pytest

from octeig import eigensystem
from octeig.harness import random_hermitian
from reference import Reference
from test_stacked import cluster_cases

KINDS = ("octonionic", "quaternionic", "complex", "real")
CLUSTERS = ("identity", "diag-1-1-2", "identity-plus-complex-rank-one", "octonionic-rank-one")


def cases() -> list:
    rng = np.random.default_rng(2001)
    scaled = [pytest.param(random_hermitian(rng, kind).scale(2.0 ** k), id=f"{kind}-2^{k}")
              for kind in KINDS for k in (60, -60)]
    return scaled + [pytest.param(A, id=name) for name, A in zip(CLUSTERS, cluster_cases(rng))]


def eigenpairs(A) -> list:
    """(lam, v, the family's eigen residual) of every pair of A's eigensystem."""
    return [(p.lam, p.v.to_coords().tolist(), fam.residuals["eigen"])
            for fam in eigensystem(A).families for p in fam.pairs]


@pytest.mark.parametrize("A", cases())
def test_eigenpairs_are_within_their_forward_error_bounds(A):
    lam_error, vectors = Reference(A.to_json()).forward_errors(eigenpairs(A))
    assert lam_error <= 1e-14
    for distance, bound in vectors:
        assert distance <= bound
