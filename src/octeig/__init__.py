"""Numerical toolkit for the real eigenproblem of 3x3 octonionic Hermitian matrices.

Real eigenvalues of such matrices come in two families of three, labeled
by the roots of r^2 + 4*phi*r - |alpha|^2 = 0.  The package provides the
octonion arithmetic, the family machinery (characteristic operator K and
its eigenspace projectors), eigensystem extraction, the six-way vector
decomposition, and a seeded verification harness.
"""

from .errors import (
    AmbiguousSubalgebra,
    ComplexProjector,
    ComplexRoots,
    DegenerateFamily,
    ExtractionFailure,
    FamilyMismatch,
    NotQuaternionic,
    OcteigError,
    SingularChange,
)
from .hermitian import (
    COMPLEX,
    OCTONIONIC,
    QUATERNIONIC,
    REAL,
    Hermitian3,
    MatrixClass,
    OctVector3,
    alpha,
    classify,
    det,
    hermitian_combination,
    mat_vec,
    outer,
    phi,
    sigma,
    trace,
)
from .octonion import (
    Octonion,
    assoc3form,
    associator,
    conj,
    inner,
    left_mul_matrix,
    mul,
)
from .projection import (
    DecompositionPart,
    SixWayDecomposition,
    matrix_fingerprint,
    project_along,
    quaternionic_six_way,
    six_way,
)
from .spectral import (
    EigenPair,
    EigenSystem,
    FamilyEigensystem,
    eigensystem,
    eigenvectors,
    family_dimension_probe,
    k_vector,
    lambda_roots,
    real_nullspace,
    realify24,
    same_family,
)
from .subspace import (
    FamilyContext,
    TBasis,
    basis_invariance_check,
    cd_table_check,
    conj_matrix,
    family_context,
    k_scalar,
    project_km,
    project_km_vec,
    quaternionic_split,
    r_roots,
    s_elements,
    t_basis,
)
from .tolerances import DEFAULT_TOLERANCE

# the verification harness loads on first use (PEP 562), so `import octeig` loads the solver only
_HARNESS = ("CheckResult", "random_hermitian", "random_octonion", "random_vector", "run_fuzz",
            "run_verification")

__version__ = "0.1.0"
# the public names bound above and the lazy ones: what `from octeig import *` binds
__all__ = sorted([n for n in globals() if not n.startswith("_")] + ["harness", *_HARNESS])


def __getattr__(name):
    """The harness module or one of its names, imported on first use and then bound here."""
    if name != "harness" and name not in _HARNESS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    harness = importlib.import_module(".harness", __name__)
    value = globals()[name] = harness if name == "harness" else getattr(harness, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
