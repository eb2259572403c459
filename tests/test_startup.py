"""The import contract, each part checked in a fresh interpreter: `import octeig` loads the
solver only, the harness's names load on first use and stay bound, a star import and dir()
keep the public names, and `import octeig.cli` still loads the harness."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
HARNESS_NAMES = ("CheckResult", "random_hermitian", "random_octonion", "random_vector", "run_fuzz",
                 "run_verification")
# what `from octeig import *` bound while `import octeig` still loaded the harness
PUBLIC = (
    "AmbiguousSubalgebra COMPLEX CheckResult ComplexProjector ComplexRoots DEFAULT_TOLERANCE "
    "DecompositionPart DegenerateFamily EigenPair EigenSystem ExtractionFailure FamilyContext "
    "FamilyEigensystem FamilyMismatch Hermitian3 MatrixClass NotQuaternionic OCTONIONIC "
    "OctVector3 OcteigError Octonion QUATERNIONIC REAL SingularChange SixWayDecomposition TBasis "
    "alpha assoc3form associator basis_invariance_check cd_table_check classify conj conj_matrix "
    "det eigensystem eigenvectors errors family_context family_dimension_probe harness hermitian "
    "hermitian_combination inner k_scalar k_vector lambda_roots left_mul_matrix mat_vec "
    "matrix_fingerprint mul octonion outer phi project_along project_km project_km_vec "
    "projection quaternionic_six_way quaternionic_split r_roots random_hermitian random_octonion "
    "random_vector real_nullspace realify24 run_fuzz run_verification s_elements same_family "
    "sigma six_way spectral subspace t_basis tolerances trace").split()


def fresh(*argv: str) -> str:
    """stdout of a new interpreter on argv, with this tree's src first on its path."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *argv], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_import_octeig_loads_neither_the_harness_nor_hashlib_nor_json():
    out = fresh(str(TESTS / "import_snapshot.py"))
    assert out.startswith("import octeig added ") and "octeig.hermitian" in out


def test_harness_names_load_on_first_use_and_stay_bound():
    assert len(PUBLIC) == 77
    out = fresh("-c", textwrap.dedent(f"""
        import sys
        import octeig
        listed, star = dir(octeig), {{}}
        assert "octeig.harness" not in sys.modules
        for name in {HARNESS_NAMES!r}:
            assert name not in vars(octeig)
            value = getattr(octeig, name)
            assert vars(octeig)[name] is value is getattr(sys.modules["octeig.harness"], name)
        assert octeig.harness is sys.modules["octeig.harness"]
        assert octeig.DEFAULT_TOLERANCE == octeig.harness.DEFAULT_TOLERANCE == 1e-8
        try:
            octeig.nosuch
        except AttributeError as exc:
            assert "nosuch" in str(exc)
        else:
            raise AssertionError("octeig.nosuch resolved")
        exec("from octeig import *", star)
        print(" ".join(sorted(set(star) - {{"__builtins__"}})))
        print(" ".join(listed))
    """))
    star, listed = (line.split() for line in out.splitlines())
    assert star == sorted(PUBLIC)
    assert set(PUBLIC) <= set(listed)


def test_the_cli_still_loads_the_harness_that_the_tracer_wraps():
    out = fresh("-c", "import sys, octeig.cli; print('octeig.harness' in sys.modules)")
    assert out == "True\n"
