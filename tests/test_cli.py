import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octeig.cli import _build_parser, main
from octeig.harness import random_hermitian, random_vector, run_fuzz, run_verification


@pytest.fixture
def files(tmp_path, rng):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    diag = {"d": 1.0, "e": 2.0, "f": 3.0,
            "a": [0.0] * 8, "b": [0.0] * 8, "c": [0.0] * 8}
    A = random_hermitian(rng, "octonionic")
    Aq = random_hermitian(rng, "quaternionic")
    x = random_vector(rng)
    return {
        "tmp": tmp_path,
        "diag": write("diag.json", diag),
        "oct": write("oct.json", A.to_json()),
        "quat": write("quat.json", Aq.to_json()),
        "vec": write("vec.json", x.to_json()),
        "truncated": write("trunc.json", {"d": 1.0, "e": 2.0, "f": 3.0,
                                          "a": [0.0] * 8, "b": [0.0] * 8}),
        "short": write("short.json", {"d": 1.0, "e": 2.0, "f": 3.0, "a": [0.0] * 5,
                                      "b": [0.0] * 8, "c": [0.0] * 8}),
    }


def test_eigen_real_routes_with_exit_2(files, capsys):
    out = str(files["tmp"] / "eig.json")
    assert main(["eigen", files["diag"], "--out", out]) == 2
    data = json.loads(open(out).read())
    assert data["routed_path"] == "real"
    assert data["families"][0]["eigenvalues"] == [1.0, 2.0, 3.0]
    assert "real path" in capsys.readouterr().err


def test_eigen_octonionic(files):
    out = str(files["tmp"] / "eig.json")
    assert main(["eigen", files["oct"], "--out", out]) == 0
    data = json.loads(open(out).read())
    assert data["class"] == "octonionic"
    assert len(data["families"]) == 2
    assert sum(len(f["eigenvalues"]) for f in data["families"]) == 6
    assert data["pass"] is True


def test_eigen_parse_errors(files, capsys):
    assert main(["eigen", files["truncated"]]) == 1
    assert "missing field 'c'" in capsys.readouterr().err
    assert main(["eigen", files["short"]]) == 1
    assert "'a'" in capsys.readouterr().err
    bad = files["tmp"] / "bad.json"
    bad.write_text('{"d": 1.0,')
    assert main(["eigen", str(bad)]) == 1
    assert "line" in capsys.readouterr().err


def test_project(files):
    out = str(files["tmp"] / "proj.json")
    assert main(["project", files["oct"], files["vec"], "--out", out]) == 0
    data = json.loads(open(out).read())
    assert len(data["parts"]) == 6
    assert data["reconstruction_residual"] < 1e-8
    assert main(["project", files["quat"], files["vec"], "--out", out]) == 2
    data = json.loads(open(out).read())
    assert data["routed_path"] == "quaternionic"
    assert len(data["parts"]) == 6


def test_project_complex_single_family(files, rng):
    A = random_hermitian(rng, "complex")
    mfile = files["tmp"] / "complex.json"
    mfile.write_text(json.dumps(A.to_json()))
    out = str(files["tmp"] / "projc.json")
    assert main(["project", str(mfile), files["vec"], "--out", out]) == 2
    data = json.loads(open(out).read())
    assert data["routed_path"] == "complex"
    assert data["single_family"] is True
    assert len(data["parts"]) == 3


def test_project_eigenvector_single_part(files, rng):
    from octeig.hermitian import Hermitian3
    from octeig.spectral import eigensystem

    A = Hermitian3.from_json(json.loads(open(files["oct"]).read()))
    es = eigensystem(A)
    vfile = files["tmp"] / "eigvec.json"
    vfile.write_text(json.dumps(es.families[0].pairs[0].v.to_json()))
    out = str(files["tmp"] / "proj.json")
    assert main(["project", files["oct"], str(vfile), "--out", out]) == 0
    data = json.loads(open(out).read())
    norms = [np.linalg.norm(np.array(p["component"]).ravel()) for p in data["parts"]]
    assert sum(n > 1e-8 for n in norms) == 1


def test_verify_pass_and_determinism(files):
    out1 = str(files["tmp"] / "r1.json")
    out2 = str(files["tmp"] / "r2.json")
    assert main(["verify", "--seed", "42", "--samples", "5", "--out", out1]) == 0
    assert main(["verify", "--seed", "42", "--samples", "5", "--out", out2]) == 0
    assert open(out1).read() == open(out2).read()
    report = json.loads(open(out1).read())
    assert report["command"] == "verify"
    assert report["seed"] == 42
    assert all(c["pass"] for c in report["checks"])


def test_verify_negative_control(files, capsys):
    # corrupting the determinant must break the k-diagonality check
    assert main(["verify", "--seed", "42", "--samples", "5",
                 "--det-offset", "1e-3"]) == 1
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("k-diagonality")]
    assert line and "FAIL" in line[0]


def test_fuzz_classes(files):
    for kind in ("octonionic", "quaternionic", "complex", "real"):
        assert main(["fuzz", "--seed", "3", "--samples", "5", "--class", kind]) == 0


def test_tolerance_flag_beats_env(files, monkeypatch, capsys):
    # an absurdly tight env tolerance fails the run; the flag overrides it
    monkeypatch.setenv("OCTO_TOLERANCE", "1e-30")
    assert main(["fuzz", "--seed", "3", "--samples", "2"]) == 1
    capsys.readouterr()
    assert main(["fuzz", "--seed", "3", "--samples", "2",
                 "--tolerance", "1e-8"]) == 0


def test_missing_file(files, capsys):
    assert main(["eigen", str(files["tmp"] / "nope.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_eigen_rejects_nan_entry(files, capsys):
    data = json.loads(open(files["oct"]).read())
    data["d"] = float("nan")
    path = files["tmp"] / "nan.json"
    path.write_text(json.dumps(data))
    assert main(["eigen", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: field 'd': must be a finite number" in err


def test_project_rejects_inf_coordinate(files, capsys):
    rows = json.loads(open(files["vec"]).read())
    rows[1][4] = float("inf")
    path = files["tmp"] / "inf.json"
    path.write_text(json.dumps(rows))
    assert main(["project", files["oct"], str(path)]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: component 1: octonion coordinates must be finite" in err


def test_shared_parser_keeps_no_state(files, capsys):
    # one parser serves every call of a process: a flag of one call must not
    # reach the next, so the sequence matches the same calls each made with
    # a freshly built parser
    calls = [
        ["eigen", files["quat"], "--tolerance", "1e-30"],
        ["eigen", files["quat"]],
        ["project", files["oct"], files["vec"]],
        ["fuzz", "--seed", "3", "--samples", "2", "--tolerance", "1e-30"],
        ["fuzz", "--seed", "3", "--samples", "2"],
    ]

    def run(argv):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    shared = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 2, 0, 1, 0]


def test_env_tolerance_read_on_every_call(files, monkeypatch, capsys):
    argv = ["eigen", files["oct"]]
    monkeypatch.delenv("OCTO_TOLERANCE", raising=False)
    assert main(argv) == 0
    monkeypatch.setenv("OCTO_TOLERANCE", "1e-30")
    assert main(argv) == 1
    monkeypatch.setenv("OCTO_TOLERANCE", "1e-8")
    assert main(argv) == 0
    capsys.readouterr()


def test_help_matches_a_fresh_parser(capsys):
    expected = _build_parser.__wrapped__().format_help()
    assert expected.startswith("usage: octeig [-h] {eigen,project,verify,fuzz}")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", ["eigen", "verify"])
def test_bad_tolerance_rejected(files, monkeypatch, capsys, command, value):
    out = files["tmp"] / "out.json"
    args = [files["oct"]] if command == "eigen" else ["--samples", "2"]
    argv = [command, *args, "--out", str(out)]
    monkeypatch.delenv("OCTO_TOLERANCE", raising=False)
    assert main(argv + ["--tolerance", value]) == 1
    assert "error: --tolerance must be a finite number > 0" in capsys.readouterr().err
    monkeypatch.setenv("OCTO_TOLERANCE", value)
    assert main(argv) == 1
    assert "error: OCTO_TOLERANCE must be a finite number > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("samples", [0, -1])
@pytest.mark.parametrize("command", ["verify", "fuzz"])
def test_samples_below_one_rejected(files, capsys, command, samples):
    out = files["tmp"] / "report.json"
    assert main([command, "--samples", str(samples), "--out", str(out)]) == 1
    assert f"error: --samples must be at least 1, got {samples}" in capsys.readouterr().err
    assert not out.exists()
    run = run_verification if command == "verify" else run_fuzz
    with pytest.raises(ValueError, match="samples must be at least 1"):
        run(seed=0, samples=samples)


# the imaginary units kept per class: 1, e1, e2, e4 span a quaternionic subalgebra
MASKS = {"octonionic": range(8), "quaternionic": (0, 1, 2, 4), "complex": (0, 1), "real": (0,)}


@pytest.mark.parametrize("kind", MASKS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(-8.0, 8.0))
def test_class_and_exit_code_do_not_depend_on_the_scale(tmp_path_factory, kind, seed, exponent):
    rng = np.random.default_rng(seed)
    dia = rng.uniform(-1, 1, 3)
    off = rng.uniform(-1, 1, (3, 8)) * np.isin(np.arange(8), MASKS[kind])
    tmp = tmp_path_factory.mktemp("scaled")
    vec = tmp / "x.json"
    vec.write_text(json.dumps(rng.uniform(-1, 1, (3, 8)).tolist()))

    def answers(s):
        mat, out = tmp / "m.json", tmp / "out.json"
        mat.write_text(json.dumps({"d": s * dia[0], "e": s * dia[1], "f": s * dia[2],
                                   "a": (s * off[0]).tolist(), "b": (s * off[1]).tolist(),
                                   "c": (s * off[2]).tolist()}))
        got = []
        for argv, key in ((["eigen", str(mat)], "class"),
                          (["project", str(mat), str(vec)], "matrix_class")):
            code = main([*argv, "--out", str(out)])
            data = json.loads(out.read_text())
            got.append((data[key], data.get("routed_path"), code))
        return got

    routed = None if kind == "octonionic" else kind
    want = [(kind, routed, 0 if routed is None else 2)] * 2
    assert answers(1.0) == want
    # a power of two scales every floating-point step exactly
    assert answers(2.0 ** round(exponent * np.log2(10.0))) == want
    assert answers(10.0 ** exponent) == want


def test_nearly_parallel_imaginary_parts_route_quaternionic_accurately(tmp_path):
    # a quaternionic matrix nudged by -2.08e-11 in e6 of b, whose imaginary part is off the
    # line of a's by 6e-4 of its norm (boundary-cli seed 1104, round 38, slot 10): taking h2
    # from b's residual against a amplified the nudge to residuals of 4.5e-8, exit 1
    mat, vec, out = tmp_path / "m.json", tmp_path / "x.json", tmp_path / "out.json"
    mat.write_text(json.dumps({
        "d": -0.8578368855244025, "e": 0.4394311440672838, "f": 0.32946208308844493,
        "a": [-0.6012141516608456, -0.5967407325693499, 0.006744255993690107, 0.0,
              0.0827917056023435, 0.0, 0.0, -0.0],
        "b": [0.2779619186921485, 0.46760959211722697, -0.005093450194722182, 0.0,
              -0.065107992542774, 0.0, -2.082018823631777e-11, 0.0],
        "c": [-0.35719854383447114, 0.7724368689461285, -0.6057496875605737, -0.0,
              0.9835751778083033, 0.0, 0.0, -0.0]}))
    vec.write_text(json.dumps(np.random.default_rng(0).uniform(-1, 1, (3, 8)).tolist()))
    for argv in (["eigen", str(mat)], ["project", str(mat), str(vec)]):
        assert main([*argv, "--out", str(out)]) == 2
        data = json.loads(out.read_text())
        assert data["routed_path"] == "quaternionic"
        assert data["worst_residual"] <= 1e-8
