import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octeig import cli, spectral
from octeig.cli import _build_parser, _encode, main
from octeig.errors import ExtractionFailure
from octeig.harness import (DEFAULT_TOLERANCE, random_hermitian, random_vector, run_fuzz,
                            run_verification)
from octeig.hermitian import OCTONIONIC, Hermitian3, OctVector3, phi
from octeig.octonion import Octonion
from octeig.projection import matrix_fingerprint, six_way
from octeig.spectral import eigensystem


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


def test_unreadable_inputs_are_errors(files, capsys, monkeypatch):
    # a directory, then a file the process may not read: exit 1 with the reason, no traceback
    tmp = str(files["tmp"])
    assert main(["eigen", tmp]) == 1
    assert capsys.readouterr().err == f"error: {tmp}: Is a directory\n"
    assert main(["project", files["oct"], tmp]) == 1
    assert capsys.readouterr().err == f"error: {tmp}: Is a directory\n"

    # chmod does not stop a privileged process from reading, so open itself refuses
    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "open", denied, raising=False)
    assert main(["eigen", files["oct"]]) == 1
    assert capsys.readouterr().err == f"error: {files['oct']}: Permission denied\n"


@pytest.mark.parametrize("command", ["eigen", "project"])
def test_a_utf8_byte_order_mark_is_ignored(files, capsys, command):
    # RFC 8259 8.1 lets a parser ignore the mark, which some editors write
    plain = [files["oct"], files["vec"]][:1 + (command == "project")]
    marked = []
    for i, path in enumerate(plain):
        copy = files["tmp"] / f"bom-{i}.json"
        copy.write_bytes(b"\xef\xbb\xbf" + open(path, "rb").read())
        marked.append(str(copy))
    out = files["tmp"] / "out.json"

    def run(paths, flags):
        out.unlink(missing_ok=True)
        code = main([command, *paths, *flags])
        return code, capsys.readouterr(), out.read_bytes() if out.exists() else None

    for flags in ([], ["--out", str(out)]):
        want = run(plain, flags)
        assert want[0] == 0
        assert run(marked, flags) == want
        assert run([plain[0], *marked[1:]], flags) == want


def test_a_second_byte_order_mark_is_a_json_error_worded_for_the_command_line(files, capsys):
    # one mark is dropped; json's message for the next one advises a Python decoding
    path = files["tmp"] / "bom-twice.json"
    path.write_bytes(b"\xef\xbb\xbf" * 2 + open(files["oct"], "rb").read())
    for command in (["eigen", str(path)], ["project", files["oct"], str(path)]):
        assert main(command) == 1
        want = f"error: {path}: invalid JSON at line 1 column 1: unexpected byte-order mark\n"
        assert capsys.readouterr() == ("", want)


@pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "utf-32-be", "latin-1"])
def test_a_file_in_another_encoding_is_a_decode_error(files, capsys, encoding):
    # only UTF-8 is read; the error gives the byte offset in the file
    text = open(files["oct"]).read().replace('"d"', '"d\u00e9"')
    path = files["tmp"] / f"{encoding}.json"
    path.write_bytes(text.encode(encoding))
    with pytest.raises(UnicodeDecodeError) as decoding:
        path.read_bytes().decode()
    assert main(["eigen", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {decoding.value}\n")
    assert "'utf-8' codec can't decode byte" in str(decoding.value)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_json_error_is_placed_by_line_whatever_the_line_ends(files, capsys, newline):
    # a lone CR ends a line as in a text-mode read, though the file is read as bytes
    bad = files["tmp"] / "bad.json"
    bad.write_bytes(newline.join(['{"d": 1.0,', ' "e": 2.0,', ' "f": x}']).encode())
    assert main(["eigen", str(bad)]) == 1
    want = f"error: {bad}: invalid JSON at line 3 column 7: Expecting value\n"
    assert capsys.readouterr() == ("", want)


@pytest.mark.parametrize("command", ["eigen", "project"])
def test_out_onto_a_longer_file_holds_exactly_the_report(files, capsys, monkeypatch, command):
    # the file is truncated, and a write that takes only part of the bytes is continued
    argv = [command, files["oct"], files["vec"]][:2 + (command == "project")]
    assert main(argv) == 0
    want = capsys.readouterr().out.encode()
    out = files["tmp"] / "out.json"
    out.write_bytes(b"x" * (3 * len(want)))
    write = cli.os.write
    monkeypatch.setattr(cli.os, "write", lambda fd, data: write(fd, data[:100]))
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == want


def test_unwritable_out_is_an_error(files, capsys):
    # the result is computed, then writing it fails: exit 1 with the reason, no traceback
    out = files["tmp"] / "missing" / "o.json"
    assert main(["eigen", files["oct"], "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"
    tmp = str(files["tmp"])
    for argv in (["project", files["oct"], files["vec"]], ["verify", "--samples", "2"],
                 ["fuzz", "--samples", "2"]):
        assert main([*argv, "--out", tmp]) == 1
        assert capsys.readouterr().err == f"error: {tmp}: Is a directory\n"


def test_eigen_rejects_nan_entry(files, capsys):
    data = json.loads(open(files["oct"]).read())
    data["d"] = float("nan")
    path = files["tmp"] / "nan.json"
    path.write_text(json.dumps(data))
    assert main(["eigen", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: field 'd': must be a finite number" in err


@pytest.mark.parametrize("command", ["eigen", "project"])
def test_a_nan_residual_fails(files, capsys, command):
    # d = 1e308 parses, but the residuals overflow to NaN, which max skips unless it comes
    # first: in a project report it comes after the reconstruction residual
    data = json.loads(open(files["oct"]).read())
    data["d"] = 1e308
    path, out = files["tmp"] / "huge.json", files["tmp"] / "out.json"
    path.write_text(json.dumps(data))
    vector = [files["vec"]] if command == "project" else []
    with pytest.warns(RuntimeWarning, match="^(overflow|invalid value) encountered in"):
        assert main([command, str(path), *vector, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False and math.isnan(report["worst_residual"])
    assert "residuals exceed tolerance" in capsys.readouterr().err


def test_project_rejects_inf_coordinate(files, capsys):
    rows = json.loads(open(files["vec"]).read())
    rows[1][4] = float("inf")
    path = files["tmp"] / "inf.json"
    path.write_text(json.dumps(rows))
    assert main(["project", files["oct"], str(path)]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: component 1: octonion coordinates must be finite" in err


@pytest.mark.parametrize("field, index, value, message", [
    ("d", None, True, "field 'd': must be a number, got True"),
    ("e", None, "1.5", "field 'e': must be a number, got '1.5'"),
    ("f", None, " 2 ", "field 'f': must be a number, got ' 2 '"),
    ("a", 3, "1e3", "field 'a': coordinate 3 must be a number, got '1e3'"),
    ("c", 0, False, "field 'c': coordinate 0 must be a number, got False"),
    # an integer beyond the float range was a traceback
    ("d", None, 10 ** 400, "field 'd': int too large to convert to float"),
    ("b", 5, 10 ** 400, "field 'b': int too large to convert to float"),
    # null was read as nan, and an array or object leaked the message of float() or np.array
    ("e", None, None, "field 'e': must be a number, got None"),
    ("a", 2, None, "field 'a': coordinate 2 must be a number, got None"),
    ("d", None, {}, "field 'd': must be a number, got {}"),
    ("f", None, [1.0], "field 'f': must be a number, got [1.0]"),
    ("b", 1, [1.0], "field 'b': coordinate 1 must be a number, got [1.0]"),
    ("c", 6, {"x": 1}, "field 'c': coordinate 6 must be a number, got {'x': 1}"),
], ids=["true", "string", "padded-string", "string-coordinate", "false-coordinate", "huge-int",
        "huge-int-coordinate", "null", "null-coordinate", "object", "array", "array-coordinate",
        "object-coordinate"])
def test_eigen_rejects_what_is_not_a_float(files, capsys, field, index, value, message):
    # JSON true and numeric strings are not numbers, although float() takes them
    data = json.loads(open(files["oct"]).read())
    if index is None:
        data[field] = value
    else:
        data[field][index] = value
    path = files["tmp"] / "typed.json"
    path.write_text(json.dumps(data))
    assert main(["eigen", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("value, message", [
    (True, "coordinate 7 must be a number, got True"),
    ("0.5", "coordinate 7 must be a number, got '0.5'"),
    (10 ** 400, "int too large to convert to float"),
    (None, "coordinate 7 must be a number, got None"),
    ([0.5], "coordinate 7 must be a number, got [0.5]"),
    ({}, "coordinate 7 must be a number, got {}"),
], ids=["true", "string", "huge-int", "null", "array", "object"])
def test_project_rejects_what_is_not_a_float(files, capsys, value, message):
    rows = json.loads(open(files["vec"]).read())
    rows[2][7] = value
    path = files["tmp"] / "typed.json"
    path.write_text(json.dumps(rows))
    assert main(["project", files["oct"], str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: component 2: {message}\n"


@pytest.mark.parametrize("command", ["eigen", "project"])
def test_deep_nesting_is_a_parse_error(files, capsys, command):
    # the JSON decoder's RecursionError was a traceback, for a matrix file and a vector file
    deep = files["tmp"] / "deep.json"
    deep.write_text("[" * 1000 + "]" * 1000)
    argv = ["eigen", str(deep)] if command == "eigen" else ["project", files["oct"], str(deep)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {deep}: invalid JSON: arrays or objects nested too deeply\n")


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


def test_a_tolerance_variable_that_is_not_a_number_is_an_error(files, monkeypatch, capsys):
    out = files["tmp"] / "out.json"
    monkeypatch.setenv("OCTO_TOLERANCE", "abc")
    assert main(["eigen", files["oct"], "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: OCTO_TOLERANCE='abc' is not a number\n"
    assert not out.exists()


def test_a_matrix_file_that_is_not_an_object_is_an_error(files, capsys):
    path = files["tmp"] / "array.json"
    path.write_text("[1, 2]")
    assert main(["eigen", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: matrix JSON must be an object with fields d, e, f, a, b, c\n")


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


@pytest.mark.parametrize("command", ["verify", "fuzz"])
def test_negative_seed_rejected(files, capsys, command):
    # np.random.default_rng's ValueError was a traceback
    out = files["tmp"] / "report.json"
    assert main([command, "--seed", "-1", "--samples", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --seed must be at least 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("value, shown", [("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"),
                                          ("1e400", "inf")])
def test_non_finite_det_offset_rejected(files, capsys, value, shown):
    # a nan offset wrote NaN into the report, which is not JSON
    out = files["tmp"] / "report.json"
    assert main(["verify", "--samples", "2", f"--det-offset={value}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --det-offset must be a finite number, got {shown}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["verify", "--samples", "x"], "argument --samples: invalid int value: 'x'"),
    (["verify", "--det-offset", "-inf"], "argument --det-offset: expected one argument"),
    (["eigen"], "the following arguments are required: matrix"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate' "
                     "(choose from 'eigen', 'project', 'verify', 'fuzz')"),
    ([], "the following arguments are required: command"),
    (["-x"], "unrecognized arguments: -x"),
    (["-x", "-y"], "unrecognized arguments: -x -y"),
    (["-x", "eigen", "m.json"], "unrecognized arguments: -x"),
    (["--"], "the following arguments are required: command"),
    (["-x", "--"], "unrecognized arguments: -x"),
], ids=["bad-int", "minus-inf-value", "missing-positional", "unknown-command", "no-command",
        "unknown-option-alone", "unknown-options-alone", "unknown-option-before-a-command",
        "double-dash-alone", "unknown-option-then-double-dash"])
def test_usage_errors_exit_1(capsys, argv, message):
    # argparse exited 2, the code of a routed answer
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_one_parser_pass_gives_what_the_top_level_parser_gives(files, monkeypatch, capsys):
    # main parses a command's arguments with that command's parser alone; the top-level
    # parse_args, the reference here, runs every argv when `commands` is empty
    m, x, out = files["oct"], files["vec"], files["tmp"] / "out.json"
    table = [[], ["-h"], ["nosuch"], ["eigen"], ["project", m], ["eigen", m, x],
             ["project", m, x, m], ["eigen", m, "--tol", "1e-30"]]
    for command, args in {"eigen": [m], "project": [m, x], "verify": ["--samples", "2"],
                          "fuzz": ["--samples", "2"]}.items():
        table += [[command, "-h"], [command, *args, "--bogus"]]
        table += [[command, *args, *flags] for flags in
                  ([], ["--out", str(out)], ["--tolerance", "1e-30"],
                   ["--out", str(out), "--tolerance", "1e-8"])]

    def run(argv):
        out.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:   # help
            code = f"exit {exc.code}"
        got = capsys.readouterr()
        return code, got.out, got.err, out.read_bytes() if out.exists() else None

    parser = _build_parser()
    top = []
    monkeypatch.setattr(parser, "parse_args", lambda argv: top.append(argv) or
                        type(parser).parse_args(parser, argv))
    one_pass = [run(argv) for argv in table]
    assert top == [[], ["-h"], ["nosuch"]]
    monkeypatch.setattr(parser, "commands", {})
    assert [run(argv) for argv in table] == one_pass
    assert {code for code, *_ in one_pass} == {0, 1, "exit 0"}


# one bad value in a matrix or vector file, as JSON text
BAD_VALUES = ["NaN", "Infinity", "-Infinity", "1e400", "true", "null", '"1.5"', "[]", "{}"]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(vector=st.booleans(), slot=st.integers(0, 5), coordinate=st.integers(-1, 7),
       bad=st.sampled_from(BAD_VALUES + [json.dumps([0.5] * 7), json.dumps([0.5] * 9)]))
def test_the_cli_and_the_readers_reject_bad_input_in_the_same_words(tmp_path_factory, vector,
                                                                    slot, coordinate, bad):
    # the value goes at a field, at an octonion (coordinate -1) or at one of its coordinates
    rng = np.random.default_rng(24)
    good = {"matrix": random_hermitian(rng, "octonionic").to_json(),
            "vector": random_vector(rng).to_json()}
    data = good["vector" if vector else "matrix"]
    key = slot % 3 if vector else "defabc"[slot]
    if coordinate < 0 or key in ("d", "e", "f"):
        data[key] = "@"
    else:
        data[key][coordinate] = "@"
    tmp = tmp_path_factory.mktemp("bad")
    paths = {k: tmp / f"{k}.json" for k in good}
    for k, value in good.items():
        paths[k].write_text(json.dumps(value).replace('"@"', bad))
    reader = OctVector3.from_json if vector else Hermitian3.from_json
    with pytest.raises(ValueError) as exc:
        reader(json.loads(paths["vector" if vector else "matrix"].read_text()))
    want = f"error: {paths['vector' if vector else 'matrix']}: {exc.value}\n"
    argvs = [["project", str(paths["matrix"]), str(paths["vector"])]]
    argvs += [] if vector else [["eigen", str(paths["matrix"])]]
    capture = io.StringIO()
    for argv in argvs:
        with contextlib.redirect_stderr(capture):
            assert main(argv) == 1
        assert capture.getvalue() == want
        capture.seek(0)
        capture.truncate()


@pytest.mark.parametrize("field, value", [
    ("a", [0.5] * 500),
    ("b", json.loads("[" * 600 + "]" * 600)),
    ("c", 10 ** 400),
    ("d", "x" * 300),
], ids=["long-array", "deep-array", "huge-int-octonion", "long-string"])
def test_parse_errors_cut_the_value_they_echo(files, capsys, field, value):
    # the whole value was echoed: 2,486 characters for the 500-element array
    data = json.loads(open(files["oct"]).read())
    data[field] = value
    path = files["tmp"] / "long.json"
    path.write_text(json.dumps(data))
    assert main(["eigen", str(path)]) == 1
    fault = ("must be a number" if field == "d"
             else "octonion JSON must be an array of 8 numbers")
    assert capsys.readouterr().err == (
        f"error: {path}: field {field!r}: {fault}, got {repr(value)[:197]}...\n")


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


@pytest.mark.parametrize("kind", MASKS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(0.0, 8.0),
       sign=st.sampled_from([-1, 1]))
def test_eigen_reports_solve_the_family_equation_at_any_shift(tmp_path_factory, kind, seed,
                                                              exponent, sign):
    # a quaternionic r2 taken as det(Abar) - det(A) lost every digit at A + 1e6 I; the roots
    # of r^2 + 4 phi r = 0, 0 and -4 phi, depend on a, b and c alone
    rng = np.random.default_rng(seed)
    dia = rng.uniform(-1, 1, 3)
    off = rng.uniform(-1, 1, (3, 8)) * np.isin(np.arange(8), MASKS[kind])
    ph = phi(Hermitian3(*dia, *map(Octonion, off)))
    mat = tmp_path_factory.mktemp("shifted") / "m.json"
    out = mat.with_name("out.json")
    mat.write_text(json.dumps(dict(zip("def", (dia + sign * 10.0 ** exponent).tolist()),
                                   **dict(zip("abc", off.tolist())))))
    # the report is written whatever the exit code; above a shift of about 1e6 some exit 1,
    # where eigenvalue gaps fall under CLUSTER_TOL |lam| and merge (ROADMAP item 6)
    main(["eigen", str(mat), "--out", str(out)])
    families = json.loads(out.read_text())["families"]
    if kind == "quaternionic":
        assert [f["phi"] for f in families] == [ph, ph]
        assert families[0]["r"] == 0.0
        assert abs(families[1]["r"] + 4.0 * ph) <= 1e-15 * abs(4.0 * ph)
    for f in families:
        r, fp, al = f["r"], f["phi"], np.array(f["alpha"])
        assert abs(r * r + 4.0 * fp * r - al @ al) <= 1e-14 * (r * r + 4.0 * abs(fp * r))


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


def test_the_complex_unit_is_the_largest_imaginary_part(tmp_path):
    # a's imaginary part, 1e-10 e1, is below the class test's cut and b's, e2, is not: the
    # matrix is complex along e2, and taking i0 from a left residuals of 0.92, exit 1
    mat, vec, out = tmp_path / "m.json", tmp_path / "x.json", tmp_path / "out.json"
    e = np.eye(8)
    mat.write_text(json.dumps({"d": 0.3, "e": -0.2, "f": 0.5, "a": (1e-10 * e[1]).tolist(),
                               "b": e[2].tolist(), "c": [0.0] * 8}))
    vec.write_text(json.dumps(np.random.default_rng(0).uniform(-1, 1, (3, 8)).tolist()))
    for argv in (["eigen", str(mat)], ["project", str(mat), str(vec)]):
        assert main([*argv, "--out", str(out)]) == 2
        data = json.loads(out.read_text())
        assert data["routed_path"] == "complex"
        assert data["worst_residual"] <= 1e-9


def test_a_report_at_phi_zero_has_no_negative_zero(tmp_path):
    # a = e1, b = c = 8e-10 e2 has phi = 0.0, and family 2 reported "r": -0.0 next to it
    mat, out = tmp_path / "m.json", tmp_path / "out.json"
    e = np.eye(8)
    mat.write_text(json.dumps({"d": 0.3, "e": -0.2, "f": 0.5, "a": e[1].tolist(),
                               "b": (8e-10 * e[2]).tolist(), "c": (8e-10 * e[2]).tolist()}))
    assert main(["eigen", str(mat), "--out", str(out)]) == 2
    text = out.read_text()
    assert re.search(r"-0\.0\b", text) is None
    r = [fam["r"] for fam in json.loads(text)["families"]]
    assert [math.copysign(1.0, x) for x in r] == [1.0, 1.0] and r == [0.0, 0.0]


def test_a_row_the_class_test_calls_quaternionic_takes_the_quaternionic_route(tmp_path):
    # b = c = 8e-10 e2 against a = e1: the class test's SVD finds a second direction at
    # 1.13e-9 of the first, above its 1e-9 cut, where the split's own pivot read 8e-10, at or
    # below it, and refused the matrix with exit 1; the class test alone decides now
    mat, vec, out = tmp_path / "m.json", tmp_path / "x.json", tmp_path / "out.json"
    e = np.eye(8)
    mat.write_text(json.dumps({"d": 0.3, "e": -0.2, "f": 0.5, "a": e[1].tolist(),
                               "b": (8e-10 * e[2]).tolist(), "c": (8e-10 * e[2]).tolist()}))
    vec.write_text(json.dumps(np.random.default_rng(0).uniform(-1, 1, (3, 8)).tolist()))
    for argv in (["eigen", str(mat)], ["project", str(mat), str(vec)]):
        assert main([*argv, "--out", str(out)]) == 2
        data = json.loads(out.read_text())
        assert data["routed_path"] == "quaternionic"
        assert data["worst_residual"] <= 1e-8


# floats whose repr takes each form: signed zeros, subnormals, the exponent switch
# at 1e-5 and 1e16, and the non-finite values the stdlib writes as Infinity and NaN
EDGE_FLOATS = (0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-5, 9.999999999999999e-05,
               1e-4, 1e16, 9999999999999998.0, 1e300, float("inf"), float("-inf"), float("nan"))
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
STRINGS = st.text() | st.sampled_from(['"', '\\"\\', "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", ""])
LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200)
          | FLOATS | FLOATS.map(np.float64) | STRINGS)
TREES = st.recursive(LEAVES, lambda inner: (
    st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(STRINGS, inner, max_size=5) | st.lists(FLOATS, max_size=8)), max_leaves=40)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(TREES)
def test_writer_is_the_indented_stdlib_encoder(tree):
    assert _encode(tree) == json.dumps(tree, indent=2, sort_keys=True)


def test_writer_rejects_what_the_stdlib_rejects():
    for bad in ({"a": [1.0, object()]}, [np.int64(1)], {"s": {1, 2}}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _encode(bad)


@pytest.fixture
def report_inputs(tmp_path):
    rng = np.random.default_rng(46)
    paths = {}
    for kind in MASKS:
        paths[kind] = tmp_path / f"{kind}.json"
        paths[kind].write_text(json.dumps(random_hermitian(rng, kind).to_json()))
    paths["zero"] = tmp_path / "zero.json"
    paths["zero"].write_text(json.dumps({"d": 0.0, "e": 0.0, "f": 0.0,
                                         "a": [0.0] * 8, "b": [0.0] * 8, "c": [0.0] * 8}))
    paths["x"] = tmp_path / "x.json"
    paths["x"].write_text(json.dumps(random_vector(rng).to_json()))
    return {k: str(v) for k, v in paths.items()}


def test_every_report_is_what_the_indented_stdlib_encoder_writes(report_inputs, tmp_path,
                                                                monkeypatch, capsys):
    payloads, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit", lambda payload, out: (payloads.append(payload),
                                                             emit(payload, out)))
    matrices = [report_inputs[k] for k in (*MASKS, "zero")]
    printed = [(["eigen", m], {0, 2}) for m in matrices]
    printed += [(["project", m, report_inputs["x"]], {0, 2}) for m in matrices]
    runs = printed + [(["fuzz", "--class", k, "--samples", "3"], {0}) for k in MASKS]
    runs += [(["verify", "--samples", "3"], {0}),
             (["verify", "--samples", "3", "--det-offset", "1e-3"], {1})]
    out = tmp_path / "out.json"
    for argv, codes in runs:
        payloads.clear()
        assert main([*argv, "--out", str(out)]) in codes
        [payload] = payloads
        assert out.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    # eigen and project print the report when no --out is given
    capsys.readouterr()
    for argv, codes in printed:
        payloads.clear()
        assert main(argv) in codes
        [payload] = payloads
        assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


# the fixed matrices of the layout property: zero, identity and a repeated eigenvalue
DIAGONALS = {"zero": (0.0, 0.0, 0.0), "identity": (1.0, 1.0, 1.0), "diag112": (1.0, 1.0, 2.0)}


def _concluded(payload: dict, tag: str, worst: float) -> dict:
    """The fields the CLI adds to a report, at the default tolerance."""
    if tag != OCTONIONIC:
        payload["routed_path"] = tag
    payload.update({"worst_residual": worst, "tolerance": DEFAULT_TOLERANCE,
                    "pass": worst <= DEFAULT_TOLERANCE})
    return payload


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from([*MASKS, *DIAGONALS]), seed=st.integers(0, 2 ** 32 - 1),
       exponent=st.floats(-8.0, 8.0))
def test_reports_are_the_object_api_written_out(tmp_path_factory, kind, seed, exponent):
    # eigen and project write their reports from A's stack; the objects of eigensystem and
    # six_way, written by their to_json, are the reference
    rng = np.random.default_rng(seed)
    if kind in MASKS:
        dia = rng.uniform(-1, 1, 3)
        off = rng.uniform(-1, 1, (3, 8)) * np.isin(np.arange(8), MASKS[kind])
    else:
        dia, off = np.array(DIAGONALS[kind]), np.zeros((3, 8))
    s = 10.0 ** exponent
    A = Hermitian3(*(s * dia).tolist(), *map(Octonion, s * off))
    x = OctVector3.from_coords(rng.uniform(-1, 1, 24))
    tmp = tmp_path_factory.mktemp("layout")
    mat, vec, out = tmp / "m.json", tmp / "x.json", tmp / "out.json"
    mat.write_text(json.dumps(A.to_json()))
    vec.write_text(json.dumps(x.to_json()))

    es = eigensystem(A)
    want = es.to_json()
    want["fingerprint"] = matrix_fingerprint(A)
    worst = max(max(f.residuals.values()) for f in es.families)
    eigen = _concluded(want, es.matrix_class.tag, worst)
    dec = six_way(A, x)
    want = dec.to_json()
    if dec.matrix_class != OCTONIONIC:
        want["single_family"] = len(dec.parts) == 3
    project = _concluded(want, dec.matrix_class,
                         max([dec.reconstruction_residual, *dec.eigen_residuals]))
    for argv, want in ((["eigen", str(mat)], eigen), (["project", str(mat), str(vec)], project)):
        code = main([*argv, "--tolerance", str(DEFAULT_TOLERANCE), "--out", str(out)])
        assert out.read_text() == _encode(want) + "\n"
        assert code == (1 if not want["pass"] else 2 if "routed_path" in want else 0)


def _spelled(value, spell) -> str:
    """JSON text of nested lists and dicts of floats, each float written by spell."""
    if isinstance(value, dict):
        return "{" + ", ".join(f'"{k}": {_spelled(v, spell)}' for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_spelled(v, spell) for v in value) + "]"
    return spell(value)


def _integer(t: float) -> str:
    # -0.0 as the integer 0 would read back as +0.0
    return str(int(t)) if t == int(t) and math.copysign(1.0, t) > 0 else repr(t)


@pytest.mark.parametrize("spell", [_integer, "{:.17e}".format, "{:.16E}".format],
                         ids=["integer", "exponent", "upper-exponent"])
def test_number_spellings_give_the_same_reports(tmp_path, spell):
    # JSON integers, exponent forms and -0.0 read as the floats they spell
    rng = np.random.default_rng(8)
    m = random_hermitian(rng, "octonionic").to_json()
    m.update(d=2.0, e=-0.0)
    m["a"][:3] = [0.0, -0.0, -3.0]
    m["c"][5] = 1e20
    x = random_vector(rng).to_json()
    x[0][:2] = [1.0, -0.0]
    x[2][7] = 0.0

    def reports(spelling):
        mat, vec = tmp_path / "m.json", tmp_path / "x.json"
        mat.write_text(_spelled(m, spelling))
        vec.write_text(_spelled(x, spelling))
        got = []
        for argv in (["eigen", str(mat)], ["project", str(mat), str(vec)]):
            out = tmp_path / f"{argv[0]}.json"
            got.append((main([*argv, "--out", str(out)]), out.read_bytes()))
        return got

    assert "100000000000000000000" in _spelled(m, _integer)
    assert reports(spell) == reports(repr)


def _memo_files(tmp_path, kind):
    """Write matrix A of class `kind`, a matrix B of the next class and two vectors; returns
    the path writer and the paths."""
    rng = np.random.default_rng(32)
    other = list(MASKS)[(list(MASKS).index(kind) + 1) % len(MASKS)]
    A, B = random_hermitian(rng, kind).to_json(), random_hermitian(rng, other).to_json()

    def write(name, payload, indent=None):
        (tmp_path / name).write_text(json.dumps(payload, indent=indent))
        return str(tmp_path / name)

    paths = {"A": write("a.json", A), "B": write("b.json", B),
             "x": write("x.json", random_vector(rng).to_json()),
             "y": write("y.json", random_vector(rng).to_json()),
             # A's floats, spelled otherwise, under another path
             "A2": write("a-copy.json", A, indent=3)}
    return write, paths, A, B


def _steps(steps, capsys, clear: bool):
    """(exit code, --out bytes, stderr) of each request in steps, in order, the kept solve
    cleared before each request if clear; a step that is not a request is called."""
    got = []
    for k, step in enumerate(steps):
        if callable(step):
            step()
            continue
        if clear:
            cli._solve.cache_clear()
        out = Path(step[1]).parent / f"out-{k}.json"
        got.append((main([*step, "--out", str(out)]), out.read_bytes(), capsys.readouterr().err))
    return got


@pytest.mark.parametrize("kind", MASKS)
@pytest.mark.parametrize("case", ["repeat", "a-b-a", "another-path", "rewritten"])
def test_a_kept_solve_writes_what_a_fresh_one_writes(tmp_path, capsys, kind, case):
    write, p, A, B = _memo_files(tmp_path, kind)
    steps, hits = {
        "repeat": ([["eigen", p["A"]], ["project", p["A"], p["x"]],
                    ["project", p["A"], p["y"]], ["eigen", p["A"]]], 3),
        "a-b-a": ([["eigen", p["A"]], ["project", p["A"], p["x"]], ["eigen", p["B"]],
                   ["project", p["B"], p["x"]], ["project", p["A"], p["y"]],
                   ["eigen", p["A"]]], 3),
        # the key is the floats, not the path or the text
        "another-path": ([["eigen", p["A"]], ["project", p["A2"], p["x"]],
                          ["eigen", p["A2"]]], 2),
        # a file rewritten in place is a new matrix, and rewritten back the old one
        "rewritten": ([["eigen", p["A"]], lambda: write("a.json", B),
                       ["eigen", p["A"]], ["project", p["A"], p["x"]],
                       lambda: write("a.json", A), ["project", p["A"], p["x"]],
                       ["eigen", p["B"]]], 1),
    }[case]
    fresh = _steps(steps, capsys, clear=True)
    cli._solve.cache_clear()
    kept = _steps(steps, capsys, clear=False)
    assert kept == fresh
    assert cli._solve.cache_info().hits == hits
    assert kept[0][0] == (0 if kind == OCTONIONIC else 2)
    if case == "rewritten":   # B's report, then A's again
        assert kept[1] == kept[4] != kept[0] and kept[3] != kept[2]


@pytest.mark.parametrize("kind", MASKS)
def test_a_solve_that_raised_raises_again(tmp_path, capsys, monkeypatch, kind):
    _, p, _, _ = _memo_files(tmp_path, kind)
    calls = []

    def fail(*args):
        calls.append(args)
        raise ExtractionFailure("stand-in extraction failure")

    monkeypatch.setattr(spectral, "_eigenpairs", fail)
    for argv in (["eigen", p["A"]], ["eigen", p["A"]], ["project", p["A"], p["x"]]):
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: stand-in extraction failure\n"
    # the stack is kept, its eigenpairs are not: each request solved them again
    assert len(calls) == 3 and cli._solve.cache_info().hits == 2
    monkeypatch.undo()
    steps = [["eigen", p["A"]], ["project", p["A"], p["x"]]]
    assert _steps(steps, capsys, clear=False) == _steps(steps, capsys, clear=True)
