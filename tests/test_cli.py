"""Command-line driver: output formats, determinism, exit codes."""

import io
from contextlib import redirect_stderr, redirect_stdout

from stratakit import reps
from stratakit.cli import main
from stratakit.errors import DecompositionFailed

from conftest import fixture_path


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def machine_dict(text):
    pairs = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


def test_analyze_a3line_machine():
    code, out, _ = run_cli(["analyze", fixture_path("a3line.alg"),
                            "--format", "machine"])
    assert code == 0
    d = machine_dict(out)
    assert d["algebra.dim"] == "6"
    assert d["class.kind"] == "quasi-hereditary"
    assert d["dims.gl_dim"] == "1"
    assert d["dims.pd_T"] == "1"
    assert d["dims.gfd_nabla_bar"] == "1"
    assert d["dims.t_codim_A"] == "1"


def test_analyze_loop2_machine():
    code, out, _ = run_cli(["analyze", fixture_path("loop2.alg"),
                            "--format", "machine"])
    assert code == 0
    d = machine_dict(out)
    assert d["algebra.field"] == "GF(2)"
    assert d["class.kind"] == "properly stratified"
    assert d["dims.gl_dim"].startswith(">=")
    assert d["dims.pd_T"] == "0"
    assert d["dims.S_iso_T"] == "True"


def test_check_borel_pair_passes():
    code, out, _ = run_cli(["check", fixture_path("borelA.alg"),
                            "--borel", fixture_path("borelB.alg"),
                            "--format", "machine"])
    assert code == 0
    d = machine_dict(out)
    assert d["borel.B_dim"] == "6"
    assert d["borel.B_gl_dim"] == "2"
    assert d["borel.exact_borel"].startswith("pass")
    assert d["borel.gldim_doubling"].startswith("pass")
    assert "equality" in d["borel.gldim_doubling"]
    assert d["duality.fixes_tilting"].startswith("pass")


def test_check_with_standalone_embedding_file():
    code, out, _ = run_cli(["check", fixture_path("borelA.alg"),
                            "--borel", fixture_path("borelB.alg"),
                            "--embedding", fixture_path("borelAB.emb"),
                            "--format", "machine"])
    assert code == 0
    assert machine_dict(out)["borel.exact_borel"].startswith("pass")


def test_gfd_builtin_and_declared_modules():
    code, out, _ = run_cli(["gfd", fixture_path("a3line.alg"),
                            "--module", "E(3)", "--format", "machine"])
    assert code == 0
    d = machine_dict(out)
    assert d["gfd.nabla_bar"] == "1"
    assert d["gfd.delta_bar"] == "0"

    code, out, _ = run_cli(["gfd", fixture_path("a3line.alg"),
                            "--module", "M", "--format", "machine"])
    assert code == 0
    d = machine_dict(out)
    assert d["module.dims"] == "1 1 0"
    assert d["gfd.nabla_bar"] == "0"


def test_missing_file_is_input_error():
    code, _, err = run_cli(["analyze", "/nonexistent.alg"])
    assert code == 2
    assert "input error" in err


def test_unknown_module_is_input_error():
    code, _, err = run_cli(["gfd", fixture_path("a3line.alg"),
                            "--module", "Zorp"])
    assert code == 2
    assert "input error" in err


def test_inconclusive_exit_code_on_tiny_cap():
    # with the resolution cap at zero, proj dim of the tilting module cannot
    # be decided; this must surface as "inconclusive", not pass/fail
    code, _, err = run_cli(["gfd", fixture_path("a3line.alg"),
                            "--module", "E(3)", "--cap", "0"])
    assert code == 3
    assert "inconclusive" in err


def test_text_format_has_section_headers():
    code, out, _ = run_cli(["analyze", fixture_path("a2.alg")])
    assert code == 0
    assert "[algebra]" in out and "[class]" in out and "[dims]" in out


def test_decomposition_failure_is_inconclusive(monkeypatch):
    def fail(*args, **kwargs):
        raise DecompositionFailed("search budget exhausted")

    monkeypatch.setattr(reps, "decompose_with_inclusions", fail)
    code, _, err = run_cli(["analyze", fixture_path("a3line.alg")])
    assert code == 3
    assert "inconclusive" in err
