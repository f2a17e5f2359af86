"""Command-line driver: output formats, determinism, exit codes."""

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from stratakit import borel, homology, quiver, reps, strat, tilting
from stratakit.cli import main
from stratakit.errors import (NonTerminating, NotAntiAutomorphism,
                              NotStratified, UndecidedDecomposition)

from conftest import LOW_PD_WITNESS, auslander_text, fixture_path


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


def test_embedding_without_borel_is_an_input_error():
    # the embedding maps the subalgebra given by --borel into the algebra,
    # so it means nothing alone
    code, out, err = run_cli(["check", fixture_path("borelA.alg"),
                              "--embedding", fixture_path("borelAB.emb")])
    assert code == 2 and out == ""
    assert "input error" in err and "--borel" in err


def test_embedding_word_that_does_not_compose_is_an_input_error(tmp_path):
    # "delta.beta" is beta then delta, which do not compose in borelA: the
    # image of dbeta is 0, so the embedding is not injective
    with open(fixture_path("borelB.alg"), encoding="utf-8") as fh:
        text = fh.read()
    bad = tmp_path / "badB.alg"
    bad.write_text(text.replace("1*beta.delta", "1*delta.beta"))
    code, _, err = run_cli(["check", fixture_path("borelA.alg"),
                            "--borel", str(bad), "--format", "machine"])
    assert code == 2
    assert "not injective" in err


def test_non_parallel_embedding_image_is_an_input_error(tmp_path):
    # be runs 1 -> 2, and its image al + ga has the path ga from 2 to 1
    alg = tmp_path / "cyc.alg"
    alg.write_text("field Q\nvertices 1 2\narrow al 1 2\narrow ga 2 1\n"
                   "relation 1*ga.al\nrelation 1*al.ga\n")
    sub = tmp_path / "sub.alg"
    sub.write_text("field Q\nvertices 1 2\narrow be 1 2\nembedding\n"
                   "  image be = 1*al + 1*ga\nend\n")
    code, out, err = run_cli(["check", str(alg), "--borel", str(sub),
                              "--format", "machine"])
    assert code == 2 and out == ""
    assert err.startswith("input error:")


def test_image_paths_are_read_in_the_ambient_algebra(tmp_path):
    # B's own x runs 1 -> 3, so y then x does not compose in B; the image
    # x.y lives in A, where it does, and renaming B's arrows changes nothing
    alg = tmp_path / "pa.alg"
    alg.write_text("field Q\nvertices 1 2 3\narrow x 2 3\narrow y 1 2\n")
    runs = []
    for b_names in ("x y", "s t"):
        s, t = b_names.split()
        sub = tmp_path / f"q{s}.alg"
        sub.write_text(f"field Q\nvertices 1 2 3\narrow {s} 1 3\narrow {t} 1 2\n"
                       f"embedding\n  image {s} = 1*x.y\n  image {t} = 1*y\n"
                       "end\n")
        runs.append(run_cli(["check", str(alg), "--borel", str(sub),
                             "--format", "machine"]))
    (code, out, _), renamed = runs
    assert (code, out) == renamed[:2]
    assert code == 1 and machine_dict(out)["borel.B_dim"] == "5"


def _borelA_variant(tmp_path, old, new):
    with open(fixture_path("borelA.alg"), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    path = tmp_path / "A.alg"
    path.write_text(text.replace(old, new))
    return str(path)


@pytest.mark.parametrize("duality,reason", [
    ("alpha=zz", "unknown arrow 'zz'"),
    ("alpha=beta gamma=gamma delta=delta",
     "image of arrow gamma does not reverse it"),
    ("alpha=beta", "involution does not cover every arrow")],
    ids=["unknown", "not_reversed", "not_covering"])
def test_bad_duality_lines_fail_the_check(tmp_path, duality, reason):
    path = _borelA_variant(tmp_path, "duality alpha=beta gamma=delta",
                           f"duality {duality}")
    code, out, _ = run_cli(["check", path, "--borel", fixture_path("borelB.alg"),
                            "--format", "machine"])
    assert code == 1
    assert out.endswith(f"duality.anti_automorphism = fail ({reason})\n")


def test_duality_moving_a_relation_out_of_the_ideal_fails_the_check(tmp_path):
    # without beta.delta.gamma = 0, the relation delta.gamma.alpha maps to it
    path = _borelA_variant(tmp_path, "relation 1*beta.delta.gamma\n", "")
    sub = tmp_path / "B.alg"
    sub.write_text("field Q\nvertices 1 2 3\narrow beta 1 3\narrow gamma 1 2\n"
                   "embedding\n  image beta = 1*beta\n  image gamma = 1*gamma\n"
                   "end\n")
    code, out, _ = run_cli(["check", path, "--borel", str(sub),
                            "--format", "machine"])
    assert code == 1
    assert machine_dict(out)["dims.gl_dim"] == "3"
    assert out.endswith("duality.anti_automorphism = fail (a defining "
                        "relation does not map into the ideal)\n")


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


def test_gfd_witnessed_below_pd_T(tmp_path):
    # Ext^1(Delta(2), S(5)) != 0 and pd Delta(2) = 1 < pd T = 2: the scan
    # must still ask Delta(2) at degree 1
    path = tmp_path / "low_pd_witness.alg"
    path.write_text(LOW_PD_WITNESS)
    code, out, _ = run_cli(["gfd", str(path), "--module", "E(5)",
                            "--format", "machine"])
    assert code == 0
    assert machine_dict(out)["gfd.nabla_bar"] == "1"


def test_missing_file_is_input_error():
    code, _, err = run_cli(["analyze", "/nonexistent.alg"])
    assert code == 2
    assert "input error" in err


def test_unknown_module_is_input_error():
    code, _, err = run_cli(["gfd", fixture_path("a3line.alg"),
                            "--module", "Zorp"])
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("argv", [
    # at cap 0 the projective dimension of the tilting module is unknown
    ["gfd", fixture_path("a3line.alg"), "--module", "E(3)", "--cap", "0"],
    # at cap 2 gl.dim(borelA) = 4 is only known to be >= 2, so the
    # sandwich and sum-equality checks cannot be decided
    ["check", fixture_path("borelA.alg"), "--cap", "2"],
], ids=["gfd_cap0", "check_cap2"])
def test_inconclusive_exit_code_on_tiny_cap(argv):
    # a capped dimension must surface as "inconclusive", not pass/fail, and
    # no partial report is printed
    code, out, err = run_cli(argv)
    assert code == 3
    assert "inconclusive" in err
    assert out == ""


REV4 = """field GF 101
vertices 1 2 3 4
arrow a1 2 1
arrow a2 3 2
arrow a3 4 3
relation 1*a1.a2
relation 1*a2.a3
"""


def test_gfd_delta_bar_names_a_capped_inj_t(tmp_path):
    # on a quasi-hereditary algebra the DeltaBar scan is bounded by inj T;
    # here pd T = 0 and inj T = 3, so cap 1 caps inj T, not pd T
    path = tmp_path / "rev4.alg"
    path.write_text(REV4)
    code, out, err = run_cli(["gfd", str(path), "--module", "E(1)",
                              "--cap", "1"])
    assert code == 3 and out == ""
    assert err == ("inconclusive: injective dimension of T capped at 1; "
                   "raise the cap\n")


def test_negative_cap_is_an_input_error():
    code, out, err = run_cli(["analyze", fixture_path("point.alg"),
                              "--cap", "-1"])
    assert code == 2
    assert "input error" in err and "--cap" in err
    assert out == ""


def test_free_loops_are_an_input_error(tmp_path, monkeypatch):
    # k<x,y> has 2^d paths of length d: refused without sweeping to the cap
    monkeypatch.setattr(quiver, "_sweep", _raising(AssertionError))
    path = tmp_path / "free.alg"
    path.write_text("field Q\nvertices 1\narrow x 1 1\narrow y 1 1\n")
    code, out, err = run_cli(["analyze", str(path)])
    assert code == 2 and out == ""
    assert "still alive" in err


def test_text_format_has_section_headers():
    code, out, _ = run_cli(["analyze", fixture_path("a2.alg")])
    assert code == 0
    assert "[algebra]" in out and "[class]" in out and "[dims]" in out


def test_non_terminating_is_inconclusive(monkeypatch):
    def fail(*args, **kwargs):
        raise NonTerminating("extension budget exhausted")

    monkeypatch.setattr(reps, "decompose_with_inclusions", fail)
    code, _, err = run_cli(["analyze", fixture_path("a3line.alg")])
    assert code == 3
    assert "inconclusive" in err


def test_undecided_decomposition_is_inconclusive(monkeypatch):
    def fail(*args, **kwargs):
        raise UndecidedDecomposition("End(M) not shown local")

    monkeypatch.setattr(reps, "decompose_with_inclusions", fail)
    code, out, err = run_cli(["analyze", fixture_path("a3line.alg")])
    assert code == 3
    assert "inconclusive" in err and out == ""


def _raising(error):
    def fail(*args, **kwargs):
        raise error(error.__name__)
    return fail


@pytest.mark.parametrize("error,expected", [
    (UndecidedDecomposition, 3), (NotAntiAutomorphism, 1)],
    ids=["undecided", "not_anti_automorphism"])
def test_only_definite_duality_errors_fail_the_check(monkeypatch, error,
                                                     expected):
    # the duality check reaches decompositions through is_isomorphic: an
    # undecided one is inconclusive, not a failed anti_automorphism check
    monkeypatch.setattr(borel, "duality_check", _raising(error))
    code, out, err = run_cli(["check", fixture_path("borelA.alg"),
                              "--borel", fixture_path("borelB.alg"),
                              "--format", "machine"])
    assert code == expected
    if expected == 3:
        assert "inconclusive" in err and out == ""
    else:
        assert machine_dict(out)["duality.anti_automorphism"].startswith("fail")


@pytest.mark.parametrize("error,expected", [
    (UndecidedDecomposition, 3), (NotStratified, 0)],
    ids=["undecided", "not_stratified"])
def test_only_definite_delta_bar_errors_read_undefined(monkeypatch, error,
                                                       expected):
    # delta_bar builds the opposite algebra's tilting module, which
    # decomposes modules: an undecided one is inconclusive, not "undefined"
    monkeypatch.setattr(tilting, "gfd_delta_bar", _raising(error))
    code, out, err = run_cli(["gfd", fixture_path("a3line.alg"),
                              "--module", "E(3)", "--format", "machine"])
    assert code == expected
    if expected == 3:
        assert "inconclusive" in err and out == ""
    else:
        assert machine_dict(out)["gfd.delta_bar"].startswith("undefined")


@pytest.mark.parametrize("text,fragment", [
    # before, the map for b was dropped and M read as the module with a = 0
    ("module M\n dims 1 1\n map b 1\nend\n", "unknown arrow 'b'"),
    ("module M\n dims 1 1\n map a 1\n map a 0\nend\n", "second map"),
    ("module M\n dims 1 -1\nend\n", "negative"),
], ids=["unknown_arrow", "second_map", "negative_dims"])
def test_bad_module_blocks_are_input_errors(tmp_path, text, fragment):
    path = tmp_path / "m.alg"
    path.write_text("field Q\nvertices 1 2\narrow a 1 2\n" + text)
    code, out, err = run_cli(["gfd", str(path), "--module", "M"])
    assert code == 2
    assert "input error" in err and fragment in err and out == ""


@pytest.mark.parametrize("text,fragment", [
    ("field Q\nvertices 1 2 3\narrow a 1 2\narrow b 2 3\n"
     "relation 1/2*b.a\nfield GF 5\n", "second `field` line"),
    ("field Q\nvertices 1 2\nvertices 2 1\n", "second `vertices` line"),
    ("field Q\nvertices 1 2\narrow a 1 2\narrow b 1 2\narrow c 1 2\n"
     "duality a=b a=c\n", "duality pairs arrow 'a'"),
], ids=["second_field", "second_vertices", "duality_remap"])
def test_repeated_directives_are_input_errors(tmp_path, text, fragment):
    path = tmp_path / "r.alg"
    path.write_text(text)
    code, out, err = run_cli(["analyze", str(path)])
    assert code == 2
    assert "input error" in err and fragment in err and out == ""


def test_large_prime_is_an_input_error(tmp_path):
    path = tmp_path / "big.alg"
    path.write_text("field GF 2305843009213693951\nvertices 1\n")
    code, out, err = run_cli(["analyze", str(path)])
    assert code == 2
    assert "input error" in err and "2^16" in err and out == ""


def test_missing_tilting_certificate_is_an_error(monkeypatch):
    # certificates are constructed, not searched for under a budget, so a
    # tilting summand without one is a definite failure, not "inconclusive"
    construct = strat.filtration_certificate

    def no_tilting_certificate(m, family):
        return None if m.label.startswith("T(") else construct(m, family)

    monkeypatch.setattr(strat, "filtration_certificate", no_tilting_certificate)
    code, _, err = run_cli(["analyze", fixture_path("a3line.alg")])
    assert code == 2
    assert "no filtration certificate" in err


GUARD = """
import contextlib, io, os, sys
import stratakit
from stratakit.cli import main
fixtures = sys.argv[1]
runs = [[cmd, os.path.join(fixtures, name)] for name in sorted(os.listdir(fixtures))
        if name.endswith(".alg") for cmd in ("analyze", "check")]
runs.append(["check", os.path.join(fixtures, "borelA.alg"),
             "--borel", os.path.join(fixtures, "borelB.alg")])
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
a = stratakit.parse("field Q\\nvertices 1 2\\n").build()
assert len(stratakit.decompose(stratakit.regular_module(a))) == 2
print(len(runs), "sympy" in sys.modules)
"""


def test_no_run_imports_sympy():
    # polynomial roots are found in k by the package itself
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-c", GUARD, fixture_path("")],
                          capture_output=True, text=True, env=env, check=True)
    assert done.stdout.split() == ["15", "False"]


def test_check_aus6_stays_small(monkeypatch, tmp_path):
    # a scale guard that counts instead of timing.  On the Auslander algebra
    # of k[x]/(x^6), T = ⊕ T(j) and A are resolved and Hom-solved summand by
    # summand, so the largest Hom system is End(T(1)) for T(1) = P(1) =
    # (6, 5, 4, 3, 2, 1): sum_j j^2 = 91 unknowns.  Solved whole, T ⊕ A took
    # 1176
    n = 6
    path = tmp_path / "aus6.alg"
    path.write_text(auslander_text(n))
    unknowns = []
    real = reps._hom_system
    monkeypatch.setattr(reps, "_hom_system", lambda m, k: (
        unknowns.append(sum(x * y for x, y in zip(m.dims, k.dims)))
        or real(m, k)))
    code, out, _ = run_cli(["check", str(path), "--format", "machine"])
    assert code == 0
    got = machine_dict(out)
    assert (got["dims.gl_dim"], got["dims.pd_T"], got["dims.inj_T"]) == (
        "2", "1", "1")
    # vertices are declared n, ..., 1, and T(j) = (n-j+1, n-j, ..., 1, 0, ...)
    for j in range(1, n + 1):
        assert got[f"tilting.T({j})"] == " ".join(
            str(max(n - j + 1 - k, 0)) for k in range(n))
    assert max(unknowns) <= 91


def test_check_aus5_composes_once_per_radical_product(monkeypatch, tmp_path):
    # a scale guard that counts compositions.  On the Auslander algebra of
    # k[x]/(x^5), `check` composes 465 times: 344 products of radical maps
    # of End(T), reduced only until they span each rad(T(s), T(t)); 61
    # paths of the Ringel dual's relation walk; 30 arrows of End(T) after
    # Hom(M, T) in the add(T)-approximations; 20 in the cocycle classes of
    # the universal extensions; 10 embeddings of Delta(λ) into T(λ).
    # Composing the whole radical into rad^2 and into every approximation
    # took 566 + 259 in place of 344 + 30, 916 in all
    path = tmp_path / "aus5.alg"
    path.write_text(auslander_text(5))
    calls = []
    real = reps.compose

    def counting(g, f):
        calls.append(None)
        return real(g, f)

    for module in (reps, homology, tilting):
        monkeypatch.setattr(module, "compose", counting)
    code, _, _ = run_cli(["check", str(path), "--format", "machine"])
    assert code == 0
    assert len(calls) == 465
