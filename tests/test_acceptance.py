"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Every comparison is an exact integer or structural check; no tolerances.
The criteria run off the bundled fixture corpus only.
"""

import glob
import io
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from stratakit import homology, reps, strat, tilting
from stratakit.borel import Embedding, check_embedding, induce
from stratakit.cli import main
from stratakit.homology import LowerBound, ext_dim, global_dim, inj_dim, proj_dim
from stratakit.parser import parse, serialize
from stratakit.reps import (dual_to_opposite, is_isomorphic, projective,
                            regular_module, simple)

from conftest import FIXTURES, algebra, algebra_file, fixture_path, is_basic

CORPUS = ["point", "semisimple2", "a2", "a3line", "loop2", "borelA", "borelB"]


def announce(capsys, num, ok, summary):
    with capsys.disabled():
        print(f"acceptance {num:2d}: {'PASS' if ok else 'FAIL'} — {summary}")
    assert ok, summary


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def machine_dict(text):
    return {k: v for line in text.splitlines()
            for k, _, v in [line.partition(" = ")]}


def _stratified_corpus():
    return [n for n in CORPUS
            if strat.classify(algebra(n)).standardly_stratified]


def test_criterion_1_borel_pair_reproduction(capsys):
    _, out_b, _ = run_cli(["analyze", fixture_path("borelB.alg"),
                           "--format", "machine"])
    _, out_a, _ = run_cli(["analyze", fixture_path("borelA.alg"),
                           "--format", "machine"])
    code, out_c, _ = run_cli(["check", fixture_path("borelA.alg"),
                              "--borel", fixture_path("borelB.alg"),
                              "--format", "machine"])
    gb = machine_dict(out_b)["dims.gl_dim"]
    ga = machine_dict(out_a)["dims.gl_dim"]
    doubling = machine_dict(out_c)["borel.gldim_doubling"]
    ok = (gb == "2" and ga == "4" and code == 0
          and doubling.startswith("pass") and "4 <= 2*2" in doubling
          and "equality" in doubling)
    announce(capsys, 1, ok,
             f"gl.dim(B)={gb}, gl.dim(A)={ga}, doubling '{doubling}'")


def test_criterion_2_small_tilting_example(capsys):
    a = algebra("a3line")
    cls = strat.classify(a)
    tilt = tilting.characteristic_tilting(a)
    basic = is_basic(tilt) and len(tilt.summands) == 3
    has_simple = any(is_isomorphic(t, simple(a, 0)) for t in tilt.summands)
    gl = int(global_dim(a))
    pd_t, inj_t = int(proj_dim(tilt.total)), int(inj_dim(tilt.total))
    strict = gl < pd_t + inj_t
    ok = cls.quasi_hereditary and basic and has_simple and gl == 1 and strict
    announce(capsys, 2, ok,
             f"a3line quasi-hereditary, 3 tilting summands incl. E(1), "
             f"gl.dim {gl} < pd T + inj T = {pd_t}+{inj_t}")


def test_criterion_3_properly_stratified_T_equals_S(capsys):
    a = algebra("loop2")
    cls = strat.classify(a)
    tilt = tilting.characteristic_tilting(a)
    cot = tilting.characteristic_cotilting(a)
    reg = regular_module(a)
    t_is_s_is_a = (is_isomorphic(tilt.total, cot.total)
                   and is_isomorphic(tilt.total, reg))
    bound = int(proj_dim(tilt.total)) + int(inj_dim(cot.total))
    finite_ok = True
    for m in tilting.probe_modules(a):
        pd = proj_dim(m)
        if not isinstance(pd, LowerBound) and int(pd) > bound:
            finite_ok = False
    ok = (cls.properly_stratified and not cls.quasi_hereditary
          and t_is_s_is_a and bound == 0 and finite_ok)
    announce(capsys, 3, ok,
             f"loop2 {cls.kind()}, T = S = regular module, finitistic "
             f"bound pd T + inj S = {bound}")


def test_criterion_4_four_way_equality_suite(capsys):
    rows = []
    ok = True
    for name in _stratified_corpus():
        g = tilting.gfd_algebra(algebra(name), homology.DEFAULT_CAP)
        same = (g.pd_t == g.gfd_regular == g.tcodim_regular
                and g.probe_sup <= g.pd_t)
        ok = ok and same
        rows.append(f"{name}:{g.pd_t}/{g.gfd_regular}/{g.tcodim_regular}"
                    f"/{g.probe_sup}")
    announce(capsys, 4, ok,
             "pd T / gfd(A) / T-codim(A) / probe sup — " + ", ".join(rows))


def test_criterion_5_certificate_vs_ext_criterion(capsys):
    checked = 0
    ok = True
    for name in _stratified_corpus():
        a = algebra(name)
        deltas = strat.standard_family(a)
        nbars = strat.proper_costandard_family(a)
        for m in tilting.probe_modules(a):
            if m.total_dim > 8:
                continue
            by_cert = strat.filtration_certificate(m, deltas) is not None
            by_ext = strat.in_F_delta_by_ext(m)
            ok = ok and by_cert == by_ext
            by_cert = strat.filtration_certificate(m, nbars) is not None
            by_ext = strat.in_F_nabla_bar_by_ext(m)
            ok = ok and by_cert == by_ext
            checked += 1
    announce(capsys, 5, ok and checked > 0,
             f"constructed certificates agree with Ext criterion on {checked} "
             "probe modules, both families")


def test_criterion_6_ext_balance(capsys):
    checked = 0
    ok = True
    for name in CORPUS:
        a = algebra(name)
        indec = [m for m in tilting.probe_modules(a)
                 if len(reps.decompose(m)) == 1]
        for m in indec:
            dm = dual_to_opposite(m)
            for n in indec:
                dn = dual_to_opposite(n)
                for i in range(5):
                    lhs = ext_dim(i, m, n, cap=8)
                    rhs = ext_dim(i, dn, dm, cap=8)
                    ok = ok and lhs == rhs
                    checked += 1
    announce(capsys, 6, ok and checked > 0,
             f"Ext^i(M, N) = Ext^i(DN, DM) over the opposite algebra for "
             f"{checked} (pair, degree) combinations")


def test_criterion_7_ext_top_equals_gfd(capsys):
    checked = 0
    ok = True
    for name in _stratified_corpus():
        a = algebra(name)
        tilt = tilting.characteristic_tilting(a)
        pd_t = int(proj_dim(tilt.total))
        for m in tilting.probe_modules(a):
            topdeg = 0
            for i in range(pd_t + 1):
                if ext_dim(i, tilt.total, m) != 0:
                    topdeg = i
            ok = ok and topdeg == tilting.gfd_nabla_bar(m)
            checked += 1
    announce(capsys, 7, ok and checked > 0,
             f"max nonvanishing Ext(T, X) degree equals the filtration "
             f"dimension of X for {checked} probes")


def test_criterion_8_ringel_double_dual(capsys):
    ok = True
    rows = []
    for name in CORPUS:
        a = algebra(name)
        if not strat.classify(a).quasi_hereditary:
            continue
        double = tilting.ringel_dual(tilting.ringel_dual(a))
        pdims = sorted(projective(a, i).dims for i in range(a.n))
        pdims2 = sorted(projective(double, i).dims for i in range(double.n))
        same = double.n == a.n and pdims == pdims2
        ok = ok and same
        rows.append(f"{name}:{'ok' if same else 'MISMATCH'}")
    announce(capsys, 8, ok,
             "double Ringel dual matches vertex count and projective "
             "dimension vectors — " + ", ".join(rows))


def test_criterion_9_induction_suite(capsys):
    b, a = algebra("borelB"), algebra("borelA")
    images = {name: [(c, tuple(p)) for (c, p) in terms]
              for name, terms in algebra_file("borelB").embedding.items()}
    e = check_embedding(Embedding(b, a, images))
    simples_ok = all(
        is_isomorphic(induce(e, simple(b, i)), strat.standard(a, i))
        for i in range(b.n))
    bounds_ok = True
    checked = 0
    for m in tilting.probe_modules(b):
        pdb = proj_dim(m)
        pda = proj_dim(induce(e, m))
        if isinstance(pdb, LowerBound):
            continue
        bounds_ok = bounds_ok and not isinstance(pda, LowerBound) \
            and int(pda) <= int(pdb)
        checked += 1
    ok = simples_ok and bounds_ok and checked > 0
    announce(capsys, 9, ok,
             f"induced simples are the standard modules; proj dim never "
             f"raised across {checked} probe modules")


def test_criterion_10_determinism_and_round_trip(capsys):
    byte_identical = True
    for argv in (["analyze", fixture_path("a3line.alg"), "--format", "machine"],
                 ["check", fixture_path("borelA.alg"),
                  "--borel", fixture_path("borelB.alg"),
                  "--format", "machine"],
                 ["gfd", fixture_path("loop2.alg"), "--module", "E(1)",
                  "--format", "machine"]):
        c1, o1, _ = run_cli(argv)
        c2, o2, _ = run_cli(argv)
        byte_identical = byte_identical and c1 == c2 and o1 == o2

    round_trip = True
    paths = sorted(glob.glob(os.path.join(FIXTURES, "*.alg")) +
                   glob.glob(os.path.join(FIXTURES, "*.emb")))
    for path in paths:
        with open(path) as fh:
            f = parse(fh.read())
        round_trip = round_trip and vars(f) == vars(parse(serialize(f)))
    ok = byte_identical and round_trip and len(paths) >= 8
    announce(capsys, 10, ok,
             f"machine reports byte-identical across runs; "
             f"{len(paths)} fixture files survive serialize/reparse")
