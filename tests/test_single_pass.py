"""Each module is certified and probed once.

NablaBar and Nabla certificates go straight to the opposite algebra, and the
probe corpus takes the radical and top of each base structure once.  The
reference_* functions are the earlier routes and the Ext scan, kept
verbatim; the tests check that the current routes give the same answers on
the fixtures, the certificate corpus over Q and GF(2), the Auslander
algebras of k[x]/(x^n), n = 3, 4, 5, and an algebra whose only Ext witness
has projective dimension below pd T, and that the work they skip is not
done.
"""

import contextlib
import io
import sys
from collections import Counter

import pytest

from stratakit import homology, reps, strat, tilting
from stratakit.cli import main
from stratakit.parser import parse

from conftest import LOW_PD_WITNESS, algebra, auslander
from test_certificate_corpus import CORPUS, PINNED, corpus_algebra


def reference_filtration_certificate(m, family):
    """The route that tried every single module over its own algebra first."""
    cert = strat._trace_certificate(m, family)
    if cert is None:
        cert = strat._trace_certificate(reps.dual(m),
                                        [reps.dual(f) for f in family])
        return None if cert is None else strat.dual_certificate(m, cert)
    # the memoised certificate may name an equal module built apart
    return (cert if cert is None or cert.module is m
            else strat.FiltrationCertificate(m, cert.layers,
                                             cert.factor_indices))


def reference_probe_modules(a):
    """The probe corpus that took the radical and top of every base module."""
    deltas, nablas = strat.standard_family(a), strat.costandard_family(a)
    base = []
    for i in range(a.n):
        base += [reps.simple(a, i), reps.projective(a, i), reps.injective(a, i),
                 deltas[i], nablas[i]]
    out = []
    seen = set()
    for m in base:
        rad_rep, _ = reps.radical_submodule(m).as_rep()
        for cand in (m, rad_rep, reps.top(m)):
            if cand.total_dim == 0:
                continue
            if cand.key() in seen:
                continue
            if any(reps.is_isomorphic(cand, other) for other in out):
                seen.add(cand.key())
                continue
            seen.add(cand.key())
            out.append(cand)
    return tuple(out)


def reference_ext_top(sources, m, bound, cap):
    """The Ext scan that asks every summand pair at every degree."""
    pairs = [(x, y) for s in sources for x in reps.summands(s)
             for y in reps.summands(m)]
    for d in range(bound, 0, -1):
        if any(homology.ext_dim(d, x, y, cap) != 0 for x, y in pairs):
            return d
    return 0


FIXTURES = ["point", "semisimple2", "a2", "a3line", "loop2", "borelA",
            "borelB"]
ALGEBRAS = ([("fixture", name) for name in FIXTURES]
            + [("corpus", key) for key in CORPUS]
            + [("auslander", n) for n in (3, 4, 5)]
            + [("text", "low_pd_witness")])


def _build(kind, name):
    if kind == "fixture":
        return algebra(name)
    if kind == "corpus":
        return corpus_algebra(*name)
    if kind == "text":
        return parse(LOW_PD_WITNESS).build()
    return auslander(name)


def _keys(modules):
    return [m.key() for m in modules]


@pytest.mark.parametrize("kind,name", ALGEBRAS)
def test_probe_modules_match_the_reference(kind, name):
    a = _build(kind, name)
    assert _keys(tilting.probe_modules(a)) == _keys(reference_probe_modules(a))


@pytest.mark.parametrize("kind,name", [
    (kind, name) for kind, name in ALGEBRAS
    if kind != "corpus" or PINNED[name[0]][0] != "not stratified"])
def test_ext_top_matches_the_reference(kind, name):
    # every bound up to pd T + 1, against the standard modules, T and the
    # simples (on loop2 the simple's resolution never completes), and
    # gfd_delta_bar's scan over the opposite algebra: Delta^op against
    # D(m), bounded by inj T
    a = _build(kind, name)
    cap = homology.DEFAULT_CAP
    pd_t = tilting._tilting_pd(a, cap)
    tilt = tilting.characteristic_tilting(a)
    sources = (strat.standard_family(a), [tilt.total],
               [reps.simple(a, i) for i in range(a.n)])
    probes = tilting.probe_modules(a)
    scans = [(family, m, bound) for m in probes for family in sources
             for bound in range(pd_t + 2)]
    inj_t = homology.inj_dim(tilt.total, cap)
    if not isinstance(inj_t, homology.LowerBound):
        op_deltas = strat.standard_family(a.opposite())
        scans += [(op_deltas, reps.dual(m), inj_t) for m in probes]
    for family, m, bound in scans:
        assert (homology.ext_top(family, m, bound, cap)
                == reference_ext_top(family, m, bound, cap))


@pytest.mark.parametrize("kind,name", ALGEBRAS)
def test_costandard_certificates_match_the_reference(kind, name):
    a = _build(kind, name)
    cls = strat.classify(a)
    modules = list(tilting.probe_modules(a))
    if cls.standardly_stratified:
        modules += tilting.characteristic_tilting(a).summands
    if cls.properly_stratified:
        modules += tilting.characteristic_cotilting(a).summands
    for family in (strat.costandard_family(a),
                   strat.proper_costandard_family(a)):
        for m in modules:
            cert = strat.filtration_certificate(m, family)
            ref = reference_filtration_certificate(m, family)
            assert (cert is None) == (ref is None)
            assert cert is None or cert.verify(family)


# -- work-count guards on linear A_n with rad^2 = 0 over GF(101) ----------------

def linear_rad2(n):
    """Linear A_n, arrows i -> i + 1, with rad^2 = 0 over GF(101)."""
    return "\n".join(
        [f"name A{n}_rad2", "field GF 101",
         "vertices " + " ".join(map(str, range(1, n + 1)))]
        + [f"arrow a{i} {i} {i + 1}" for i in range(1, n)]
        + [f"relation 1*a{i + 1}.a{i}" for i in range(1, n - 1)]) + "\n"


A6_RAD2 = linear_rad2(6)


def _is_family(family, builder, a):
    return _keys(family) == _keys(builder(a))


def test_check_tries_no_costandard_trace_over_the_algebra(monkeypatch,
                                                          tmp_path):
    # every trace filtration against Nabla or NablaBar is of the dual module
    # over the opposite algebra, against Delta^op or DeltaBar^op
    calls = []
    real = strat._trace_certificate
    monkeypatch.setattr(strat, "_trace_certificate",
                        lambda m, family: calls.append((m, family))
                        or real(m, family))
    path = tmp_path / "A6_rad2.alg"
    path.write_text(A6_RAD2)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check", str(path), "--format", "machine"]) == 0
    costandard, standard = Counter(), Counter()
    for m, family in calls:
        a = m.algebra
        name = a.spec.name
        if any(_is_family(family, b, a) for b in (
                strat.costandard_family, strat.proper_costandard_family)):
            costandard[name] += 1
        if any(_is_family(family, b, a) for b in (
                strat.standard_family, strat.proper_standard_family)):
            standard[name] += 1
    assert costandard == Counter()
    assert standard["A6_rad2"] > 0 and standard["A6_rad2_op"] > 0


def test_probe_modules_takes_one_radical_per_base_structure(monkeypatch):
    # S(i), P(i), I(i), Delta(i) = S(i) and Nabla(i) = I(i): 30 base modules,
    # 11 structures.  P(6) = S(6), I(1) = S(1), and I(i + 1) = P(i) is the
    # uniserial module with top at i and socle at i + 1
    a = parse(A6_RAD2).build()
    radicals = []
    real = reps.radical_submodule
    monkeypatch.setattr(reps, "radical_submodule", lambda m: (
        radicals.append(m) if sys._getframe(1).f_code.co_name
        == "probe_modules" else None) or real(m))
    tilting.probe_modules(a)
    base = {m.key() for i in range(a.n) for m in (
        reps.simple(a, i), reps.projective(a, i), reps.injective(a, i),
        strat.standard(a, i), strat.costandard(a, i))}
    assert len(base) == 11
    assert sorted(_keys(radicals)) == sorted(base)


@pytest.mark.parametrize("n", range(3, 9))
def test_gfd_scans_ask_no_degree_above_the_source_pd(monkeypatch, n):
    # Ext^d(x, -) = 0 above pd x, so the scans inside gfd_algebra never ask
    # for such a degree.  Here Delta(i) = S(i) and Omega S(i) = S(i + 1), so
    # pd Delta(i) = n - i and pd T = n - 1: a scan that takes every source
    # from pd T asks some Ext^d(Delta(i), y) with d > n - i
    a = parse(linear_rad2(n)).build()
    asked = []
    real = homology.ext_dim

    def spy(d, x, y, cap=homology.DEFAULT_CAP):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "gfd_nabla_bar":
            frame = frame.f_back
        if frame is not None:
            asked.append((d, x))
        return real(d, x, y, cap)

    monkeypatch.setattr(homology, "ext_dim", spy)
    tilting.gfd_algebra(a, homology.DEFAULT_CAP)
    monkeypatch.undo()
    assert asked
    assert all(d <= homology.proj_dim(x) for d, x in asked)
