"""Characteristic tilting modules, filtration dimensions, Ringel duals."""

import pytest

from stratakit import homology, reps, strat, tilting
from stratakit.errors import NotStratified, Truncated
from stratakit.homology import global_dim, inj_dim, proj_dim
from stratakit.parser import parse_file
from stratakit.reps import is_isomorphic, regular_module, simple
from stratakit.tilting import (characteristic_cotilting, characteristic_tilting,
                               gfd_algebra, gfd_delta_bar, gfd_nabla_bar,
                               probe_modules, ringel_dual, t_codim,
                               verify_section2)

from conftest import algebra, fixture_path
from test_cli import run_cli

STRATIFIED = ["point", "semisimple2", "a2", "a3line", "loop2", "borelA",
              "borelB"]


def test_a3line_tilting_summands():
    a = algebra("a3line")
    tilt = characteristic_tilting(a)
    assert tilt.is_basic() and tilt.verify()
    dims = sorted(t.dims for t in tilt.summands)
    assert dims == [(1, 0, 0), (1, 1, 0), (1, 1, 1)]
    assert any(is_isomorphic(t, simple(a, 0)) for t in tilt.summands)


def test_a3line_strict_upper_bound():
    a = algebra("a3line")
    tilt = characteristic_tilting(a)
    pd_t, inj_t = int(proj_dim(tilt.total)), int(inj_dim(tilt.total))
    gl = int(global_dim(a))
    assert (pd_t, inj_t, gl) == (1, 1, 1)
    assert gl < pd_t + inj_t        # the sandwich bound can be strict


def test_a2_equality_case():
    a = algebra("a2")
    tilt = characteristic_tilting(a)
    pd_t, inj_t = int(proj_dim(tilt.total)), int(inj_dim(tilt.total))
    gl = int(global_dim(a))
    assert (pd_t, inj_t, gl) == (1, 0, 1)
    assert gl == pd_t + inj_t       # ... and it can be an equality


def test_borelA_tilting():
    a = algebra("borelA")
    tilt = characteristic_tilting(a)
    assert tilt.verify()
    assert sorted(t.dims for t in tilt.summands) == \
        [(1, 0, 0), (2, 1, 0), (2, 2, 1)]
    assert int(proj_dim(tilt.total)) == 2
    assert int(inj_dim(tilt.total)) == 2
    assert int(global_dim(a)) == 4  # the sum bound is attained here


def test_loop2_tilting_is_regular_module():
    a = algebra("loop2")
    tilt = characteristic_tilting(a)
    assert is_isomorphic(tilt.total, regular_module(a))
    cot = characteristic_cotilting(a)
    assert is_isomorphic(cot.total, tilt.total)
    g = gfd_algebra(a)
    assert (g.pd_t, g.gfd_regular, g.tcodim_regular, g.probe_sup) == (0, 0, 0, 0)


@pytest.mark.parametrize("name", STRATIFIED)
def test_four_way_equality(name):
    g = gfd_algebra(algebra(name))
    assert g.consistent
    assert g.pd_t == g.gfd_regular == g.tcodim_regular


def test_a3line_gfd_of_modules():
    a = algebra("a3line")
    e3 = simple(a, 2)
    assert gfd_nabla_bar(e3) == 1
    assert gfd_delta_bar(e3) == 0
    reg = regular_module(a)
    assert gfd_nabla_bar(reg) == 1
    assert t_codim(reg) == 1


def test_t_codim_zero_iff_in_add_T():
    a = algebra("a3line")
    tilt = characteristic_tilting(a)
    for t in tilt.summands:
        assert t_codim(t, tilt) == 0
    assert t_codim(reps.projective(a, 0), tilt) == 1


def test_tilting_is_ext_orthogonal_family():
    a = algebra("borelA")
    tilt = characteristic_tilting(a)
    pd_t = int(proj_dim(tilt.total))
    for i in range(1, pd_t + 1):
        assert homology.ext_dim(i, tilt.total, tilt.total) == 0


def test_ringel_dual_a3line():
    a = algebra("a3line")
    dual = ringel_dual(a)
    assert dual.dim == 5
    assert dual.n == 3
    assert strat.classify(dual).standardly_stratified


def test_ringel_dual_loop2_is_self():
    a = algebra("loop2")
    dual = ringel_dual(a)
    assert dual.dim == 2
    assert len(dual.arrows) == 1
    # self-dual: one loop with square zero over the same field
    s, t = dual.arrows[0][1], dual.arrows[0][2]
    assert s == t
    assert dual.field == a.field


@pytest.mark.parametrize("name", ["point", "semisimple2", "a2", "a3line",
                                  "borelA", "borelB"])
def test_verify_section2_all_pass(name):
    results = verify_section2(algebra(name))
    failures = [r for r in results if r.passed is False]
    assert not failures, failures
    assert any(r.name == "gfd_four_way" for r in results)


def test_verify_section2_loop2():
    results = verify_section2(algebra("loop2"))
    failures = [r for r in results if r.passed is False]
    assert not failures, failures
    by_name = {r.name: r for r in results}
    assert "S_iso_T" in by_name and "findim_bound" in by_name
    assert "gldim_sandwich" not in by_name      # not quasi-hereditary


def test_cotilting_dual_of_tilting():
    a = algebra("a3line")
    cot = characteristic_cotilting(a)
    tilt = characteristic_tilting(a)
    assert is_isomorphic(cot.total, tilt.total)   # quasi-hereditary: S = T here


def test_probe_modules_are_nonzero_and_distinct():
    a = algebra("borelA")
    probes = probe_modules(a)
    assert all(m.total_dim > 0 for m in probes)
    for i in range(len(probes)):
        for j in range(i + 1, len(probes)):
            assert not is_isomorphic(probes[i], probes[j])


def _fresh(name):
    return parse_file(fixture_path(name + ".alg")).build()


def test_check_computes_t_codim_and_probes_once(monkeypatch):
    t_codims, probe_lists = [], []
    real_t_codim, real_probes = tilting.t_codim, tilting.probe_modules

    def counting_t_codim(*args, **kwargs):
        t_codims.append(args)
        return real_t_codim(*args, **kwargs)

    def recording_probes(a):
        probe_lists.append(real_probes(a))
        return probe_lists[-1]

    monkeypatch.setattr(tilting, "t_codim", counting_t_codim)
    monkeypatch.setattr(tilting, "probe_modules", recording_probes)
    code, _, _ = run_cli(["check", fixture_path("borelA.alg"),
                          "--format", "machine"])
    assert code == 0
    assert len(t_codims) == 1
    assert probe_lists and all(p is probe_lists[0] for p in probe_lists)


def test_gfd_report_is_cached_per_cap():
    a = _fresh("a3line")
    report = gfd_algebra(a, 20)
    assert gfd_algebra(a, 20) is report
    assert report.consistent


def test_gfd_report_small_cap_still_truncates():
    with pytest.raises(Truncated):
        gfd_algebra(_fresh("a3line"), 0)
