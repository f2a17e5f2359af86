"""Characteristic tilting modules, filtration dimensions, Ringel duals."""

import copy
import sys

import pytest

from stratakit import cli, homology, linalg, reps, strat, tilting
from stratakit.errors import (NoEmbedding, NotStratified, PresentationFailed,
                              Truncated)
from stratakit.homology import global_dim, inj_dim, proj_dim
from stratakit.linalg import Matrix
from stratakit.parser import parse, parse_file
from stratakit.quiver import QuiverSpec, build_algebra
from stratakit.reps import (compose, injective, is_isomorphic,
                            regular_module, simple)
from stratakit.tilting import (characteristic_cotilting, characteristic_tilting,
                               gfd_algebra, gfd_delta_bar, gfd_nabla_bar,
                               probe_modules, ringel_dual, t_codim, t_dim,
                               verify_section2)

from conftest import algebra, auslander, fixture_path, is_module_map
from test_certificate_corpus import (CORPUS, PINNED, TILTING_DIMS,
                                     corpus_algebra, corpus_text)
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


def _count_certificates(monkeypatch):
    calls = []
    real = strat.filtration_certificate

    def counting(m, family):
        calls.append(m)
        return real(m, family)

    monkeypatch.setattr(strat, "filtration_certificate", counting)
    return calls


@pytest.mark.parametrize("name", STRATIFIED)
def test_two_certificates_per_tilting_summand(name, monkeypatch):
    # T(λ)'s Delta certificate also certifies its cokernel M(λ): no third
    # search per summand
    a = _fresh(name)
    strat.classify(a)
    calls = _count_certificates(monkeypatch)
    tilt = characteristic_tilting(a)
    assert len(calls) == 2 * a.n
    assert all(m in tilt.summands for m in calls)


@pytest.mark.parametrize("name", ["a3line", "borelA"])
def test_verify_rejects_a_swapped_bottom_layer(name):
    # the bottom layer of T(λ)'s Delta certificate must be the image of the
    # embedded Delta(λ): swap in the image of another standard module
    a = _fresh(name)
    tilt = characteristic_tilting(a)
    assert tilt.verify()
    deltas = strat.standard_family(a)
    swapped = []
    for lam, t in enumerate(tilt.summands):
        bottom = reps.image(tilt.delta_embeddings[lam])
        for nu in range(lam):
            for f in reps.hom_basis(deltas[nu], t):
                im = reps.image(f)
                if f.is_injective() and not im.contains(bottom):
                    swapped.append((lam, nu, im))
    assert swapped
    for lam, nu, im in swapped:
        cert = tilt.delta_certs[lam]
        bad = copy.copy(tilt)
        bad.delta_certs = list(tilt.delta_certs)
        bad.delta_certs[lam] = strat.FiltrationCertificate(
            cert.module, [cert.layers[0], im.bases] + cert.layers[2:],
            [nu] + cert.factor_indices[1:])
        assert not bad.verify()
    assert tilt.verify()


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
    g = gfd_algebra(a, homology.DEFAULT_CAP)
    assert (g.pd_t, g.gfd_regular, g.tcodim_regular, g.probe_sup) == (0, 0, 0, 0)


@pytest.mark.parametrize("name", STRATIFIED)
def test_four_way_equality(name):
    g = gfd_algebra(algebra(name), homology.DEFAULT_CAP)
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
        assert t_codim(t) == 0
    assert t_codim(reps.projective(a, 0)) == 1


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
    # quasi-hereditary: S = T here.  characteristic_cotilting reads that off
    # the theorem, so S is built the long way, as the dual of T^op
    a = _fresh("a3line")
    cot = tilting._cotilting_from_opposite(a)
    tilt = characteristic_tilting(a)
    assert is_isomorphic(cot.total, tilt.total)


@pytest.mark.parametrize("name", STRATIFIED)
def test_cotilting_certificates_verify(name):
    # every fixture is properly stratified; S's certificates are the duals
    # of those of the opposite algebra's tilting module
    a = algebra(name)
    cot = characteristic_cotilting(a)
    for s, nc, dc in zip(cot.summands, cot.nabla_certs, cot.dbar_certs):
        assert nc.module is s and dc.module is s
        assert nc.verify(strat.costandard_family(a))
        assert dc.verify(strat.proper_standard_family(a))


# the quasi-hereditary fixtures and corpus algebras
QUASI_HEREDITARY = ([name for name in STRATIFIED if name != "loop2"]
                    + [(key, field) for key, field in CORPUS
                       if PINNED[key][0] == "quasi-hereditary"])


@pytest.mark.parametrize("which", QUASI_HEREDITARY, ids=str)
def test_cotilting_is_tilting_on_quasi_hereditary_algebras(which):
    # DeltaBar = Delta and NablaBar = Nabla, so add(S) = add(T) and S(λ) is
    # T(λ) relabelled, certificates and all, with nothing built over the
    # opposite algebra.  The long route, the dual of T^op, agrees summand by
    # summand, and the certificates taken from T verify as S's
    a = (_fresh(which) if isinstance(which, str)
         else parse(corpus_text(*which)).build())
    cot, tilt = characteristic_cotilting(a), characteristic_tilting(a)
    assert tilting.s_iso_t(a)
    assert ("characteristic_tilting",) not in a.opposite().cache
    nablas, dbars = strat.costandard_family(a), strat.proper_standard_family(a)
    for lam, (s, t) in enumerate(zip(cot.summands, tilt.summands)):
        assert s is not t and s.key() == t.key()
        assert s.label == f"S({a.vertices[lam]})"
        nc, dc = cot.nabla_certs[lam], cot.dbar_certs[lam]
        assert nc.module is s and dc.module is s
        assert nc.verify(nablas) and dc.verify(dbars)
    long = tilting._cotilting_from_opposite(a)
    for s, t in zip(long.summands, tilt.summands):
        iso = reps.find_isomorphism(s, t)
        assert iso is not None and is_module_map(iso) and iso.is_isomorphism()


def _cli_algebra(monkeypatch, argv):
    """Run the CLI and return the algebra its report was about."""
    seen = []
    real = cli.cmd_analyze
    monkeypatch.setattr(cli, "cmd_analyze",
                        lambda args: seen.append(args) or real(args))
    code, _, _ = run_cli(argv + ["--format", "machine"])
    assert code == 0
    return seen[0].algebra


@pytest.mark.parametrize("argv", [
    ["check", "borelA", "--borel", "borelB"]] + [
    ["analyze", name] for name in STRATIFIED if name != "loop2"],
    ids=" ".join)
def test_quasi_hereditary_reports_build_no_opposite_tilting(monkeypatch,
                                                            argv):
    argv = [fixture_path(x + ".alg") if x in STRATIFIED else x for x in argv]
    a = _cli_algebra(monkeypatch, argv)
    assert ("characteristic_tilting",) not in a.opposite().cache


@pytest.mark.parametrize("which", QUASI_HEREDITARY, ids=str)
def test_gfd_delta_bar_matches_the_opposite_route(which):
    # the bound inj T of gfd_delta_bar is pd T^op, the bound of the NablaBar
    # scan of D(m) over the opposite algebra
    a = algebra(which) if isinstance(which, str) else corpus_algebra(*which)
    for m in probe_modules(a):
        assert gfd_delta_bar(m) == gfd_nabla_bar(reps.dual(m))


def test_gfd_delta_bar_builds_no_opposite_tilting(monkeypatch):
    # on a quasi-hereditary algebra pd T^op = inj T (gfd_delta_bar), so the
    # delta_bar line of gfd bounds its Ext scan by the algebra's own T
    seen = []
    real = tilting.gfd_delta_bar
    monkeypatch.setattr(tilting, "gfd_delta_bar",
                        lambda m, cap: seen.append(m) or real(m, cap))
    code, out, _ = run_cli(["gfd", fixture_path("a3line.alg"), "--module",
                            "E(3)", "--format", "machine"])
    assert code == 0 and "gfd.delta_bar = 0" in out
    a = seen[0].algebra
    assert ("characteristic_tilting",) in a.cache
    assert ("characteristic_tilting",) not in a.opposite().cache


@pytest.mark.parametrize("which", ["loop2"] + [
    (key, field) for key, field in CORPUS
    if PINNED[key][0] == "properly stratified"], ids=str)
def test_properly_stratified_cotilting_still_goes_through_the_opposite(
        monkeypatch, tmp_path, which):
    if isinstance(which, str):
        path = fixture_path(which + ".alg")
    else:
        path = tmp_path / "corpus.alg"
        path.write_text(corpus_text(*which))
    a = _cli_algebra(monkeypatch, ["analyze", str(path)])
    assert not strat.classify(a).quasi_hereditary
    assert ("characteristic_tilting",) in a.opposite().cache


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
    # t_codim(A) recurses into A's summands P(i); only top-level calls,
    # with no t_codim below them on the stack, count
    t_codims, probe_lists = [], []
    real_t_codim, real_probes = tilting.t_codim, tilting.probe_modules

    def counting_t_codim(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not real_t_codim.__code__:
            frame = frame.f_back
        if frame is None:
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


def test_one_report_leaves_one_gfd_entry():
    # gfd_algebra has no default cap, so a report and the verifier built on
    # it share one cache entry and cannot be cached under a second key
    a = _fresh("a3line")
    report = gfd_algebra(a, homology.DEFAULT_CAP)
    tilting.verify_section2(a)
    assert [key for key in a.cache if key[0] == "gfd_algebra"] == [
        ("gfd_algebra", homology.DEFAULT_CAP)]
    assert gfd_algebra(a, homology.DEFAULT_CAP) is report
    with pytest.raises(TypeError):
        gfd_algebra(a)


def test_gfd_report_small_cap_still_truncates():
    with pytest.raises(Truncated):
        gfd_algebra(_fresh("a3line"), 0)


def _in_add_t_by_decomposition(tilt, m):
    """Reference add(T) membership: every indecomposable summand of m is
    isomorphic to some T(λ)."""
    return all(any(is_isomorphic(part, t) for t in tilt.summands)
               for part, _ in reps.decompose(m))


@pytest.mark.parametrize("name", STRATIFIED)
def test_add_T_by_ext_agrees_with_decomposition(name):
    a = algebra(name)
    tilt = characteristic_tilting(a)
    modules = (list(probe_modules(a)) + list(tilt.summands)
               + [tilt.total, regular_module(a)])
    for m in modules:
        assert tilt.contains(m) == _in_add_t_by_decomposition(tilt, m), m
    assert all(tilt.contains(t) for t in tilt.summands)
    assert tilt.contains(tilt.total)


@pytest.mark.parametrize("name", STRATIFIED)
def test_t_codim_equals_gfd_on_F_delta(name):
    a = algebra(name)
    modules = [regular_module(a)] + [m for m in probe_modules(a)
                                     if strat.in_F_delta_by_ext(m)]
    for m in modules:
        assert t_codim(m) == gfd_nabla_bar(m), m


@pytest.mark.parametrize("name", ["point", "semisimple2", "a2", "a3line",
                                  "borelA", "borelB"])
def test_t_dim_of_injectives_equals_gfd_delta_bar(name):
    a = algebra(name)
    assert strat.classify(a).quasi_hereditary
    for i in range(a.n):
        m = injective(a, i)
        assert t_dim(m) == gfd_delta_bar(m), m


def test_t_codim_raises_without_an_admissible_map():
    # E(2) over a3line is not Delta-filtered, so no coresolution exists
    a = algebra("a3line")
    e2 = simple(a, 1)
    assert not strat.in_F_delta_by_ext(e2)
    with pytest.raises(NoEmbedding):
        t_codim(e2)


# Pinned Ringel-dual presentations: (vertices, arrows, relations as
# (str(coefficient), arrow names)).  A refactor must leave them unchanged.
RINGEL_SPECS = {
    "point": (["1"], [], []),
    "semisimple2": (["2", "1"], [], []),
    "a2": (["2", "1"], [("r0", "2", "1")], []),
    "a3line": (["3", "2", "1"], [("r0", "3", "2"), ("r1", "1", "2")], []),
    "loop2": (["1"], [("r0", "1", "1")], [[("1", ("r0", "r0"))]]),
    "borelA": (["3", "2", "1"],
               [("r0", "3", "2"), ("r1", "2", "3"), ("r2", "2", "1"),
                ("r3", "1", "2")],
               [[("1", ("r0", "r2"))], [("1", ("r1", "r0"))],
                [("1", ("r3", "r1"))], [("1", ("r3", "r2"))]]),
    "borelB": (["3", "2", "1"],
               [("r0", "3", "2"), ("r1", "3", "1"), ("r2", "2", "1")],
               [[("1", ("r0", "r2"))]]),
}


@pytest.mark.parametrize("name", STRATIFIED)
def test_ringel_dual_presentation_is_pinned(name):
    spec = ringel_dual(algebra(name)).spec
    relations = [[(str(c), t) for c, t in rel] for rel in spec.relations]
    assert (spec.vertices, spec.arrows, relations) == RINGEL_SPECS[name]


def reference_ringel_relations(a):
    """Reference presentation of End(T): the arrow selection of
    tilting.ringel_dual and its former relation recovery, which takes a
    kernel over every nonzero path per (source, target) pair.  Returns the
    QuiverSpec that the dual is built from."""
    tilt = characteristic_tilting(a)
    F = a.field
    n = a.n
    # order of the dual: reversed
    order = list(range(n - 1, -1, -1))

    def rad_basis(s, t):
        """rad(s, t) between summands numbered in the reversed order."""
        return tilt.radical(order[s], order[t])

    # End(T(s)) is k·id ⊕ rad(T(s), T(s)) for each of the n summands
    end_dim = n + sum(len(rad_basis(s, t)) for s in range(n) for t in range(n))
    # arrows: per pair, lift a basis of rad/rad^2, where rad^2 is spanned by
    # the compositions through every middle summand
    arrows = []            # (name, s, t, morphism)
    for s in range(n):
        for t in range(n):
            rad2 = [compose(g, f) for mid in range(n)
                    for f in rad_basis(s, mid) for g in rad_basis(mid, t)]
            rad = rad_basis(s, t)
            if not rad:
                continue
            keep = linalg.pivot_columns(F, [f.flat() for f in rad2 + rad])
            for k in keep:
                if k >= len(rad2):
                    arrows.append((f"r{len(arrows)}", s, t, rad[k - len(rad2)]))
    # relation recovery: generate paths length by length, dropping any path
    # that already evaluates to zero (its extensions are ideal consequences);
    # the relations are the kernel of evaluation on all surviving paths,
    # computed per (source, target) pair once generation closes.  End(T) need
    # not be graded, so the kernel mixes path lengths.
    deg_cap = end_dim
    vertices = [a.vertices[i] for i in order]
    arrow_decls = [(nm, vertices[s], vertices[t]) for (nm, s, t, _) in arrows]
    groups = {}        # (source, target) -> list of (arrow index tuple, morphism)
    frontier = [(s, (j,), f) for j, (nm, s, t, f) in enumerate(arrows)]
    end_targets = {j: t for j, (nm, s, t, f) in enumerate(arrows)}
    length = 1
    while frontier:
        if length >= deg_cap:
            raise PresentationFailed("relation recovery exceeded the degree cap")
        nxt = []
        for (s0, arrs, f) in frontier:
            t0 = end_targets[arrs[-1]]
            for j, (nm, s, t, g) in enumerate(arrows):
                if s != t0:
                    continue
                comp = compose(g, f)
                nxt.append((s0, arrs + (j,), comp))
                groups.setdefault((s0, t), []).append((arrs + (j,), comp))
        frontier = [(s0, arrs, f) for (s0, arrs, f) in nxt
                    if not all(b.is_zero() for b in f.blocks)]
        length += 1
    relations = []
    for (s0, t0), items in groups.items():
        vecs = [f.flat() for _, f in items]
        sz = len(vecs[0])
        mat = Matrix.from_columns(F, vecs, rows=sz)
        for kvec in linalg.kernel_basis(mat):
            rel = [(c, tuple(arrows[j][0] for j in items[i][0]))
                   for i, c in enumerate(kvec) if not F.is_zero(c)]
            if rel:
                relations.append(rel)
    return QuiverSpec(vertices, arrow_decls, relations, F,
                      name=(a.spec.name + "_ringel") if a.spec.name else "ringel")


# every standardly stratified algebra the suite holds: the fixtures, the
# Auslander algebras aus3-aus5 and the stratified corpus orders
DUAL_CASES = ([("fixture", name) for name in STRATIFIED]
              + [("aus", n) for n in (3, 4, 5)]
              + [("corpus", key, field) for key in TILTING_DIMS
                 for field in ("Q", "GF 2")])


def _case_id(case):
    return "-".join(map(str, case))


def _dual_case(case):
    kind, *args = case
    return {"fixture": algebra, "aus": auslander,
            "corpus": corpus_algebra}[kind](*args)


@pytest.mark.parametrize("case", DUAL_CASES, ids=_case_id)
def test_ringel_dual_presents_the_reference_ideal(case):
    # equal bases and reduced rewrite tables for the same path order mean
    # equal ideals: the dual's relations generate the kernel of kQ -> End(T)
    a = _dual_case(case)
    ref = build_algebra(reference_ringel_relations(a))
    dual = ringel_dual(a)
    assert dual.basis == ref.basis and dual.arrows == ref.arrows
    assert dual._red == ref._red
    assert len(dual.spec.relations) <= len(ref.spec.relations)


def _relations_by_ends(b):
    counts = {}
    for rel in b.spec.relations:
        path = rel[0][1]
        ends = (b.arrows[b.arrow_index(path[0])][1],
                b.arrows[b.arrow_index(path[-1])][2])
        counts[ends] = counts.get(ends, 0) + 1
    return counts


# (relations, Σ dim Ext^2(S_s, S_t)) of the duals of aus3-aus5: the reduced
# Groebner basis is not a minimal set of relations there
AUSLANDER_RELATIONS = {3: (5, 2), 4: (11, 3), 5: (19, 4)}


@pytest.mark.parametrize("case", DUAL_CASES, ids=_case_id)
def test_ringel_dual_relations_against_ext2(case):
    # a minimal set of relations has dim Ext^2(S_s, S_t) of them from s to t
    # (Bongartz); the reduced Groebner basis has at least as many.  The
    # reversed count, from t to s, is exceeded on borelB's dual
    b = ringel_dual(_dual_case(case))
    counts = _relations_by_ends(b)
    simples = [simple(b, i) for i in range(b.n)]
    ext2 = {(s, t): homology.ext_dim(2, simples[s], simples[t])
            for s in range(b.n) for t in range(b.n)}
    assert all(counts.get(ends, 0) >= d for ends, d in ext2.items())
    if case[0] == "aus":
        assert (sum(counts.values()), sum(ext2.values())) == \
            AUSLANDER_RELATIONS[case[1]]
    else:
        assert all(counts.get(ends, 0) == d for ends, d in ext2.items())


FAMILIES = (strat.standard_family, strat.proper_standard_family,
            strat.costandard_family, strat.proper_costandard_family)


@pytest.mark.parametrize("name", STRATIFIED)
def test_cached_families_keep_their_labels(name):
    a = _fresh(name)
    families = [fam(a) for fam in FAMILIES]
    labels = [[m.label for m in fam] for fam in families]
    verify_section2(a)
    assert all(fam(a) is cached for fam, cached in zip(FAMILIES, families))
    assert [[m.label for m in fam] for fam in families] == labels
    members = [id(m) for fam in families for m in fam]
    tilt = characteristic_tilting(a)
    assert not any(id(t) in members for t in tilt.summands)
