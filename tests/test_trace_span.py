"""Generated submodules and trace filtrations grown on one Span.

reps.generated_submodule closes a Span under the arrows, applying an arrow
only to a vector that enlarged the span and never into a vertex where the
span is already all of the module; strat._trace_certificate keeps U_n ⊂ ...
⊂ U_0 as prefixes of one Span and peels each layer on a copy of U_{μ+1}.
The references in conftest.py are the earlier path-image closure and the
trace certificate built on it.  The tests check that both give the same
submodules, and certificates with the same factors and layer dimensions,
on the fixtures over four fields, the certificate corpus, their opposites
and random monomial algebras, and that the Delta certificate of a linear
A_n touches no vertex its trace filtration has already filled.  For A,
each T(λ) and each D(T(λ)) over linear A_n and the corpus, whose trace
filtrations walk only the vertices where the module is nonzero, each layer
is the reference's submodule.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from stratakit import homology, reps, strat, tilting
from stratakit.errors import NotAdmissible
from stratakit.linalg import Matrix
from stratakit.quiver import build_algebra
from stratakit.reps import (direct_sum, generated_submodule, injective,
                            projective)

from conftest import (algebra, monomial_specs, reference_generated_submodule,
                      reference_trace_certificate)
from test_certificate_corpus import CORPUS, corpus_algebra
from test_quiver import _linear_a
from test_reps import _quotient_algebra

FIXTURES = ["point", "semisimple2", "a2", "a3line", "loop2", "borelA",
            "borelB"]
FIELDS = ["Q", "GF 2", "GF 3", "GF 101"]


def _random_gens(m, rng):
    F = m.algebra.field
    return [(v, [F.of(rng.randint(-3, 3)) for _ in range(m.dims[v])])
            for v in range(m.algebra.n) if m.dims[v]
            for _ in range(rng.randint(0, 2))]


@settings(max_examples=150)
@given(st.sampled_from(FIXTURES), st.sampled_from(FIELDS),
       st.integers(0, 10 ** 6))
def test_generated_submodule_matches_the_path_image_closure(name, field,
                                                            seed):
    a = _quotient_algebra(name, field)
    rng = random.Random(seed)
    m = direct_sum([rng.choice([projective, injective])(a, rng.randrange(a.n))
                    for _ in range(rng.randint(1, 2))])
    gens = _random_gens(m, rng)
    got = generated_submodule(m, gens)
    want = reference_generated_submodule(m, gens)
    assert got.dims() == want.dims()
    assert got.contains(want) and want.contains(got)
    # a submodule, checked from scratch
    reps.Submodule(m, got.bases)


def _layer_dims(cert):
    return [tuple(b.cols for b in bases) for bases in cert.layers]


def _families(a):
    return [strat.standard_family(a), strat.proper_standard_family(a),
            strat.costandard_family(a), strat.proper_costandard_family(a)]


def _assert_certificates_match(a):
    """For every probe module m of a and every family of a, the trace
    certificates of m and of D(m) against the family and its duals."""
    for family in _families(a):
        duals = [reps.dual(f) for f in family]
        for m in tilting.probe_modules(a):
            for x, fam in ((m, family), (reps.dual(m), duals)):
                got = strat._trace_certificate(x, fam)
                want = reference_trace_certificate(x, fam)
                assert (got is None) == (want is None)
                if got is None:
                    continue
                assert got.factor_indices == want.factor_indices
                assert _layer_dims(got) == _layer_dims(want)
                assert got.verify(fam)


ALGEBRAS = ([("fixture", name) for name in FIXTURES]
            + [("corpus", key) for key in CORPUS])


@pytest.mark.parametrize("opposite", [False, True])
@pytest.mark.parametrize("kind,name", ALGEBRAS, ids=str)
def test_trace_certificates_match_the_reference(kind, name, opposite):
    a = algebra(name) if kind == "fixture" else corpus_algebra(*name)
    _assert_certificates_match(a.opposite() if opposite else a)


@settings(max_examples=40,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(monomial_specs(), st.booleans())
def test_trace_certificates_match_on_monomial_algebras(spec, opposite):
    try:
        a = build_algebra(spec.opposite() if opposite else spec)
    except NotAdmissible:
        assume(False)
    _assert_certificates_match(a)


def _same_layers(m, got, want):
    """Do two certificates of m have the same factor indices and, layer by
    layer, the same submodule?"""
    if got.factor_indices != want.factor_indices:
        return False
    if len(got.layers) != len(want.layers):
        return False
    for g, w in zip(got.layers, want.layers):
        if [b.cols for b in g] != [b.cols for b in w]:
            return False
        sg, sw = (reps.Submodule(m, list(b), check=False) for b in (g, w))
        if not (sg.contains(sw) and sw.contains(sg)):
            return False
    return True


def _tilting_certificate_cases(a):
    """(module, family): A and each T(λ) against Delta and DeltaBar, and
    each D(T(λ)) over the opposite algebra against the duals of Nabla and
    NablaBar, the route filtration_certificate takes for those families.
    A alone when a is not standardly stratified."""
    reg = reps.regular_module(a)
    fams = [strat.standard_family(a), strat.proper_standard_family(a)]
    if not strat.classify(a).standardly_stratified:
        return [(reg, f) for f in fams]
    ts = tilting.characteristic_tilting(a).summands
    duals = [[reps.dual(f) for f in fam] for fam in
             (strat.costandard_family(a), strat.proper_costandard_family(a))]
    return ([(m, f) for m in [reg, *ts] for f in fams]
            + [(reps.dual(t), f) for t in ts for f in duals])


def _assert_tilting_certificates_match(a):
    for m, fam in _tilting_certificate_cases(a):
        got = strat._trace_certificate(m, fam)
        want = reference_trace_certificate(m, fam)
        assert (got is None) == (want is None), (m, fam)
        assert got is None or _same_layers(m, got, want), (m, fam)


@pytest.mark.parametrize("rad2", [True, False])
@pytest.mark.parametrize("n", range(4, 9))
def test_tilting_certificates_of_linear_a_match_the_reference(n, rad2):
    # T(λ) of linear A_n lives on at most 2 vertices (rad^2 = 0) or on
    # 1..λ (free): the trace filtration walks only those, and each layer
    # is the reference's submodule
    _assert_tilting_certificates_match(build_algebra(_linear_a(n, rad2)))


@pytest.mark.parametrize("key,field", CORPUS, ids=str)
def test_tilting_certificates_of_the_corpus_match_the_reference(key, field):
    _assert_tilting_certificates_match(corpus_algebra(key, field))


@pytest.mark.parametrize("rad2", [True, False])
@pytest.mark.parametrize("n", range(3, 9))
def test_delta_certificate_of_linear_a_applies_no_arrow(monkeypatch, n, rad2):
    # arrows i -> i+1 and U_{μ+1} is all of m above μ, so every arrow out of
    # a vector added to U_μ, or to a peel step at μ, lands where the span is
    # full, and no vector at a source below μ lies in U_μ: the closure
    # applies no arrow and the lifts take no arrow image.  The path-image
    # closure walked the paths of every generator
    a = build_algebra(_linear_a(n, rad2))
    reg = reps.regular_module(a)
    deltas = strat.standard_family(a)
    for d in deltas:
        homology.syzygy_step(d)
    calls = []
    real = Matrix.apply
    monkeypatch.setattr(Matrix, "apply",
                        lambda self, vec: calls.append(1) or real(self, vec))
    cert = strat.filtration_certificate(reg, deltas)
    monkeypatch.undo()
    assert calls == []
    assert cert is not None and cert.verify(deltas)
