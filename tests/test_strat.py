"""Standard-module families, filtration certificates, classification."""

import pytest
from hypothesis import given, settings

from stratakit import reps, strat, tilting
from stratakit.errors import NonTerminating, NotAdmissible, Truncated
from stratakit.parser import parse_file
from stratakit.quiver import build_algebra
from stratakit.reps import is_isomorphic, projective, regular_module, simple
from stratakit.strat import (classify, costandard, filtration_certificate,
                             in_F_delta_by_ext, in_F_nabla_bar_by_ext,
                             proper_costandard, proper_standard, standard,
                             standard_family)

from conftest import algebra, fixture_path, graded_specs, monomial_specs
from test_certificate_corpus import CORPUS as SMALL
from test_certificate_corpus import PINNED, corpus_algebra

CORPUS = ["point", "semisimple2", "a2", "a3line", "loop2", "borelA", "borelB"]


def test_a3line_standard_dims():
    a = algebra("a3line")
    assert [standard(a, i).dims for i in range(3)] == \
        [(1, 0, 0), (1, 1, 0), (0, 0, 1)]
    # quasi-hereditary: proper standard modules coincide with standard ones
    for i in range(3):
        assert is_isomorphic(standard(a, i), proper_standard(a, i))


@pytest.mark.parametrize("name", CORPUS)
def test_families_share_their_members(name):
    # each member is built once per algebra, and its family is the tuple of
    # those same objects
    a = algebra(name)
    for build in (standard, proper_standard, costandard, proper_costandard):
        family = getattr(strat, build.__name__ + "_family")(a)
        assert all(family[i] is build(a, i) is build(a, i)
                   for i in range(a.n))


@pytest.mark.parametrize("name", CORPUS)
def test_top_standard_module_is_projective(name):
    a = algebra(name)
    top = a.n - 1
    assert is_isomorphic(standard(a, top), projective(a, top))


@pytest.mark.parametrize("name", CORPUS)
def test_standard_has_simple_top(name):
    a = algebra(name)
    for i in range(a.n):
        assert is_isomorphic(reps.top(standard(a, i)), simple(a, i))
        assert is_isomorphic(reps.top(proper_standard(a, i)), simple(a, i))


@pytest.mark.parametrize("name", CORPUS)
def test_costandard_has_simple_socle(name):
    a = algebra(name)
    for i in range(a.n):
        soc, _ = reps.socle_submodule(costandard(a, i)).as_rep()
        assert is_isomorphic(soc, simple(a, i))
        soc, _ = reps.socle_submodule(proper_costandard(a, i)).as_rep()
        assert is_isomorphic(soc, simple(a, i))


def test_loop2_standard_is_projective_proper_is_simple():
    a = algebra("loop2")
    assert is_isomorphic(standard(a, 0), projective(a, 0))
    assert is_isomorphic(proper_standard(a, 0), simple(a, 0))


@pytest.mark.parametrize("name,kind", [
    ("point", "quasi-hereditary"),
    ("semisimple2", "quasi-hereditary"),
    ("a2", "quasi-hereditary"),
    ("a3line", "quasi-hereditary"),
    ("borelA", "quasi-hereditary"),
    ("borelB", "quasi-hereditary"),
    ("loop2", "properly stratified"),
])
def test_classification(name, kind):
    cls = classify(algebra(name))
    assert cls.kind() == kind


@pytest.mark.parametrize("name", [n for n in CORPUS if n != "loop2"])
def test_quasi_hereditary_reuses_the_delta_certificate(name):
    # every DeltaBar(i) is Delta(i), so the Delta certificate serves both
    cls = classify(algebra(name))
    assert cls.quasi_hereditary
    assert cls.proper_delta_cert is cls.delta_cert


def reference_proper_standard(a, i):
    """Delta-bar(i) as the quotient of Delta(i) by the submodule generated
    by e_i·rad Delta(i), taken at every vertex."""
    d = standard(a, i)
    rad = reps.radical_submodule(d).bases[i].columns()
    q, _ = reps.quotient(d, reps.generated_submodule(d, [(i, x) for x in rad]))
    return q


def reference_proper_costandard(a, i):
    """Nabla-bar(i) as the dual of the quotient over the opposite algebra."""
    return reps.dual_to_opposite(reference_proper_standard(a.opposite(), i))


@pytest.mark.parametrize("which", CORPUS + SMALL, ids=str)
def test_proper_families_match_the_quotients(which):
    # where dim e_i·Delta(i) = 1, DeltaBar(i) is Delta(i) relabelled and
    # NablaBar(i) the dual of DeltaBar^op(i) = Delta^op(i): the quotients by
    # zero give the same structures.  classify reads Delta = DeltaBar off
    # those dimensions
    a = algebra(which) if isinstance(which, str) else corpus_algebra(*which)
    eq = []
    for i in range(a.n):
        dbar = reference_proper_standard(a, i)
        assert proper_standard(a, i).key() == dbar.key()
        assert proper_costandard(a, i).key() == \
            reference_proper_costandard(a, i).key()
        eq.append(dbar.total_dim == standard(a, i).total_dim)
    cls = classify(a)
    assert cls.delta_equals_proper == eq
    if not isinstance(which, str):
        assert cls.kind() == PINNED[which[0]][0]


def test_a_memoised_certificate_names_the_callers_module():
    # certificates are memoised by structure; an equal module built apart
    # gets the same layers, bound to itself.  T lies in F(Delta) and in
    # F(Nabla), whose certificates come from the opposite algebra
    a = algebra("borelA")
    m = tilting.characteristic_tilting(a).total
    twin = reps.Rep(a, m.dims, m.action)
    assert twin is not m and twin.key() == m.key()
    for family in (strat.standard_family(a), strat.costandard_family(a)):
        first = filtration_certificate(m, family)
        again = filtration_certificate(twin, family)
        assert first.module is m and again.module is twin
        assert again.layers == first.layers
        assert again.verify(family)
    reg, twin = regular_module(a), regular_module(a)
    family = strat.standard_family(a)
    first, again = (filtration_certificate(x, family) for x in (reg, twin))
    assert first.module is reg and again.module is twin
    assert again.layers is first.layers


def test_a_repeated_dual_certificate_builds_no_dual(monkeypatch):
    # F(Nabla) certificates come from the opposite algebra; the duals of the
    # module and of the family are built once per algebra, not per call.
    # m = D(A), the sum of the injectives, lies in F(Nabla); on a fresh
    # algebra its certificate, and the duals it reads, start here
    a = parse_file(fixture_path("borelA.alg")).build()
    family = strat.costandard_family(a)
    m = reps.direct_sum([reps.injective(a, i) for i in range(a.n)])
    built = []
    real = reps.dual_to_opposite

    def counting(x):
        built.append(x)
        return real(x)

    monkeypatch.setattr(reps, "dual_to_opposite", counting)
    first = filtration_certificate(m, family)
    assert first is not None and first.verify(family)
    assert built                        # the certificate is the dual one
    built.clear()
    again = filtration_certificate(m, family)
    assert built == []
    assert again.module is m and again.layers == first.layers


def test_loop2_not_quasi_hereditary():
    cls = classify(algebra("loop2"))
    assert cls.properly_stratified
    assert not cls.quasi_hereditary


@pytest.mark.parametrize("name", CORPUS)
def test_regular_module_delta_certificate_verifies(name):
    a = algebra(name)
    family = standard_family(a)
    cert = filtration_certificate(regular_module(a), family)
    assert cert is not None
    assert cert.verify(family)
    # total dimension is conserved by the filtration factors
    assert sum(family[i].total_dim for i in cert.factor_indices) == a.dim


def test_infeasible_dimension_vector_has_no_certificate():
    a = algebra("a3line")
    assert filtration_certificate(simple(a, 1), standard_family(a)) is None


def test_a_missing_delta_certificate_builds_nothing_over_the_opposite(
        monkeypatch):
    # the trace filtration's None already proves non-membership in F(Delta),
    # so no dual is built to try again over the opposite algebra.  A fresh
    # algebra, with the family built first, so that no dual is memoised
    a = parse_file(fixture_path("a3line.alg")).build()
    family = standard_family(a)
    built = []
    real = reps.dual_to_opposite
    monkeypatch.setattr(reps, "dual_to_opposite",
                        lambda x: built.append(x) or real(x))
    assert filtration_certificate(simple(a, 1), family) is None
    assert built == []


def test_standard_modules_are_trivially_filtered():
    a = algebra("borelA")
    family = standard_family(a)
    for i in range(a.n):
        cert = filtration_certificate(family[i], family)
        assert cert is not None and cert.factor_indices == [i]


def test_certificate_matches_ext_criterion_spot_checks():
    a = algebra("a3line")
    for m in (regular_module(a), simple(a, 0), simple(a, 1), simple(a, 2),
              projective(a, 1)):
        assert (filtration_certificate(m, standard_family(a))
                is not None) == in_F_delta_by_ext(m)
        assert (filtration_certificate(m, strat.proper_costandard_family(a))
                is not None) == in_F_nabla_bar_by_ext(m)


def test_certificate_layers_are_a_chain():
    a = algebra("borelA")
    family = standard_family(a)
    cert = filtration_certificate(regular_module(a), family)
    dims = [sum(b.cols for b in layer) for layer in cert.layers]
    assert dims[0] == 0 and dims[-1] == a.dim
    assert all(x < y for x, y in zip(dims, dims[1:]))


def test_certificate_verify_rejects_wrong_factors():
    a = algebra("borelA")
    family = standard_family(a)
    cert = filtration_certificate(regular_module(a), family)
    assert cert.verify(family)
    for s in range(len(cert)):
        wrong = list(cert.factor_indices)
        wrong[s] = (wrong[s] + 1) % a.n
        bad = strat.FiltrationCertificate(cert.module, cert.layers, wrong)
        assert not bad.verify(family)
    skipped = cert.layers[:1] + cert.layers[2:]
    assert not strat.FiltrationCertificate(
        cert.module, skipped, cert.factor_indices[1:]).verify(family)


# -- the trace-filtration criterion on generated algebras ---------------------

def _check_delta_certificate_of_a(spec):
    """On a standardly stratified draw, A's Delta certificate verifies from
    scratch and, read bottom-up, never goes to a larger vertex: it is the
    trace filtration, larger vertices lower.  The paper's claims on T and
    the good filtration dimensions hold too (verify_section2).  Only a
    resolution or coresolution running out of its cap rejects a draw."""
    try:
        a = build_algebra(spec, degree_cap=8)
    except NotAdmissible:
        return
    cls = classify(a)
    if not cls.standardly_stratified:
        return
    assert cls.delta_cert.verify(standard_family(a))
    indices = cls.delta_cert.factor_indices
    assert all(lo >= hi for lo, hi in zip(indices, indices[1:])), indices
    try:
        lines = tilting.verify_section2(a, 4)
    except (Truncated, NonTerminating):
        return
    assert not [line for line in lines if line.passed is False], lines


@settings(max_examples=100)
@given(graded_specs())
def test_delta_certificate_of_a_on_graded_algebras(spec):
    _check_delta_certificate_of_a(spec)


@settings(max_examples=100)
@given(monomial_specs())
def test_delta_certificate_of_a_on_monomial_algebras(spec):
    _check_delta_certificate_of_a(spec)
