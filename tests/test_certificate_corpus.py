"""Filtration certificates on a corpus of small algebras.

Each quiver below is taken with every order of its vertices, over Q and over
GF(2).  The corpus holds quasi-hereditary, properly stratified, only
standardly stratified (loopx with vertices 1 2) and non-stratified algebras.

PINNED records, per quiver and vertex order, the kind from classify() and
which modules of tilting.probe_modules(a), in corpus order, lie in F(DeltaBar)
and in F(Nabla), one digit per module.  These answers come from the
depth-first search over epimorphisms that the constructed certificates
replaced; both fields gave the same answers.  F(Delta) and F(NablaBar) are
checked against the Ext^1-vanishing criteria instead, on the stratified
members.
"""

import itertools

import pytest

from stratakit import reps, strat, tilting
from stratakit.parser import parse

from conftest import is_module_map

QUIVERS = {
    "a2": ("1 2", ["arrow a 1 2"]),
    "cyc2": ("1 2", ["arrow a 1 2", "arrow b 2 1", "relation 1*b.a"]),
    "loopx": ("1 2", ["arrow x 2 2", "arrow a 2 1", "relation 1*x.x",
                      "relation 1*a.x"]),
    "loopa": ("1 2", ["arrow x 1 1", "arrow a 1 2", "relation 1*x.x"]),
    "a3": ("1 2 3", ["arrow a 1 2", "arrow b 2 3"]),
    "a3r": ("1 2 3", ["arrow a 1 2", "arrow b 2 3", "relation 1*b.a"]),
    "bb": ("1 2 3", ["arrow b 1 3", "arrow g 1 2", "arrow d 2 3",
                     "relation 1*d.g"]),
    "cyc3": ("1 2 3", ["arrow a 1 2", "arrow b 2 3", "arrow c 3 1",
                       "relation 1*b.a", "relation 1*c.b", "relation 1*a.c"]),
}

# quiver/vertex order: (kind, F(DeltaBar) digits, F(Nabla) digits)
PINNED = {
    "a2/12": ("quasi-hereditary", "111", "110"),
    "a2/21": ("quasi-hereditary", "110", "111"),
    "cyc2/12": ("not stratified", "10010", "10001"),
    "cyc2/21": ("quasi-hereditary", "11100", "11001"),
    "loopx/12": ("standardly stratified", "110000", "100101"),
    "loopx/21": ("properly stratified", "111111", "000101"),
    "loopa/12": ("properly stratified", "1111111", "0001010"),
    "loopa/21": ("properly stratified", "1010110", "1100101"),
    "a3/123": ("quasi-hereditary", "111111", "110001"),
    "a3/132": ("quasi-hereditary", "111100", "110101"),
    "a3/213": ("quasi-hereditary", "111101", "100111"),
    "a3/231": ("quasi-hereditary", "111001", "110111"),
    "a3/312": ("quasi-hereditary", "111100", "110101"),
    "a3/321": ("quasi-hereditary", "111000", "111111"),
    "a3r/123": ("quasi-hereditary", "11111", "11010"),
    "a3r/132": ("not stratified", "10011", "11010"),
    "a3r/213": ("quasi-hereditary", "11110", "11011"),
    "a3r/231": ("quasi-hereditary", "11110", "11011"),
    "a3r/312": ("not stratified", "11010", "10011"),
    "a3r/321": ("quasi-hereditary", "11010", "11111"),
    "bb/123": ("quasi-hereditary", "111111111", "100000110"),
    "bb/132": ("not stratified", "1001101010", "1000001001"),
    "bb/213": ("quasi-hereditary", "111101100", "100110011"),
    "bb/231": ("quasi-hereditary", "111000011", "110111100"),
    "bb/312": ("not stratified", "1000001010", "1001101001"),
    "bb/321": ("quasi-hereditary", "100010010", "111111111"),
    "cyc3/123": ("not stratified", "111100", "110001"),
    "cyc3/132": ("not stratified", "100101", "110110"),
    "cyc3/213": ("not stratified", "100101", "110110"),
    "cyc3/231": ("not stratified", "111100", "110001"),
    "cyc3/312": ("not stratified", "111100", "110001"),
    "cyc3/321": ("not stratified", "100101", "110110"),
}

# quiver/vertex order: dimension vectors of T(λ) and of S(λ), λ in vertex
# order, one digit per vertex; S only where the algebra is properly
# stratified.  Both fields give the same vectors.
TILTING_DIMS = {
    "a2/12": ("10 11", "10 11"),
    "a2/21": ("10 11", "10 11"),
    "cyc2/21": ("10 21", "10 21"),
    "loopx/12": ("10 12", None),
    "loopx/21": ("20 21", "20 11"),
    "loopa/12": ("20 21", "20 21"),
    "loopa/21": ("10 22", "10 22"),
    "a3/123": ("100 110 111", "100 110 111"),
    "a3/132": ("100 010 111", "100 010 111"),
    "a3/213": ("100 110 111", "100 110 111"),
    "a3/231": ("100 110 111", "100 110 111"),
    "a3/312": ("100 010 111", "100 010 111"),
    "a3/321": ("100 110 111", "100 110 111"),
    "a3r/123": ("100 110 011", "100 110 011"),
    "a3r/213": ("100 110 101", "100 110 101"),
    "a3r/231": ("100 110 101", "100 110 101"),
    "a3r/321": ("100 110 011", "100 110 011"),
    "bb/123": ("100 110 111", "100 110 111"),
    "bb/213": ("100 110 211", "100 110 211"),
    "bb/231": ("100 110 211", "100 110 211"),
    "bb/321": ("100 110 111", "100 110 111"),
}

CORPUS = [(f"{name}/{''.join(order)}", field)
          for name, (vertices, _) in QUIVERS.items()
          for order in itertools.permutations(vertices.split())
          for field in ("Q", "GF 2")]

_built = {}


def corpus_text(key, field):
    """The description file of a corpus algebra."""
    name, order = key.split("/")
    return "\n".join([f"field {field}", "vertices " + " ".join(order)]
                     + QUIVERS[name][1])


def corpus_algebra(key, field):
    if (key, field) not in _built:
        _built[key, field] = parse(corpus_text(key, field)).build()
    return _built[key, field]


def memberships(m_list, family):
    """One digit per module; every certificate found must verify."""
    digits = ""
    for m in m_list:
        cert = strat.filtration_certificate(m, family)
        assert cert is None or cert.verify(family)
        digits += "0" if cert is None else "1"
    return digits


def test_corpus_is_pinned():
    assert sorted(PINNED) == sorted({key for key, _ in CORPUS})


@pytest.mark.parametrize("key,field", CORPUS)
def test_certificates_on_small_algebras(key, field):
    a = corpus_algebra(key, field)
    kind, dbar_digits, nabla_digits = PINNED[key]
    cls = strat.classify(a)
    assert cls.kind() == kind
    for cert, family in ((cls.delta_cert, strat.standard_family(a)),
                         (cls.proper_delta_cert,
                          strat.proper_standard_family(a))):
        assert cert is None or cert.verify(family)
    probes = tilting.probe_modules(a)
    assert memberships(probes, strat.proper_standard_family(a)) == dbar_digits
    assert memberships(probes, strat.costandard_family(a)) == nabla_digits
    delta = memberships(probes, strat.standard_family(a))
    nabla_bar = memberships(probes, strat.proper_costandard_family(a))
    if cls.standardly_stratified:
        assert delta == "".join(str(int(strat.in_F_delta_by_ext(m)))
                                for m in probes)
        assert nabla_bar == "".join(str(int(strat.in_F_nabla_bar_by_ext(m)))
                                    for m in probes)


@pytest.mark.parametrize("key,field", [
    (key, field) for key, field in CORPUS
    if PINNED[key][0] in ("quasi-hereditary", "properly stratified")])
def test_s_iso_t_agrees_with_the_totals(key, field):
    a = corpus_algebra(key, field)
    cot = tilting.characteristic_cotilting(a)
    tilt = tilting.characteristic_tilting(a)
    assert tilting.s_iso_t(a) == reps.is_isomorphic(cot.total, tilt.total)


@pytest.mark.parametrize("key,field", [
    (key, field) for key, field in CORPUS
    if PINNED[key][0] in ("quasi-hereditary", "properly stratified")])
def test_cotilting_certificates_verify(key, field):
    a = corpus_algebra(key, field)
    cot = tilting.characteristic_cotilting(a)
    for nc, dc in zip(cot.nabla_certs, cot.dbar_certs):
        assert nc.verify(strat.costandard_family(a))
        assert dc.verify(strat.proper_standard_family(a))


@pytest.mark.parametrize("key,field", [("a3/321", "Q"), ("bb/231", "GF 2")])
def test_totals_are_matched_part_by_part(key, field):
    # no basis element of Hom(S, T) is an isomorphism, so the isomorphism
    # comes from matching indecomposable parts, not from combining the basis.
    # Both algebras are quasi-hereditary, where characteristic_cotilting
    # returns T itself, so S is built the long way, as the dual of T^op
    a = corpus_algebra(key, field)
    s = tilting._cotilting_from_opposite(a).total
    t = tilting.characteristic_tilting(a).total
    assert not any(f.is_isomorphism() for f in reps.hom_basis(s, t))
    iso = reps.find_isomorphism(s, t)
    assert iso is not None and is_module_map(iso) and iso.is_isomorphism()


def _digits(summands):
    return " ".join("".join(map(str, m.dims)) for m in summands)


def test_tilting_pins_cover_the_stratified_corpus():
    assert sorted(TILTING_DIMS) == sorted(
        key for key, (kind, _, _) in PINNED.items() if kind != "not stratified")


@pytest.mark.parametrize("key,field", [
    (key, field) for key, field in CORPUS if key in TILTING_DIMS])
def test_tilting_dimension_vectors_are_pinned(key, field):
    a = corpus_algebra(key, field)
    t_dims, s_dims = TILTING_DIMS[key]
    tilt = tilting.characteristic_tilting(a)
    assert _digits(tilt.summands) == t_dims
    assert tilt.verify()
    if s_dims is not None:
        assert _digits(tilting.characteristic_cotilting(a).summands) == s_dims
