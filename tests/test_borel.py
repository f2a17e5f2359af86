"""Subalgebra embeddings, induction, exact Borel checks, dualities."""

import itertools

import pytest

from stratakit import homology, reps, strat, tilting
from stratakit.borel import (Embedding, check_embedding, duality_check,
                             find_duality, induce, is_exact_borel,
                             right_module_structure, twisted_dual,
                             verify_gldim_doubling,
                             verify_lemma_induction_bounds)
from stratakit.errors import (AlgebraMismatch, IdempotentMismatch,
                              NotAntiAutomorphism, NotInjective,
                              NotMultiplicative, StratakitError)
from stratakit.fields import QQ
from stratakit.parser import parse_file
from stratakit.quiver import Path, QuiverSpec, build_algebra

from conftest import algebra, algebra_file, fixture_path
from test_certificate_corpus import CORPUS, corpus_algebra


def _borel_embedding():
    b, a = algebra("borelB"), algebra("borelA")
    images = {name: [(c, tuple(p)) for (c, p) in terms]
              for name, terms in algebra_file("borelB").embedding.items()}
    return check_embedding(Embedding(b, a, images))


def test_embedding_verifies():
    e = _borel_embedding()
    # the composite arrow image: dbeta lands on the basis path "delta then beta"
    a = e.a
    d, bt = a.arrow_index("delta"), a.arrow_index("beta")
    assert e.arrow_imgs[e.b.arrow_index("dbeta")] == {
        Path(a.arrows[d][1], (d, bt)): 1}


def test_relations_of_b_hold_on_restricted_projectives():
    e = _borel_embedding()
    for v in range(e.a.n):
        res = e.restrict(reps.projective(e.a, v))
        assert res.algebra is e.b
        assert res.dims == reps.projective(e.a, v).dims
        assert res.relations_hold()


def test_non_parallel_arrow_image_rejected():
    # be runs 1 -> 2, but ga runs 2 -> 1, so al + ga is not in e_2 A e_1
    a = build_algebra(QuiverSpec(["1", "2"], [("al", "1", "2"), ("ga", "2", "1")],
                                 [[(1, ("al", "ga"))], [(1, ("ga", "al"))]], QQ))
    b = build_algebra(QuiverSpec(["1", "2"], [("be", "1", "2")], [], QQ))
    with pytest.raises(NotMultiplicative):
        Embedding(b, a, {"be": [(1, ("al",)), (1, ("ga",))]})


def test_right_module_is_projective_over_b():
    e = _borel_embedding()
    right = right_module_structure(e)
    assert right.total_dim == e.a.dim
    bop = e.b.opposite()
    projs = [reps.projective(bop, i) for i in range(bop.n)]
    for part, _ in reps.decompose(right):
        assert any(reps.is_isomorphic(part, p) for p in projs)


def test_right_module_not_projective_is_reported():
    # B = k[y]/(y^2) -> A = k[x]/(x^3), y |-> x^2: as a right B-module,
    # A = B.1 ⊕ k.x with x.y = x^3 = 0, and the summand k.x is not projective
    b = build_algebra(QuiverSpec(["1"], [("y", "1", "1")],
                                 [[(1, ("y", "y"))]], QQ))
    a = build_algebra(QuiverSpec(["1"], [("x", "1", "1")],
                                 [[(1, ("x", "x", "x"))]], QQ))
    e = check_embedding(Embedding(b, a, {"y": [(1, ("x", "x"))]}))
    right = right_module_structure(e)
    assert sorted(part.total_dim for part, _ in reps.decompose(right)) == [1, 2]
    report = is_exact_borel(e)
    clauses = {name: (ok, detail) for name, ok, detail in report.clauses}
    assert clauses["right_projective"] == (
        False, "a non-projective right B-summand exists")
    assert not report.verdict


def test_induce_simples_to_standards():
    e = _borel_embedding()
    b, a = e.b, e.a
    # the standard B-modules are simple here, and induce to the standard
    # A-modules
    for i in range(b.n):
        assert reps.is_isomorphic(strat.standard(b, i), reps.simple(b, i))
        ind = induce(e, reps.simple(b, i))
        assert reps.is_isomorphic(ind, strat.standard(a, i))


def test_induction_of_a_module_over_another_algebra_is_a_mismatch():
    e = _borel_embedding()
    with pytest.raises(AlgebraMismatch):
        induce(e, reps.simple(e.a, 0))


def test_induce_projective_is_projective():
    e = _borel_embedding()
    for i in range(e.b.n):
        ind = induce(e, reps.projective(e.b, i))
        assert reps.is_isomorphic(ind, reps.projective(e.a, i))


def test_is_exact_borel():
    e = _borel_embedding()
    report = is_exact_borel(e)
    assert report.verdict
    assert [name for name, ok, _ in report.clauses] == \
        ["same_simples", "right_projective", "standards_induce"]
    assert all(ok for _, ok, _ in report.clauses)


def test_induction_does_not_raise_proj_dim():
    e = _borel_embedding()
    ok, entries = verify_lemma_induction_bounds(e)
    assert ok
    assert all(flag for _, _, _, flag in entries)


def test_gldim_doubling_with_equality():
    e = _borel_embedding()
    bound_ok, equality, ga, gb = verify_gldim_doubling(e)
    assert bound_ok and equality
    assert (ga, gb) == (4, 2)


def test_directed_algebra_filtration_dimension_equals_gldim():
    # all standard modules of borelB are simple, so every module is
    # Delta-filtered and the filtration dimensions collapse to gl.dim
    b = algebra("borelB")
    g = tilting.gfd_algebra(b, homology.DEFAULT_CAP)
    assert g.pd_t == int(homology.global_dim(b)) == 2
    assert g.probe_sup == g.pd_t


def test_vertex_count_mismatch_rejected():
    with pytest.raises(IdempotentMismatch):
        Embedding(algebra("a2"), algebra("a3line"), {"a": [(1, ("a",))]})


def test_non_multiplicative_embedding_rejected():
    # x^2 = 0 cannot map to y with y^2 != 0
    b = build_algebra(QuiverSpec(["1"], [("x", "1", "1")],
                                 [[(1, ("x", "x"))]], QQ))
    a = build_algebra(QuiverSpec(["1"], [("y", "1", "1")],
                                 [[(1, ("y", "y", "y"))]], QQ))
    with pytest.raises(NotMultiplicative):
        check_embedding(Embedding(b, a, {"x": [(1, ("y",))]}))


def test_non_injective_embedding_rejected():
    b = algebra("a2")
    a = algebra("semisimple2")
    with pytest.raises(NotInjective):
        check_embedding(Embedding(b, a, {"a": []}))


def test_borelA_duality():
    a = algebra("borelA")
    sigma = algebra_file("borelA").duality
    sigma_idx, clauses = duality_check(a, sigma)
    names = [n for n, _ in clauses]
    assert names == ["fixes_simples", "delta_to_nabla", "fixes_tilting"]
    assert all(flag for _, flag in clauses)
    # the duality swaps projectives and injectives
    for i in range(a.n):
        assert reps.is_isomorphic(
            twisted_dual(a, sigma_idx, reps.projective(a, i)),
            reps.injective(a, i))


def test_loop2_duality():
    a = algebra("loop2")
    _, clauses = duality_check(a, algebra_file("loop2").duality)
    assert all(flag for _, flag in clauses)


def test_bad_involution_rejected():
    a = algebra("borelA")
    with pytest.raises(NotAntiAutomorphism):
        duality_check(a, {"alpha": "beta", "beta": "alpha",
                          "gamma": "gamma", "delta": "delta"})


def test_a3line_has_no_duality():
    # both arrows point away from/to distinct vertices; no involution reverses
    # the quiver
    assert find_duality(algebra("a3line")) is None


def test_find_duality_recovers_borelA():
    found = find_duality(algebra("borelA"))
    assert found is not None
    sigma, clauses = found
    assert sigma["alpha"] == "beta" and sigma["gamma"] == "delta"
    assert all(flag for _, flag in clauses)


def _crossed_pairs():
    # a, c: 1 -> 2 and b, d: 2 -> 1; every path of length 2 is 0 but b.c
    arrows = [("a", "1", "2"), ("c", "1", "2"), ("b", "2", "1"),
              ("d", "2", "1")]
    zero = [("a", "b"), ("a", "d"), ("c", "d"), ("b", "a"), ("b", "c"),
            ("d", "a"), ("d", "c")]
    return build_algebra(QuiverSpec(["1", "2"], arrows,
                                    [[(1, p)] for p in zero], QQ))


def test_involution_moving_a_relation_out_of_the_ideal_is_rejected():
    a = _crossed_pairs()
    assert a.dim == 7
    # a<->b, c<->d sends the relation d.a to b.c, which is not 0
    with pytest.raises(NotAntiAutomorphism,
                       match="a defining relation does not map into the ideal"):
        duality_check(a, {"a": "b", "b": "a", "c": "d", "d": "c"})
    sigma, clauses = find_duality(a)
    assert sigma == {"a": "d", "d": "a", "b": "c", "c": "b"}
    assert all(flag for _, flag in clauses)


def _first_permutation_duality(a):
    """find_duality by brute force: the first arrow permutation, in the
    order of itertools.permutations, that passes duality_check with every
    clause (duality_check rejects one that does not reverse every arrow)."""
    names = a.arrow_names
    for perm in itertools.permutations(names):
        sigma = dict(zip(names, perm))
        try:
            _, clauses = duality_check(a, sigma)
        except NotAntiAutomorphism:
            continue
        if all(flag for _, flag in clauses):
            return sigma, clauses
    return None


def test_find_duality_matches_the_first_permutation_on_the_corpus():
    # the corpus, in every vertex order over Q and GF(2), and two algebras
    # with more than one arrow involution: on the crossed pairs the first
    # fails, on k[x, y]/(x^2, y^2) both the identity and x <-> y pass
    cases = [(f"{key} {field}", corpus_algebra(key, field))
             for key, field in CORPUS]
    cases.append(("crossed pairs", _crossed_pairs()))
    cases.append(("two loops", build_algebra(QuiverSpec(
        ["1"], [("x", "1", "1"), ("y", "1", "1")],
        [[(1, ("x", "x"))], [(1, ("y", "y"))],
         [(1, ("x", "y")), (-1, ("y", "x"))]], QQ))))
    for label, a in cases:
        found, expected = find_duality(a), _first_permutation_duality(a)
        assert found == expected, label
        if found is not None:                  # in the same order, too
            assert list(found[0].items()) == list(expected[0].items()), label


def test_find_duality_refuses_more_than_six_arrows():
    a = build_algebra(QuiverSpec(
        ["1", "2"], [(f"a{k}", "1", "2") for k in range(7)], [], QQ))
    with pytest.raises(StratakitError, match="<= 6 arrows"):
        find_duality(a)


def test_induction_bounds_keep_capped_dimensions():
    # fresh algebras, so no resolution cached at the default cap is reused
    b = parse_file(fixture_path("borelB.alg")).build()
    a = parse_file(fixture_path("borelA.alg")).build()
    images = {name: [(c, tuple(p)) for (c, p) in terms]
              for name, terms in algebra_file("borelB").embedding.items()}
    e = check_embedding(Embedding(b, a, images))
    _, entries = verify_lemma_induction_bounds(e, cap=1)
    capped = [pd for _, pda, pdb, _ in entries for pd in (pda, pdb)
              if isinstance(pd, homology.LowerBound)]
    assert capped and all(str(pd) == ">=1" for pd in capped)
