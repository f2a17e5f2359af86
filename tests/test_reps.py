"""Representations: projectives, injectives, hom spaces, decomposition."""

import pytest

from stratakit import reps
from stratakit.errors import NotASubmodule
from stratakit.linalg import Matrix
from stratakit.reps import (Morphism, Rep, Submodule, cokernel, compose,
                            decompose, direct_sum, hom_basis, hom_dim, image,
                            injective, is_isomorphic, kernel, projective,
                            quotient, radical_submodule, regular_module,
                            simple, socle_submodule, top, trace)
from stratakit.tilting import probe_modules

from conftest import algebra


@pytest.mark.parametrize("name", ["a2", "a3line", "loop2", "borelA", "borelB"])
def test_regular_module_dims(name):
    a = algebra(name)
    reg = regular_module(a)
    assert reg.total_dim == a.dim
    assert reg.relations_hold()
    # e_v A e_w counts basis paths from w to v, summed over w per component
    for v in range(a.n):
        assert reg.dims[v] == len(a.basis_with_target(v))


@pytest.mark.parametrize("name", ["a2", "a3line", "loop2", "borelA", "borelB"])
def test_projective_adjunction(name):
    """dim Hom(P(i), M) = dim M_i, the defining property of P(i) = Ae_i."""
    a = algebra(name)
    probes = [regular_module(a)] + [injective(a, i) for i in range(a.n)]
    for i in range(a.n):
        for m in probes:
            assert hom_dim(projective(a, i), m) == m.dims[i]


def test_a3line_hom_between_projectives():
    # P(1) is uniserial with top E(1), socle E(3); P(2) has top E(2), socle E(3)
    # through E(1).  The only map between them goes P(1) -> P(2).
    a = algebra("a3line")
    p1, p2 = projective(a, 0), projective(a, 1)
    assert hom_dim(p2, p1) == 0
    assert hom_dim(p1, p2) == 1
    f = hom_basis(p1, p2)[0]
    assert f.is_valid() and f.is_injective() and not f.is_surjective()


def test_projective_and_injective_are_dual_sized():
    a = algebra("borelA")
    op = a.opposite()
    for i in range(a.n):
        assert injective(a, i).dims == projective(op, i).dims


def test_simple_is_top_of_projective():
    a = algebra("borelA")
    for i in range(a.n):
        t = top(projective(a, i))
        assert is_isomorphic(t, simple(a, i))


def test_kernel_image_cokernel_dimensions():
    a = algebra("a3line")
    p1, p2 = projective(a, 0), projective(a, 1)
    f = hom_basis(p1, p2)[0]
    k = kernel(f)
    img = image(f)
    c, _ = cokernel(f)
    assert sum(m.cols for m in k.bases) == 0
    assert sum(m.cols for m in img.bases) == p1.total_dim
    assert c.total_dim == p2.total_dim - p1.total_dim


def test_quotient_projection_is_surjective():
    a = algebra("borelA")
    p = projective(a, 0)
    rad = radical_submodule(p)
    q, pi = quotient(p, rad)
    assert pi.is_surjective()
    assert is_isomorphic(q, simple(a, 0))


def test_socle_and_radical_are_proper_for_nonsemisimple():
    a = algebra("loop2")
    reg = regular_module(a)
    rad = radical_submodule(reg)
    soc = socle_submodule(reg)
    assert sum(b.cols for b in rad.bases) == 1
    assert sum(b.cols for b in soc.bases) == 1


def test_trace_of_projective_detects_composition_factors():
    a = algebra("a3line")
    p2 = projective(a, 1)
    tr = trace(projective(a, 2), p2)        # trace of P(3) in P(2)
    assert sum(b.cols for b in tr.bases) == 1   # the socle copy of E(3)


def test_direct_sum_decomposes_back():
    a = algebra("a3line")
    m = direct_sum([projective(a, 0), projective(a, 0), simple(a, 2)])
    parts = decompose(m)
    total = sum(mult * part.total_dim for part, mult in parts)
    assert total == m.total_dim
    assert sorted(mult for _, mult in parts) == [1, 2]


def test_decompose_regular_gives_projectives():
    a = algebra("borelA")
    parts = decompose(regular_module(a))
    assert len(parts) == a.n
    for part, mult in parts:
        assert mult == 1
        assert any(is_isomorphic(part, projective(a, i)) for i in range(a.n))


def test_is_isomorphic_is_structural_not_nominal():
    a = algebra("loop2")
    # the regular module vs. an explicitly transposed presentation of it
    reg = regular_module(a)
    other = Rep(a, reg.dims, [Matrix.from_rows(a.field, [[0, 1], [0, 0]])])
    assert other.relations_hold()
    assert is_isomorphic(reg, other)
    assert not is_isomorphic(reg, direct_sum([simple(a, 0), simple(a, 0)]))


def test_submodule_closure_is_enforced():
    a = algebra("a2")
    p = projective(a, 0)            # dims (1, 1), arrow acts by identity
    with pytest.raises(NotASubmodule):
        Submodule(p, [Matrix.identity(a.field, 1), Matrix.zero(a.field, 1, 0)])


def test_compose_order_is_f_first():
    a = algebra("a3line")
    p1, p2 = projective(a, 0), projective(a, 1)
    f = hom_basis(p1, p2)[0]
    g = reps.identity_morphism(p2)
    assert compose(g, f).source is p1
    assert compose(g, f).target is p2


def test_simple_top_or_socle_skips_the_endomorphism_search(monkeypatch):
    a = algebra("borelA")
    calls = []

    def counting_hom_basis(m, n):
        calls.append((m, n))
        return hom_basis(m, n)

    monkeypatch.setattr(reps, "hom_basis", counting_hom_basis)
    # P(1) has simple top E(1); I(1) has simple socle E(1) but not simple top
    for m in (projective(a, 0), injective(a, 0)):
        parts = reps.decompose_with_inclusions(m)
        assert len(parts) == 1
        part, incl = parts[0]
        assert part is m and incl.is_isomorphism()
    assert top(injective(a, 0)).total_dim > 1
    assert calls == []


def test_a3line_projective_sum_splits_as_before():
    # summands, actions and inclusion bases as the eager search returned them
    a = algebra("a3line")
    F = a.field
    m = direct_sum([projective(a, 0), projective(a, 1)])
    got = [(part.dims, [x.to_rows() for x in part.action],
            [b.to_rows() for b in incl.blocks])
           for part, incl in reps.decompose_with_inclusions(m)]
    one, zero = F.one, F.zero
    assert got == [
        ((1, 0, 1), [[[]], [[one]]], [[[one], [zero]], [[]], [[one], [zero]]]),
        ((1, 1, 1), [[[one]], [[one]]],
         [[[zero], [one]], [[one]], [[zero], [one]]]),
    ]


@pytest.mark.parametrize("name", ["point", "semisimple2", "a2", "a3line",
                                  "loop2", "borelA", "borelB"])
def test_simple_top_or_socle_modules_have_local_endomorphisms(name):
    # the shortcut answers "indecomposable" where the search would too:
    # no basis endomorphism has a minimal polynomial with two distinct
    # irreducible factors, so none of them splits the module
    a = algebra(name)
    F = a.field
    fired = [m for m in probe_modules(a) if reps._simple_top_or_socle(m)]
    assert fired
    for m in fired:
        for f in hom_basis(m, m):
            mp = reps.minimal_polynomial(F, reps._total_matrix(f))
            assert len(reps._factor_min_poly(F, mp)) == 1


def test_hom_dimension_mismatch_settles_isomorphism_without_search(monkeypatch):
    probes = probe_modules(algebra("borelA"))
    mismatched = [(m, n) for m in probes for n in probes
                  if m is not n and m.dims == n.dims
                  and len({len(reps.hom_basis(m, n)), len(reps.hom_basis(m, m)),
                           len(reps.hom_basis(n, n))}) > 1]
    assert mismatched

    def no_search(homs, predicate, budget=400):
        raise AssertionError("_combo_search called")

    monkeypatch.setattr(reps, "_combo_search", no_search)
    for m, n in mismatched:
        assert reps.find_isomorphism(m, n) is None
