"""Representations: projectives, injectives, hom spaces, decomposition."""

import io
import random
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratakit import homology, linalg, parse, poly, reps, strat, tilting
from stratakit.cli import main
from stratakit.errors import (AlgebraMismatch, NotASubmodule,
                              UndecidedDecomposition)
from stratakit.linalg import Matrix
from stratakit.parser import parse_file
from stratakit.reps import (Morphism, Rep, Submodule, cokernel, compose,
                            decompose, direct_sum, generated_submodule,
                            hom_basis, hom_dim, image, injective,
                            is_isomorphic, kernel, projective, quotient,
                            radical_submodule, regular_module, simple,
                            socle_submodule, top)
from stratakit.tilting import probe_modules

from conftest import (algebra, auslander, fixture_path, is_module_map,
                      is_surjective)


def _rows(m):
    return [m.row(i) for i in range(m.rows)]


@pytest.mark.parametrize("name", ["a2", "a3line", "loop2", "borelA", "borelB"])
def test_regular_module_dims(name):
    a = algebra(name)
    reg = regular_module(a)
    assert reg.total_dim == a.dim
    assert reg.relations_hold()
    # e_v A e_w counts basis paths from w to v, summed over w per component
    for v in range(a.n):
        assert reg.dims[v] == sum(a.path_target(p) == v for p in a.basis)


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
    assert is_module_map(f) and f.is_injective() and not is_surjective(f)


HOM_CASES = ["point", "semisimple2", "a2", "a3line", "loop2", "borelA",
             "borelB", "aus3", "aus4", "aus5"]


def _hom_modules(a):
    """The simples, projectives, injectives, Δ, ∇ and, where it exists,
    the T(λ) of a."""
    mods = []
    for i in range(a.n):
        mods += [simple(a, i), projective(a, i), injective(a, i),
                 strat.standard(a, i), strat.costandard(a, i)]
    if strat.classify(a).standardly_stratified:
        mods += tilting.characteristic_tilting(a).summands
    return mods


@pytest.mark.parametrize("name", HOM_CASES)
def test_hom_matches_the_kernel_of_its_system(name):
    # hom_dim and hom_basis, with their support test and memo, against one
    # elimination of the intertwining system per pair, disjoint pairs too
    a = auslander(int(name[3:])) if name.startswith("aus") else algebra(name)
    mods = _hom_modules(a)
    disjoint = 0
    for m in mods:
        for n in mods:
            ref = linalg.kernel_basis(reps._hom_system(m, n)[0])
            assert hom_dim(m, n) == len(ref), (name, m, n)
            assert [f.flat() for f in hom_basis(m, n)] == ref, (name, m, n)
            disjoint += not m.support & n.support
    assert disjoint or a.n == 1


def test_support_is_the_vertices_where_the_module_lives():
    a = algebra("borelA")
    for m in _hom_modules(a):
        assert m.support == sum(1 << v for v in range(a.n) if m.dims[v])
    assert reps.zero_rep(a).support == 0


def test_hom_across_algebras_with_disjoint_supports_is_a_mismatch():
    a = algebra("a3line")
    m, n = simple(a, 0), simple(a.opposite(), 1)
    assert not m.support & n.support
    for x, y in ((m, n), (n, m)):
        for hom in (hom_dim, hom_basis):
            with pytest.raises(AlgebraMismatch):
                hom(x, y)


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
    assert is_surjective(pi)
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
    # the trace of P(3) in P(2) is generated by the vectors of P(2) at 3
    at3 = Matrix.identity(a.field, p2.dims[2]).columns()
    tr = generated_submodule(p2, [(2, x) for x in at3])
    assert sum(b.cols for b in tr.bases) == 1   # the socle copy of E(3)
    assert all(tr.contains(image(f))
               for f in hom_basis(projective(a, 2), p2))


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
    got = [(part.dims, [_rows(x) for x in part.action],
            [_rows(b) for b in incl.blocks])
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
    # every basis endomorphism has minimal polynomial (x - c)^m with c in k,
    # so none of them splits the module
    a = algebra(name)
    F = a.field
    fired = [m for m in probe_modules(a) if reps._simple_top_or_socle(m)]
    assert fired
    for m in fired:
        for f in hom_basis(m, m):
            mp = reps.minimal_polynomial(F, reps._total_matrix(f))
            [(g, mult)] = poly._factor(F, mp)
            assert len(g) == 2 and mult == len(mp) - 1


def test_hom_dimension_mismatch_settles_isomorphism_without_search(monkeypatch):
    # the memoised dimensions of Hom(m, n), End(m) and End(n) are compared
    # before any basis of Hom(m, n) is built or either module decomposed
    probes = probe_modules(algebra("borelA"))
    mismatched = [(m, n) for m in probes for n in probes
                  if m is not n and m.dims == n.dims
                  and len({hom_dim(m, n), hom_dim(m, m), hom_dim(n, n)}) > 1]
    assert mismatched

    def no_search(*modules):
        raise AssertionError("hom_basis or decompose_with_inclusions called")

    monkeypatch.setattr(reps, "decompose_with_inclusions", no_search)
    monkeypatch.setattr(reps, "hom_basis", no_search)
    for m, n in mismatched:
        assert reps.find_isomorphism(m, n) is None


def test_simple_top_or_socle_settles_isomorphism_by_basis_scan(monkeypatch):
    # non-isomorphic pairs that pass the Hom-dimension filter: the basis
    # scan must settle them, without decomposing either module
    probes = probe_modules(algebra("borelA"))
    passing = [(m, n) for m in probes for n in probes
               if m is not n and m.dims == n.dims and reps.hom_basis(m, n)
               and len({len(reps.hom_basis(m, n)), len(reps.hom_basis(m, m)),
                        len(reps.hom_basis(n, n))}) == 1]
    assert any(len(reps.hom_basis(m, n)) > 1 for m, n in passing)

    def no_decomposition(m):
        raise AssertionError("decompose_with_inclusions called")

    monkeypatch.setattr(reps, "decompose_with_inclusions", no_decomposition)
    for m, n in passing:
        assert reps._simple_top_or_socle(m) or reps._simple_top_or_socle(n)
        assert reps.find_isomorphism(m, n) is None


def _loopa(field, power):
    """k[x]/(x^power) at vertex 1 with an arrow a: 1 -> 2, order 1 < 2."""
    loop = ".".join(["x"] * power)
    return parse(f"field {field}\nvertices 1 2\narrow x 1 1\narrow a 1 2\n"
                 f"relation 1*{loop}\n").build()


@pytest.mark.parametrize("power,ext1,t2", [(2, 2, (2, 1)), (3, 3, (3, 1))],
                         ids=["x2", "x3"])
@pytest.mark.parametrize("field", ["Q", "GF 2"])
def test_loopa_tilting_extends_by_generators(field, power, ext1, t2,
                                             monkeypatch):
    # End(Delta(1)) = k[x]/(x^power) is not k, and Ext^1(Delta(1), Delta(2))
    # is free of rank 1 over it: one generator, where a k-basis extension
    # would add a copy of Delta(1) per basis element and split
    a = _loopa(field, power)
    d1, d2 = strat.standard_family(a)
    assert homology.ext_dim(1, d1, d2) == ext1
    middle, _, _ = homology.universal_extension(d1, d2)
    assert middle.dims == t2
    decompose = reps.decompose_with_inclusions
    calls = []

    def recording(m, *args):
        calls.append(decompose(m, *args))
        return calls[-1]

    monkeypatch.setattr(reps, "decompose_with_inclusions", recording)
    tilt = tilting.characteristic_tilting(a)
    assert [t.dims for t in tilt.summands] == [(power, 0), t2]
    assert calls and all(len(parts) == 1 for parts in calls)
    assert tilt.verify()


# -- decompositions that split ------------------------------------------------

def _kronecker(companions, field="Q", seed=None):
    """The Kronecker module (k^n, k^n; I, B) with B block diagonal in the
    companion matrices of the given monic polynomials (ascending, no lead).
    With a seed, both vector spaces get a random basis."""
    a = parse(f"field {field}\nvertices 1 2\narrow a 1 2\narrow b 1 2\n").build()
    F = a.field
    n = sum(len(low) for low in companions)
    b = [[F.zero] * n for _ in range(n)]
    off = 0
    for low in companions:
        d = len(low)
        for i in range(1, d):
            b[off + i][off + i - 1] = F.one
        for i in range(d):
            b[off + i][off + d - 1] = F.neg(F.of(low[i]))
        off += d
    action = [Matrix.identity(F, n), Matrix.from_rows(F, b)]
    if seed is not None:
        rng = random.Random(seed)
        p, q = [_random_invertible(F, n, rng) for _ in range(2)]
        action = [q.mul(x).mul(linalg.inverse(p)) for x in action]
    return Rep(a, (n, n), action)


def _random_invertible(F, n, rng):
    while True:
        m = Matrix(F, n, n, [F.of(rng.randint(-3, 3)) for _ in range(n * n)])
        if linalg.is_invertible(m):
            return m


def _count_minimal_polynomials(monkeypatch):
    calls = []
    real = reps.minimal_polynomial

    def counting(F, mat):
        calls.append(mat)
        return real(F, mat)

    monkeypatch.setattr(reps, "minimal_polynomial", counting)
    return calls


def test_kronecker_module_without_eigenvalue_in_q_is_indecomposable(
        monkeypatch):
    # End = Q[x]/(x^2 + 1) is a field: B = [[0, -1], [1, 0]] has no
    # eigenvalue.  The first basis endomorphism has minimal polynomial of
    # degree dim End, so End = Q[f] is local and no other candidate is tried
    m = _kronecker([[1, 0]])
    assert _rows(m.action[1]) == [[0, -1], [1, 0]]
    calls = _count_minimal_polynomials(monkeypatch)
    [(part, incl)] = reps.decompose_with_inclusions(m)
    assert part is m and incl.is_isomorphism()
    assert len(calls) == 1


@pytest.mark.parametrize("companions", [[[-2, 0], [-3, 0]], [[6, 0, -5, 0]]])
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_kronecker_modules_of_coprime_quadratics_split(companions, seed):
    # K(x^2 - 2) + K(x^2 - 3) = K(x^4 - 5x^2 + 6), also in random bases: no
    # endomorphism has an eigenvalue in Q, and the split needs the factors
    # x^2 - 2 and x^2 - 3 of a minimal polynomial
    m = _kronecker(companions, seed=seed)
    parts = reps.decompose(m)
    assert [(part.dims, mult) for part, mult in parts] == [((2, 2), 1)] * 2
    assert not is_isomorphic(parts[0][0], parts[1][0])


@pytest.mark.parametrize("field, low", [
    ("Q", [-2, 0, 0, 0]), ("Q", [1, 0, -10, 0]), ("GF 2", [1, 1, 0, 0]),
    ("GF 3", [2, 1, 0, 0])])
def test_kronecker_modules_of_irreducible_quartics_are_indecomposable(
        field, low, monkeypatch):
    # End = k[x]/(f) is a field for f = x^4 - 2 and x^4 - 10x^2 + 1 over Q,
    # x^4 + x + 1 over GF(2) and x^4 + x + 2 over GF(3), so in a random
    # basis every non-scalar endomorphism has an irreducible quartic as its
    # minimal polynomial and nothing splits; the first one certifies that
    m = _kronecker([low], field, seed=3)
    calls = _count_minimal_polynomials(monkeypatch)
    [(part, incl)] = reps.decompose_with_inclusions(m)
    assert part is m and incl.is_isomorphism()
    assert len(calls) == 1


def _with_end_basis(monkeypatch, m, basis):
    """Make hom_basis(m, m) return the given basis; other calls go through."""
    real = reps.hom_basis
    monkeypatch.setattr(reps, "hom_basis", lambda x, y: basis if x is m and
                        y is m else real(x, y))


@pytest.mark.parametrize("field", ["Q", "GF 3"])
def test_matrix_algebra_splits_by_the_closure_of_nilpotent_parts(
        field, monkeypatch):
    # End(E + E) = M_2(k) in the basis I, e12, e21, [[1, 1], [-1, -1]]: every
    # minimal polynomial is a prime power, so the scan splits nothing; the
    # product e21·e12 = e22 is not nilpotent and splits m
    a = parse(f"field {field}\nvertices 1\n").build()
    e = simple(a, 0)
    m = direct_sum([e, e])
    F = a.field
    one, zero, neg = F.one, F.zero, F.neg(F.one)
    basis = [Morphism(m, m, [Matrix.from_rows(F, rows)]) for rows in (
        [[one, zero], [zero, one]], [[zero, one], [zero, zero]],
        [[zero, zero], [one, zero]], [[one, one], [neg, neg]])]
    assert linalg.rank(Matrix.from_rows(F, [f.flat() for f in basis])) == 4
    for f in basis:
        mp = reps.minimal_polynomial(F, reps._total_matrix(f))
        assert len(poly._factor(F, mp)) == 1
    _with_end_basis(monkeypatch, m, basis)
    calls = _count_minimal_polynomials(monkeypatch)
    parts = reps.decompose_with_inclusions(m)
    assert len(calls) == 5              # the basis, then e22
    assert [part.dims for part, _ in parts] == [(1,), (1,)]
    assert all(is_isomorphic(part, e) for part, _ in parts)
    assert all(is_module_map(incl) and incl.is_injective()
               for _, incl in parts)
    assert linalg.is_invertible(linalg.hstack([i.blocks[0] for _, i in parts]))


def test_ringel_dual_module_is_indecomposable_in_dim_end_minimal_polynomials(
        monkeypatch):
    # characteristic_tilting of borelA's Ringel dual decomposes a (2, 2, 1)
    # module whose End is local of dimension 3 but not k[f] for any basis f
    seen = []
    real = reps.decompose_with_inclusions

    def recording(m):
        seen.append(m)
        return real(m)

    monkeypatch.setattr(reps, "decompose_with_inclusions", recording)
    b = tilting.ringel_dual(algebra("borelA"))
    tilting.characteristic_tilting(b)
    monkeypatch.setattr(reps, "decompose_with_inclusions", real)
    [m] = {x.key(): x for x in seen if x.dims == (2, 2, 1)
           and not reps._simple_top_or_socle(x)}.values()
    F = b.field
    endos = hom_basis(m, m)
    assert len(endos) == 3
    for f in endos:
        [(g, mult)] = poly._factor(F, reps.minimal_polynomial(
            F, reps._total_matrix(f)))
        assert (len(g) - 1) * mult < 3
    calls = _count_minimal_polynomials(monkeypatch)
    [(part, incl)] = reps.decompose_with_inclusions(m)
    assert part is m and incl.is_isomorphism()
    assert len(calls) <= 3


# dim 14 over GF(3): loops x0, x3 at 2 and two arrows 2 -> 1.  Confirming
# that T(1) = (21, 1) is indecomposable closes about 2 000 products of
# nilpotent parts, each reduced against the span built so far
LOOPS_GF3 = "".join(
    ["field GF 3\nvertices 2 1\n", "arrow x0 2 2\narrow x3 2 2\n",
     "arrow x1 2 1\narrow x2 2 1\n"]
    + [f"relation 1*{r}\n" for r in (
        "x0.x3", "x1.x3.x3", "x0.x0.x0", "x2.x0.x0", "x3.x0.x3", "x1.x3",
        "x1.x0.x3", "x3.x3.x3", "x3.x3.x0", "x2.x3.x0", "x2.x3.x3")])


def test_nilpotent_closure_reduces_each_product_once(monkeypatch):
    # the closure keeps its span in echelon form: no rref of the whole span
    # per candidate product
    closure = reps.decompose_with_inclusions.__code__
    frames = {closure} | {c for c in closure.co_consts
                          if isinstance(c, type(closure))}
    callers = []
    real = linalg.pivot_columns

    def recording(*args):
        callers.append(sys._getframe(1).f_code)
        return real(*args)

    monkeypatch.setattr(linalg, "pivot_columns", recording)
    a = parse(LOOPS_GF3).build()
    assert a.dim == 14
    tilt = tilting.characteristic_tilting(a)
    assert [t.dims for t in tilt.summands] == [(7, 0), (21, 1)]
    assert tilt.verify()
    assert not frames.intersection(callers)


def _field_module(quiver, mult):
    """The module (I, X, ...) over the Kronecker quiver with one arrow
    1 -> 2 for the identity and one for each given matrix X.  Its End is
    the centraliser of the X's: E itself when they generate the
    multiplications of a commutative algebra E on itself."""
    a = parse("field Q\nvertices 1 2\n" + "".join(
        f"arrow {name} 1 2\n" for name in quiver)).build()
    F = a.field
    mats = [Matrix.from_rows(F, rows) for rows in mult]
    identity = Matrix.identity(F, mats[0].rows)
    return Rep(a, (identity.rows, identity.rows), [identity] + mats)


def _kronecker_quadratic_nilpotent():
    # (I, B), B = S + N with S = diag(J, J), J^2 = -1, and N^2 = 0 above
    # the diagonal: End = Q[B] = Q(i)[t]/(t^2), in the basis 1, S, N, SN
    s = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    n = [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]
    m = _field_module("ab", [[[x + y for x, y in zip(rs, rn)]
                              for rs, rn in zip(s, n)]])
    F = m.algebra.field
    s, n = Matrix.from_rows(F, s), Matrix.from_rows(F, n)
    return m, [Matrix.identity(F, 4), s, n, s.mul(n)]


def _biquadratic():
    # E = Q(√2, √3) in the basis 1, √2, √3, √6, multiplied by √2 and √3
    r2 = [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]]
    r3 = [[0, 0, 3, 0], [0, 0, 0, 3], [1, 0, 0, 0], [0, 1, 0, 0]]
    m = _field_module("abc", [r2, r3])
    F = m.algebra.field
    r2, r3 = Matrix.from_rows(F, r2), Matrix.from_rows(F, r3)
    return m, [Matrix.identity(F, 4), r2, r3, r2.mul(r3)]


@pytest.mark.parametrize("build", [_kronecker_quadratic_nilpotent,
                                   _biquadratic],
                         ids=["quadratic_nilpotent", "biquadratic"])
def test_pairwise_sums_decide_what_the_closure_leaves(build, monkeypatch):
    # no basis element certifies End local, and the nilpotent parts (0, 0,
    # N, SN, or all 0) close at once, but the basis is not scalar modulo
    # them.  The fourth pairwise sum, S + N = B or √2 + √3, has a minimal
    # polynomial of degree 4 = dim End, so End is local
    m, mats = build()
    basis = [Morphism(m, m, [x, x]) for x in mats]
    assert all(is_module_map(f) for f in basis)
    assert len(hom_basis(m, m)) == 4
    _with_end_basis(monkeypatch, m, basis)
    calls = _count_minimal_polynomials(monkeypatch)
    [(part, incl)] = reps.decompose_with_inclusions(m)
    assert part is m and incl.is_isomorphism()
    assert len(calls) == 8              # the basis, then four sums


def test_undecided_decomposition_is_an_error_not_an_answer():
    # multiplications by i, s and t on E = Q(i)[s, t]/(s, t)^2 in the basis
    # 1, i, s, is, t, it.  End = E is local of dimension 6, but each element
    # a + n (a in Q(i), n^2 = 0) has a minimal polynomial of degree at most
    # 4, so no element or sum certifies it, and End is not Q + S
    z = [0] * 6
    li = [[0, -1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, -1, 0, 0],
          [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 1, 0]]
    ls = [z, z, [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], z, z]
    lt = [z, z, z, z, [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]
    m = _field_module("abcd", [li, ls, lt])
    assert len(hom_basis(m, m)) == 6
    with pytest.raises(UndecidedDecomposition):
        reps.decompose_with_inclusions(m)


# -- quotients and submodule coordinates --------------------------------------

def reference_quotient(m, s):
    """(m / s, projection).  The projection's kernel is exactly s."""
    a = m.algebra
    F = a.field
    if s.ambient is not m and s.ambient.dims != m.dims:
        raise AssertionError("submodule of a different module")
    projs, sections = [], []
    qdims = []
    for v in range(a.n):
        B = s.bases[v]
        d = m.dims[v]
        # choose complementary standard basis vectors via column pivots of [B | I]
        full = linalg.hstack([B, Matrix.identity(F, d)]) if d else Matrix(F, 0, B.cols, [])
        _, pivots = linalg.rref(full)
        comp_cols = [c - B.cols for c in pivots if c >= B.cols]
        C = Matrix.from_columns(F, [[F.one if i == c else F.zero for i in range(d)]
                                    for c in comp_cols], rows=d)
        qdims.append(len(comp_cols))
        # projection: coordinates on the complement part of the basis [B | C]
        if d:
            T = linalg.inverse(linalg.hstack([B, C]))
            proj = Matrix(F, len(comp_cols), d,
                          [T[B.cols + i, j] for i in range(len(comp_cols)) for j in range(d)])
        else:
            proj = Matrix(F, 0, 0, [])
        projs.append(proj)
        sections.append(C)
    action = []
    for ai, (_, sv, tv) in enumerate(a.arrows):
        action.append(projs[tv].mul(m.action[ai]).mul(sections[sv]))
    q = Rep(a, qdims, action)
    pi = Morphism(m, q, projs)
    pi.section_blocks = sections        # linear (not module) sections, used for lifts
    return q, pi


_QUOTIENT_ALGEBRAS = {}


def _quotient_algebra(name, field):
    """A fixture's quiver and relations over the given field."""
    key = (name, field)
    if key not in _QUOTIENT_ALGEBRAS:
        with open(fixture_path(name + ".alg"), encoding="utf-8") as fh:
            text = "".join(f"field {field}\n" if line.startswith("field ")
                           else line for line in fh)
        _QUOTIENT_ALGEBRAS[key] = parse(text).build()
    return _QUOTIENT_ALGEBRAS[key]


def _rebased(m, rng):
    """m in a random basis at each vertex, so that submodule bases are dense."""
    a, F = m.algebra, m.algebra.field
    change = [_random_invertible(F, d, rng) for d in m.dims]
    inv = [linalg.inverse(c) for c in change]
    return Rep(a, m.dims, [change[t].mul(x).mul(inv[s]) for x, (_, s, t)
                           in zip(m.action, a.arrows)])


def _random_vector(F, d, rng):
    return [F.of(rng.randint(-2, 2)) for _ in range(d)]


def _random_submodule(m, kind, rng):
    a, F = m.algebra, m.algebra.field
    if kind == "radical":
        return radical_submodule(m)
    if kind == "generated":
        gens = [(v, _random_vector(F, m.dims[v], rng))
                for v in range(a.n) if m.dims[v] for _ in range(rng.randint(0, 1))]
        return generated_submodule(m, gens)
    f = reps.zero_morphism(m, m)
    for e in hom_basis(m, m):
        f = f.add(e.scale(F.of(rng.randint(-2, 2))))
    return kernel(f)


@settings(max_examples=60)
@given(st.sampled_from([("borelA", "Q"), ("borelA", "GF 3"), ("a3line", "GF 101"),
                        ("loop2", "Q"), ("borelB", "GF 2")]),
       st.sampled_from(["radical", "generated", "kernel"]),
       st.integers(0, 10 ** 6))
def test_quotient_matches_reference(fixture, kind, seed):
    # the echelon-form complement is the greedy one, and the projection
    # with that kernel and those fixed vectors is unique: every block agrees
    a = _quotient_algebra(*fixture)
    rng = random.Random(seed)
    parts = [rng.choice([projective, injective])(a, rng.randrange(a.n))
             for _ in range(rng.randint(1, 2))]
    m = _rebased(direct_sum(parts), rng)
    sub = _random_submodule(m, kind, rng)
    q, pi = quotient(m, sub)
    want_q, want_pi = reference_quotient(m, sub)
    assert q.dims == want_q.dims
    assert q.action == want_q.action
    assert pi.blocks == want_pi.blocks
    assert pi.section_blocks == want_pi.section_blocks
    assert is_module_map(pi) and is_surjective(pi)


@pytest.mark.parametrize("name", ["a3line", "loop2", "borelA", "borelB"])
def test_as_rep_matches_solving_column_by_column(name):
    a = algebra(name)
    F = a.field
    for m in probe_modules(a):
        for sub in (radical_submodule(m), socle_submodule(m)):
            rep, incl = sub.as_rep()
            assert is_module_map(incl) and incl.is_injective()
            for ai, (_, s, t) in enumerate(a.arrows):
                img = m.action[ai].mul(sub.bases[s])
                cols = [linalg.solve(sub.bases[t], Matrix(F, img.rows, 1, img.column(j)))
                        for j in range(img.cols)]
                assert rep.action[ai] == Matrix.from_columns(
                    F, [c.entries for c in cols], rows=sub.bases[t].cols)


def test_simple_projective_and_injective_are_built_once():
    # and so is every other result cached per algebra through built_once
    a = algebra("borelA")
    for build in (simple, projective, injective):
        for i in range(a.n):
            assert build(a, i) is build(a, i)
    for build in (strat.classify, tilting.characteristic_tilting,
                  tilting.characteristic_cotilting, tilting.s_iso_t,
                  probe_modules):
        assert build(a) is build(a)
    assert tilting.gfd_algebra(a, 20) is tilting.gfd_algebra(a, 20)
    with pytest.raises(reps.UnknownVertex):
        projective(a, a.n)


def test_keys_are_interned_per_algebra():
    # equal modules built apart share one small int; different ones do not
    a = parse_file(fixture_path("a3line.alg")).build()
    reg, twin = regular_module(a), regular_module(a)
    assert reg is not twin and reg.key() == twin.key()
    assert type(reg.key()) is int
    assert len({simple(a, i).key() for i in range(a.n)} | {reg.key()}) == a.n + 1


def test_structural_memo_checks_the_algebra_first():
    # interned keys do not name their algebra, so two algebras number their
    # first modules alike; a memo hit must not hide the mismatch
    a = parse_file(fixture_path("a3line.alg")).build()
    b = parse_file(fixture_path("a3line.alg")).build()
    m, n = simple(a, 0), simple(b, 0)
    assert hom_dim(m, m) == 1
    assert m.key() == n.key()
    for x, y in ((m, n), (n, m)):
        with pytest.raises(AlgebraMismatch):
            hom_dim(x, y)
    with pytest.raises(AlgebraMismatch):
        strat.filtration_certificate(m, strat.standard_family(b))


def test_cache_keys_are_namespaced():
    # built_once keys start with a bare function name, by_structure keys
    # with a dotted one, so an interned int never meets a built_once key
    a = parse_file(fixture_path("borelB.alg")).build()
    tilting.gfd_algebra(a, 20)
    names = {key[0] for key in a.cache}
    assert all(type(key) is tuple and type(key[0]) is str for key in a.cache)
    assert {"simple", "classify", "gfd_algebra"} <= names
    assert {"stratakit.reps._hom_kernel", "stratakit.homology.syzygy_step",
            "stratakit.strat._top_kernel",
            "stratakit.strat._trace_certificate"} <= names


def test_structural_memo_keys_on_fresh_modules():
    # the key is (dotted name, each module's key, other arguments), and a
    # fresh module's key is interned on first use
    a = parse_file(fixture_path("a3line.alg")).build()
    m, n, f = simple(a, 0), projective(a, 1), projective(a, 2)
    assert (m._key, n._key, f._key) == (None, None, None)
    reps._hom_kernel(m, n)
    homology.syzygy_step(m)
    strat._top_kernel(f, 2)

    def keys(name):
        return {k for k in a.cache if k[0] == name}

    assert keys("stratakit.reps._hom_kernel") == {
        ("stratakit.reps._hom_kernel", m.key(), n.key())}
    # the top kernel reads f's syzygy step
    assert keys("stratakit.homology.syzygy_step") == {
        ("stratakit.homology.syzygy_step", m.key()),
        ("stratakit.homology.syzygy_step", f.key())}
    assert keys("stratakit.strat._top_kernel") == {
        ("stratakit.strat._top_kernel", f.key(), 2)}
    assert all(type(x) is int for k in a.cache if "." in k[0] for x in k[1:])


def test_total_dim_is_the_sum_of_dims_on_a_borel_check(monkeypatch):
    built = []
    init = Rep.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Rep, "__init__", recording)
    with redirect_stdout(io.StringIO()):
        assert main(["check", fixture_path("borelA.alg"),
                     "--borel", fixture_path("borelB.alg")]) == 0
    assert len(built) > 100
    assert all(r.total_dim == sum(r.dims) for r in built)


def test_quotient_issues_one_rref_per_vertex_and_no_inverse(monkeypatch):
    # a zero vertex and a vertex where the submodule is zero take no rref;
    # the others take one each, and no vertex takes an inverse
    a = algebra("a3line")
    m = direct_sum([projective(a, 0), simple(a, 0)])     # dims (2, 0, 1)
    sub = radical_submodule(m)
    assert 0 in m.dims
    assert any(d and not b.cols for d, b in zip(m.dims, sub.bases))
    calls = {"rref": 0, "inverse": 0}
    for name in calls:
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, _name=name, _real=real: (
            calls.__setitem__(_name, calls[_name] + 1) or _real(*args)))
    q, _ = quotient(m, sub)
    assert calls["inverse"] == 0
    assert 0 < calls["rref"] <= sum(1 for d, b in zip(m.dims, sub.bases)
                                    if d and b.cols)
    assert q.dims == tuple(d - b.cols for d, b in zip(m.dims, sub.bases))
    # one solve, so one rref, per arrow
    calls["rref"] = 0
    sub.as_rep()
    assert calls["rref"] <= len(a.arrows)
