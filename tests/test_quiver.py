"""Path algebra construction: bases, associativity, opposites, bad input."""

import itertools
from contextlib import contextmanager, suppress
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratakit import quiver, reps
from stratakit.borel import Embedding, check_embedding
from stratakit.errors import (MalformedRelation, NotAdmissible, NotInjective,
                              NotStratified, StratakitError, UnknownVertex)
from stratakit.fields import GF, QQ, FieldSpec
from stratakit.linalg import Matrix
from stratakit.parser import parse, parse_file
from stratakit.quiver import (Path, PathAlgebra, QuiverSpec, _insert_row,
                              _path_key, build_algebra)

from stratakit.tilting import ringel_dual

from conftest import (algebra, auslander_text, fixture_path, graded_specs,
                      monomial_specs)
from test_certificate_corpus import CORPUS, QUIVERS
from test_cli import machine_dict, run_cli


def test_fixture_dimensions():
    assert algebra("point").dim == 1
    assert algebra("semisimple2").dim == 2
    assert algebra("loop2").dim == 2
    assert algebra("a2").dim == 3
    assert algebra("a3line").dim == 6
    assert algebra("borelA").dim == 14
    assert algebra("borelB").dim == 6


@pytest.mark.parametrize("name", ["loop2", "a3line", "borelA", "borelB"])
def test_multiplication_associative_on_basis(name):
    # on the regular module a product q.p of basis paths acts as its normal
    # form does, that is (x.p).q = x.(q.p) for every basis path x
    a = algebra(name)
    reg = reps.regular_module(a)
    for p, q in itertools.product(a.basis, repeat=2):
        if a.path_target(p) != q.src:
            continue
        arrs = p.arrs + q.arrs
        expect = Matrix.zero(a.field, reg.dims[a.path_target(q)],
                             reg.dims[p.src])
        for r, c in a.nf_path(p.src, arrs).items():
            expect = expect.add(reps.path_matrix(reg, r.src, r.arrs).scale(c))
        assert reps.path_matrix(reg, p.src, arrs) == expect


@pytest.mark.parametrize("name", ["a2", "a3line", "loop2", "borelA"])
def test_opposite_is_an_involution(name):
    a = algebra(name)
    op = a.opposite()
    assert op.dim == a.dim
    assert op.opposite() is a
    # each opposite arrow swaps the endpoints of the original
    for (nm, s, t), (nm2, s2, t2) in zip(a.arrows, op.arrows):
        assert nm == nm2 and (s, t) == (t2, s2)


def test_basis_respects_relations():
    a = algebra("borelA")
    # gamma.delta = 0, so the path "delta then gamma" must not survive
    d, g = a.arrow_index("delta"), a.arrow_index("gamma")
    assert a.nf_path(a.arrows[d][1], (d, g)) == {}


def test_non_composable_path_is_zero():
    a = algebra("borelA")
    d, g = a.arrow_index("delta"), a.arrow_index("gamma")
    # gamma then delta composes; delta then delta and a wrong start do not
    assert a.nf_path(a.arrows[g][1], (g, d))
    assert a.nf_path(a.arrows[d][1], (d, d)) == {}
    assert a.nf_path(a.arrows[d][2], (d,)) == {}
    assert a.nf_path(a.arrows[d][1], (d, g, d, d)) == {}


def test_embedding_word_that_does_not_compose_is_zero():
    # an embedding file may send an arrow to a word whose arrows do not
    # compose; that word is 0 in kQ, so the image is 0 and not an error
    b = algebra("a2")
    a = build_algebra(QuiverSpec(["1", "2"], [("p", "1", "2"), ("q", "1", "2")],
                                 [], QQ))
    e = Embedding(b, a, {"a": [(1, ("p", "q"))]})
    assert e.arrow_imgs[0] == {}
    with pytest.raises(NotInjective):
        check_embedding(e)


def test_loop_without_relation_is_not_admissible():
    spec = QuiverSpec(["1"], [("x", "1", "1")], [], QQ)
    with pytest.raises(NotAdmissible):
        build_algebra(spec, degree_cap=16)


def test_length_one_relation_is_malformed():
    spec = QuiverSpec(["1", "2"], [("a", "1", "2")],
                      [[(1, ("a",))]], QQ)
    with pytest.raises(MalformedRelation):
        build_algebra(spec)


def test_non_parallel_relation_is_malformed():
    spec = QuiverSpec(["1", "2", "3"],
                      [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3"),
                       ("d", "3", "1")],
                      [[(1, ("a", "b")), (1, ("c", "d"))]], QQ)
    with pytest.raises(MalformedRelation):
        build_algebra(spec)


def test_unknown_vertex_rejected():
    with pytest.raises(UnknownVertex):
        QuiverSpec(["1"], [("a", "1", "9")], [], QQ)


def test_gf2_loop_square_zero():
    spec = QuiverSpec(["1"], [("x", "1", "1")], [[(1, ("x", "x"))]], GF(2))
    a = build_algebra(spec)
    assert a.dim == 2
    x = a.arrow_index("x")
    assert a.nf_path(0, (x, x)) == {}


AUSLANDER3 = """name aus3
field GF 101
vertices 3 2 1
arrow a1 1 2
arrow b1 2 1
arrow a2 2 3
arrow b2 3 2
relation 1*b1.a1
relation 1*a1.b1 - 1*b2.a2
"""


def test_multi_term_relation_auslander_algebra(tmp_path):
    # Auslander algebra of k[x]/(x^3): vertex i is k[x]/(x^i), a_i includes
    # i into i+1 and b_i projects back.  Its second relation has two terms.
    assert parse(AUSLANDER3).build().dim == 14
    path = tmp_path / "aus3.alg"
    path.write_text(AUSLANDER3)
    code, out, _ = run_cli(["check", str(path), "--format", "machine"])
    assert code == 0
    d = machine_dict(out)
    assert d["class.kind"] == "quasi-hereditary"
    assert d["dims.gl_dim"] == "2"
    assert d["dims.pd_T"] == "1"
    assert d["dims.inj_T"] == "1"
    assert [d[f"tilting.T({v})"] for v in "321"] == ["1 0 0", "2 1 0", "3 2 1"]


# -- the enumerating builder, kept as the reference for tip reduction ---------
#
# It lists every path of each length and every u.r.v, and treats a path of
# length max_len + 1 that is not a pivot as 0.  It is right when every term
# of a relation has the same length.


class ReferencePathAlgebra(PathAlgebra):
    def nf_path(self, src, arrs):
        """Normal form of the path (src, arrs) as {basis Path: coeff}."""
        F = self.field
        if len(arrs) <= self.max_len + 1:
            p = Path(src, tuple(arrs))
            if p in self._red:
                return dict(self._red[p])
            if p in self.basis_index:
                return {p: F.one}
            # length max_len + 1 and not a pivot: the path is dead
            return {}
        head = self.nf_path(src, arrs[:-1])
        last = arrs[-1]
        out = {}
        for q, c in head.items():
            if self.path_target(q) != self.arrows[last][1]:
                continue  # cannot happen: normal forms preserve endpoints
            for r, c2 in self.nf_path(q.src, q.arrs + (last,)).items():
                acc = F.add(out.get(r, F.zero), F.mul(c, c2))
                if F.is_zero(acc):
                    out.pop(r, None)
                else:
                    out[r] = acc
        return out


def _reduce_vec(field, echelon, row):
    """Fully reduce a vector by the echelon (echelon need not be back-substituted)."""
    F = field
    row = {p: c for p, c in row.items() if not F.is_zero(c)}
    done = {}
    while row:
        lead = max(row, key=_path_key)
        c = row.pop(lead)
        if lead in echelon:
            for p, c2 in echelon[lead].items():
                if p == lead:
                    continue
                acc = F.sub(row.get(p, F.zero), F.mul(c, c2))
                if F.is_zero(acc):
                    row.pop(p, None)
                else:
                    row[p] = acc
        else:
            done[lead] = c
    return done


def reference_build_algebra(spec, degree_cap=64):
    """Build kQ/I, reducing the span of paths degree by degree.

    Raises NotAdmissible when some cycle survives past the degree cap and
    MalformedRelation for non-parallel or too-short relation terms.
    """
    F = spec.field
    if not isinstance(F, FieldSpec):
        raise StratakitError("spec.field must be a FieldSpec")
    nverts = len(spec.vertices)
    vindex = {v: i for i, v in enumerate(spec.vertices)}
    arrows = [(a, vindex[s], vindex[t]) for (a, s, t) in spec.arrows]
    aindex = {a[0]: i for i, a in enumerate(spec.arrows)}

    def arr_src(i):
        return arrows[i][1]

    def arr_tgt(i):
        return arrows[i][2]

    def seq_endpoints(idxseq):
        src = arr_src(idxseq[0])
        cur = src
        for i in idxseq:
            if arr_src(i) != cur:
                raise MalformedRelation("non-composable path in relation")
            cur = arr_tgt(i)
        return src, cur

    # resolve + validate relations
    relations = []
    for rel in spec.relations:
        terms = []
        endpoints = None
        for coeff, namesseq in rel:
            if len(namesseq) < 2:
                raise MalformedRelation("relation term shorter than 2 arrows")
            try:
                idxseq = tuple(aindex[nm] for nm in namesseq)
            except KeyError as e:
                raise MalformedRelation(f"unknown arrow in relation: {e}") from None
            ep = seq_endpoints(idxseq)
            if endpoints is None:
                endpoints = ep
            elif ep != endpoints:
                raise MalformedRelation("relation mixes non-parallel paths")
            c = F.of(coeff) if isinstance(coeff, int) else coeff
            terms.append((c, idxseq))
        if terms:
            relations.append((endpoints, terms))

    # free paths by length
    free = {0: [Path(v, ()) for v in range(nverts)],
            1: [Path(arr_src(i), (i,)) for i in range(len(arrows))]}

    def target_of(p):
        return arr_tgt(p.arrs[-1]) if p.arrs else p.src

    echelon = {}
    max_len = 1
    d = 2
    while True:
        prev = free[d - 1]
        free[d] = [Path(p.src, p.arrs + (i,))
                   for p in prev for i in range(len(arrows))
                   if arr_src(i) == target_of(p)]
        if not free[d]:
            max_len = d - 1
            break
        # all ideal elements u.r.v of top degree exactly d
        for (rs, rt), terms in relations:
            L = max(len(t[1]) for t in terms)
            for lv in range(0, d - L + 1):
                lu = d - L - lv
                for v in free[lv]:
                    if target_of(v) != rs:
                        continue
                    for u in free[lu]:
                        if u.src != rt:
                            continue
                        row = {}
                        for c, arrs in terms:
                            p = Path(v.src, v.arrs + arrs + u.arrs)
                            row[p] = F.add(row.get(p, F.zero), c)
                        _insert_row(F, echelon, row)
        # does anything of length d survive?
        alive = False
        for p in free[d]:
            nf = _reduce_vec(F, echelon, {p: F.one})
            if any(len(q.arrs) >= d for q in nf):
                alive = True
                break
        if not alive:
            max_len = d - 1
            break
        d += 1
        if d > degree_cap:
            raise NotAdmissible(
                f"paths of length {degree_cap} still alive; ideal not admissible "
                "(or raise the degree cap)")

    # sanity: no pivot of length < 2 (the ideal must sit inside the arrow radical squared)
    for lead in echelon:
        if len(lead.arrs) < 2:
            raise NotAdmissible("ideal reduction produced an element of degree < 2")

    # fully reduced rewrite table: pivot -> combination of non-pivot paths
    red = {}
    for lead in sorted(echelon, key=_path_key):
        expansion = {}
        for p, c in echelon[lead].items():
            if p == lead:
                continue
            if p in red:
                for q, c2 in red[p].items():
                    acc = F.add(expansion.get(q, F.zero), F.neg(F.mul(c, c2)))
                    expansion[q] = acc
            else:
                expansion[p] = F.add(expansion.get(p, F.zero), F.neg(c))
        red[lead] = {q: c for q, c in expansion.items() if not F.is_zero(c)}

    basis = sorted(
        (p for ln in range(0, max_len + 1) for p in free.get(ln, []) if p not in red),
        key=_path_key)
    return ReferencePathAlgebra(spec, basis, red, max_len)


def _paths(a, length):
    """Every path of the algebra's quiver with the given number of arrows."""
    out = [Path(v, ()) for v in range(a.n)]
    for _ in range(length):
        out = [Path(p.src, p.arrs + (i,)) for p in out
               for i, (_, s, _) in enumerate(a.arrows) if s == a.path_target(p)]
    return out


def _assert_same_algebra(spec, degree_cap):
    try:
        ref = reference_build_algebra(spec, degree_cap)
    except NotAdmissible as err:
        with pytest.raises(NotAdmissible) as refused:
            build_algebra(spec, degree_cap)
        assert str(refused.value) == str(err)
        return
    a = build_algebra(spec, degree_cap)
    assert (a.basis, a.max_len) == (ref.basis, ref.max_len)
    for length in range(a.max_len + 2):
        for p in _paths(a, length):
            assert a.nf_path(p.src, p.arrs) == ref.nf_path(p.src, p.arrs), p


@settings(max_examples=250)
@given(graded_specs(), st.integers(2, 7))
def test_tip_reduction_matches_enumeration(spec, degree_cap):
    with _graded_path() as sweeps:
        _assert_same_algebra(spec, degree_cap)
    assert len(sweeps) <= 1


@pytest.mark.parametrize("name", ["point", "semisimple2", "loop2", "a2",
                                  "a3line", "borelA", "borelB", "aus3"])
def test_tip_reduction_matches_enumeration_on_fixtures(name):
    spec = parse(AUSLANDER3).to_spec() if name == "aus3" else algebra(name).spec
    _assert_same_algebra(spec, 64)
    _assert_same_algebra(spec.opposite(), 64)


def _xy(m):
    """k<x,y>/(x^2, y^2, (xy)^m, (yx)^m); m = 0 drops the last two."""
    relations = [[(1, ("x", "x"))], [(1, ("y", "y"))]]
    if m:
        relations += [[(1, ("x", "y") * m)], [(1, ("y", "x") * m)]]
    return QuiverSpec(["1"], [("x", "1", "1"), ("y", "1", "1")], relations, QQ)


@pytest.mark.parametrize("m", range(1, 13))
def test_alternating_words_size(m):
    # the basis is the alternating words shorter than 2m; the table holds
    # the candidates ending in x^2 or y^2 at each length 2 .. 2m and the two
    # alternating words of length 2m
    a = build_algebra(_xy(m), degree_cap=2 * m)
    assert (a.dim, a.max_len, len(a._red)) == (4 * m - 1, 2 * m - 1, 4 * m)


@pytest.mark.parametrize("degree_cap", [2, 5, 9])
def test_free_alternating_words_hit_the_degree_cap(degree_cap):
    with pytest.raises(NotAdmissible, match=f"length {degree_cap} still alive"):
        build_algebra(_xy(0), degree_cap)


def _loop(field, *relations):
    return QuiverSpec(["1"], [("x", "1", "1")],
                      [[(c, ("x",) * n) for c, n in rel] for rel in relations],
                      field)


@pytest.mark.parametrize("spec", [
    # x^2 = (x^4 + x^2) - x^4: the sweep meets it at degree 4
    _loop(QQ, [(1, 4), (1, 2)], [(1, 4)]),
    # x^2 = (x^5 + x^2) - x^2.x^3: only the check of the finished tables sees it
    _loop(QQ, [(1, 3)], [(1, 5), (1, 2)]),
    # 2 = 0 in GF(2): the relation is x^2, of length 2 and not 4
    parse("field GF 2\nvertices 1\narrow x 1 1\nrelation 2*x.x.x.x + 1*x.x\n").to_spec(),
], ids=["x4+x2,x4", "x3,x5+x2", "GF2:2x4+x2"])
def test_mixed_length_relations_give_the_quotient(spec):
    # each ideal is (x^2): the basis is e, x
    a = build_algebra(spec)
    assert [p.arrs for p in a.basis] == [(), (0,)]
    assert a.nf_path(0, (0, 0)) == {}


NOT_NILPOTENT = """name notnil
field Q
vertices 1
arrow x 1 1
relation x.x + x.x.x.x
"""


def test_non_nilpotent_arrow_ideal_is_not_admissible(tmp_path):
    # k[x]/(x^2 + x^4) = k[x]/(x^2) x k[x]/(x^2 + 1): 4-dimensional, but x^2
    # = -x^4 = x^6 = ... never vanishes
    with pytest.raises(NotAdmissible, match="not nilpotent"):
        parse(NOT_NILPOTENT).build()
    path = tmp_path / "notnil.alg"
    path.write_text(NOT_NILPOTENT)
    code, out, err = run_cli(["analyze", str(path)])
    assert code == 2 and out == ""
    assert "not nilpotent" in err


# -- admissibility decided without a sweep to the cap -------------------------

def _fail(*args, **kwargs):
    raise AssertionError("not expected to run")


@contextmanager
def _graded_path():
    """Fail on the completion and the radical powers; list each sweep."""
    sweeps = []

    def spy(*args):
        sweeps.append(args)
        return real(*args)

    real = quiver._sweep
    with patch.object(quiver, "_sweep", spy), \
            patch.object(quiver, "_unreduced", _fail), \
            patch.object(quiver, "_check_nilpotent", _fail):
        yield sweeps


def _states(spec):
    """nverts + sum(len(w) - 1): the bound on the states of the automaton
    of a monomial spec, and so on the length of its longest normal path."""
    return len(spec.vertices) + sum(len(t) - 1 for rel in spec.relations
                                    for _, t in rel)


def _free2(*relations):
    """k<x,y> modulo the given paths."""
    return QuiverSpec(["1"], [("x", "1", "1"), ("y", "1", "1")],
                      [[(1, w)] for w in relations], QQ)


@pytest.mark.parametrize("spec", [_free2(), _loop(QQ), _xy(0),
                                  _free2(("x",) * 30)],
                         ids=["k<x,y>", "k[x]", "xy0", "k<x,y>/(x^30)"])
def test_infinite_monomial_quotient_is_refused_without_a_sweep(monkeypatch,
                                                               spec):
    monkeypatch.setattr(quiver, "_sweep", _fail)
    with pytest.raises(NotAdmissible, match="length 64 still alive"):
        build_algebra(spec)


def test_long_monomial_relation_builds():
    # the automaton of x^40 is a chain of 40 states with no cycle
    a = build_algebra(_loop(QQ, [(1, 40)]))
    assert (a.dim, a.max_len) == (40, 39)


@settings(max_examples=300)
@given(monomial_specs())
def test_monomial_admissibility_matches_the_sweep(spec):
    try:
        a = build_algebra(spec)
    except NotAdmissible as err:
        assert "length 64 still alive" in str(err)
        # the enumeration lists every path up to the cap, so it goes no
        # further than 7: the quotient may grow exponentially
        for cap in (1, 2, 7):
            _assert_same_algebra(spec, cap)
        return
    # a finite quotient has no normal path as long as the automaton's states
    assert a.max_len < _states(spec)
    for cap in (1, 2, a.max_len, a.max_len + 1, 64):
        _assert_same_algebra(spec, cap)


FIXTURES = ["point", "semisimple2", "loop2", "a2", "a3line", "borelA",
            "borelB"]

# 2 = 0 in GF(2) drops the x^4 term: the relation is x^2, a single path
GF2_X2 = "field GF 2\nvertices 1\narrow x 1 1\nrelation 2*x.x.x.x + 1*x.x\n"


def _linear_a(n, rad2):
    """Linear A_n over GF(101), arrows i -> i+1, with or without every path
    of length 2 zero."""
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    relations = ([[(1, (f"a{i}", f"a{i + 1}"))] for i in range(1, n - 1)]
                 if rad2 else [])
    return QuiverSpec([str(i) for i in range(1, n + 1)], arrows, relations,
                      GF(101))


def _corpus_specs():
    return [parse("\n".join([f"field {field}", "vertices " + " ".join(order)]
                            + QUIVERS[name][1])).to_spec()
            for key, field in CORPUS
            for name, order in [key.split("/")]]


def _with_opposites_and_duals(specs):
    """Each spec, its opposite and, when the algebra is standardly
    stratified, its Ringel dual and the dual's opposite."""
    out = []
    for spec in specs:
        out += [spec, spec.opposite()]
        with suppress(NotStratified):
            dual = ringel_dual(build_algebra(spec)).spec
            out += [dual, dual.opposite()]
    return out


def test_monomial_builds_take_no_linear_algebra():
    specs = _with_opposites_and_duals(
        [_xy(m) for m in range(1, 9)]
        + [_linear_a(n, rad2) for n in range(3, 9) for rad2 in (True, False)]
        + [parse_file(fixture_path(f"{name}.alg")).to_spec()
           for name in FIXTURES]
        + _corpus_specs() + [parse(GF2_X2).to_spec()])
    dims = [build_algebra(spec).dim for spec in specs]
    automata = []

    def spy(*args):
        automata.append(args)
        return real(*args)

    real = quiver._word_automaton
    with patch.object(quiver, "_sweep", _fail), \
            patch.object(quiver, "_insert_row", _fail), \
            patch.object(FieldSpec, "inv", _fail), \
            patch.object(quiver, "_word_automaton", spy):
        for spec, dim in zip(specs, dims):
            automata.clear()
            assert build_algebra(spec).dim == dim
            assert len(automata) == 1


def test_graded_quotients_take_one_sweep():
    # the graded specs that are not monomial: the Auslander algebras, whose
    # second relation is a commutativity relation, and their Ringel duals;
    # no corpus quiver and no fixture has such a relation
    specs = _with_opposites_and_duals(
        [parse(AUSLANDER3).to_spec()]
        + [parse(auslander_text(n)).to_spec() for n in (4, 5)])
    assert all(any(len(rel) > 1 for rel in spec.relations) for spec in specs)
    with _graded_path() as sweeps:
        for spec in specs:
            sweeps.clear()
            build_algebra(spec)
            assert len(sweeps) == 1


@pytest.mark.parametrize("spec,raises", [
    (parse(NOT_NILPOTENT).to_spec(), True),
    (_loop(QQ, [(1, 4), (1, 2)], [(1, 4)]), False),
    (_loop(QQ, [(1, 3)], [(1, 5), (1, 2)]), False),
], ids=["notnil", "x4+x2,x4", "x3,x5+x2"])
def test_mixed_length_relations_take_the_radical_powers(monkeypatch, spec,
                                                        raises):
    calls = []

    def spy(a):
        calls.append(a)
        real(a)

    real = quiver._check_nilpotent
    monkeypatch.setattr(quiver, "_check_nilpotent", spy)
    if raises:
        with pytest.raises(NotAdmissible, match="not nilpotent"):
            build_algebra(spec)
    else:
        build_algebra(spec)
    assert len(calls) == 1


@pytest.mark.parametrize("spec,unreduced", [
    (parse(NOT_NILPOTENT).to_spec(), [None]),
    # the sweep meets x^2 at degree 4, so the finished tables are exact
    (_loop(QQ, [(1, 4), (1, 2)], [(1, 4)]), [None]),
    # only the finished tables see x^2, and the sweep starts again
    (_loop(QQ, [(1, 3)], [(1, 5), (1, 2)]), [{Path(0, (0, 0)): QQ.one}, None]),
], ids=["notnil", "x4+x2,x4", "x3,x5+x2"])
def test_mixed_length_relations_take_the_completion(spec, unreduced):
    found = []

    def spy(a, relations):
        found.append(real(a, relations))
        return found[-1]

    real = quiver._unreduced
    with patch.object(quiver, "_unreduced", spy), suppress(NotAdmissible):
        build_algebra(spec)
    assert found == unreduced
