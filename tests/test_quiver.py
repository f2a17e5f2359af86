"""Path algebra construction: bases, multiplication, opposites, bad input."""

import itertools

import pytest

from stratakit.errors import MalformedRelation, NotAdmissible, UnknownVertex
from stratakit.fields import GF, QQ
from stratakit.parser import parse
from stratakit.quiver import QuiverSpec, build_algebra

from conftest import algebra
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
    a = algebra(name)
    F = a.field

    def vec(i):
        v = [F.zero] * a.dim
        v[i] = F.one
        return v

    for i, j, k in itertools.product(range(a.dim), repeat=3):
        left = a.multiply(a.multiply(vec(i), vec(j)), vec(k))
        right = a.multiply(vec(i), a.multiply(vec(j), vec(k)))
        assert left == right


@pytest.mark.parametrize("name", ["a3line", "borelA"])
def test_unit_is_two_sided_identity(name):
    a = algebra(name)
    F = a.field
    one = a.unit()
    for i in range(a.dim):
        v = [F.zero] * a.dim
        v[i] = F.one
        assert a.multiply(one, v) == v
        assert a.multiply(v, one) == v


def test_idempotents_are_orthogonal():
    a = algebra("borelA")
    for v in range(a.n):
        for w in range(a.n):
            prod = a.multiply(a.idempotent(v), a.idempotent(w))
            expect = a.idempotent(v) if v == w else [a.field.zero] * a.dim
            assert prod == expect


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
