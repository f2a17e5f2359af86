import os

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from stratakit.fields import GF, QQ
from stratakit.parser import parse, parse_file
from stratakit.quiver import QuiverSpec

# every run draws the same examples, and no example is timed out
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "stratakit",
                        "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


_cache = {}


def algebra(name):
    """Session-cached algebra built from a fixture file (shared memo caches)."""
    if name not in _cache:
        f = parse_file(fixture_path(name + ".alg"))
        _cache[name] = (f, f.build())
    return _cache[name][1]


def auslander_text(n, p=101):
    """The Auslander algebra of k[x]/(x^n) over GF(p), as a description file.

    Vertex i stands for the module k[x]/(x^i); a_i is the inclusion
    i -> i+1 (multiplication by x) and b_i the projection i+1 -> i.  On
    k[x]/(x^i) both b_i a_i and a_{i-1} b_{i-1} act as multiplication by x,
    so b_1 a_1 = 0 and a_{i-1} b_{i-1} = b_i a_i for 1 < i < n.  Vertices are
    declared n, ..., 1.  The algebra has dimension sum_{i,j} min(i, j) =
    n(n+1)(2n+1)/6 and is quasi-hereditary of global dimension 2."""
    lines = [f"name aus{n}", f"field GF {p}",
             "vertices " + " ".join(str(i) for i in range(n, 0, -1))]
    for i in range(1, n):
        lines += [f"arrow a{i} {i} {i + 1}", f"arrow b{i} {i + 1} {i}"]
    lines.append("relation 1*b1.a1")
    lines += [f"relation 1*a{i - 1}.b{i - 1} - 1*b{i}.a{i}"
              for i in range(2, n)]
    return "\n".join(lines) + "\n"


def auslander(n):
    """Session-cached Auslander algebra of k[x]/(x^n) over GF(101)."""
    key = f"aus{n}"
    if key not in _cache:
        f = parse(auslander_text(n))
        _cache[key] = (f, f.build())
    return _cache[key][1]


@st.composite
def graded_specs(draw):
    """Quivers with 1-3 vertices and at most 3 arrows; every term of a relation
    has the same length and a nonzero coefficient.  Half the specs also kill
    every path of length 3 or 4, so that more of them are finite dimensional."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    nverts = draw(st.integers(1, 3))
    vertices = [str(v) for v in range(nverts)]
    ends = st.sampled_from(vertices)
    arrows = [(f"a{i}", draw(ends), draw(ends))
              for i in range(draw(st.integers(1, 3)))]
    coeffs = (st.sampled_from([-3, -2, -1, 1, 2, 3]) if field.is_rational
              else st.integers(1, field.p - 1))

    def paths(length):
        out = [(a,) for a in arrows]
        for _ in range(length - 1):
            out = [p + (a,) for p in out for a in arrows if a[1] == p[-1][2]]
        return out

    relations = []
    for _ in range(draw(st.integers(0, 4))):
        candidates = paths(draw(st.integers(2, 4)))
        if not candidates:
            continue
        first = draw(st.sampled_from(candidates))
        parallel = [p for p in candidates
                    if (p[0][1], p[-1][2]) == (first[0][1], first[-1][2])]
        chosen = draw(st.lists(st.sampled_from(parallel), min_size=1,
                               max_size=3, unique=True))
        relations.append([(draw(coeffs), tuple(a[0] for a in p)) for p in chosen])
    if draw(st.booleans()):
        relations += [[(1, tuple(a[0] for a in p))]
                      for p in paths(draw(st.integers(3, 4)))]
    return QuiverSpec(vertices, arrows, relations, field)


@st.composite
def monomial_specs(draw):
    """Quivers with 1-3 vertices and 1-4 arrows and 0-5 relations, each a
    single path of length 2-5 (shorter where the quiver stops it)."""
    field = draw(st.sampled_from([QQ, GF(2)]))
    vertices = [str(v) for v in range(draw(st.integers(1, 3)))]
    ends = st.sampled_from(vertices)
    arrows = [(f"a{i}", draw(ends), draw(ends))
              for i in range(draw(st.integers(1, 4)))]
    relations = []
    for _ in range(draw(st.integers(0, 5))):
        word = [draw(st.sampled_from(arrows))]
        for _ in range(draw(st.integers(1, 4))):
            onward = [a for a in arrows if a[1] == word[-1][2]]
            if not onward:
                break
            word.append(draw(st.sampled_from(onward)))
        if len(word) > 1:
            relations.append([(1, tuple(a[0] for a in word))])
    return QuiverSpec(vertices, arrows, relations, field)


# Vertices 1 < ... < 5, arrows 1 -> 3 -> 4 and 2 -> 5, one zero relation.
# Delta(i) = S(i) and T = S(1) + S(2) + P(1) + P(3) + P(2), so pd T = pd S(1)
# = 2.  The only Delta with Ext^1(Delta, S(5)) != 0 is S(2), of projective
# dimension 1, so gfd S(5) = 1 is witnessed below pd T only.
LOW_PD_WITNESS = """name low_pd_witness
field Q
vertices 1 2 3 4 5
arrow a 1 3
arrow b 3 4
arrow c 2 5
relation 1*b.a
"""


def algebra_file(name):
    if name not in _cache:
        f = parse_file(fixture_path(name + ".alg"))
        _cache[name] = (f, f.build())
    return _cache[name][0]


@pytest.fixture(scope="session")
def loop2():
    return algebra("loop2")


@pytest.fixture(scope="session")
def a2():
    return algebra("a2")


@pytest.fixture(scope="session")
def a3line():
    return algebra("a3line")


@pytest.fixture(scope="session")
def borelA():
    return algebra("borelA")


@pytest.fixture(scope="session")
def borelB():
    return algebra("borelB")


@pytest.fixture(scope="session")
def semisimple2():
    return algebra("semisimple2")


@pytest.fixture(scope="session")
def point():
    return algebra("point")
