import os

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from stratakit import homology, linalg, reps, strat
from stratakit.fields import GF, QQ
from stratakit.linalg import Matrix
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


def is_module_map(f):
    """Does f commute with the action of every arrow?"""
    a = f.source.algebra
    return all(f.blocks[t].mul(f.source.action[ai])
               .sub(f.target.action[ai].mul(f.blocks[s])).is_zero()
               for ai, (_, s, t) in enumerate(a.arrows))


def is_surjective(f):
    """Is f onto at every vertex?"""
    return all(linalg.rank(b) == b.rows for b in f.blocks)


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


# -- the path-image closure and the trace certificate built on it -----------
#
# The earlier routes, kept as references: generated_submodule walked every
# basis path of P(v) from each generator and re-reduced the whole basis, and
# the trace certificate built each U_μ and each peel step as a fresh
# generated submodule.  Unmemoised, so they share no result with the code
# under test but the syzygy steps.

def reference_generated_submodule(m, gens, sub=None):
    """The span of sub and of the images p·x of the basis paths p from v,
    over the generators (v, x)."""
    a = m.algebra
    F = a.field
    new = [[] for _ in range(a.n)]
    for v, x in gens:
        for w, cols in enumerate(reps.path_images(m, v, x)):
            new[w] += cols
    bases = []
    for w, d in enumerate(m.dims):
        b = sub.bases[w] if sub is not None else Matrix.zero(F, d, 0)
        if new[w]:
            vecs = b.columns() + new[w]
            b = Matrix.from_columns(
                F, [vecs[i] for i in linalg.pivot_columns(F, vecs)], rows=d)
        bases.append(b)
    return reps.Submodule(m, bases, check=False)


def _reference_top_lifts(m, sub, w, below=None):
    a = m.algebra
    known = [c for ai, (_, s, t) in enumerate(a.arrows) if t == w
             for c in m.action[ai].mul(sub.bases[s]).columns()]
    known += below.bases[w].columns() if below is not None else []
    cols = sub.bases[w].columns()
    return [cols[k - len(known)] for k in linalg.pivot_columns(
        a.field, known + cols) if k >= len(known)]


def _reference_top_kernel(f, mu):
    cover, _, incl = homology.syzygy_step(f)
    if cover.tops != [mu]:
        return None
    k = reps.Submodule(cover.source, incl.blocks, check=False)
    return [(w, g) for w in range(mu + 1)
            for g in _reference_top_lifts(cover.source, k, w)]


def reference_trace_certificate(m, family):
    """The trace filtration certificate, each U_μ and peel step generated
    afresh by reference_generated_submodule."""
    kernels = [_reference_top_kernel(f, mu) for mu, f in enumerate(family)]
    if None in kernels:
        return None
    a = m.algebra
    F = a.field
    U = [reps.Submodule(m, [Matrix.zero(F, d, 0) for d in m.dims],
                        check=False)]
    for mu in reversed(range(a.n)):
        U.append(reference_generated_submodule(
            m, [(mu, x) for x in Matrix.identity(F, m.dims[mu]).columns()],
            U[-1]))
    U.reverse()
    chain, indices = [U[0]], []
    for mu in range(a.n):
        below, cur = U[mu + 1], U[mu]
        while cur.total_dim > below.total_dim:
            if mu >= len(family):
                return None
            gens = []
            for x in cur.bases[mu].columns() if kernels[mu] else []:
                images = reps.path_images(m, mu, x)
                gens += [(w, Matrix.from_columns(
                    F, images[w], rows=m.dims[w]).apply(g))
                    for w, g in kernels[mu]]
            steps = [reference_generated_submodule(m, gens, below)]
            for x in _reference_top_lifts(m, cur, mu, steps[0]):
                steps.append(reference_generated_submodule(
                    m, [(mu, x)], steps[-1]))
                if (steps[-1].total_dim - steps[-2].total_dim
                        != family[mu].total_dim):
                    return None
            if steps[-1].total_dim != cur.total_dim:
                return None
            chain += reversed(steps[:-1])
            indices += [mu] * (len(steps) - 1)
            cur = steps[0]
    return strat.FiltrationCertificate(
        m, [s.bases for s in reversed(chain)], indices[::-1])
