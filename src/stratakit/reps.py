"""Finite-dimensional left modules as quiver representations.

A Rep carries one exact matrix per arrow (target-dim x source-dim); vectors
are columns and matrices act on the left.  A Morphism stores one matrix per
vertex; composition `compose(g, f)` means "f first, then g".
"""

import random

from . import linalg
from .errors import (AlgebraMismatch, NotASubmodule, StratakitError,
                     UnknownVertex)
from .linalg import Matrix
from .quiver import Path


class Rep:
    """A representation of a bound quiver algebra."""

    def __init__(self, algebra, dims, action, label=""):
        self.algebra = algebra
        self.dims = tuple(dims)
        self.action = list(action)          # one Matrix per arrow
        self.label = label
        for ai, (_, s, t) in enumerate(algebra.arrows):
            m = self.action[ai]
            if m.rows != dims[t] or m.cols != dims[s]:
                raise StratakitError(f"arrow {ai}: matrix shape {m.rows}x{m.cols} "
                                     f"!= {dims[t]}x{dims[s]}")

    @property
    def total_dim(self):
        return sum(self.dims)

    def is_zero(self):
        return self.total_dim == 0

    def key(self):
        """Structural identity, used for memo tables."""
        return (id(self.algebra), self.dims, tuple(m.entries for m in self.action))

    def relations_hold(self):
        """Every defining relation of the algebra acts as zero."""
        a = self.algebra
        for rel in a.spec.relations:
            acc = None
            for coeff, names in rel:
                idxs = tuple(a.arrow_index(nm) for nm in names)
                src = a.arrows[idxs[0]][1]
                term = path_matrix(self, src, idxs).scale(
                    a.field.of(coeff) if isinstance(coeff, int) else coeff)
                acc = term if acc is None else acc.add(term)
            if acc is not None and not acc.is_zero():
                return False
        return True

    def dimension_vector(self):
        return self.dims

    def __repr__(self):
        lab = self.label or "Rep"
        return f"{lab}{list(self.dims)}"


class Morphism:
    def __init__(self, source, target, blocks):
        self.source = source
        self.target = target
        self.blocks = list(blocks)           # one Matrix per vertex

    def is_valid(self):
        a = self.source.algebra
        for ai, (_, s, t) in enumerate(a.arrows):
            lhs = self.blocks[t].mul(self.source.action[ai])
            rhs = self.target.action[ai].mul(self.blocks[s])
            if not lhs.sub(rhs).is_zero():
                return False
        return True

    def is_zero(self):
        return all(b.is_zero() for b in self.blocks)

    def is_injective(self):
        return all(linalg.rank(b) == b.cols for b in self.blocks)

    def is_surjective(self):
        return all(linalg.rank(b) == b.rows for b in self.blocks)

    def is_isomorphism(self):
        return all(b.rows == b.cols and linalg.is_invertible(b) for b in self.blocks)

    def add(self, other):
        return Morphism(self.source, self.target,
                        [a.add(b) for a, b in zip(self.blocks, other.blocks)])

    def scale(self, c):
        return Morphism(self.source, self.target, [b.scale(c) for b in self.blocks])

    def __repr__(self):
        return f"Morphism({self.source!r} -> {self.target!r})"


def compose(g, f):
    """g after f."""
    if f.target is not g.source and f.target.dims != g.source.dims:
        raise AlgebraMismatch("non-composable morphisms")
    return Morphism(f.source, g.target,
                    [gb.mul(fb) for gb, fb in zip(g.blocks, f.blocks)])


def identity_morphism(m):
    return Morphism(m, m, [Matrix.identity(m.algebra.field, d) for d in m.dims])


def zero_morphism(m, n):
    F = m.algebra.field
    return Morphism(m, n, [Matrix.zero(F, dn, dm) for dm, dn in zip(m.dims, n.dims)])


class Submodule:
    """A subspace per vertex, closed under all arrow actions."""

    def __init__(self, ambient, bases, check=True):
        self.ambient = ambient
        F = ambient.algebra.field
        # bases: per vertex, a Matrix whose columns span the subspace
        self.bases = [b if isinstance(b, Matrix)
                      else Matrix.from_columns(F, [list(v) for v in b], rows=ambient.dims[i])
                      for i, b in enumerate(bases)]
        if check and not self._closed():
            raise NotASubmodule("subspace not closed under arrow actions")

    def _closed(self):
        a = self.ambient.algebra
        for ai, (_, s, t) in enumerate(a.arrows):
            img = self.ambient.action[ai].mul(self.bases[s])
            for j in range(img.cols):
                if linalg.solve(self.bases[t], img.column(j)) is None:
                    return False
        return True

    def dims(self):
        return tuple(b.cols for b in self.bases)

    @property
    def total_dim(self):
        return sum(self.dims())

    def as_rep(self):
        """The submodule as a Rep, together with its inclusion morphism."""
        a = self.ambient.algebra
        F = a.field
        dims = self.dims()
        action = []
        for ai, (_, s, t) in enumerate(a.arrows):
            img = self.ambient.action[ai].mul(self.bases[s])
            cols = [linalg.solve(self.bases[t], img.column(j)) for j in range(img.cols)]
            if any(c is None for c in cols):
                raise NotASubmodule("subspace not closed under arrow actions")
            action.append(Matrix.from_columns(F, cols, rows=dims[t]))
        sub = Rep(a, dims, action)
        incl = Morphism(sub, self.ambient, list(self.bases))
        return sub, incl

    def contains(self, other):
        """Does this submodule contain the other (same ambient)?"""
        for b, o in zip(self.bases, other.bases):
            for j in range(o.cols):
                if linalg.solve(b, o.column(j)) is None:
                    return False
        return True


def full_submodule(m):
    F = m.algebra.field
    return Submodule(m, [Matrix.identity(F, d) for d in m.dims], check=False)


def zero_submodule(m):
    F = m.algebra.field
    return Submodule(m, [Matrix.zero(F, d, 0) for d in m.dims], check=False)


def sum_submodules(subs):
    amb = subs[0].ambient
    F = amb.algebra.field
    bases = []
    for v in range(len(amb.dims)):
        vecs = []
        for s in subs:
            vecs.extend(s.bases[v].columns())
        bases.append(Matrix.from_columns(
            F, linalg.column_reduce(F, vecs, amb.dims[v]), rows=amb.dims[v]))
    return Submodule(amb, bases, check=False)


def path_matrix(m, src, arrs):
    """The matrix by which the path (src, arrs) acts: dims[target] x dims[src]."""
    a = m.algebra
    F = a.field
    cur = Matrix.identity(F, m.dims[src])
    for ai in arrs:
        cur = m.action[ai].mul(cur)
    return cur


def element_action_matrix(m, elem, src, tgt):
    """Action of an algebra element (coefficient vector) from vertex src to tgt."""
    a = m.algebra
    F = a.field
    out = Matrix.zero(F, m.dims[tgt], m.dims[src])
    for i, c in enumerate(elem):
        if F.is_zero(c):
            continue
        p = a.basis[i]
        if p.src != src or a.path_target(p) != tgt:
            continue
        out = out.add(path_matrix(m, p.src, p.arrs).scale(c))
    return out


# -- standard constructions -------------------------------------------------

def zero_rep(a):
    F = a.field
    return Rep(a, [0] * a.n, [Matrix.zero(F, 0, 0) for _ in a.arrows], label="0")


def simple(a, i):
    if not 0 <= i < a.n:
        raise UnknownVertex(f"vertex index {i}")
    F = a.field
    dims = [1 if v == i else 0 for v in range(a.n)]
    action = [Matrix.zero(F, dims[t], dims[s]) for (_, s, t) in a.arrows]
    return Rep(a, dims, action, label=f"E({a.vertices[i]})")


def projective(a, i):
    """P(i) = A.e_i: basis the reduced paths with source i, graded by target."""
    if not 0 <= i < a.n:
        raise UnknownVertex(f"vertex index {i}")
    F = a.field
    idxs = a.basis_with_source(i)
    by_target = [[] for _ in range(a.n)]
    for bi in idxs:
        by_target[a.path_target(a.basis[bi])].append(bi)
    pos = {}
    for v in range(a.n):
        for k, bi in enumerate(by_target[v]):
            pos[bi] = k
    dims = [len(by_target[v]) for v in range(a.n)]
    action = []
    for ai, (_, s, t) in enumerate(a.arrows):
        mat = [[F.zero] * dims[s] for _ in range(dims[t])]
        for col, bi in enumerate(by_target[s]):
            p = a.basis[bi]
            nf = a.nf_path(p.src, p.arrs + (ai,))
            for q, c in nf.items():
                mat[pos[a.basis_index[q]]][col] = c
        action.append(Matrix.from_rows(F, mat) if dims[t] else Matrix(F, 0, dims[s], []))
    rep = Rep(a, dims, action, label=f"P({a.vertices[i]})")
    rep.generator_vertex = i
    rep.generator_coord = (i, 0)        # the trivial path e_i is first at vertex i
    return rep


def dual_to_opposite(m):
    """The k-dual as a module over the opposite algebra (transposed actions)."""
    a = m.algebra
    op = a.opposite()
    action = [m.action[ai].transpose() for ai in range(len(a.arrows))]
    return Rep(op, m.dims, action, label=f"D({m.label})" if m.label else "")


def injective(a, i):
    """I(i): the k-dual of the right projective e_i.A."""
    rep = dual_to_opposite(projective(a.opposite(), i))
    rep.label = f"I({a.vertices[i]})"
    return rep


def direct_sum(reps):
    reps = [r for r in reps]
    if not reps:
        raise StratakitError("empty direct sum; use zero_rep")
    a = reps[0].algebra
    if any(r.algebra is not a for r in reps):
        raise AlgebraMismatch("direct sum across algebras")
    F = a.field
    dims = [sum(r.dims[v] for r in reps) for v in range(a.n)]
    action = []
    for ai in range(len(a.arrows)):
        action.append(linalg.block_diag(F, [r.action[ai] for r in reps]))
    total = Rep(a, dims, action)
    # inclusion / projection morphisms per summand
    incls, projs = [], []
    offset = [0] * a.n
    for r in reps:
        iblocks, pblocks = [], []
        for v in range(a.n):
            inc = Matrix.zero(F, dims[v], r.dims[v]).to_rows()
            prj = Matrix.zero(F, r.dims[v], dims[v]).to_rows()
            for k in range(r.dims[v]):
                inc[offset[v] + k][k] = F.one
                prj[k][offset[v] + k] = F.one
            iblocks.append(Matrix.from_rows(F, inc) if dims[v] else Matrix(F, 0, r.dims[v], []))
            pblocks.append(Matrix.from_rows(F, prj) if r.dims[v] else Matrix(F, 0, dims[v], []))
        incls.append(Morphism(r, total, iblocks))
        projs.append(Morphism(total, r, pblocks))
        for v in range(a.n):
            offset[v] += r.dims[v]
    total.summand_inclusions = incls
    total.summand_projections = projs
    return total


def regular_module(a):
    reg = direct_sum([projective(a, i) for i in range(a.n)])
    reg.label = "A"
    return reg


# -- hom spaces --------------------------------------------------------------

def hom_basis(m, n):
    """Basis of Hom(m, n), by solving the intertwining linear system."""
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("hom between modules over different algebras")
    a = m.algebra
    F = a.field
    offs = []
    total = 0
    for v in range(a.n):
        offs.append(total)
        total += n.dims[v] * m.dims[v]
    if total == 0:
        return []
    rows = []
    for ai, (_, s, t) in enumerate(a.arrows):
        Ms, Nt = m.action[ai], n.action[ai]
        # equation: f_t . Ms - Nt . f_s = 0, entrywise (r, c): r < n.dims[t], c < m.dims[s]
        for r in range(n.dims[t]):
            for c in range(m.dims[s]):
                row = [F.zero] * total
                for k in range(m.dims[t]):
                    row[offs[t] + r * m.dims[t] + k] = F.add(
                        row[offs[t] + r * m.dims[t] + k], Ms[k, c])
                for k in range(n.dims[s]):
                    row[offs[s] + k * m.dims[s] + c] = F.sub(
                        row[offs[s] + k * m.dims[s] + c], Nt[r, k])
                rows.append(row)
    if rows:
        mat = Matrix.from_rows(F, rows)
        ker = linalg.kernel_basis(mat)
    else:
        ker = [[F.zero] * total for _ in range(total)]
        for i in range(total):
            ker[i][i] = F.one
    out = []
    for vec in ker:
        blocks = []
        for v in range(a.n):
            ent = vec[offs[v]:offs[v] + n.dims[v] * m.dims[v]]
            blocks.append(Matrix(F, n.dims[v], m.dims[v], ent))
        out.append(Morphism(m, n, blocks))
    return out


def hom_dim(m, n):
    return len(hom_basis(m, n))


def morphism_from_coeffs(basis, coeffs):
    F = basis[0].source.algebra.field
    out = zero_morphism(basis[0].source, basis[0].target)
    for f, c in zip(basis, coeffs):
        if not F.is_zero(c):
            out = out.add(f.scale(c))
    return out


# -- kernels, images, quotients ---------------------------------------------

def kernel(f):
    """Kernel of a morphism, as a Submodule of the source."""
    F = f.source.algebra.field
    bases = []
    for v, b in enumerate(f.blocks):
        ker = linalg.kernel_basis(b)
        bases.append(Matrix.from_columns(F, ker, rows=f.source.dims[v]))
    return Submodule(f.source, bases, check=False)


def image(f):
    F = f.source.algebra.field
    bases = []
    for v, b in enumerate(f.blocks):
        bases.append(Matrix.from_columns(F, linalg.image_basis(b), rows=f.target.dims[v]))
    return Submodule(f.target, bases, check=False)


def quotient(m, s):
    """(m / s, projection).  The projection's kernel is exactly s."""
    a = m.algebra
    F = a.field
    if s.ambient is not m and s.ambient.dims != m.dims:
        raise AlgebraMismatch("submodule of a different module")
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


def cokernel(f):
    return quotient(f.target, image(f))


# -- radical, top, socle, trace ---------------------------------------------

def radical_submodule(m):
    a = m.algebra
    F = a.field
    vecs = [[] for _ in range(a.n)]
    for ai, (_, s, t) in enumerate(a.arrows):
        vecs[t].extend(m.action[ai].columns())
    bases = [Matrix.from_columns(F, linalg.column_reduce(F, vecs[v], m.dims[v]),
                                 rows=m.dims[v]) for v in range(a.n)]
    return Submodule(m, bases, check=False)


def top(m):
    q, _ = quotient(m, radical_submodule(m))
    return q


def top_multiplicities(m):
    """Multiplicity of each simple in the top of m."""
    q, pi = quotient(m, radical_submodule(m))
    return q.dims, pi


def socle_submodule(m):
    a = m.algebra
    F = a.field
    bases = []
    for v in range(a.n):
        outgoing = [m.action[ai] for ai, (_, s, _t) in enumerate(a.arrows) if s == v]
        if not outgoing:
            bases.append(Matrix.identity(F, m.dims[v]))
            continue
        stacked = linalg.vstack(outgoing)
        ker = linalg.kernel_basis(stacked)
        bases.append(Matrix.from_columns(F, ker, rows=m.dims[v]))
    return Submodule(m, bases, check=False)


def trace(u, m):
    """Sum of images of all morphisms u -> m."""
    if u.algebra is not m.algebra:
        raise AlgebraMismatch("trace across algebras")
    homs = hom_basis(u, m)
    F = m.algebra.field
    vecs = [[] for _ in range(m.algebra.n)]
    for f in homs:
        for v in range(m.algebra.n):
            vecs[v].extend(f.blocks[v].columns())
    bases = [Matrix.from_columns(F, linalg.column_reduce(F, vecs[v], m.dims[v]),
                                 rows=m.dims[v]) for v in range(m.algebra.n)]
    return Submodule(m, bases, check=False)


def composition_multiplicity(m, i):
    """[m : E(i)] -- simples are one dimensional, so this is dims[i]."""
    return m.dims[i]


# -- isomorphism testing ----------------------------------------------------

_ISO_SEED = 20240517


def _combo_search(homs, predicate, budget=400):
    """Search the span of `homs` for a morphism satisfying `predicate`."""
    if not homs:
        return None
    F = homs[0].source.algebra.field
    for f in homs:
        if predicate(f):
            return f
    r = len(homs)
    if r >= 2:
        rng = random.Random(_ISO_SEED)
        small = r <= 6
        if small:
            # exhaustive over small coefficients first
            def rec(i, acc):
                if i == r:
                    if any(c != 0 for c in acc):
                        f = morphism_from_coeffs(homs, [F.of(c) for c in acc])
                        if predicate(f):
                            return f
                    return None
                for c in (0, 1, -1):
                    got = rec(i + 1, acc + [c])
                    if got is not None:
                        return got
                return None
            got = rec(0, [])
            if got is not None:
                return got
        for _ in range(budget):
            if F.is_rational:
                coeffs = [F.of(rng.randint(-5, 5)) for _ in range(r)]
            else:
                coeffs = [F.of(rng.randrange(F.p)) for _ in range(r)]
            if all(F.is_zero(c) for c in coeffs):
                continue
            f = morphism_from_coeffs(homs, coeffs)
            if predicate(f):
                return f
    return None


def find_isomorphism(m, n):
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("iso test across algebras")
    if m.dims != n.dims:
        return None
    if m.total_dim == 0:
        return zero_morphism(m, n)
    homs = hom_basis(m, n)
    return _combo_search(homs, lambda f: f.is_isomorphism())


def is_isomorphic(m, n):
    return find_isomorphism(m, n) is not None


# -- decomposition into indecomposables -------------------------------------

def _total_matrix(f):
    return linalg.block_diag(f.source.algebra.field, f.blocks)


def minimal_polynomial(field, mat):
    """Coefficients (ascending) of the monic minimal polynomial of mat."""
    F = field
    n = mat.rows
    if n == 0:
        return [F.one]
    powers = [Matrix.identity(F, n)]
    while True:
        cols = [list(p.entries) for p in powers]
        A = Matrix.from_columns(F, cols, rows=n * n)
        target = powers[-1].mul(mat)
        sol = linalg.solve(A, list(target.entries))
        if sol is not None:
            return [F.neg(c) for c in sol] + [F.one]
        powers.append(target)


def _factor_min_poly(field, coeffs):
    """Factor a monic polynomial into irreducible powers: [(coeffs, mult)]."""
    import sympy
    x = sympy.symbols("x")
    if field.is_rational:
        poly = sum(sympy.Rational(c.numerator, c.denominator) * x**i
                   for i, c in enumerate(coeffs))
        _, factors = sympy.Poly(poly, x, domain="QQ").factor_list()
    else:
        poly = sum(int(c) * x**i for i, c in enumerate(coeffs))
        _, factors = sympy.Poly(poly, x, modulus=field.p, symmetric=False).factor_list()
    out = []
    for fac, mult in factors:
        cs = fac.all_coeffs()[::-1]  # ascending
        if field.is_rational:
            lead = sympy.Rational(cs[-1])
            conv = [field.of(int(sympy.Rational(c / lead).p), int(sympy.Rational(c / lead).q))
                    for c in cs]
        else:
            inv = pow(int(cs[-1]) % field.p, -1, field.p)
            conv = [field.of(int(c) * inv) for c in cs]
        out.append((conv, mult))
    return out


def _poly_of_morphism(f, coeffs):
    """Evaluate a polynomial (ascending coeffs) at an endomorphism."""
    F = f.source.algebra.field
    acc = identity_morphism(f.source).scale(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = compose(acc, f).add(identity_morphism(f.source).scale(c))
    return acc


def _split_by_endo(m, f):
    """Try to split m along the generalized eigenspaces of the endomorphism f."""
    F = m.algebra.field
    mp = minimal_polynomial(F, _total_matrix(f))
    factors = _factor_min_poly(F, mp)
    if len(factors) < 2:
        return None
    pieces = []
    for coeffs, mult in factors:
        g = _poly_of_morphism(f, coeffs)
        power = g
        for _ in range(mult - 1):
            power = compose(power, g)
        pieces.append(kernel(power))
    return pieces


def _split_candidates(endos, budget):
    """Endomorphisms to try as splitters, generated lazily in a fixed order:
    the basis, then pairwise sums, then `budget` seeded random combinations."""
    yield from endos
    for i in range(len(endos)):
        for j in range(i + 1, len(endos)):
            yield endos[i].add(endos[j])
    rng = random.Random(_ISO_SEED + 1)
    F = endos[0].source.algebra.field
    for _ in range(budget):
        if F.is_rational:
            coeffs = [F.of(rng.randint(-3, 3)) for _ in endos]
        else:
            coeffs = [F.of(rng.randrange(F.p)) for _ in endos]
        yield morphism_from_coeffs(endos, coeffs)


def _simple_top_or_socle(m):
    """Is the top or the socle of the nonzero module m simple?

    Top and socle are additive over direct sums and nonzero on every nonzero
    summand, so a yes certifies that m is indecomposable."""
    return (m.total_dim - radical_submodule(m).total_dim == 1
            or socle_submodule(m).total_dim == 1)


def decompose_with_inclusions(m, budget=300):
    """List of (indecomposable Rep, inclusion into m), in deterministic order.

    A module with a simple top or a simple socle is indecomposable and is
    returned as it is, without computing End(m).  Otherwise the candidates of
    `_split_candidates` are tried one at a time; the first whose minimal
    polynomial has two coprime factors splits m into its generalized
    eigenspaces, and each piece is decomposed in turn.  The basis of End(m)
    comes first, so when no candidate splits, no basis endomorphism has a
    composite minimal polynomial and m is returned as indecomposable.
    """
    if m.total_dim == 0:
        return []
    if _simple_top_or_socle(m):
        return [(m, identity_morphism(m))]
    endos = hom_basis(m, m)
    if len(endos) == 1:
        return [(m, identity_morphism(m))]
    for f in _split_candidates(endos, budget):
        pieces = _split_by_endo(m, f)
        if pieces is None:
            continue
        out = []
        for piece in pieces:
            sub, incl = piece.as_rep()
            for part, part_incl in decompose_with_inclusions(sub, budget):
                out.append((part, compose(incl, part_incl)))
        return out
    return [(m, identity_morphism(m))]


def decompose(m, budget=300):
    """Direct summands with multiplicities: [(Rep, multiplicity)]."""
    parts = decompose_with_inclusions(m, budget)
    out = []
    for rep, _ in parts:
        for k, (other, mult) in enumerate(out):
            if is_isomorphic(rep, other):
                out[k] = (other, mult + 1)
                break
        else:
            out.append((rep, 1))
    return out
