"""Finite-dimensional left modules as quiver representations.

A Rep carries one exact matrix per arrow (target-dim x source-dim); vectors
are columns and matrices act on the left.  A Morphism stores one matrix per
vertex; composition `compose(g, f)` means "f first, then g".

A quotient m/s takes one echelon form per vertex and no inverse.  Its basis
is the greedy complement of s: the standard vectors e_c not in the span of
s and the e_j before them.  Those are the non-pivots of the rref of the
transposed basis of s with its coordinates reversed, since e_c is left out
exactly when a vector of s has its last nonzero coordinate at c; the
reduced rows give the projection.  The top m/rad(m) needs no quotient:
one echelon form per vertex of the arrow images gives its greedy
complement.  Coordinates in a submodule (its actions, closure and
containment) take one solve per arrow or vertex, for a whole block of
right-hand sides; a kernel's are read off its basis at its free
coordinates, checked by one product per arrow.

A generated submodule is grown on a Span, which keeps per vertex its
vectors and their echelon rows and reduces each new vector once against
them.  Its closure applies an arrow only to a vector that enlarged the
span, and not at all where the span at the target is already all of the
module.  A chain grown on one Span is read off as prefixes of it.

Decomposition is exact and makes no search.  It splits a module by
Fitting's lemma along an endomorphism whose minimal polynomial has coprime
factors over k: from a basis of End, the algebra S its nilpotent parts
generate, or its pairwise sums.  With none, End is local if 1 and S, or
one element's powers, span it.  Minimal polynomials are factored exactly
by the poly module.

Isomorphism is decided by Krull–Schmidt, without a coefficient search:
modules with different tops are told apart with no Hom, a basis scan of Hom
is exact between indecomposable modules, and two decomposable modules are
compared part by part.

Per-algebra results live in the algebra's cache and go through two helpers:
built_once, keyed by a function's name and arguments, and by_structure,
keyed by the structural keys of its module arguments.  Rep.key() is a small
int, interned once per module, so equal modules built apart share one
result and a lookup hashes ints.  Hom(m, n) is one such result: the kernel
of its intertwining system, eliminated once per pair of structures, of
which hom_dim reads the length and hom_basis wraps fresh morphisms
m -> n.  Rep.support is the bitmask of the vertices where a module is
nonzero; a map is one linear map per vertex, so Hom across disjoint
supports is 0, found with no memo entry and no elimination.  Per-vertex
work (kernels, quotients, tops, Hom blocks) skips the vertices where a
module is 0, whose blocks are linalg's shared empty matrices.  direct_sum
records the summands of each sum it builds under the sum's key, and
summands(m) reads them back, so additive invariants of a sum are computed
summand by summand.
"""

import functools
from itertools import combinations

from . import linalg, poly
from .errors import (AlgebraMismatch, NotASubmodule, StratakitError,
                     UndecidedDecomposition, UnknownVertex)
from .linalg import Matrix


class Rep:
    """A representation of a bound quiver algebra.  Its dims and action are
    not changed after construction."""

    def __init__(self, algebra, dims, action, label=""):
        self.algebra = algebra
        self.dims = tuple(dims)
        self.action = list(action)          # one Matrix per arrow
        self.label = label
        self.total_dim = sum(self.dims)
        # the vertices where the module is nonzero: bit v is set if dims[v] > 0
        self.support = sum(1 << v for v, d in enumerate(self.dims) if d)
        self._key = None
        for ai, (_, s, t) in enumerate(algebra.arrows):
            m = self.action[ai]
            if m.rows != dims[t] or m.cols != dims[s]:
                raise StratakitError(f"arrow {ai}: matrix shape {m.rows}x{m.cols} "
                                     f"!= {dims[t]}x{dims[s]}")

    def is_zero(self):
        return self.total_dim == 0

    def key(self):
        """Structural identity: a small int, the same for equal modules over
        the same algebra.  Interned once per module in the algebra's cache,
        so a memo lookup hashes an int and not the entries."""
        if self._key is None:
            table = _interned(self.algebra)
            self._key = table.setdefault(
                (self.dims, tuple(m.entries for m in self.action)), len(table))
        return self._key

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

    def __repr__(self):
        lab = self.label or "Rep"
        return f"{lab}{list(self.dims)}"


class Morphism:
    def __init__(self, source, target, blocks):
        self.source = source
        self.target = target
        self.blocks = list(blocks)           # one Matrix per vertex

    def is_zero(self):
        return all(b.is_zero() for b in self.blocks)

    def flat(self):
        """The entries of the blocks, row by row, as one vector."""
        return [e for b in self.blocks for e in b.entries]

    def is_injective(self):
        return all(linalg.rank(b) == b.cols for b in self.blocks)

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
    """A subspace per vertex, closed under all arrow actions.  `coords`, if
    given, lists per vertex the rows at which the basis is the identity
    matrix: a vector of the span has its coordinates there."""

    def __init__(self, ambient, bases, check=True, coords=None):
        self.ambient = ambient
        self.coords = coords
        F = ambient.algebra.field
        # bases: per vertex, a Matrix whose columns span the subspace
        self.bases = [b if isinstance(b, Matrix)
                      else Matrix.from_columns(F, [list(v) for v in b], rows=ambient.dims[i])
                      for i, b in enumerate(bases)]
        if check and not self._closed():
            raise NotASubmodule("subspace not closed under arrow actions")

    def _arrow_coords(self, ai):
        """The coordinates, in the basis at the target, of the images of the
        basis at the source under arrow ai: one solve, or with coords the
        images' rows there, checked by one product.  None if some image
        leaves the subspace."""
        _, s, t = self.ambient.algebra.arrows[ai]
        if not self.bases[s].cols:
            return Matrix.zero(self.bases[t].field, self.bases[t].cols, 0)
        img = self.ambient.action[ai].mul(self.bases[s])
        if self.coords is None:
            return linalg.solve(self.bases[t], img)
        k, e = img.cols, img.entries
        x = Matrix.of(img.field, len(self.coords[t]), k,
                      [y for i in self.coords[t] for y in e[i * k:(i + 1) * k]])
        return x if self.bases[t].mul(x) == img else None

    def _closed(self):
        return all(self._arrow_coords(ai) is not None
                   for ai in range(len(self.ambient.algebra.arrows)))

    def dims(self):
        return tuple(b.cols for b in self.bases)

    @property
    def total_dim(self):
        return sum(self.dims())

    def as_rep(self):
        """The submodule as a Rep, together with its inclusion morphism."""
        a = self.ambient.algebra
        action = [self._arrow_coords(ai) for ai in range(len(a.arrows))]
        if any(c is None for c in action):
            raise NotASubmodule("subspace not closed under arrow actions")
        sub = Rep(a, self.dims(), action)
        incl = Morphism(sub, self.ambient, list(self.bases))
        return sub, incl

    def contains(self, other):
        """Does this submodule contain the other (same ambient)?"""
        return all(linalg.solve(b, o) is not None
                   for b, o in zip(self.bases, other.bases))


class Span:
    """A subspace of m at each vertex, grown one vector at a time: the
    vectors kept, none in the span of those before it, and their echelon
    rows (linalg._extend_rows).  The first k vectors at each vertex span a
    subspace too, so a chain of submodules grown one after another is one
    Span and, per member, a length per vertex."""

    def __init__(self, m, vecs=None, rows=None):
        self.module = m
        self.vecs = vecs or [[] for _ in m.dims]
        self.rows = rows or [[] for _ in m.dims]

    def lengths(self):
        return [len(v) for v in self.vecs]

    def prefix(self, lengths):
        """A new Span of the first lengths[w] vectors at each vertex w."""
        return Span(self.module, [v[:k] for v, k in zip(self.vecs, lengths)],
                    [r[:k] for r, k in zip(self.rows, lengths)])

    def bases(self, lengths=None):
        """Per vertex, the matrix of the first lengths[w] vectors (all)."""
        F = self.module.algebra.field
        return [Matrix.from_columns(F, v[:k], rows=d) for v, k, d in zip(
            self.vecs, lengths or self.lengths(), self.module.dims)]

    def add(self, w, x):
        """Keep the vector x of m at w if it is not in the span there."""
        p = self.module.algebra.field.p
        if linalg._extend_rows(p, self.rows[w], x) is None:
            return False
        self.vecs[w].append(x)
        return True

    def close(self, gens):
        """Add the generators (w, x), then the image under each arrow of each
        vector kept, unless the span at the arrow's target is already all of
        m.  The images of the other vectors lie in the span, so a Span that
        held a submodule ends as the one it and the generators generate."""
        m = self.module
        arrows = m.algebra.arrows
        todo = [(w, x) for w, x in gens if self.add(w, x)]
        while todo:
            w, x = todo.pop()
            for ai, (_, s, t) in enumerate(arrows):
                if (s == w and len(self.vecs[t]) < m.dims[t]
                        and self.add(t, y := m.action[ai].apply(x))):
                    todo.append((t, y))


def path_matrix(m, src, arrs):
    """The matrix by which the path (src, arrs) acts: dims[target] x dims[src]."""
    cur = Matrix.identity(m.algebra.field, m.dims[src])
    for ai in arrs:
        cur = m.action[ai].mul(cur)
    return cur


# -- standard constructions -------------------------------------------------

def zero_rep(a):
    F = a.field
    return Rep(a, [0] * a.n, [Matrix.zero(F, 0, 0) for _ in a.arrows], label="0")


def built_once(build):
    """build(a, *args), built once per algebra and arguments and cached on
    the algebra under (build's name,) + args.  Callers share what it
    returns: never relabel or change it."""
    @functools.wraps(build)
    def cached(a, *args):
        key = (build.__name__,) + args
        hit = a.cache.get(key)
        if hit is None:
            hit = a.cache[key] = build(a, *args)
        return hit
    return cached


_MISSING = object()


def by_structure(compute):
    """compute(m, *args), memoised per algebra by structure: each module
    among the arguments, alone or in a tuple or list, stands for its key(),
    so equal modules built apart share one result.  The modules must lie
    over one algebra, checked before the lookup (AlgebraMismatch).  Entries
    sit in the algebra's cache under (compute's dotted name, *keys); a
    built_once name has no dot, so the two never collide.  Callers share
    what it returns: never relabel it, and change it only as a memoised
    Resolution grows, by appending what equal modules would get anyway."""
    name = f"{compute.__module__}.{compute.__name__}"

    def structure(a, x):
        if isinstance(x, Rep):
            if x.algebra is not a:
                raise AlgebraMismatch(f"{compute.__name__} across algebras")
            return x.key()
        if isinstance(x, (tuple, list)):
            return tuple([structure(a, y) for y in x])
        return x

    @functools.wraps(compute)
    def cached(m, *args):
        a = m.algebra
        key = ((name, m.key(), *[structure(a, x) for x in args]) if args
               else (name, m.key()))
        hit = a.cache.get(key, _MISSING)
        if hit is _MISSING:
            hit = a.cache[key] = compute(m, *args)
        return hit
    return cached


@built_once
def _interned(a):
    """The algebra's table numbering module structures, for Rep.key."""
    return {}


@built_once
def simple(a, i):
    if not 0 <= i < a.n:
        raise UnknownVertex(f"vertex index {i}")
    F = a.field
    dims = [1 if v == i else 0 for v in range(a.n)]
    action = [Matrix.zero(F, dims[t], dims[s]) for (_, s, t) in a.arrows]
    return Rep(a, dims, action, label=f"E({a.vertices[i]})")


@built_once
def projective(a, i):
    """P(i) = A.e_i: basis the reduced paths with source i, graded by target."""
    if not 0 <= i < a.n:
        raise UnknownVertex(f"vertex index {i}")
    F = a.field
    by_target = a.projective_layout(i)
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
        action.append(Matrix.of(F, dims[t], dims[s],
                                [x for row in mat for x in row]))
    return Rep(a, dims, action, label=f"P({a.vertices[i]})")


def dual_to_opposite(m):
    """The k-dual as a module over the opposite algebra (transposed actions)."""
    a = m.algebra
    op = a.opposite()
    action = [m.action[ai].transpose() for ai in range(len(a.arrows))]
    return Rep(op, m.dims, action, label=f"D({m.label})" if m.label else "")


@by_structure
def dual(m):
    """dual_to_opposite(m), built once per structure and shared by every
    caller, so never relabelled; the modules relabelled as Nabla, I(i) or
    S(λ) are built by dual_to_opposite itself."""
    return dual_to_opposite(m)


@built_once
def injective(a, i):
    """I(i): the k-dual of the right projective e_i.A."""
    rep = dual_to_opposite(projective(a.opposite(), i))
    rep.label = f"I({a.vertices[i]})"
    return rep


@built_once
def _split_table(a):
    """The algebra's table of direct sums: structural key -> the nonzero
    summands direct_sum put together, flattened."""
    return {}


def summands(m):
    """The nonzero summands m was built from by direct_sum, flattened, or
    (m,).  Read by structural key, so an equal module built apart splits the
    same way; the first sum recorded under a key is kept."""
    return _split_table(m.algebra).get(m.key(), (m,))


def direct_sum(reps):
    """The block-diagonal sum of the modules, in order.  Its summands are
    recorded (see summands), so that additive invariants of the sum are
    computed summand by summand."""
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
    out = Rep(a, dims, action)
    parts = tuple(x for r in reps if r.total_dim for x in summands(r))
    if len(parts) > 1:
        _split_table(a).setdefault(out.key(), parts)
    return out


def regular_module(a):
    reg = direct_sum([projective(a, i) for i in range(a.n)])
    reg.label = "A"
    return reg


# -- hom spaces --------------------------------------------------------------

def _hom_system(m, n):
    """The intertwining equations f_t·m(α) = n(α)·f_s of Hom(m, n), one row
    per arrow α: s -> t and entry; unknowns are the blocks f_v, row-major,
    at the returned offsets."""
    a = m.algebra
    F = a.field
    offs = []
    total = 0
    for v in range(a.n):
        offs.append(total)
        total += n.dims[v] * m.dims[v]
    eqs = sum(n.dims[t] * m.dims[s] for _, s, t in a.arrows)
    if not (total and eqs):
        return Matrix.zero(F, eqs, total), offs
    flat = []
    for ai, (_, s, t) in enumerate(a.arrows):
        Ms, Nt = m.action[ai].entries, n.action[ai].entries
        ms, mt, ns = m.dims[s], m.dims[t], n.dims[s]
        # equation: f_t . Ms - Nt . f_s = 0, entrywise (r, c): r < n.dims[t],
        # c < m.dims[s].  The f_t terms hit distinct unknowns; an f_s term
        # can hit one of them only when the arrow is a loop
        for r in range(n.dims[t]):
            for c in range(ms):
                row = [F.zero] * total
                for k in range(mt):
                    x = Ms[k * ms + c]
                    if x:
                        row[offs[t] + r * mt + k] = x
                for k in range(ns):
                    x = Nt[r * ns + k]
                    if x:
                        j = offs[s] + k * ms + c
                        row[j] = F.sub(row[j], x)
                flat.extend(row)
    return Matrix(F, eqs, total, flat), offs


@by_structure
def _hom_kernel(m, n):
    """(kernel, offsets): the kernel basis of the intertwining system of
    Hom(m, n), as a tuple of tuples, and the offsets of its blocks.  One
    elimination per pair of structures serves hom_dim and hom_basis."""
    mat, offs = _hom_system(m, n)
    return tuple(map(tuple, linalg.kernel_basis(mat))), offs


def _disjoint(m, n):
    """Do m and n, over one algebra, share no vertex?  Then Hom(m, n) = 0, a
    map being one linear map per vertex.  Modules over different algebras
    go on to the memo, which refuses them (AlgebraMismatch)."""
    return m.algebra is n.algebra and not m.support & n.support


def hom_basis(m, n):
    """Basis of Hom(m, n): empty across disjoint supports, else the memoised
    kernel (_hom_kernel), wrapped in fresh Morphisms m -> n."""
    if _disjoint(m, n):
        return []
    ker, offs = _hom_kernel(m, n)
    F = m.algebra.field
    return [Morphism(m, n, [Matrix(F, dn, dm, vec[o:o + dn * dm]) if dn and dm
                            else Matrix.zero(F, dn, dm)
                            for o, dm, dn in zip(offs, m.dims, n.dims)])
            for vec in ker]


def hom_dim(m, n):
    """dim Hom(m, n): 0 across disjoint supports, else the length of the
    memoised kernel (_hom_kernel), so equal modules built apart (the
    syzygies of two resolutions, say) share one elimination with each other
    and with hom_basis."""
    if _disjoint(m, n):
        return 0
    return len(_hom_kernel(m, n)[0])


# -- kernels, images, quotients ---------------------------------------------

def kernel(f):
    """Kernel of a morphism, as a Submodule of the source, with coords: a
    kernel_basis vector is 1 at its free column, which is its last nonzero
    entry, and 0 at the other free columns."""
    F = f.source.algebra.field
    bases, coords = [], []
    for v, b in enumerate(f.blocks):
        ker = linalg.kernel_basis(b) if b.cols else []
        bases.append(Matrix.from_columns(F, ker, rows=f.source.dims[v]))
        coords.append([max(i for i, x in enumerate(k) if x) for k in ker])
    return Submodule(f.source, bases, check=False, coords=coords)


def image(f):
    F = f.source.algebra.field
    bases = []
    for v, b in enumerate(f.blocks):
        bases.append(Matrix.from_columns(F, linalg.image_basis(b), rows=f.target.dims[v]))
    return Submodule(f.target, bases, check=False)


def _complement(F, B, d):
    """The complement of span(B) in k^d that quotient uses, with the
    projection along span(B) onto it: (C, proj), C ascending.

    C is the greedy complement, the e_c outside span(B, e_0, ..., e_{c-1}).
    e_c is left out exactly when some vector of span(B) has its last nonzero
    coordinate at c, so C is the set of non-pivots of the rref of B^T with
    its coordinates reversed, and each reduced row w_r is a vector of span(B)
    with a 1 at its pivot i_r and 0 at the other pivots.  The projection
    with kernel span(B) that fixes each e_c is then x -> x_C - sum_r x_{i_r}
    (w_r)_C: it kills every w_r and has rank |C|."""
    b, e = B.cols, B.entries
    pivots = []
    if b and d:
        R, reversed_pivots = linalg.rref(Matrix(F, b, d, [
            e[i * b + j] for j in range(b) for i in range(d - 1, -1, -1)]))
        pivots = [d - 1 - pc for pc in reversed_pivots]
    piv = set(pivots)
    C = [c for c in range(d) if c not in piv]
    out = [F.zero] * (len(C) * d)
    for j, c in enumerate(C):
        out[j * d + c] = F.one
    for r, i in enumerate(pivots):
        for j, c in enumerate(C):
            x = R.entries[r * d + d - 1 - c]
            if x:
                out[j * d + i] = F.neg(x)
    return C, Matrix(F, len(C), d, out) if C else Matrix.zero(F, 0, d)


def quotient(m, s):
    """(m / s, projection).  The projection's kernel is exactly s.

    At each vertex the quotient has as basis the images of the standard
    basis vectors e_c of the greedy complement of s (see _complement), and
    the projection is the one with kernel s that fixes each e_c; its linear
    sections, kept as `section_blocks`, are those e_c.  The action of an
    arrow s -> t is proj_t applied to the columns C_s of the arrow's matrix.
    """
    a = m.algebra
    F = a.field
    if s.ambient is not m and s.ambient.dims != m.dims:
        raise AlgebraMismatch("submodule of a different module")
    comps, projs, sections = [], [], []
    for v, d in enumerate(m.dims):
        C, proj = _complement(F, s.bases[v], d)
        comps.append(C)
        projs.append(proj)
        q = len(C)
        if not q:
            sections.append(Matrix.zero(F, d, 0))
            continue
        sec = [F.zero] * (d * q)
        for j, c in enumerate(C):
            sec[c * q + j] = F.one
        sections.append(Matrix(F, d, q, sec))
    action = []
    for ai, (_, sv, tv) in enumerate(a.arrows):
        Cs, Ct = comps[sv], comps[tv]
        if not (Cs and Ct):
            action.append(Matrix.zero(F, len(Ct), len(Cs)))
            continue
        dt, ds, e = m.dims[tv], m.dims[sv], m.action[ai].entries
        cols = Matrix(F, dt, len(Cs), [e[i * ds + c] for i in range(dt) for c in Cs])
        # the projection at tv is the identity when s is zero there
        action.append(cols if len(Ct) == dt else projs[tv].mul(cols))
    q = Rep(a, [len(C) for C in comps], action)
    pi = Morphism(m, q, projs)
    pi.section_blocks = sections        # linear (not module) sections, used for lifts
    return q, pi


def cokernel(f):
    return quotient(f.target, image(f))


# -- radical, top, socle, generated submodules --------------------------------

def _arrow_images(m):
    """Per vertex, the columns of the arrows into it: they span rad(m)."""
    a = m.algebra
    vecs = [[] for _ in range(a.n)]
    for ai, (_, s, t) in enumerate(a.arrows):
        if m.dims[s] and m.dims[t]:
            vecs[t].extend(m.action[ai].columns())
    return vecs


def radical_submodule(m):
    span = Span(m)
    for w, vecs in enumerate(_arrow_images(m)):
        for x in vecs:
            span.add(w, x)
    return Submodule(m, span.bases(), check=False)


def top_basis(m):
    """Per vertex v, the greedy complement C_v of rad(m) at v (as quotient
    takes it, see _complement): the e_c, c ascending, outside the span of
    rad(m) and e_0, ..., e_{c-1}.  Their images are a basis of top(m), so
    the e_c are the lifts a projective cover sends its generators to.  e_c
    is left out exactly when a vector of rad(m) has its last nonzero
    coordinate at c: one echelon form of the reversed arrow images."""
    F = m.algebra.field
    out = []
    for vecs, d in zip(_arrow_images(m), m.dims):
        if not vecs:
            out.append(list(range(d)))
            continue
        rad = linalg.leading_positions(F, [v[::-1] for v in vecs])
        out.append([c for c in range(d) if d - 1 - c not in rad])
    return out


def _same_tops(m, n):
    """Do top(m) and top(n) have one dimension vector?  Isomorphic modules
    do, so this settles many non-isomorphic pairs before any Hom."""
    return ([len(C) for C in top_basis(m)]
            == [len(C) for C in top_basis(n)])


def top(m):
    """m / rad(m), on the basis top_basis(m): semisimple, so every arrow
    acts as zero."""
    a = m.algebra
    dims = [len(C) for C in top_basis(m)]
    return Rep(a, dims, [Matrix.zero(a.field, dims[t], dims[s])
                         for _, s, t in a.arrows])


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


def path_images(m, v, x):
    """The columns p·x, per target w in the order of projective_layout(v), of
    the map P(v) -> m sending e_v to the vector x of m at v."""
    a = m.algebra
    layout = a.projective_layout(v)
    # basis order puts a path after its prefix, which is a basis path too:
    # tip reduction keeps normal paths closed under prefixes
    image = {}
    for bi in sorted(bi for paths in layout for bi in paths):
        arrs = a.basis[bi].arrs
        image[arrs] = m.action[arrs[-1]].apply(image[arrs[:-1]]) if arrs else x
    return [[image[a.basis[bi].arrs] for bi in paths] for paths in layout]


def generated_submodule(m, gens):
    """The submodule of m generated by `gens`, pairs (v, x) of a vertex and
    a vector of m at v: the closure (Span.close) of the generators under
    the arrows."""
    span = Span(m)
    span.close(gens)
    return Submodule(m, span.bases(), check=False)


# -- isomorphism testing ----------------------------------------------------

def _iso_in_basis(homs):
    """The first isomorphism in a basis of Hom(m, n), or None."""
    return next((f for f in homs if f.is_isomorphism()), None)


def _projections(m, parts):
    """The projections m -> part of a decomposition [(part, inclusion)] of m:
    the rows of the inverse of the stacked inclusions, sliced per part."""
    a = m.algebra
    inv = [linalg.inverse(linalg.hstack([incl.blocks[v] for _, incl in parts]))
           for v in range(a.n)]
    offsets = [0] * a.n
    out = []
    for part, _ in parts:
        blocks = []
        for v, d in enumerate(m.dims):
            lo, hi = offsets[v] * d, (offsets[v] + part.dims[v]) * d
            blocks.append(Matrix(a.field, part.dims[v], d,
                                 inv[v].entries[lo:hi]))
            offsets[v] += part.dims[v]
        out.append(Morphism(m, part, blocks))
    return out


def find_isomorphism(m, n):
    """An isomorphism m -> n, or None, decided without a coefficient search.

    If m ≅ n then their tops are isomorphic, so a mismatch of the top
    dimension vectors (top_basis) settles the question before any Hom.
    Then dim Hom(m, n) = dim End(m) = dim End(n), so a mismatch of the
    memoised dimensions settles it before any basis is built.
    For indecomposable m ≅ n via φ the non-isomorphisms form the proper
    subspace φ∘rad End(m), so a basis scan of Hom(m, n) finds an
    isomorphism; it decides when m or n has a simple top or socle, or
    decomposes into a single part.  Otherwise, by
    Krull–Schmidt, m ≅ n exactly when the indecomposable parts of m and n
    match one-to-one up to isomorphism, each pair decided by a basis scan;
    the sum of the matched isomorphisms, through the projections of m and
    the inclusions into n, is an isomorphism m -> n.  The answer is exact
    whenever decompose_with_inclusions is."""
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("iso test across algebras")
    if m.dims != n.dims:
        return None
    if m.total_dim == 0:
        return zero_morphism(m, n)
    if not _same_tops(m, n):
        return None
    d = hom_dim(m, n)
    if not d or hom_dim(m, m) != d or hom_dim(n, n) != d:
        return None
    iso = _iso_in_basis(hom_basis(m, n))
    if iso is not None:
        return iso
    if _simple_top_or_socle(m) or _simple_top_or_socle(n):
        return None
    m_parts = decompose_with_inclusions(m)
    n_parts = decompose_with_inclusions(n)
    if len(m_parts) == 1 or len(n_parts) == 1:
        return None
    iso = zero_morphism(m, n)
    for (p, _), proj in zip(m_parts, _projections(m, m_parts)):
        for k, (q, incl) in enumerate(n_parts):
            phi = _iso_in_basis(hom_basis(p, q)) if p.dims == q.dims else None
            if phi is not None:
                iso = iso.add(compose(incl, compose(phi, proj)))
                del n_parts[k]
                break
        else:
            return None
    return iso


def is_isomorphic(m, n):
    """Is m ≅ n?  Decided by find_isomorphism."""
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
        sol = linalg.solve(A, Matrix(F, n * n, 1, target.entries))
        if sol is not None:
            return [F.neg(c) for c in sol.entries] + [F.one]
        powers.append(target)


def _poly_of_morphism(f, coeffs):
    """Evaluate a polynomial (ascending coeffs) at an endomorphism."""
    acc = identity_morphism(f.source).scale(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = compose(acc, f).add(identity_morphism(f.source).scale(c))
    return acc


def _split(f, factors):
    """The parts of f's module along the endomorphism f, whose minimal
    polynomial has the coprime factors [(g, mult)]: by Fitting's lemma the
    module is the direct sum of the kernels of g(f)^mult, and each kernel
    is decomposed in turn."""
    out = []
    for coeffs, mult in factors:
        g = _poly_of_morphism(f, coeffs)
        power = g
        for _ in range(mult - 1):
            power = compose(power, g)
        sub, incl = kernel(power).as_rep()
        for part, part_incl in decompose_with_inclusions(sub):
            out.append((part, compose(incl, part_incl)))
    return out


def _simple_top_or_socle(m):
    """Is the top or the socle of the nonzero module m simple?

    Top and socle are additive over direct sums and nonzero on every nonzero
    summand, so a yes certifies that m is indecomposable."""
    return (sum(map(len, top_basis(m))) == 1
            or socle_submodule(m).total_dim == 1)


def _decided_by(f, dim_end):
    """(parts, g): m's decomposition if the minimal polynomial of f ∈ End(m)
    decides it, else None, and its irreducible factor g if it has one.
    Coprime factors split m (_split); g^e with deg g · e = dim_end = dim
    End(m) proves m indecomposable: End(m) = k[f] ≅ k[x]/(g^e) is local."""
    F = f.source.algebra.field
    factors = poly._factor(F, minimal_polynomial(F, _total_matrix(f)))
    if len(factors) > 1:
        return _split(f, factors), None
    [(g, mult)] = factors
    if (len(g) - 1) * mult == dim_end:
        return [(f.source, identity_morphism(f.source))], g
    return None, g


def decompose_with_inclusions(m):
    """List of (indecomposable Rep, inclusion into m), in deterministic order.

    m itself is returned when its top or socle is simple or dim End(m) = 1;
    else the first basis element of End(m) that decides m (_decided_by)
    settles it.  If none does, each basis f has minimal polynomial g_f^e,
    so g_f(f) is nilpotent.  The span of these nilpotent parts is closed
    under composition a level at a time: a product n∘w of a nilpotent part
    after an element kept at the last level is kept if it is independent of
    the span so far, which ends as the algebra S they generate.  A kept
    product is not invertible, as a factor is nilpotent, so if it is not
    nilpotent it splits m.  Otherwise S is spanned by nilpotents, hence
    nilpotent: in a simple quotient M_n(D) of S modulo its radical they
    would span a space where the reduced trace vanishes, yet it takes e_11
    to deg D ≠ 0 (D is a field when k is finite; Q has characteristic 0).
    If every g_f is linear, each f is c·1 + g_f(f), so End(m) = k·1 + S is
    local, S being a nilpotent ideal.  If not, the first pairwise sum f + f'
    of the basis that decides m settles it, else UndecidedDecomposition."""
    if m.total_dim == 0:
        return []
    if _simple_top_or_socle(m) or len(endos := hom_basis(m, m)) == 1:
        return [(m, identity_morphism(m))]
    F = m.algebra.field
    nilpotent, linear = [], True
    for f in endos:
        parts, g = _decided_by(f, len(endos))
        if parts:
            return parts
        nilpotent.append(_poly_of_morphism(f, g))
        linear = linear and len(g) == 2
    span = []                   # echelon rows, as linalg._extend_rows keeps

    def extends_span(h):
        return linalg._extend_rows(F.p, span, h.flat()) is not None

    gens = level = [n for n in nilpotent if extends_span(n)]
    while level:
        level = [h for w in level for n in gens
                 if extends_span(h := compose(n, w))]
        for h in level:
            if parts := _decided_by(h, len(endos))[0]:
                return parts
    if linear:
        return [(m, identity_morphism(m))]     # End(m) = k·1 + S is local
    for f, h in combinations(endos, 2):
        if parts := _decided_by(f.add(h), len(endos))[0]:
            return parts
    raise UndecidedDecomposition(f"End({m!r}) is neither split nor shown "
                                 "local by its basis or their pairwise sums")


def decompose(m):
    """Direct summands with multiplicities: [(Rep, multiplicity)]."""
    out = []
    for rep, _ in decompose_with_inclusions(m):
        for k, (other, mult) in enumerate(out):
            if is_isomorphic(rep, other):
                out[k] = (other, mult + 1)
                break
        else:
            out.append((rep, 1))
    return out
