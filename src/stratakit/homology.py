"""Minimal projective resolutions, syzygies, Ext groups, universal extensions.

A resolution is a chain of shared steps.  syzygy_step(M) is the projective
cover P -> M, Ω M and its inclusion into P, memoised per algebra by the
structural key of M (reps.by_structure), so the resolution of Ω M reuses the
steps of M's resolution, and resolutions whose syzygies are equal share
their tails.  A step eliminates each cover block once, for its surjectivity
and Ω, and builds P once per algebra and multiset of tops; a cover with one
top v has P(v) itself as its source, and keeps its tops on the cover
morphism, so the shared P(v) is never written to.  Resolutions are memoized
the same way and extended on demand, so repeated Ext queries against the
same module reuse one resolution.  A resolution keeps its projective covers,
its syzygies Ω^k M and the vertices of each term's tops as a bitmask, and no
differentials.

Ext is computed by dimension shifting: Ext^i(M, N) ≅ Ext^1(Ω^{i-1}M, N), and
0 -> Hom(Ω^{i-1}M, N) -> Hom(P_{i-1}, N) -> Hom(Ω^i M, N) -> Ext^i(M, N) -> 0
is exact, so dim Ext^i is an alternating sum of Hom dimensions.  reps.hom_dim
reads each off one kernel per pair of structural keys, shared with
hom_basis, so the consecutive degrees of a scan share one syzygy's Hom
space, and so do equal syzygies of different resolutions and the cocycles
of an extension.  Ext^i(M, N) is a subquotient of Hom(P_i, N), the sum of
the N_v over the tops v of P_i, and a quotient of Hom(Ω^i M, N): it is 0,
with no Hom asked, when N is zero at every top of P_i, or at every vertex
of Ω^i M while P_i is not grown yet.

ext_top finds the top nonvanishing degree against a family of sources, as
the good filtration dimensions need.  Ext^d(x, -) = 0 above pd x, so once
x's resolution completes within the bound, x's scan starts at pd x and not
at the bound; each pair stops at its first nonzero Ext above the best
degree found so far, and skips, with no ext_dim call, each degree whose
term's tops the target misses.

A direct sum is resolved and Hom-solved summand by summand.
Minimal resolutions of a sum are the sums of those of its summands and Ext
is bilinear, so for a module built by reps.direct_sum, ext_dim adds up the
pairs of summands, and proj_dim and inj_dim take the largest over them.
min_proj_resolution itself is never split.

Depth rule: Ext^i reads P_{i-1}, Ω^{i-1} and Ω^i, so a degree i <= cap + 1
grows the resolution to i terms only, and its answer does not depend on the
cap.  The cap bounds only what needs the whole resolution: proj_dim and a
degree above cap + 1, which are decided from the first cap + 1 terms however
far the shared resolution has grown, so their answers do not depend on
earlier calls with a larger cap.
"""

from . import linalg, reps
from .errors import (AlgebraMismatch, NothingToExtend, StratakitError,
                     Truncated, ZeroModule)
from .linalg import Matrix
from .reps import (Morphism, compose, direct_sum, hom_basis, kernel,
                   projective, quotient, radical_submodule)

DEFAULT_CAP = 20


class LowerBound(int):
    """A dimension known only to be >= this value (capped resolution)."""

    def __repr__(self):
        return f">={int(self)}"

    __str__ = __repr__


@reps.built_once
def _cover_source(a, tops):
    """⊕P(v) over the tuple tops, shared by the covers with these tops; P(v)
    itself for one top."""
    if len(tops) == 1:
        return projective(a, tops[0])
    return direct_sum([projective(a, v) for v in tops])


def projective_cover(m):
    """Projective cover ⊕P(i)^mult -> m, with multiplicities from top(m); it
    is onto when its kernel, kept as `cover.ker`, has dim P - dim m.  The
    vertices of its source's summands, in order, are kept as `cover.tops`."""
    if m.total_dim == 0:
        raise ZeroModule("projective cover of the zero module")
    a = m.algebra
    F = a.field
    # lifts of a basis of the top: the e_c of its greedy complement; the top
    # of a nonzero module is nonzero, so there is at least one
    lifts = [(v, [F.one if i == c else F.zero for i in range(m.dims[v])])
             for v, C in enumerate(reps.top_basis(m)) for c in C]
    tops = [v for v, _ in lifts]
    P = _cover_source(a, tuple(tops))
    images = [reps.path_images(m, v, x) for v, x in lifts]
    cover = Morphism(P, m, [Matrix.from_columns(
        F, [c for img in images for c in img[tv]], rows=m.dims[tv])
        for tv in range(a.n)])
    cover.tops = tops
    cover.ker = kernel(cover)
    if cover.ker.dims() != tuple(p - d for p, d in zip(P.dims, m.dims)):
        raise StratakitError("projective cover failed to be surjective")
    return cover


@reps.by_structure
def syzygy_step(m):
    """(cover, Ω m, inclusion): the projective cover P -> m, its kernel Ω m
    as a module, and the inclusion of Ω m into P.  The kernel is the one the
    cover's check found, so Ω's action is read off its free coordinates and
    checked by one product per arrow.  One per structural key, so
    resolutions whose syzygies are equal share their tails."""
    cover = projective_cover(m)
    omega, incl = cover.ker.as_rep()
    return cover, omega, incl


class Resolution:
    """A (partial) minimal projective resolution.

    terms[i] is the multiset of projective summand vertices of P_i, and
    top_masks[i] the bitmask of those vertices; covers[i]: P_i -> Ω^i m is
    its projective cover.  syzygies[k] is (Ω^k m, its inclusion into
    P_{k-1}), with Ω^0 = m and no inclusion.  `complete` means the last
    syzygy is zero.
    """

    def __init__(self, module):
        self.module = module
        self.terms = []          # list of lists of vertex indices
        self.top_masks = []
        self.covers = []
        self.syzygies = [(module, None)]
        self.complete = module.total_dim == 0

    def extend_to(self, nterms):
        """Grow until there are nterms terms or the resolution completes."""
        while not self.complete and len(self.terms) < nterms:
            cover, omega, incl = syzygy_step(self.syzygies[-1][0])
            self.terms.append(cover.tops)
            self.top_masks.append(sum(1 << v for v in set(cover.tops)))
            self.covers.append(cover)
            self.syzygies.append((omega, incl))
            self.complete = omega.total_dim == 0

    def completes_within(self, cap):
        """Do the first cap + 1 terms complete the resolution?  The answer
        does not depend on how far other callers have grown it."""
        return self.complete and len(self.terms) <= cap + 1


@reps.by_structure
def _resolution(m):
    return Resolution(m)


def min_proj_resolution(m, cap=DEFAULT_CAP):
    """Memoized minimal projective resolution, grown to at least cap + 1
    terms unless it completes sooner."""
    res = _resolution(m)
    res.extend_to(cap + 1)
    return res


def _sup(dims):
    """The largest of the dimensions, 0 for none; a LowerBound if one of
    them is."""
    dims = list(dims)
    best = int(max(dims, default=0))
    return (LowerBound(best) if any(isinstance(d, LowerBound) for d in dims)
            else best)


def proj_dim(m, cap=DEFAULT_CAP):
    """Projective dimension, or LowerBound(cap) when the resolution was
    capped.  A direct sum takes the largest over its summands."""
    if m.total_dim == 0:
        return 0
    parts = reps.summands(m)
    if len(parts) > 1:
        return _sup(proj_dim(x, cap) for x in parts)
    res = min_proj_resolution(m, cap)
    if res.completes_within(cap):
        return len(res.terms) - 1
    return LowerBound(cap)


def inj_dim(m, cap=DEFAULT_CAP):
    """Injective dimension via the opposite algebra, summand by summand."""
    parts = reps.summands(m)
    if len(parts) > 1:
        return _sup(inj_dim(x, cap) for x in parts)
    return proj_dim(reps.dual(m), cap)


def finite_dim(d, what):
    """int(d) for a dimension from proj_dim, inj_dim or global_dim.

    A LowerBound means the resolution was capped, so the true value is
    unknown: raise Truncated rather than let it pass for a number."""
    if isinstance(d, LowerBound):
        raise Truncated(f"{what} capped at {int(d)}; raise the cap")
    return int(d)


def global_dim(a, cap=DEFAULT_CAP):
    return _sup(proj_dim(reps.simple(a, i), cap) for i in range(a.n))


def ext_dim(i, m, n, cap=DEFAULT_CAP):
    """dim Ext^i(m, n).  A degree i <= cap + 1 grows the resolution of m to
    i terms and reads P_{i-1}, Ω^{i-1} and Ω^i, whatever the cap.  A degree
    above cap + 1 is 0 if the first cap + 1 terms complete the resolution,
    and raises Truncated otherwise.  Ext is bilinear: direct sums are split
    into their summands, and Truncated is raised if any pair raises it."""
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("ext between modules over different algebras")
    if i < 0:
        return 0
    ms, ns = reps.summands(m), reps.summands(n)
    return sum(_ext_dim(i, x, y, cap) for x in ms for y in ns)


def _ext_dim(i, m, n, cap):
    """ext_dim for i >= 0 on modules that are not split further."""
    if m.total_dim == 0 or n.total_dim == 0:
        return 0
    if i == 0:
        return reps.hom_dim(m, n)
    if i > cap + 1:
        if not min_proj_resolution(m, cap).completes_within(cap):
            raise Truncated(f"resolution capped below degree {i}")
        return 0
    res = min_proj_resolution(m, i - 1)
    if i > len(res.terms):  # past the end of the resolution
        return 0
    syz = res.syzygies
    # Ext^i is a subquotient of Hom(P_i, n) and a quotient of Hom(Ω^i m, n)
    tops = res.top_masks[i] if i < len(res.terms) else syz[i][0].support
    if not n.support & tops:
        return 0
    return (reps.hom_dim(syz[i][0], n) - sum(n.dims[v] for v in res.terms[i - 1])
            + reps.hom_dim(syz[i - 1][0], n))


def ext_top(sources, m, bound, cap):
    """The top d <= bound with Ext^d(x, m) != 0 for a summand x of a module
    in sources, or 0.  bound is a finite dimension at this cap, so no degree
    above cap + 1 is asked.

    Each x's resolution is grown to bound terms, as far as Ext^bound grows
    it.  Ext^d(x, -) = 0 above pd x, so a complete resolution starts x's
    scan at min(bound, pd x).  Each pair (x, y), y a summand of m, is
    scanned down to one above the best degree found so far, and stops at
    its first nonzero Ext; a degree d whose term P_d has no top where y is
    nonzero has Ext^d(x, y) = 0 and is skipped with no ext_dim call.  Once
    bound is found, nothing more is grown."""
    best = 0
    ys = reps.summands(m)
    for x in (x for s in sources for x in reps.summands(s)):
        if best == bound:
            break
        res = min_proj_resolution(x, bound - 1)
        top = min(bound, len(res.terms) - 1) if res.complete else bound
        masks = res.top_masks
        for y in ys:
            best = next((d for d in range(top, best, -1)
                         if (d >= len(masks) or y.support & masks[d])
                         and ext_dim(d, x, y, cap) != 0), best)
    return best


# -- universal extensions ----------------------------------------------------

def _cocycle_classes(m, n):
    """Cocycles Omega(m) -> n whose classes are a basis of
    Ext^1(m, n)/Ext^1(m, n)·rad End(m), for m with a simple top (see
    universal_extension), plus the syzygy data."""
    res = min_proj_resolution(m, 0)
    cover = res.covers[0]
    P0 = cover.source
    omega, incl = res.syzygies[1]
    F = m.algebra.field
    cocycles = hom_basis(omega, n)
    if not cocycles:
        return [], omega, incl, cover
    # coboundaries: restrictions of Hom(P0, n) along the inclusion; keep
    # the cocycles independent modulo them
    known = [compose(g, incl).flat() for g in hom_basis(P0, n)]
    [mu] = cover.tops
    # and modulo c∘(r|Omega), r: e_μ -> y over a basis of rad P(μ) at μ;
    # if dim e_μ m = 1, r maps P(μ) into Omega: c∘r is a coboundary
    for y in (radical_submodule(P0).bases[mu].columns()
              if m.dims[mu] > 1 else []):
        # r|Omega at each vertex: the s with incl·s = r·incl
        r = [linalg.solve(i, Matrix.from_columns(F, cols, rows=i.rows).mul(i))
             for i, cols in zip(incl.blocks, reps.path_images(P0, mu, y))]
        if None in r:
            raise StratakitError("an endomorphism of P(μ) leaves Omega")
        known += [compose(c, Morphism(omega, omega, r)).flat()
                  for c in cocycles]
    keep = linalg.pivot_columns(F, known + [c.flat() for c in cocycles])
    reps_out = [cocycles[k - len(known)] for k in keep if k >= len(known)]
    return reps_out, omega, incl, cover


def _pushout_extension(n, incl, cover, cocycle):
    """Build 0 -> n -> Z -> m -> 0 from a cocycle Omega(m) -> n.

    Z = (n ⊕ P0) / {(cocycle(w), -incl(w))}.  Returns (Z, embedding of n,
    projection onto m).
    """
    a = n.algebra
    F = a.field
    P0 = cover.source
    m = cover.target
    total = direct_sum([n, P0])
    # at each vertex, total's coordinates are n's first, then P0's
    W = reps.Submodule(total, [linalg.vstack([cocycle.blocks[v],
                                              incl.blocks[v].neg()])
                               for v in range(a.n)], check=False)
    Z, pi = quotient(total, W)
    # n -> Z: pi on the n-coordinates; Z -> m: descend (x, y) -> cover(y)
    # through the P0-rows of the linear sections of pi
    emb_blocks, proj_blocks = [], []
    for v in range(a.n):
        nd, p, sec = n.dims[v], pi.blocks[v], pi.section_blocks[v]
        emb_blocks.append(Matrix.of(F, p.rows, nd, [
            p[i, j] for i in range(p.rows) for j in range(nd)]))
        proj_blocks.append(cover.blocks[v].mul(Matrix.of(
            F, sec.rows - nd, sec.cols, sec.entries[nd * sec.cols:])))
    return Z, Morphism(n, Z, emb_blocks), Morphism(Z, m, proj_blocks)


def universal_extension(q, x):
    """0 -> x -> Z -> q^r -> 0 for r minimal generators of Ext^1(q, x) as a
    right module over E = End(q), q with a simple top at μ: a basis of
    Ext^1 modulo Ext^1·rad E (Nakayama), so Hom(q, q^r) -> Ext^1 is onto.
    The one caller passes q = Delta(μ).  Pulling c: Omega -> x back along
    φ ∈ E gives c∘(φ'|Omega), φ' a lift of φ to P(μ).  Each r ∈ End(P(μ))
    keeps Omega, the trace of the P(ν), ν > μ, and End(P(μ)) -> E is onto,
    so Ext^1·rad E is spanned by the c∘(r|Omega), r over a basis of
    Hom(P(μ), rad P(μ)); none is needed if dim e_μ Delta(μ) = dim E = 1.

    Z is indecomposable when x is and x is filtered by Delta(ν), ν > μ:
    Hom(x, Delta(μ)) = 0, so each endomorphism of Z keeps x, and an
    idempotent e ∈ End(Z) is 0 or 1 on x as End(x) is local.  Up to 1 - e,
    e kills x and factors as g∘π through π: Z -> Delta(μ)^r.  The columns
    of the idempotent π∘g = (φ_ji) ∈ M_r(E) lift to Z, so Σ_j ξ_j φ_ji = 0
    over the generators ξ_j.  If e ≠ 0, some φ_ji is a unit, E being local,
    and ξ_j is redundant, against minimality.

    Returns (middle, embedding of x, projection onto q^r).
    """
    cocycles, omega, incl, cover = _cocycle_classes(q, x)
    r = len(cocycles)
    if r == 0:
        raise NothingToExtend("Ext^1(q, x) = 0")
    if r == 1:      # q^1 is q: push out along the cover and Ω itself
        return _pushout_extension(x, incl, cover, cocycles[0])
    a = q.algebra
    F = a.field
    qr = direct_sum([q] * r)
    Pr = direct_sum([cover.source] * r)
    Or = direct_sum([omega] * r)
    # block-diagonal cover and inclusion, block-row cocycle
    cover_r = Morphism(Pr, qr, [linalg.block_diag(F, [cover.blocks[v]] * r)
                                for v in range(a.n)])
    incl_r = Morphism(Or, Pr, [linalg.block_diag(F, [incl.blocks[v]] * r)
                               for v in range(a.n)])
    coc = Morphism(Or, x, [linalg.hstack([c.blocks[v] for c in cocycles])
                           for v in range(a.n)])
    return _pushout_extension(x, incl_r, cover_r, coc)
