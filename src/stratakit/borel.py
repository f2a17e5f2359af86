"""Subalgebra embeddings, induction, exact-Borel checks, and dualities.

An Embedding φ: B -> A sends each arrow β: s -> t of B to an element of
e_t A e_s, and is used through restriction: an A-module becomes a B-module
on which β acts as φ(β) does.  The embedding is checked on the restricted
indecomposable projectives of A, A as a right B-module is the restricted
regular module of A^op, and induction A ⊗_B M is computed as an explicit
cokernel presentation by projectives.  The duality functor is built from
an arrow involution extending to an anti-automorphism of the algebra, which
is decided on the twisted dual of the regular module.
"""

from . import homology, linalg, reps, strat, tilting
from .errors import (AlgebraMismatch, EmbeddingError, IdempotentMismatch,
                     NotAntiAutomorphism, NotInjective, NotMultiplicative,
                     StratakitError)
from .linalg import Matrix
from .reps import Rep, direct_sum, path_matrix, projective, quotient


class Embedding:
    """An algebra map B -> A given by images of the arrows of B.

    arrow_images: arrow name of B -> list of (coeff, tuple of A-arrow names
    in traversal order); each image is kept as its normal form, a dict
    basis path of A -> nonzero coeff.  The vertices correspond positionally,
    e_v -> e_v, so the image of an arrow s -> t must lie in e_t A e_s
    (NotMultiplicative).
    """

    def __init__(self, b, a, arrow_images):
        self.b = b
        self.a = a
        if b.n != len(a.vertices):
            raise IdempotentMismatch("algebras with different numbers of "
                                     "vertices")
        F = a.field
        if b.field != F:
            raise EmbeddingError("embedding across different base fields")
        imgs = {}
        for name, terms in arrow_images.items():
            bi = b.arrow_index(name)
            img = {}
            for coeff, arr_names in terms:
                idxs = tuple(a.arrow_index(nm) for nm in arr_names)
                c = F.of(coeff) if isinstance(coeff, int) else coeff
                for p, c2 in a.nf_path(a.arrows[idxs[0]][1], idxs).items():
                    img[p] = F.add(img.get(p, F.zero), F.mul(c, c2))
            imgs[bi] = {p: c for p, c in img.items() if not F.is_zero(c)}
        missing = set(range(len(b.arrows))) - set(imgs)
        if missing:
            names = [b.arrow_names[i] for i in sorted(missing)]
            raise EmbeddingError(f"no image supplied for arrows {names}")
        for bi, (name, s, t) in enumerate(b.arrows):
            for p in imgs[bi]:
                if (p.src, a.path_target(p)) != (s, t):
                    raise NotMultiplicative(
                        f"image of arrow {name} has a path from "
                        f"{a.vertices[p.src]} to {a.vertices[a.path_target(p)]}"
                        f", not from {b.vertices[s]} to {b.vertices[t]}")
        self.arrow_imgs = imgs

    def restrict(self, m):
        """The A-module m as a B-module: each arrow β of B acts as its image
        φ(β) = Σ c_k p_k does, by Σ c_k times the matrix of p_k on m."""
        F = self.a.field
        action = []
        for bi, (_, s, t) in enumerate(self.b.arrows):
            mat = Matrix.zero(F, m.dims[t], m.dims[s])
            for p, c in self.arrow_imgs[bi].items():
                mat = mat.add(path_matrix(m, p.src, p.arrs).scale(c))
            action.append(mat)
        return Rep(self.b, m.dims, action)


def check_embedding(e):
    """Verify that e is an injective algebra map, on the restrictions of the
    projectives P_A(v) = A·e_v.

    Multiplicative: e extends to an algebra map kQ_B -> A, which factors
    through B exactly when it kills the ideal I_B, that is when every
    relation of B acts as zero on the restriction of the faithful module
    A = ⊕ P_A(v).  This is the test φ(p)φ(q) = φ(nf(pq)) over all pairs of
    basis paths of B: each pq - nf(pq) lies in I_B, and the reduced Gröbner
    elements t - nf(t), whose tips t = α·p are a basis path p followed by an
    arrow α, are among them and generate I_B.

    Injective: φ maps B·e_v into A·e_v = P_A(v), and the image of a basis
    path of B from v to w is its action on e_v in the restriction of P_A(v),
    at w; φ is injective when these images are linearly independent for
    each v and w."""
    a, b = e.a, e.b
    F = a.field
    for v in range(b.n):
        res = e.restrict(projective(a, v))
        if not res.relations_hold():
            raise NotMultiplicative(
                f"a relation of B does not act as zero on P({a.vertices[v]})")
        e_v = [F.one] + [F.zero] * (res.dims[v] - 1)
        for w, cols in enumerate(reps.path_images(res, v, e_v)):
            mat = Matrix.from_columns(F, cols, rows=res.dims[w])
            if linalg.rank(mat) != len(cols):
                raise NotInjective(
                    "the embedding is not injective on the paths from "
                    f"{b.vertices[v]} to {b.vertices[w]}")
    return e


def right_module_structure(e):
    """A as a right B-module, i.e. a left module over B^op: the regular
    module of A^op restricted along B^op -> A^op, whose arrow images are
    those of e read backwards.  Needs a checked embedding, whose images hold
    no trivial path."""
    a, b = e.a, e.b
    images = {b.arrow_names[bi]: [
        (c, tuple(a.arrow_names[i] for i in reversed(p.arrs)))
        for p, c in img.items()]
        for bi, img in e.arrow_imgs.items()}
    op = Embedding(b.opposite(), a.opposite(), images)
    right = op.restrict(reps.regular_module(a.opposite()))
    right.label = "A as right B-module"
    return right


def induce(e, m):
    """A ⊗_B m as a left A-module, via the cokernel presentation.

    The free cover is ⊕_i P_A(i) ⊗ m_i, one copy of P_A(i) per coordinate
    of m_i; the relation submodule is generated by φ(β) ⊗ x − e_t ⊗ (β·x)
    over the arrows β: s -> t of B and x in m_s.  Its vertex-t part in the
    copy of P_A(i) has the coordinates of the paths from i to t."""
    a, b = e.a, e.b
    F = a.field
    if m.algebra is not b:
        raise AlgebraMismatch("induction of a module over the wrong algebra")
    if not m.total_dim:
        return reps.zero_rep(a)
    free = direct_sum([projective(a, i)
                       for i in range(b.n) for _ in range(m.dims[i])])
    gens = []
    for bi, (_, s, t) in enumerate(b.arrows):
        act, img = m.action[bi], e.arrow_imgs[bi]       # act: m_s -> m_t
        for j in range(m.dims[s]):
            vec = []
            for i in range(b.n):
                paths = a.projective_layout(i)[t]
                for c in range(m.dims[i]):
                    part = [img.get(a.basis[k], F.zero) if (i, c) == (s, j)
                            else F.zero for k in paths]
                    if i == t:              # e_t is the first path from t
                        part[0] = F.sub(part[0], act[c, j])
                    vec += part
            gens.append((t, vec))
    ind, _ = quotient(free, reps.generated_submodule(free, gens))
    ind.label = f"A(x){m.label}" if m.label else "induced"
    return ind


class BorelReport:
    def __init__(self, verdict, clauses):
        self.verdict = verdict
        self.clauses = clauses        # list of (name, ok, detail)

    def __repr__(self):
        return f"BorelReport({self.verdict}, {self.clauses})"


def is_exact_borel(e):
    """The three operative properties of an exact Borel subalgebra."""
    a, b = e.a, e.b
    clauses = []
    same = b.vertices == a.vertices
    clauses.append(("same_simples", same,
                    f"B vertices {b.vertices}, A vertices {a.vertices}"))
    # exactness of induction == A projective as a right B-module, and a
    # module is projective iff its projective cover has the same dimension
    right = right_module_structure(e)
    proj_ok = (homology.projective_cover(right).source.total_dim
               == right.total_dim)
    clauses.append(("right_projective", proj_ok,
                    "A decomposes into projective right B-modules"
                    if proj_ok else "a non-projective right B-summand exists"))
    # induction carries standard B-modules to standard A-modules
    delta_ok = True
    detail = []
    deltas_a, deltas_b = strat.standard_family(a), strat.standard_family(b)
    for i in range(b.n):
        good = reps.is_isomorphic(induce(e, deltas_b[i]), deltas_a[i])
        detail.append(f"{b.vertices[i]}:{'ok' if good else 'FAIL'}")
        delta_ok = delta_ok and good
    clauses.append(("standards_induce", delta_ok, " ".join(detail)))
    return BorelReport(same and proj_ok and delta_ok, clauses)


def verify_lemma_induction_bounds(e, cap=homology.DEFAULT_CAP):
    """Induction does not raise projective dimension, and its values are
    Delta-filtered; checked over the probe corpus of B-modules.

    Returns (ok, entries), one entry (label, pd of A⊗m, pd of m, ok) per
    probe m; a capped projective dimension stays a LowerBound (">=N")."""
    a, b = e.a, e.b
    deltas_a = strat.standard_family(a)
    entries = []
    ok = True
    for m in tilting.probe_modules(b):
        pdb = homology.proj_dim(m, cap)
        ind = induce(e, m)
        pda = homology.proj_dim(ind, cap) if ind.total_dim else 0
        cert = (ind.total_dim == 0
                or strat.filtration_certificate(ind, deltas_a) is not None)
        if isinstance(pdb, homology.LowerBound):
            bound_ok = True              # infinite-side bound is vacuous
        else:
            bound_ok = (not isinstance(pda, homology.LowerBound)
                        and int(pda) <= int(pdb))
        entries.append((m.label or str(m.dims), pda, pdb, bound_ok and cert))
        ok = ok and bound_ok and cert
    return ok, entries


def verify_gldim_doubling(e, cap=homology.DEFAULT_CAP):
    """gl.dim(A) <= 2·gl.dim(B), with an equality flag."""
    ga = homology.finite_dim(homology.global_dim(e.a, cap),
                             "global dimension of A")
    gb = homology.finite_dim(homology.global_dim(e.b, cap),
                             "global dimension of B")
    return ga <= 2 * gb, ga == 2 * gb, ga, gb


# -- dualities via arrow involutions -----------------------------------------

def check_anti_automorphism(a, sigma):
    """Does the arrow involution extend to an anti-automorphism of A?

    sigma: dict arrow name -> arrow name.  Returns it as a dict of arrow
    indices; raises NotAntiAutomorphism with the failing reason.

    σ descends from kQ to A = kQ/I when σ(I) ⊆ I.  A path p acts on
    twisted_dual(M) as the transpose of σ(p) acting on M, so a relation r
    holds there exactly when σ(r) acts as 0 on M; A is faithful, so for
    M = A this holds exactly when σ(I) ⊆ I.  The induced map is then
    bijective: σ is an involution of kQ, so I = σ(σ(I)) ⊆ σ(I).
    """
    sigma_idx = {a.arrow_index(x): a.arrow_index(y) for x, y in sigma.items()}
    if set(sigma_idx) != set(range(len(a.arrows))):
        raise NotAntiAutomorphism("involution does not cover every arrow")
    for i, j in sigma_idx.items():
        if sigma_idx.get(j) != i:
            raise NotAntiAutomorphism("arrow map is not an involution")
        _, s, t = a.arrows[i]
        if a.arrows[j][1:] != (t, s):
            raise NotAntiAutomorphism(
                f"image of arrow {a.arrow_names[i]} does not reverse it")
    if not twisted_dual(a, sigma_idx, reps.regular_module(a)).relations_hold():
        raise NotAntiAutomorphism(
            "a defining relation does not map into the ideal")
    return sigma_idx


def twisted_dual(a, sigma_idx, m):
    """The duality functor: k-dual with the action twisted by the involution."""
    action = [m.action[sigma_idx[i]].transpose() for i in range(len(a.arrows))]
    out = Rep(a, m.dims, action, label=(m.label + "*") if m.label else "")
    return out


def duality_check(a, sigma):
    """Verify sigma gives a simple-preserving duality and its consequences.

    Returns (sigma_idx, clauses); raises NotAntiAutomorphism when sigma does
    not extend.  The consequences checked: phi fixes the simples, swaps
    standard and costandard modules, and fixes the tilting summands.
    """
    sigma_idx = check_anti_automorphism(a, sigma)
    clauses = []
    simples_ok = all(
        reps.is_isomorphic(twisted_dual(a, sigma_idx, reps.simple(a, i)),
                           reps.simple(a, i)) for i in range(a.n))
    clauses.append(("fixes_simples", simples_ok))
    delta_ok = all(
        reps.is_isomorphic(twisted_dual(a, sigma_idx, d), nb)
        for d, nb in zip(strat.standard_family(a), strat.costandard_family(a)))
    clauses.append(("delta_to_nabla", delta_ok))
    if strat.classify(a).standardly_stratified:
        tilt = tilting.characteristic_tilting(a)
        t_ok = all(reps.is_isomorphic(twisted_dual(a, sigma_idx, t), t)
                   for t in tilt.summands)
        clauses.append(("fixes_tilting", t_ok))
    return sigma_idx, clauses


def _arrow_involutions(a, sigma):
    """The involutions extending sigma (arrow index -> arrow index) that send
    each arrow s -> t to an arrow t -> s, in the lexicographic order of
    itertools.permutations: the smallest unpaired arrow is paired with each
    unpaired arrow that reverses it, in increasing order (with itself only
    if it is a loop), and the rest is paired recursively."""
    free = [i for i in range(len(a.arrows)) if i not in sigma]
    if not free:
        yield sigma
        return
    i = free[0]
    _, s, t = a.arrows[i]
    for j in free:
        if a.arrows[j][1:] == (t, s):
            yield from _arrow_involutions(a, {**sigma, i: j, j: i})


def find_duality(a):
    """Exhaustive search for an arrow involution extending to a duality.

    Returns (sigma dict, clauses) or None.  Only for small quivers.
    """
    if len(a.arrows) > 6:
        raise StratakitError("duality search limited to quivers with <= 6 "
                             "arrows")
    names = a.arrow_names
    for inv in _arrow_involutions(a, {}):
        sigma = {names[i]: names[inv[i]] for i in range(len(names))}
        try:
            sigma_idx, clauses = duality_check(a, sigma)
        except NotAntiAutomorphism:
            continue
        if all(flag for _, flag in clauses):
            return sigma, clauses
    return None
