"""Subalgebra embeddings, induction, exact-Borel checks, and dualities.

An Embedding carries B -> A on the level of basis elements; induction
A ⊗_B M is computed as an explicit cokernel presentation by projectives.
The duality functor is built from an arrow involution extending to an
anti-automorphism of the algebra.
"""

from itertools import permutations

from . import homology, linalg, reps, strat, tilting
from .errors import (AlgebraMismatch, EmbeddingError, IdempotentMismatch,
                     NotAntiAutomorphism, NotInjective, NotMultiplicative,
                     NotUnital, StratakitError)
from .linalg import Matrix
from .quiver import Path
from .reps import Rep, direct_sum, projective, quotient


class Embedding:
    """An algebra map B -> A given by images of the arrows of B.

    arrow_images: arrow name of B -> coefficient vector over the basis of A
    (or a list of (coeff, tuple of A-arrow names in traversal order), which
    is converted).  Idempotents map to idempotents positionally.
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
        for name, val in arrow_images.items():
            bi = b.arrow_index(name)
            if isinstance(val, list):
                vec = [F.zero] * a.dim
                for coeff, arr_names in val:
                    idxs = tuple(a.arrow_index(nm) for nm in arr_names)
                    src = a.arrows[idxs[0]][1]
                    nf = a.nf_path(src, idxs)
                    c = F.of(coeff) if isinstance(coeff, int) else coeff
                    for p, c2 in nf.items():
                        vec[a.basis_index[p]] = F.add(
                            vec[a.basis_index[p]], F.mul(c, c2))
                imgs[bi] = vec
            else:
                imgs[bi] = list(val)
        missing = set(range(len(b.arrows))) - set(imgs)
        if missing:
            names = [b.arrow_names[i] for i in sorted(missing)]
            raise EmbeddingError(f"no image supplied for arrows {names}")
        self.arrow_imgs = imgs
        # extend multiplicatively to the whole basis of B
        self.images = []
        for p in b.basis:
            acc = a.idempotent(p.src)
            for ai in p.arrs:
                acc = a.multiply(imgs[ai], acc)
            self.images.append(acc)

    def image_of(self, coeffs):
        """Image of a B-element given by coefficients over the basis of B."""
        F = self.a.field
        out = [F.zero] * self.a.dim
        for i, c in enumerate(coeffs):
            if F.is_zero(c):
                continue
            for k, v in enumerate(self.images[i]):
                out[k] = F.add(out[k], F.mul(c, v))
        return out


def check_embedding(e):
    """Verify linearity/multiplicativity/unitality/injectivity by brute force."""
    a, b = e.a, e.b
    F = a.field
    # idempotents correspond positionally
    for v in range(b.n):
        img = e.images[b.idempotent_index[v]]
        if img != a.idempotent(v):
            raise IdempotentMismatch(
                f"idempotent at vertex {b.vertices[v]} does not map to its "
                "counterpart")
    unit_img = e.image_of(b.unit())
    if unit_img != a.unit():
        raise NotUnital("the unit of B does not map to the unit of A")
    # multiplicative on all basis pairs
    for i in range(b.dim):
        for j in range(b.dim):
            prod_b = b.mult_basis(i, j)
            lhs = a.multiply(e.images[i], e.images[j])
            rhs = [F.zero] * a.dim
            for k, c in prod_b.items():
                for t, v in enumerate(e.images[k]):
                    rhs[t] = F.add(rhs[t], F.mul(c, v))
            if lhs != rhs:
                raise NotMultiplicative(
                    f"images of {b.basis[i]} and {b.basis[j]} do not multiply "
                    "compatibly")
    mat = Matrix.from_columns(F, [e.images[i] for i in range(b.dim)],
                              rows=a.dim)
    if linalg.rank(mat) != b.dim:
        raise NotInjective("the embedding is not injective as a linear map")
    return e


def right_module_structure(e):
    """A as a right B-module, i.e. a left module over B^op.

    The component at vertex v is A·e_v (paths of A with source v); the
    arrows of B^op act by right multiplication with their images.
    """
    a, b = e.a, e.b
    bop = b.opposite()
    F = a.field
    blocks = [a.basis_with_source(v) for v in range(b.n)]
    pos = {}
    for v, idxs in enumerate(blocks):
        for k, bi in enumerate(idxs):
            pos[bi] = k
    dims = [len(idxs) for idxs in blocks]
    action = []
    for (name, s_op, t_op) in bop.arrows:
        # the B-arrow runs t_op -> s_op; right multiplication by its image
        # sends A·e_{s_op} into A·e_{t_op}
        img = e.arrow_imgs[b.arrow_index(name)]
        mat = [[F.zero] * dims[s_op] for _ in range(dims[t_op])]
        for col, bi in enumerate(blocks[s_op]):
            x = [F.zero] * a.dim
            x[bi] = F.one
            prod = a.multiply(x, img)
            for k, c in enumerate(prod):
                if not F.is_zero(c):
                    mat[pos[k]][col] = c
        action.append(Matrix.from_rows(F, mat) if dims[t_op]
                      else Matrix(F, 0, dims[s_op], []))
    rep = Rep(bop, tuple(dims), action, label="A as right B-module")
    return rep


def induce(e, m):
    """A ⊗_B m as a left A-module, via the cokernel presentation.

    The free cover is ⊕_i P_A(i) ⊗ m_i; the relation submodule is generated
    by φ(β) ⊗ x − e_t ⊗ (β·x) over the arrows β: s -> t of B and x in m_s.
    """
    a, b = e.a, e.b
    F = a.field
    if m.algebra is not b:
        raise AlgebraMismatch("induction of a module over the wrong algebra")
    summands = []            # (vertex of B, coordinate in m)
    for i in range(b.n):
        for c in range(m.dims[i]):
            summands.append((i, c))
    if not summands:
        return reps.zero_rep(a)
    free = direct_sum([projective(a, i) for (i, c) in summands])
    # vertex-block offsets of each summand copy inside `free`
    offsets = []
    acc = [0] * a.n
    for (i, c) in summands:
        offsets.append(list(acc))
        for v, paths in enumerate(a.projective_layout(i)):
            acc[v] += len(paths)
    copy_index = {sm: k for k, sm in enumerate(summands)}
    # position (target vertex, coordinate) of each basis path inside P(i)
    pos_cache = {i: {bi: (tv, k)
                     for tv, paths in enumerate(a.projective_layout(i))
                     for k, bi in enumerate(paths)}
                 for i in range(b.n)}

    def place(vecs, copy, element_coeffs):
        """Add an element of A·e_i (copy at (i, c)) into per-vertex vectors."""
        i, _ = summands[copy]
        pos = pos_cache[i]
        for bi, cf in enumerate(element_coeffs):
            if F.is_zero(cf):
                continue
            tv, k = pos[bi]
            vecs[tv][offsets[copy][tv] + k] = F.add(
                vecs[tv][offsets[copy][tv] + k], cf)

    gens = []
    for bi_arrow, (name, src, tgt) in enumerate(b.arrows):
        act = m.action[bi_arrow]                 # m_src -> m_tgt
        for c in range(m.dims[src]):
            vecs = [[F.zero] * free.dims[v] for v in range(a.n)]
            place(vecs, copy_index[(src, c)], e.arrow_imgs[bi_arrow])
            for d in range(m.dims[tgt]):
                unit = [F.zero] * a.dim
                unit[a.idempotent_index[tgt]] = F.neg(act[d, c])
                place(vecs, copy_index[(tgt, d)], unit)
            gens.append((tgt, vecs[tgt]))
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

def _sigma_path_image(a, sigma_idx, p):
    """Normal form of the anti-automorphism image of a path (reversed, mapped)."""
    arrs = tuple(sigma_idx[i] for i in reversed(p.arrs))
    if not arrs:
        return {Path(p.src, ()): a.field.one}
    src = a.arrows[arrs[0]][1]
    return a.nf_path(src, arrs)


def check_anti_automorphism(a, sigma):
    """Does the arrow involution extend to an anti-automorphism of A?

    sigma: dict arrow name -> arrow name.  Raises NotAntiAutomorphism with the
    failing reason; returns the basis matrix of the induced linear map.
    """
    F = a.field
    sigma_idx = {}
    for name, img in sigma.items():
        i, j = a.arrow_index(name), a.arrow_index(img)
        sigma_idx[i] = j
    if set(sigma_idx) != set(range(len(a.arrows))):
        raise NotAntiAutomorphism("involution does not cover every arrow")
    for i, j in sigma_idx.items():
        if sigma_idx.get(j) != i:
            raise NotAntiAutomorphism("arrow map is not an involution")
        _, s, t = a.arrows[i]
        _, s2, t2 = a.arrows[j]
        if (s2, t2) != (t, s):
            raise NotAntiAutomorphism(
                f"image of arrow {a.arrow_names[i]} does not reverse it")
    # the ideal must be stable: each defining relation maps to zero in A
    for rel in a.spec.relations:
        acc = {}
        for coeff, names in rel:
            idxs = tuple(a.arrow_index(nm) for nm in names)
            src = a.arrows[idxs[0]][1]
            img = _sigma_path_image(a, sigma_idx, Path(src, idxs))
            c = F.of(coeff) if isinstance(coeff, int) else coeff
            for q, c2 in img.items():
                acc[q] = F.add(acc.get(q, F.zero), F.mul(c, c2))
        if any(not F.is_zero(v) for v in acc.values()):
            raise NotAntiAutomorphism(
                "a defining relation does not map into the ideal")
    # bijectivity of the induced map on the basis
    cols = []
    for p in a.basis:
        vec = [F.zero] * a.dim
        for q, c in _sigma_path_image(a, sigma_idx, p).items():
            vec[a.basis_index[q]] = c
        cols.append(vec)
    mat = Matrix.from_columns(F, cols, rows=a.dim)
    if not linalg.is_invertible(mat):
        raise NotAntiAutomorphism("induced linear map is not bijective")
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


def find_duality(a):
    """Exhaustive search for an arrow involution extending to a duality.

    Returns (sigma dict, clauses) or None.  Only for small quivers.
    """
    narr = len(a.arrows)
    if narr > 6:
        raise StratakitError("duality search limited to quivers with <= 6 "
                             "arrows")
    names = a.arrow_names
    for perm in permutations(range(narr)):
        ok = True
        for i in range(narr):
            j = perm[i]
            if perm[j] != i:
                ok = False
                break
            _, s, t = a.arrows[i]
            _, s2, t2 = a.arrows[j]
            if (s2, t2) != (t, s):
                ok = False
                break
        if not ok:
            continue
        sigma = {names[i]: names[perm[i]] for i in range(narr)}
        try:
            sigma_idx, clauses = duality_check(a, sigma)
        except NotAntiAutomorphism:
            continue
        if all(flag for _, flag in clauses):
            return sigma, clauses
    return None
