"""Standard, proper standard and costandard modules; filtration certificates.

The stratifying order is the position of a vertex in the declared vertex list
(later = larger).  Filtration membership is decided two independent ways: an
explicit filtration certificate, constructed from the trace filtration, and
(when the algebra is stratified) the Ext-vanishing criterion; the two are
cross-checked in tests.  Certificates against Nabla and NablaBar are built
over the opposite algebra only (filtration_certificate).  Wherever
dim e_i·Delta(i) = 1, DeltaBar(i) is Delta(i) relabelled and NablaBar(i)
has the structure of Nabla(i), with no quotient taken, and classify reads
Delta = DeltaBar off that dimension (proper_standard, proper_costandard).
"""

from . import homology, linalg, reps
from .errors import NotStratified, StratakitError
from .linalg import Matrix
from .reps import (Rep, Submodule, generated_submodule, projective, quotient,
                   radical_submodule)
from .reps import hom_basis  # noqa: F401  (bench/selftest.py traces it here)


def _unit_gens(m, vertices):
    """The standard basis vectors of m at the given vertices, as generators."""
    F = m.algebra.field
    return [(v, x) for v in vertices
            for x in Matrix.identity(F, m.dims[v]).columns()]


@reps.built_once
def standard(a, i):
    """Delta(i): P(i) modulo the submodule generated by its vectors at larger
    vertices, which is the trace of the projectives P(j), j > i."""
    p = projective(a, i)
    q, _ = quotient(p, generated_submodule(p, _unit_gens(p, range(i + 1, a.n))))
    q.label = f"Delta({a.vertices[i]})"
    return q


@reps.built_once
def proper_standard(a, i):
    """Delta-bar(i): Delta(i) modulo the submodule generated by e_i·rad
    Delta(i), which is the trace of P(i) in its radical.

    Delta(i) is generated by the image of e_i, which spans its top, so
    e_i·Delta(i) = k·e_i ⊕ e_i·rad Delta(i).  When dim e_i·Delta(i) = 1,
    e_i·rad Delta(i) = 0, nothing is factored out and Delta-bar(i) is
    Delta(i): it is returned relabelled, with Delta(i)'s basis and action,
    which the quotient by zero keeps too.  Otherwise the quotient is taken.
    """
    d = standard(a, i)
    if d.dims[i] == 1:
        return Rep(a, d.dims, d.action, label=f"DeltaBar({a.vertices[i]})")
    rad = radical_submodule(d).bases[i].columns()
    q, _ = quotient(d, generated_submodule(d, [(i, x) for x in rad]))
    q.label = f"DeltaBar({a.vertices[i]})"
    return q


@reps.built_once
def costandard(a, i):
    """Nabla(i): dual of the standard module over the opposite algebra."""
    q = reps.dual_to_opposite(standard(a.opposite(), i))
    q.label = f"Nabla({a.vertices[i]})"
    return q


@reps.built_once
def proper_costandard(a, i):
    """Nabla-bar(i): dual of the proper standard module over the opposite
    algebra.

    e_i·Delta^op(i) and e_i·Delta(i) are both e_i·(A/A·e_{>i}·A)·e_i, so
    they have one dimension.  When it is 1, proper_standard returns
    Delta^op(i) relabelled, and Nabla-bar(i), the dual of the same basis
    and action, is Nabla(i) by structure: no quotient is taken."""
    q = reps.dual_to_opposite(proper_standard(a.opposite(), i))
    q.label = f"NablaBar({a.vertices[i]})"
    return q


@reps.built_once
def standard_family(a):
    return tuple(standard(a, i) for i in range(a.n))


@reps.built_once
def proper_standard_family(a):
    return tuple(proper_standard(a, i) for i in range(a.n))


@reps.built_once
def costandard_family(a):
    return tuple(costandard(a, i) for i in range(a.n))


@reps.built_once
def proper_costandard_family(a):
    return tuple(proper_costandard(a, i) for i in range(a.n))


# -- filtration certificates -------------------------------------------------

class FiltrationCertificate:
    """An explicit chain 0 = M_0 < M_1 < ... < M_r = M with labelled factors.

    layers[s] is the per-vertex basis matrix of M_s in the coordinates of M;
    factor_indices[s] is the index in the reference family of the factor
    M_{s+1}/M_s.
    """

    def __init__(self, module, layers, factor_indices):
        self.module = module
        self.layers = layers
        self.factor_indices = factor_indices    # bottom-up

    def __len__(self):
        return len(self.factor_indices)

    def verify(self, family):
        """Recheck the certificate from scratch against the factor family."""
        m = self.module
        if len(self.layers) != len(self.factor_indices) + 1:
            return False
        if any(b.cols != 0 for b in self.layers[0]):
            return False
        if any(b.cols != m.dims[v] for v, b in enumerate(self.layers[-1])):
            return False
        subs = []
        for bases in self.layers:
            try:
                subs.append(Submodule(m, list(bases)))
            except StratakitError:
                return False
        for lo, hi in zip(subs, subs[1:]):
            if not hi.contains(lo):
                return False
        for s, fi in enumerate(self.factor_indices):
            # M_{s+1}/M_s is the image of M_{s+1} in M/M_s
            _, pi = quotient(m, subs[s])
            _, hi_incl = subs[s + 1].as_rep()
            factor, _ = reps.image(reps.compose(pi, hi_incl)).as_rep()
            if not reps.is_isomorphic(factor, family[fi]):
                return False
        return True


def _top_lifts(m, vecs, w, rows=()):
    """The vectors of vecs[w] that lift a basis of the top at w of the
    submodule spanned by vecs (per vertex), modulo the span of the echelon
    rows at w: those that the rows, extended by the arrow images of vecs
    into w and the vectors before them, do not span."""
    a = m.algebra
    rows = list(rows)
    for ai, (_, s, t) in enumerate(a.arrows):
        if t == w:
            for x in vecs[s]:
                linalg._extend_rows(a.field.p, rows, m.action[ai].apply(x))
    return [x for x in vecs[w]
            if linalg._extend_rows(a.field.p, rows, x) is not None]


@reps.by_structure
def _top_kernel(f, mu):
    """Lifts (w, vector), w <= μ, of the top of K(μ) = ker(P(μ) -> f) for a
    projective cover, in the coordinates of projective_layout(μ); with the
    vectors of K(μ) above μ they generate K(μ).  None unless the top of f is
    the simple module at μ.  Read from f's syzygy step.  The trace
    filtration needs no lift above μ: it would act inside U_{μ+1}."""
    cover, _, incl = homology.syzygy_step(f)
    if cover.tops != [mu]:
        return None
    vecs = [b.columns() for b in incl.blocks]
    return [(w, g) for w in range(mu + 1)
            for g in _top_lifts(cover.source, vecs, w)]


@reps.by_structure
def _trace_certificate(m, family):
    """The certificate of the trace filtration of m whose factor family[μ]
    is P(μ)/K(μ); None if some member has no simple top, or the chain does
    not close.

    U_n ⊂ ... ⊂ U_0 are prefixes of one Span, grown by closing it on the
    vectors of m at μ, μ descending, and kept as lengths per vertex: U_{μ+1}
    is all of m above μ, so the closure applies no arrow into a vertex
    above μ.  Each layer is peeled on a copy of U_{μ+1}, extended first by
    K(μ)·e_μ(cur) and then by each lift of the top at μ; every step of the
    chain is a prefix of that copy.  Only the vertices where m is nonzero
    are walked: at any other μ, U_μ = U_{μ+1} and there is nothing to
    peel."""
    kernels = [_top_kernel(f, mu) for mu, f in enumerate(family)]
    if None in kernels:
        return None
    a = m.algebra
    support = [mu for mu, d in enumerate(m.dims) if d]
    span = reps.Span(m)
    # once reversed, U[k] is the lengths of U_μ, μ = support[k], and U[k + 1]
    # those of U_{μ+1}, all of m above μ
    U = [span.lengths()]
    for mu in reversed(support):
        span.close(_unit_gens(m, [mu]))
        U.append(span.lengths())
    U.reverse()
    chain, indices = [span.bases()], []         # top-down
    for mu, here, above in zip(support, U, U[1:]):
        cur = [v[:k] for v, k in zip(span.vecs, here)]
        while sum(map(len, cur)) > sum(above):
            if mu >= len(family):
                return None
            # peel: W = U_{μ+1} + K(μ)·e_μ(cur) is generated by g·x over the
            # generators g of K(μ) and x in e_μ(cur); g·x lies in U_{μ+1}
            # when g sits at a vertex above μ, so _top_kernel lifts none there
            gens = []
            for x in cur[mu] if kernels[mu] else []:
                images = reps.path_images(m, mu, x)
                gens += [(w, Matrix.from_columns(
                    a.field, images[w], rows=m.dims[w]).apply(g))
                    for w, g in kernels[mu]]
            peel = span.prefix(above)
            peel.close(gens)
            steps = [peel.lengths()]
            # cur/W is generated at μ: each lift of its top adds one factor.
            # cur is all of m above μ, so its arrow images from there lie in
            # U_{μ+1}, inside W
            lifts = _top_lifts(m, [v if s <= mu else [] for s, v in
                                   enumerate(cur)], mu, peel.rows[mu])
            for x in lifts:
                peel.close([(mu, x)])
                steps.append(peel.lengths())
                if sum(steps[-1]) - sum(steps[-2]) != family[mu].total_dim:
                    return None
            if steps[-1] != [len(v) for v in cur]:
                return None
            chain += [peel.bases(k) for k in reversed(steps[:-1])]
            indices += [mu] * (len(steps) - 1)
            cur = [v[:k] for v, k in zip(peel.vecs, steps[0])]
    return FiltrationCertificate(m, chain[::-1], indices[::-1])


def dual_certificate(m, cert):
    """A certificate of m from one of its dual D(m) over the opposite
    algebra: the annihilators in m of the layers of D(m), in reverse order.
    A factor of the dual chain is D of a factor of the new one, so the
    indices are reversed alongside.  At a vertex where m is 0 the
    annihilator is the shared 0x0 block."""
    F = m.algebra.field
    layers = [[Matrix.from_columns(F, linalg.kernel_basis(b.transpose()),
                                   rows=d) if d else Matrix.zero(F, 0, 0)
               for b, d in zip(bases, m.dims)]
              for bases in reversed(cert.layers)]
    return FiltrationCertificate(m, layers, cert.factor_indices[::-1])


def filtration_certificate(m, family):
    """A filtration of m with factors from the family, or None.

    Constructed from the trace filtration, not searched for.  Member μ is
    P(μ)/K(μ) (Delta, DeltaBar).  The layers U_μ/U_{μ+1}, U_μ generated by
    e_{>=μ}·m, have no composition factor above μ; the U_μ are prefixes of
    one reps.Span and each layer is peeled on a copy of U_{μ+1}
    (_trace_certificate).  Only the vertices where m is nonzero are walked,
    as U_μ = U_{μ+1} at every other μ.  A layer is peeled from the top:
    C/W with W = U_{μ+1} + K(μ)·e_μC is a quotient of family[μ]^t, t the
    multiplicity of the simple at μ in its top, and equals it when each
    lift of that top adds dim family[μ].  For Delta, W = U_{μ+1}; for
    DeltaBar, W = U_{μ+1} + ⟨e_μ·rad C⟩.  None proves non-membership for
    Delta, DeltaBar and their prefixes: a filtered module has a filtration
    with larger vertices lower, whose parts are the U_μ (Dlab–Ringel;
    Ágoston–Happel–Lukács–Unger 2000), and Delta(μ) ∈ F(DeltaBar(μ)) forces
    Delta(μ) to be free over End(Delta(μ)), so peeling loses nothing.
    Nabla and NablaBar, recognised by the structural keys of their members
    after Delta and DeltaBar, go straight to the opposite algebra: the trace
    filtration of D(m) against Delta^op or DeltaBar^op, mapped back by
    dual_certificate, so a None there proves non-membership too.

    A direct sum, such as A or T, gets no route of its own: its trace
    filtration is the sum of its summands' trace filtrations, so its
    certificate, too, has larger vertices lower.  Trace certificates, and
    the duals of m and of the family's members, are memoised per algebra by
    structural keys (reps.by_structure), so equal modules built apart share
    one construction; the certificate returned always names m itself.
    """
    if _costandard_like(m.algebra, family):
        cert = _trace_certificate(reps.dual(m), [reps.dual(f) for f in family])
        return None if cert is None else dual_certificate(m, cert)
    cert = _trace_certificate(m, family)
    # the memoised certificate may name an equal module built apart
    return (cert if cert is None or cert.module is m
            else FiltrationCertificate(m, cert.layers, cert.factor_indices))


def _costandard_like(a, family):
    """Is the family, by the structural keys of its members, Nabla or
    NablaBar of a?  Delta and DeltaBar are matched first, so that their
    certificates build nothing over the opposite algebra."""
    keys = [f.key() for f in family]

    def same(builder):
        return keys == [f.key() for f in builder(a)]

    return not (same(standard_family) or same(proper_standard_family)) and (
        same(costandard_family) or same(proper_costandard_family))


# -- stratification of the algebra itself ------------------------------------

class StratClass:
    """What kind of stratified algebra this is, with the witnessing certificates."""

    def __init__(self, algebra, delta_cert, proper_delta_cert, delta_equals_proper):
        self.algebra = algebra
        self.delta_cert = delta_cert
        self.proper_delta_cert = proper_delta_cert
        self.delta_equals_proper = delta_equals_proper

    @property
    def standardly_stratified(self):
        return self.delta_cert is not None

    @property
    def properly_stratified(self):
        return self.delta_cert is not None and self.proper_delta_cert is not None

    @property
    def quasi_hereditary(self):
        return self.standardly_stratified and all(self.delta_equals_proper)

    def kind(self):
        if self.quasi_hereditary:
            return "quasi-hereditary"
        if self.properly_stratified:
            return "properly stratified"
        if self.standardly_stratified:
            return "standardly stratified"
        return "not stratified"


@reps.built_once
def classify(a):
    """Classify the algebra with respect to its declared vertex order.

    Delta-bar(i) = Delta(i) exactly when dim e_i·Delta(i) = 1 (see
    proper_standard), which is also dim End(Delta(i)) = 1, as every map
    P(i) -> Delta(i) kills the trace of the larger projectives.  So eq is
    read off the dimension vectors of the standard modules.  When it holds
    for every i, the Delta certificate is a Delta-bar certificate and the
    proper standard modules are not needed here."""
    reg = reps.regular_module(a)
    deltas = standard_family(a)
    delta_cert = filtration_certificate(reg, deltas)
    eq = [d.dims[i] == 1 for i, d in enumerate(deltas)]
    proper_cert = (None if delta_cert is None else delta_cert if all(eq)
                   else filtration_certificate(reg, proper_standard_family(a)))
    return StratClass(a, delta_cert, proper_cert, eq)


# -- Ext-vanishing membership criteria ----------------------------------------

def in_F_delta_by_ext(m):
    """Ext^1-vanishing test for membership in F(Delta).

    Valid criterion only over a standardly stratified algebra; gated on that.
    """
    a = m.algebra
    if not classify(a).standardly_stratified:
        raise NotStratified("Ext criterion for F(Delta) needs a standardly "
                            "stratified algebra")
    return all(homology.ext_dim(1, m, nb) == 0
               for nb in proper_costandard_family(a))


def in_F_nabla_bar_by_ext(m):
    """Ext^1-vanishing test for membership in F(NablaBar)."""
    a = m.algebra
    if not classify(a).standardly_stratified:
        raise NotStratified("Ext criterion for F(NablaBar) needs a standardly "
                            "stratified algebra")
    return all(homology.ext_dim(1, d, m) == 0 for d in standard_family(a))
