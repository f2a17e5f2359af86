"""Characteristic tilting module, good filtration dimensions, Ringel duals.

Everything here assumes the algebra is standardly stratified with respect to
its declared vertex order; callers are gated through strat.classify.  T(λ)
is Delta(λ) extended by Delta(μ), μ < λ descending, along minimal
generators of Ext^1 over End(Delta(μ)) (homology.universal_extension).  The
good filtration dimension is the top degree of a nonzero Ext against the
standard modules, at most proj_dim(T); homology.ext_top scans each standard
module down from the smaller of pd T and its own pd.  End(T(λ)) is local,
so each endomorphism is c·id plus a nilpotent; c is read off its minimal
polynomial (x - c)^m, and rad End(T(λ)) is spanned by the f - c·id.  The
Ringel dual End(T) is presented by the reduced Groebner basis of its
relations.

The cotilting module S, with add(S) = F(Nabla) ∩ F(DeltaBar), is read off
the theorem on a quasi-hereditary algebra: there DeltaBar = Delta and
NablaBar = Nabla, so add(S) = F(Nabla) ∩ F(Delta) = F(NablaBar) ∩
F(Delta) = add(T), and S(λ) ≅ T(λ), the indecomposable of that class
with λ as its largest composition factor (Ringel, Math. Z. 1991).  S is
then T relabelled and S ≅ T needs no Hom scan.  Only a properly
stratified algebra that is not quasi-hereditary builds S as the dual of
the opposite algebra's characteristic tilting module.
"""

from . import homology, linalg, poly, reps, strat
from .errors import (NonTerminating, NoEmbedding, NotProperlyStratified,
                     NotStratified, PresentationFailed, StratakitError)
from .linalg import Matrix
from .quiver import QuiverSpec, build_algebra
from .reps import (Morphism, Rep, compose, direct_sum, hom_basis,
                   identity_morphism)


class CharTilting:
    """The basic characteristic tilting module T = ⊕ T(λ).

    Carries, per summand: the embedding of Delta(λ), and T(λ)'s own Delta-
    and proper-costandard filtration certificates.
    """

    def __init__(self, algebra, summands, delta_embeddings, delta_certs,
                 nabla_bar_certs):
        self.algebra = algebra
        self.summands = summands                  # T(λ), by vertex index
        self.delta_embeddings = delta_embeddings  # Delta(λ) -> T(λ)
        self.delta_certs = delta_certs            # T(λ) ∈ F(Delta)
        self.nabla_bar_certs = nabla_bar_certs    # T(λ) ∈ F(NablaBar)
        self.total = direct_sum(summands)
        self._radical = {}

    def is_basic(self):
        for i in range(len(self.summands)):
            for j in range(i + 1, len(self.summands)):
                if reps.is_isomorphic(self.summands[i], self.summands[j]):
                    return False
        return True

    def contains(self, m):
        """Is m in add(T)?

        Over a standardly stratified algebra add(T) = F(Delta) ∩ F(NablaBar),
        and both classes are decided by Ext^1-vanishing.  No decomposition
        is needed.
        """
        return strat.in_F_nabla_bar_by_ext(m) and strat.in_F_delta_by_ext(m)

    def radical(self, s, t):
        """Basis of rad(T(s), T(t)), as morphisms; computed once per pair.

        For s != t this is all of Hom(T(s), T(t)).  On the diagonal it is
        spanned by f - c·id over the basis of End(T(s)), where c is the
        scalar with f - c·id nilpotent; raises PresentationFailed when
        End(T(s)) is not split local over the base field.
        """
        hit = self._radical.get((s, t))
        if hit is not None:
            return hit
        homs = hom_basis(self.summands[s], self.summands[t])
        if s != t:
            rad = homs
        else:
            F = self.algebra.field
            ident = identity_morphism(self.summands[s])
            rad = []
            for f in homs:
                c = _local_scalar(F, reps._total_matrix(f))
                if c is None:
                    raise PresentationFailed(
                        "endomorphism ring of a tilting summand is not "
                        "split local over the base field")
                rad.append(f.add(ident.scale(F.neg(c))))
            rad = [rad[k] for k in linalg.pivot_columns(
                F, [g.flat() for g in rad])]
        self._radical[(s, t)] = rad
        return rad

    def verify(self):
        """Re-verify every certificate and the defining sequences: T(λ)'s
        Delta certificate starts at Delta(λ)'s image, so it filters M(λ) too."""
        a = self.algebra
        deltas = strat.standard_family(a)
        nbars = strat.proper_costandard_family(a)
        for lam in range(a.n):
            emb, cert = self.delta_embeddings[lam], self.delta_certs[lam]
            if not (cert.module is emb.target and emb.is_injective()
                    and cert.factor_indices[:1] == [lam]
                    and all(mu < lam for mu in cert.factor_indices[1:])
                    and cert.verify(deltas)):
                return False
            # the bottom factor is Delta(λ), so emb's source is Delta(λ) too
            bottom = reps.Submodule(cert.module, cert.layers[1], check=False)
            image = reps.image(emb)
            if not (bottom.contains(image) and image.contains(bottom)
                    and self.nabla_bar_certs[lam].verify(nbars)):
                return False
        return self.is_basic()


@reps.built_once
def characteristic_tilting(a):
    """Build T(λ) for each λ by universal extensions of Delta(λ), one
    descending sweep over the lower standard modules.  Only Ext^1 is read,
    so no resolution cap is involved."""
    if not strat.classify(a).standardly_stratified:
        raise NotStratified("characteristic tilting needs a standardly "
                            "stratified algebra")
    deltas = strat.standard_family(a)
    nbars = strat.proper_costandard_family(a)
    summands, embeddings, delta_certs, nb_certs = [], [], [], []
    for lam in range(a.n):
        x = deltas[lam]
        emb = identity_morphism(x)
        # one descending sweep.  Ext^1(Delta(mu), Y) = 0 when Y has no
        # composition factor above mu, as for Y = Delta(mu) or Delta(nu),
        # nu < mu.  So one universal extension by Delta(mu) kills
        # Ext^1(Delta(mu), -), and the later ones, by Delta(nu), keep it 0
        for mu in range(lam - 1, -1, -1):
            if homology.ext_dim(1, deltas[mu], x) != 0:
                x, incl, _ = homology.universal_extension(deltas[mu], x)
                emb = compose(incl, emb)
        # extended by generators of Ext^1, x is T(λ): one part certifies it
        if len(reps.decompose_with_inclusions(x)) != 1:
            raise StratakitError(f"T({a.vertices[lam]}) is decomposable")
        # a Rep of its own: x may be the shared Delta(λ) itself
        t_lam = Rep(a, x.dims, x.action, label=f"T({a.vertices[lam]})")
        # the NablaBar certificate shows Ext^1(Delta, T(λ)) = 0
        dcert = strat.filtration_certificate(t_lam, deltas)
        ncert = strat.filtration_certificate(t_lam, nbars)
        if dcert is None or ncert is None:
            raise StratakitError("tilting summand has no filtration "
                                 "certificate")
        summands.append(t_lam)
        embeddings.append(Morphism(emb.source, t_lam, emb.blocks))
        delta_certs.append(dcert)
        nb_certs.append(ncert)
    # basic: T(λ) has λ as its largest composition factor
    return CharTilting(a, summands, embeddings, delta_certs, nb_certs)


@reps.built_once
def characteristic_cotilting(a):
    """The cotilting module S with add(S) = F(Nabla) ∩ F(DeltaBar).

    On a quasi-hereditary algebra DeltaBar = Delta and NablaBar = Nabla
    (strat.proper_standard, strat.proper_costandard), so
    add(S) = F(Nabla) ∩ F(Delta) = F(NablaBar) ∩ F(Delta) = add(T).  The
    indecomposables of add(T) are the T(μ), and T(μ) has μ as its largest
    composition factor; S(λ) is indecomposable in add(T) with λ as its
    largest composition factor, so S(λ) ≅ T(λ) (Ringel, Math. Z. 1991).
    S(λ) is T(λ) relabelled: T(λ)'s
    NablaBar certificate is its Nabla certificate and its Delta
    certificate its DeltaBar certificate, and nothing is built over the
    opposite algebra.  Any other properly stratified algebra takes the
    dual of the opposite algebra's tilting module
    (_cotilting_from_opposite).
    """
    cls = strat.classify(a)
    if not cls.properly_stratified:
        raise NotProperlyStratified("cotilting needs a properly stratified "
                                    "algebra")
    if not cls.quasi_hereditary:
        return _cotilting_from_opposite(a)
    tilt = characteristic_tilting(a)
    summands = [Rep(a, t.dims, t.action, label=f"S({v})")
                for t, v in zip(tilt.summands, a.vertices)]

    def renamed(certs):
        return [strat.FiltrationCertificate(s, c.layers, c.factor_indices)
                for s, c in zip(summands, certs)]

    return Cotilting(a, summands, renamed(tilt.nabla_bar_certs),
                     renamed(tilt.delta_certs))


def _cotilting_from_opposite(a):
    """S as the dual of the characteristic tilting module of the opposite
    algebra, for a properly stratified algebra a; valid because the opposite
    of a properly stratified algebra is standardly stratified for the same
    order.  S(λ) = D(T^op(λ)), and D carries Delta^op to Nabla: T^op(λ)'s
    Delta^op certificate dualizes to S(λ)'s Nabla certificate.  S(λ)'s
    DeltaBar certificate is the trace filtration that T^op(λ)'s NablaBar^op
    certificate was built from, so it is read from the memo, not dualized
    twice."""
    op_tilt = characteristic_tilting(a.opposite())
    dbars = strat.proper_standard_family(a)
    summands, nabla_certs, dbar_certs = [], [], []
    for lam in range(a.n):
        s = reps.dual_to_opposite(op_tilt.summands[lam])
        s.label = f"S({a.vertices[lam]})"
        dcert = strat.filtration_certificate(s, dbars)
        if dcert is None:
            raise StratakitError("cotilting summand has no filtration "
                                 "certificate")
        summands.append(s)
        nabla_certs.append(strat.dual_certificate(s, op_tilt.delta_certs[lam]))
        dbar_certs.append(dcert)
    return Cotilting(a, summands, nabla_certs, dbar_certs)


@reps.built_once
def s_iso_t(a):
    """Is S ≅ T?  Exactly when S(λ) ≅ T(λ) for every λ, as λ is the largest
    composition factor of both.  On a quasi-hereditary algebra add(S) =
    add(T), so S ≅ T by the theorem (see characteristic_cotilting) and
    nothing is scanned.  Otherwise T(λ) is indecomposable, so a basis scan
    of Hom(S(λ), T(λ)) decides each λ (see reps.find_isomorphism)."""
    if strat.classify(a).quasi_hereditary:
        return True
    pairs = zip(characteristic_cotilting(a).summands,
                characteristic_tilting(a).summands)
    return all(s.dims == t.dims
               and reps._iso_in_basis(hom_basis(s, t)) is not None
               for s, t in pairs)


class Cotilting:
    """The cotilting module S = ⊕ S(λ) with its filtration certificates."""

    def __init__(self, algebra, summands, nabla_certs, dbar_certs):
        self.algebra = algebra
        self.summands = summands
        self.nabla_certs = nabla_certs
        self.dbar_certs = dbar_certs
        self.total = direct_sum(summands)


# -- good filtration dimensions ----------------------------------------------

@reps.built_once
def _tilting_pd(a, cap):
    return homology.finite_dim(
        homology.proj_dim(characteristic_tilting(a).total, cap),
        "projective dimension of T")


def gfd_nabla_bar(x, cap=homology.DEFAULT_CAP):
    """NablaBar-good filtration dimension: the top Ext degree against the
    standard modules, at most proj_dim(T)."""
    a = x.algebra
    if not strat.classify(a).standardly_stratified:
        raise NotStratified("good filtration dimension needs a standardly "
                            "stratified algebra")
    if x.total_dim == 0:
        return 0
    return homology.ext_top(strat.standard_family(a), x, _tilting_pd(a, cap),
                            cap)


def gfd_delta_bar(x, cap=homology.DEFAULT_CAP):
    """DeltaBar-good filtration dimension, via the opposite algebra: the
    NablaBar-good one of D(x), whose Ext scan stops at pd T^op.

    On a quasi-hereditary algebra S ≅ T (characteristic_cotilting), and S
    is D(T^op) on any properly stratified algebra, so T^op ≅ D(T) and
    pd T^op = pd D(T) = inj T.  That bound is read off the algebra's own T,
    and no tilting module of the opposite algebra is built."""
    a = x.algebra
    if x.total_dim == 0 or not strat.classify(a).quasi_hereditary:
        return gfd_nabla_bar(reps.dual(x), cap)
    inj_t = homology.finite_dim(homology.inj_dim(
        characteristic_tilting(a).total, cap), "injective dimension of T")
    return homology.ext_top(strat.standard_family(a.opposite()), reps.dual(x),
                            inj_t, cap)


# -- T-(co)dimension ----------------------------------------------------------

def _left_approximation(m, tilt):
    """The minimal left add(T)-approximation of m, or None if Hom(m, T) = 0.

    Hom(m, T) is a module over End(T); the approximation maps m into one
    copy of T(λ) for each map in hom_basis(m, T(λ)) that is independent
    modulo rad(m, T(λ)) = Σ_μ rad(T(μ), T(λ)) ∘ Hom(m, T(μ)).
    """
    a = m.algebra
    homs = [hom_basis(m, t) for t in tilt.summands]
    chosen = []                          # (T(λ), morphism m -> T(λ))
    for lam, t in enumerate(tilt.summands):
        rad = [compose(g, h) for mu in range(a.n)
               for g in tilt.radical(mu, lam) for h in homs[mu]]
        keep = linalg.pivot_columns(
            a.field, [f.flat() for f in rad + homs[lam]])
        chosen += [(t, homs[lam][k - len(rad)]) for k in keep if k >= len(rad)]
    if not chosen:
        return None
    return Morphism(m, direct_sum([t for t, _ in chosen]),
                    [linalg.vstack([f.blocks[v] for _, f in chosen])
                     for v in range(a.n)])


def t_codim(x, cap=homology.DEFAULT_CAP):
    """Minimal length of an exact coresolution of x by add(T) modules.

    Each step maps cur into its minimal left add(T)-approximation.  Every
    injective map from cur into add(T) with a Delta-filtered cokernel
    factors through it, so the approximation is such a map whenever one
    exists; otherwise NoEmbedding is raised.  The recursion on the cokernel
    stops at the first module in add(T).

    Which admissible map is used does not change the count.  For M in
    F(Delta) and 0 -> M -> T_0 -> C -> 0 with T_0 in add(T) and C in
    F(Delta), Ext^i(Delta, C) ≅ Ext^{i+1}(Delta, M) for i >= 1, so every
    step lowers the NablaBar-good filtration dimension by one.  The cap
    bounds the number of steps.

    Minimal approximations and cokernels of a direct sum are the sums of
    those of its summands, so a direct sum takes the largest T-codimension
    of its summands, and NoEmbedding if a summand raises it.
    """
    parts = reps.summands(x)
    if len(parts) > 1:
        return max(t_codim(p, cap) for p in parts)
    tilt = characteristic_tilting(x.algebra)
    steps = 0
    cur = x
    while not tilt.contains(cur):
        if steps > cap:
            raise NonTerminating("add(T)-coresolution did not close")
        f = _left_approximation(cur, tilt)
        coker = (reps.cokernel(f)[0] if f is not None and f.is_injective()
                 else None)
        if coker is None or not strat.in_F_delta_by_ext(coker):
            raise NoEmbedding("module has no injective add(T)-approximation "
                              "with a Delta-filtered cokernel")
        cur = coker
        steps += 1
    return steps


def t_dim(x, cap=homology.DEFAULT_CAP):
    """Minimal length of a resolution of x by the dual tilting-type module,
    computed on the opposite side."""
    if not strat.classify(x.algebra.opposite()).standardly_stratified:
        raise NotStratified("T-dimension needs the opposite algebra to be "
                            "standardly stratified")
    return t_codim(reps.dual(x), cap)


class GfdReport:
    """The four quantities of the good-filtration-dimension theorem."""

    def __init__(self, algebra, pd_t, gfd_regular, tcodim_regular,
                 probe_gfds):
        self.algebra = algebra
        self.pd_t = pd_t
        self.gfd_regular = gfd_regular
        self.tcodim_regular = tcodim_regular
        self.probe_gfds = probe_gfds      # gfd_nabla_bar of each probe module
        self.probe_sup = max(probe_gfds, default=0)

    @property
    def consistent(self):
        return (self.pd_t == self.gfd_regular == self.tcodim_regular
                and self.probe_sup <= self.pd_t)


@reps.built_once
def probe_modules(a):
    """Finite probe corpus: simples, projectives, injectives, standards,
    costandards, and the radicals and tops of all of those, up to iso.  A
    base module equal to an earlier one is skipped before its radical and
    top are taken: all three of its candidates are already seen."""
    deltas, nablas = strat.standard_family(a), strat.costandard_family(a)
    base = []
    for i in range(a.n):
        base += [reps.simple(a, i), reps.projective(a, i), reps.injective(a, i),
                 deltas[i], nablas[i]]
    out = []
    seen, seen_base = set(), set()
    for m in base:
        if m.key() in seen_base:
            continue
        seen_base.add(m.key())
        rad_rep, _ = reps.radical_submodule(m).as_rep()
        for cand in (m, rad_rep, reps.top(m)):
            if cand.total_dim == 0 or cand.key() in seen:
                continue
            seen.add(cand.key())
            if not any(reps.is_isomorphic(cand, other) for other in out):
                out.append(cand)
    return tuple(out)


@reps.built_once
def gfd_algebra(a, cap):
    """Compute the four good-filtration-dimension quantities independently.

    The report is cached per algebra and cap, so repeated calls return the
    same object; a failed computation is not cached.  The cap has no
    default, so that one cap cannot be cached under two keys."""
    pd_t = _tilting_pd(a, cap)
    reg = reps.regular_module(a)
    gfd_reg = gfd_nabla_bar(reg, cap)
    tc = t_codim(reg, cap)
    probes = probe_modules(a)
    return GfdReport(a, pd_t, gfd_reg, tc,
                     tuple(gfd_nabla_bar(m, cap) for m in probes))


# -- Ringel dual --------------------------------------------------------------

def _local_scalar(field, f):
    """For f in a local algebra, the scalar c with f - c*id nilpotent, or
    None when there is none in k: c exists iff the minimal polynomial of f
    is a power of x - c."""
    factors = poly._factor(field, reps.minimal_polynomial(field, f))
    if len(factors) == 1 and len(factors[0][0]) == 2:
        return field.neg(factors[0][0][0])
    return None


def ringel_dual(a):
    """End(T) presented as a bound quiver algebra, opposite vertex order.

    The relations are the reduced Groebner basis of ker(kQ -> End T) in
    build_algebra's path order, read off in one walk over that order that
    extends only normal paths.  Non-tips are closed under subpaths, so a
    candidate whose suffix (minus its first arrow) is not normal is skipped;
    any other is a tip exactly when its value is in the span of the earlier
    normal paths q with its ends, and then path - Σ c·q is recorded."""
    tilt = characteristic_tilting(a)
    F = a.field
    n = a.n
    # order of the dual: reversed
    order = list(range(n - 1, -1, -1))

    def rad_basis(s, t):
        """rad(s, t) between summands numbered in the reversed order."""
        return tilt.radical(order[s], order[t])

    # End(T(s)) is k·id ⊕ rad(T(s), T(s)) for each of the n summands
    end_dim = n + sum(len(rad_basis(s, t)) for s in range(n) for t in range(n))
    # arrows: per pair, lift a basis of rad/rad^2, where rad^2 is spanned by
    # the compositions through every middle summand
    arrows = []            # (name, s, t, morphism)
    for s in range(n):
        for t in range(n):
            rad2 = [compose(g, f) for mid in range(n)
                    for f in rad_basis(s, mid) for g in rad_basis(mid, t)]
            rad = rad_basis(s, t)
            if not rad:
                continue
            keep = linalg.pivot_columns(F, [f.flat() for f in rad2 + rad])
            for k in keep:
                if k >= len(rad2):
                    arrows.append((f"r{len(arrows)}", s, t, rad[k - len(rad2)]))
    vertices = [a.vertices[i] for i in order]
    arrow_decls = [(nm, vertices[s], vertices[t]) for (nm, s, t, _) in arrows]

    # paths are tuples of arrow names; normal path -> value, and
    # (source, target) -> [(normal path, flat value)] in walk order
    ends = {nm: (s, t) for nm, s, t, _ in arrows}
    normal, by_ends, relations = {}, {}, []
    for nm, s, t, f in arrows:
        normal[(nm,)] = f
        by_ends.setdefault((s, t), []).append(((nm,), f.flat()))
    walk = list(normal)    # grows in walk order while it is read
    for arrs in walk:
        for nm, s, t, g in arrows:
            if s != ends[arrs[-1]][1] or arrs[1:] + (nm,) not in normal:
                continue
            path, value = arrs + (nm,), compose(g, normal[arrs])
            group = by_ends.setdefault((ends[arrs[0]][0], t), [])
            v = value.flat()
            x = linalg.solve(
                Matrix.from_columns(F, [q for _, q in group], rows=len(v)),
                Matrix.from_columns(F, [v]))
            if x is None:
                normal[path] = value
                group.append((path, v))
                walk.append(path)
            else:
                relations.append([(F.one, path)] + [
                    (F.neg(c), q) for (q, _), c in zip(group, x.entries)
                    if not F.is_zero(c)])
    spec = QuiverSpec(vertices, arrow_decls, relations, F,
                      name=(a.spec.name + "_ringel") if a.spec.name else "ringel")
    dual = build_algebra(spec)
    if dual.dim != end_dim:
        raise PresentationFailed(
            f"presentation has dimension {dual.dim}, End(T) has {end_dim}")
    return dual


# -- the numbered-results verifier -------------------------------------------

class CheckResult:
    def __init__(self, name, passed, detail):
        self.name = name
        self.passed = passed            # True / False / None (informational)
        self.detail = detail

    def __repr__(self):
        tag = {True: "pass", False: "FAIL", None: "info"}[self.passed]
        return f"[{tag}] {self.name}: {self.detail}"


def verify_section2(a, cap=homology.DEFAULT_CAP):
    """Evaluate every testable numbered claim about tilting and dimensions."""
    out = []
    cls = strat.classify(a)
    if not cls.standardly_stratified:
        out.append(CheckResult("stratified", None,
                               "algebra is not standardly stratified; "
                               "tilting checks skipped"))
        return out
    pd_t = _tilting_pd(a, cap)
    tilt = characteristic_tilting(a)
    probes = probe_modules(a)
    reg = reps.regular_module(a)
    report = gfd_algebra(a, cap)

    # top nonvanishing Ext(T, X) equals the good filtration dimension
    ok = True
    witness = ""
    for m, g in zip(probes, report.probe_gfds):
        top = homology.ext_top([tilt.total], m, pd_t, cap)
        if top != g:
            ok = False
            witness = f"{m.label or m.dims}: ext-top {top} != gfd {g}"
            break
    out.append(CheckResult("ext_top_equals_gfd", ok,
                           witness or f"{len(probes)} probes agree"))

    # Ext^i(T, A) vanishes above pd T and is nonzero at pd T
    vanish = all(homology.ext_dim(i, tilt.total, reg, cap) == 0
                 for i in range(pd_t + 1, pd_t + 3))
    attained = pd_t == 0 or homology.ext_dim(pd_t, tilt.total, reg, cap) != 0
    out.append(CheckResult("ext_T_A_profile", vanish and attained,
                           f"pd T = {pd_t}; vanishing above, attained at top"))

    # pd T equals the T-codimension of the regular module
    tc = report.tcodim_regular
    out.append(CheckResult("pdT_equals_tcodim", pd_t == tc,
                           f"pd T = {pd_t}, T-codim(A) = {tc}"))

    # four-way equality
    out.append(CheckResult(
        "gfd_four_way", report.consistent,
        f"pd T = {report.pd_t}, gfd(A) = {report.gfd_regular}, "
        f"T-codim(A) = {report.tcodim_regular}, probe sup = {report.probe_sup}"))

    # rigidity of T
    rigid = all(homology.ext_dim(i, tilt.total, tilt.total, cap) == 0
                for i in range(1, pd_t + 1))
    out.append(CheckResult("T_rigid", rigid,
                           f"Ext^i(T,T) = 0 for 1 <= i <= {pd_t}"))

    # finitistic dimension bound for properly stratified algebras with S = T
    iso = cls.properly_stratified and s_iso_t(a)
    if iso or cls.quasi_hereditary:
        inj_t = homology.finite_dim(homology.inj_dim(tilt.total, cap),
                                    "injective dimension of T")
    if cls.properly_stratified:
        out.append(CheckResult("S_iso_T", None,
                               "S isomorphic to T" if iso
                               else "S not isomorphic to T"))
        if iso:
            bound = pd_t + inj_t
            ok = True
            witness = ""
            for m in probes:
                pdm = homology.proj_dim(m, cap)
                if isinstance(pdm, homology.LowerBound):
                    continue            # infinite (or capped) pd: not in scope
                if pdm > bound:
                    ok = False
                    witness = f"{m.label or m.dims}: pd {pdm} > {bound}"
                    break
            out.append(CheckResult(
                "findim_bound", ok,
                witness or f"all finite-pd probes within pd T + inj T = {bound}"))

    if cls.quasi_hereditary:
        gl = homology.finite_dim(homology.global_dim(a, cap), "global dimension")
        left = max(pd_t, inj_t) <= gl
        right = gl <= pd_t + inj_t
        out.append(CheckResult(
            "gldim_sandwich", left and right,
            f"max({pd_t},{inj_t}) <= {gl} <= {pd_t}+{inj_t}"))
        out.append(CheckResult(
            "gldim_sum_equality", None,
            "equality" if gl == pd_t + inj_t else "strict"))
        dual = ringel_dual(a)
        gl_dual = homology.finite_dim(homology.global_dim(dual, cap),
                                      "global dimension of End(T)")
        out.append(CheckResult(
            "ringel_gldim_sandwich",
            max(pd_t, inj_t) <= gl_dual <= pd_t + inj_t,
            f"gl.dim(End T) = {gl_dual} within [{max(pd_t, inj_t)}, "
            f"{pd_t + inj_t}]"))
    return out
