"""Standard, proper standard and costandard modules; filtration certificates.

The stratifying order is the position of a vertex in the declared vertex list
(later = larger).  Filtration membership is decided two independent ways: a
direct search for an explicit filtration certificate, and (when the algebra is
stratified) the Ext-vanishing criterion; the two are cross-checked in tests.
"""

from . import homology, linalg, reps
from .errors import NotStratified, SearchBudgetExceeded, StratakitError
from .fields import QQ
from .linalg import Matrix
from .reps import (Submodule, compose, hom_basis, kernel, projective,
                   quotient, radical_submodule, trace)

SEARCH_BUDGET = 100_000


def standard(a, i):
    """Delta(i): P(i) modulo the trace of the projectives at larger vertices."""
    p = projective(a, i)
    higher = [projective(a, j) for j in range(i + 1, a.n)]
    if higher:
        t = trace(reps.direct_sum(higher), p)
    else:
        t = reps.zero_submodule(p)
    q, _ = quotient(p, t)
    q.label = f"Delta({a.vertices[i]})"
    return q


def proper_standard(a, i):
    """Delta-bar(i): Delta(i) modulo the trace of P(i) in its radical."""
    d = standard(a, i)
    rad = radical_submodule(d)
    rad_rep, rad_incl = rad.as_rep()
    # trace of P(i) inside rad Delta(i), pushed into Delta(i)
    t_in_rad = trace(projective(a, i), rad_rep)
    F = a.field
    bases = [rad_incl.blocks[v].mul(t_in_rad.bases[v]) for v in range(a.n)]
    t = Submodule(d, bases, check=False)
    q, _ = quotient(d, t)
    q.label = f"DeltaBar({a.vertices[i]})"
    return q


def costandard(a, i):
    """Nabla(i): dual of the standard module over the opposite algebra."""
    q = reps.dual_to_opposite(standard(a.opposite(), i))
    q.label = f"Nabla({a.vertices[i]})"
    return q


def proper_costandard(a, i):
    """Nabla-bar(i): dual of the proper standard module over the opposite algebra."""
    q = reps.dual_to_opposite(proper_standard(a.opposite(), i))
    q.label = f"NablaBar({a.vertices[i]})"
    return q


def _family(a, build):
    """(build(a, 0), ..., build(a, n-1)), built once per algebra and cached
    on it as a tuple.  Callers share these modules: never relabel them."""
    key = ("family", build.__name__)
    hit = a.cache.get(key)
    if hit is None:
        hit = a.cache[key] = tuple(build(a, i) for i in range(a.n))
    return hit


def standard_family(a):
    return _family(a, standard)


def proper_standard_family(a):
    return _family(a, proper_standard)


def costandard_family(a):
    return _family(a, costandard)


def proper_costandard_family(a):
    return _family(a, proper_costandard)


# -- filtration certificates -------------------------------------------------

class FiltrationCertificate:
    """An explicit chain 0 = M_0 < M_1 < ... < M_r = M with labelled factors.

    layers[s] is the per-vertex basis matrix of M_s in the coordinates of M;
    factor_labels[s] names the isomorphism class of M_{s+1}/M_s, indexing into
    the reference family it was built against.
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
        a = m.algebra
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
            hi_rep, hi_incl = subs[s + 1].as_rep()
            # express the lower layer inside the higher one
            lower = []
            ok = True
            for v in range(a.n):
                cols = [linalg.solve(subs[s + 1].bases[v], subs[s].bases[v].column(j))
                        for j in range(subs[s].bases[v].cols)]
                if any(c is None for c in cols):
                    ok = False
                    break
                lower.append(Matrix.from_columns(a.field, cols, rows=hi_rep.dims[v]))
            if not ok:
                return False
            factor, _ = quotient(hi_rep, Submodule(hi_rep, lower, check=False))
            if not reps.is_isomorphic(factor, family[fi]):
                return False
        return True


def _dim_vector_multiplicities(m, family):
    """Unique rational multiplicity solution for the dim vector, if determined.

    Returns a list of multiplicities, None (infeasible), or "underdetermined".
    """
    F = QQ
    a = m.algebra
    cols = [[F.of(f.dims[v]) for v in range(a.n)] for f in family]
    mat = Matrix.from_columns(F, cols, rows=a.n)
    target = [F.of(d) for d in m.dims]
    x = linalg.solve(mat, target)
    if x is None:
        return None
    if linalg.rank(mat) < len(family):
        return "underdetermined"
    out = []
    for c in x:
        if c.denominator != 1 or c < 0:
            return None
        out.append(int(c))
    return out


def _epi_candidates(m, factor):
    """Morphisms m -> factor that are surjective, singles first then pairs."""
    homs = hom_basis(m, factor)
    if not homs:
        return []

    def is_epi(f):
        return f.is_surjective()

    F = m.algebra.field
    out = [f for f in homs if is_epi(f)]
    for i in range(len(homs)):
        for j in range(i + 1, len(homs)):
            g = homs[i].add(homs[j])
            if is_epi(g):
                out.append(g)
            g = homs[i].add(homs[j].scale(F.neg(F.one)))
            if is_epi(g):
                out.append(g)
    return out


def filtration_certificate(m, family):
    """Search for a filtration of m with factors from the family, or None.

    DFS from the top: pick an epimorphism m -> family[i], recurse into its
    kernel.  Failures are memoized by structural key; a hard node budget
    guards against pathological searches.
    """
    a = m.algebra
    fail_memo = a.cache.setdefault(("filtration_fail", tuple(f.key() for f in family)), set())
    budget = [SEARCH_BUDGET]

    def search(cur):
        """Returns factor indices top-down plus the chain of kernels, or None."""
        if cur.total_dim == 0:
            return []
        if cur.key() in fail_memo:
            return None
        if budget[0] <= 0:
            raise SearchBudgetExceeded("filtration search budget exhausted")
        budget[0] -= 1
        feas = _dim_vector_multiplicities(cur, family)
        if feas is None:
            fail_memo.add(cur.key())
            return None
        for fi in range(len(family) - 1, -1, -1):
            if isinstance(feas, list) and feas[fi] == 0:
                continue
            for epi in _epi_candidates(cur, family[fi]):
                ker_rep, ker_incl = kernel(epi).as_rep()
                rest = search(ker_rep)
                if rest is not None:
                    return rest + [(fi, ker_incl)]
        fail_memo.add(cur.key())
        return None

    found = search(m)
    if found is None:
        return None
    # rebuild ambient-coordinate layers: walking top-down, each kernel is
    # expressed inside the previous one, so compose the inclusions
    F = a.field
    layers = [[Matrix.identity(F, d) for d in m.dims]]
    incl_so_far = None
    factor_indices = []
    for fi, ker_incl in reversed(found):
        factor_indices.append(fi)
        if incl_so_far is None:
            incl_so_far = ker_incl
        else:
            incl_so_far = compose(incl_so_far, ker_incl)
        layers.append([b for b in incl_so_far.blocks])
    layers.reverse()
    factor_indices.reverse()                    # now bottom-up
    return FiltrationCertificate(m, layers, factor_indices)


def in_filtration_class(m, family):
    return filtration_certificate(m, family) is not None


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


def classify(a):
    """Classify the algebra with respect to its declared vertex order."""
    reg = reps.regular_module(a)
    deltas = standard_family(a)
    proper = proper_standard_family(a)
    delta_cert = filtration_certificate(reg, deltas)
    proper_cert = filtration_certificate(reg, proper) if delta_cert is not None else None
    eq = [reps.is_isomorphic(d, p) for d, p in zip(deltas, proper)]
    result = StratClass(a, delta_cert, proper_cert, eq)
    a.cache["strat_class"] = result
    return result


def strat_class(a):
    hit = a.cache.get("strat_class")
    return hit if hit is not None else classify(a)


# -- Ext-vanishing membership criteria ----------------------------------------

def in_F_delta_by_ext(m, cap=homology.DEFAULT_CAP):
    """Ext^1-vanishing test for membership in F(Delta).

    Valid criterion only over a standardly stratified algebra; gated on that.
    """
    a = m.algebra
    cls = strat_class(a)
    if not cls.standardly_stratified:
        raise NotStratified("Ext criterion for F(Delta) needs a standardly "
                            "stratified algebra")
    nabla_bars = proper_costandard_family(a)
    return all(homology.ext_dim(1, m, nb, cap) == 0 for nb in nabla_bars)


def in_F_nabla_bar_by_ext(m, cap=homology.DEFAULT_CAP):
    """Ext^1-vanishing test for membership in F(NablaBar)."""
    a = m.algebra
    cls = strat_class(a)
    if not cls.standardly_stratified:
        raise NotStratified("Ext criterion for F(NablaBar) needs a standardly "
                            "stratified algebra")
    deltas = standard_family(a)
    return all(homology.ext_dim(1, d, m, cap) == 0 for d in deltas)
