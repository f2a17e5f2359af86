"""Bound quiver algebras A = kQ/I with an ordered vertex set.

The vertex order of the input IS the stratifying order (position in the list,
later = larger).  Paths are stored in traversal order: the tuple (a, b, c)
means "a first, then b, then c", which as a product is written c.b.a
("later.earlier").  The ideal is reduced degree by degree with plain linear
algebra over the base field; no noncommutative Groebner machinery.
"""

from collections import namedtuple

from .errors import MalformedRelation, NotAdmissible, StratakitError, UnknownVertex
from .fields import FieldSpec

# src: source vertex index; arrs: tuple of arrow indices in traversal order.
Path = namedtuple("Path", ["src", "arrs"])


class QuiverSpec:
    """Quiver + relations + field; the raw description of an algebra.

    relations: list of relations; each relation is a list of
    (coefficient, tuple of arrow names in traversal order) terms.
    """

    def __init__(self, vertices, arrows, relations, field, name=""):
        self.vertices = list(vertices)
        self.arrows = [tuple(a) for a in arrows]
        self.relations = [[(c, tuple(t)) for (c, t) in rel] for rel in relations]
        self.field = field
        self.name = name
        if len(set(self.vertices)) != len(self.vertices):
            raise StratakitError("duplicate vertex labels")
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise StratakitError("duplicate arrow names")
        vset = set(self.vertices)
        for aname, s, t in self.arrows:
            if s not in vset or t not in vset:
                raise UnknownVertex(f"arrow {aname}: endpoint not a declared vertex")

    def opposite(self):
        arrows = [(a, t, s) for (a, s, t) in self.arrows]
        relations = [[(c, tuple(reversed(t))) for (c, t) in rel] for rel in self.relations]
        return QuiverSpec(self.vertices, arrows, relations, self.field,
                          name=self.name + "_op" if self.name else "")


class PathAlgebra:
    """Finite-dimensional basic algebra kQ/I with its reduced-path basis."""

    def __init__(self, spec, basis, red, max_len):
        self.spec = spec
        self.field = spec.field
        self.vertices = spec.vertices
        self.n = len(spec.vertices)
        self._vindex = {v: i for i, v in enumerate(spec.vertices)}
        self.arrow_names = [a[0] for a in spec.arrows]
        self.arrows = [(a[0], self._vindex[a[1]], self._vindex[a[2]]) for a in spec.arrows]
        self._aindex = {a[0]: i for i, a in enumerate(spec.arrows)}
        self.basis = basis                      # list of Path, sorted by (len, arrs)
        self.basis_index = {p: i for i, p in enumerate(basis)}
        self._red = red                         # pivot Path -> {basis Path: coeff}
        self.max_len = max_len                  # every longer path reduces to shorter ones
        self.idempotent_index = [self.basis_index[Path(v, ())] for v in range(self.n)]
        self.nilpotency = max((len(p.arrs) for p in basis), default=0) + 1
        self._mult = {}
        self._layouts = {}
        self._opposite = None
        # assorted caches used by higher layers, keyed per algebra
        self.cache = {}

    # -- structure -----------------------------------------------------------

    @property
    def dim(self):
        return len(self.basis)

    def vertex_index(self, label):
        try:
            return self._vindex[label]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {label!r}") from None

    def arrow_index(self, name):
        try:
            return self._aindex[name]
        except KeyError:
            raise StratakitError(f"unknown arrow {name!r}") from None

    def path_target(self, p):
        return self.arrows[p.arrs[-1]][2] if p.arrs else p.src

    def basis_with_source(self, v):
        return [i for i, p in enumerate(self.basis) if p.src == v]

    def basis_with_target(self, v):
        return [i for i, p in enumerate(self.basis) if self.path_target(p) == v]

    def projective_layout(self, v):
        """Coordinates of P(v) = A.e_v: per target vertex w, the indices of
        the basis paths from v to w, in basis order (cached).

        The vertex-w block of P(v) has one coordinate per entry of layout[w],
        so dims[w] = len(layout[w]), and the trivial path e_v is layout[v][0].
        """
        hit = self._layouts.get(v)
        if hit is None:
            by_target = [[] for _ in range(self.n)]
            for i in self.basis_with_source(v):
                by_target[self.path_target(self.basis[i])].append(i)
            hit = self._layouts[v] = tuple(tuple(t) for t in by_target)
        return hit

    # -- normal forms --------------------------------------------------------

    def nf_path(self, src, arrs):
        """Normal form of the path (src, arrs) as {basis Path: coeff}."""
        F = self.field
        if len(arrs) <= self.max_len + 1:
            p = Path(src, tuple(arrs))
            if p in self._red:
                return dict(self._red[p])
            if p in self.basis_index:
                return {p: F.one}
            # length max_len + 1 and not a pivot: the path is dead
            return {}
        head = self.nf_path(src, arrs[:-1])
        last = arrs[-1]
        out = {}
        for q, c in head.items():
            if self.path_target(q) != self.arrows[last][1]:
                continue  # cannot happen: normal forms preserve endpoints
            for r, c2 in self.nf_path(q.src, q.arrs + (last,)).items():
                acc = F.add(out.get(r, F.zero), F.mul(c, c2))
                if F.is_zero(acc):
                    out.pop(r, None)
                else:
                    out[r] = acc
        return out

    def mult_basis(self, i, j):
        """Product basis[i] . basis[j] (j acts first) as {basis index: coeff}."""
        key = (i, j)
        hit = self._mult.get(key)
        if hit is not None:
            return hit
        p, q = self.basis[i], self.basis[j]
        if self.path_target(q) != p.src:
            result = {}
        else:
            nf = self.nf_path(q.src, q.arrs + p.arrs)
            result = {self.basis_index[r]: c for r, c in nf.items()}
        self._mult[key] = result
        return result

    def multiply(self, x, y):
        """Bilinear product of coefficient vectors over the basis (y acts first)."""
        F = self.field
        out = [F.zero] * self.dim
        for i, ci in enumerate(x):
            if F.is_zero(ci):
                continue
            for j, cj in enumerate(y):
                if F.is_zero(cj):
                    continue
                for k, c in self.mult_basis(i, j).items():
                    out[k] = F.add(out[k], F.mul(F.mul(ci, cj), c))
        return out

    def unit(self):
        F = self.field
        e = [F.zero] * self.dim
        for i in self.idempotent_index:
            e[i] = F.one
        return e

    def idempotent(self, v):
        F = self.field
        e = [F.zero] * self.dim
        e[self.idempotent_index[v]] = F.one
        return e

    def opposite(self):
        if self._opposite is None:
            op = build_algebra(self.spec.opposite())
            op._opposite = self
            self._opposite = op
        return self._opposite

    def structurally_equal(self, other):
        return (self.vertices == other.vertices and self.arrows == other.arrows
                and self.basis == other.basis and self.field == other.field)

    def __repr__(self):
        name = self.spec.name or "algebra"
        return f"PathAlgebra({name}, dim={self.dim})"


def _path_key(p):
    return (len(p.arrs), p.arrs)


def _insert_row(field, echelon, row):
    """Insert an ideal element (dict Path->coeff) into the triangular echelon."""
    F = field
    row = {p: c for p, c in row.items() if not F.is_zero(c)}
    while row:
        lead = max(row, key=_path_key)
        if lead in echelon:
            c = row[lead]
            for p, c2 in echelon[lead].items():
                acc = F.sub(row.get(p, F.zero), F.mul(c, c2))
                if F.is_zero(acc):
                    row.pop(p, None)
                else:
                    row[p] = acc
        else:
            inv = F.inv(row[lead])
            echelon[lead] = {p: F.mul(inv, c) for p, c in row.items()}
            return lead
    return None


def _reduce_vec(field, echelon, row):
    """Fully reduce a vector by the echelon (echelon need not be back-substituted)."""
    F = field
    row = {p: c for p, c in row.items() if not F.is_zero(c)}
    done = {}
    while row:
        lead = max(row, key=_path_key)
        c = row.pop(lead)
        if lead in echelon:
            for p, c2 in echelon[lead].items():
                if p == lead:
                    continue
                acc = F.sub(row.get(p, F.zero), F.mul(c, c2))
                if F.is_zero(acc):
                    row.pop(p, None)
                else:
                    row[p] = acc
        else:
            done[lead] = c
    return done


def build_algebra(spec, degree_cap=64):
    """Build kQ/I, reducing the span of paths degree by degree.

    Raises NotAdmissible when some cycle survives past the degree cap and
    MalformedRelation for non-parallel or too-short relation terms.
    """
    F = spec.field
    if not isinstance(F, FieldSpec):
        raise StratakitError("spec.field must be a FieldSpec")
    nverts = len(spec.vertices)
    vindex = {v: i for i, v in enumerate(spec.vertices)}
    arrows = [(a, vindex[s], vindex[t]) for (a, s, t) in spec.arrows]
    aindex = {a[0]: i for i, a in enumerate(spec.arrows)}

    def arr_src(i):
        return arrows[i][1]

    def arr_tgt(i):
        return arrows[i][2]

    def seq_endpoints(idxseq):
        src = arr_src(idxseq[0])
        cur = src
        for i in idxseq:
            if arr_src(i) != cur:
                raise MalformedRelation("non-composable path in relation")
            cur = arr_tgt(i)
        return src, cur

    # resolve + validate relations
    relations = []
    for rel in spec.relations:
        terms = []
        endpoints = None
        for coeff, namesseq in rel:
            if len(namesseq) < 2:
                raise MalformedRelation("relation term shorter than 2 arrows")
            try:
                idxseq = tuple(aindex[nm] for nm in namesseq)
            except KeyError as e:
                raise MalformedRelation(f"unknown arrow in relation: {e}") from None
            ep = seq_endpoints(idxseq)
            if endpoints is None:
                endpoints = ep
            elif ep != endpoints:
                raise MalformedRelation("relation mixes non-parallel paths")
            c = F.of(coeff) if isinstance(coeff, int) else coeff
            terms.append((c, idxseq))
        if terms:
            relations.append((endpoints, terms))

    # free paths by length
    free = {0: [Path(v, ()) for v in range(nverts)],
            1: [Path(arr_src(i), (i,)) for i in range(len(arrows))]}

    def target_of(p):
        return arr_tgt(p.arrs[-1]) if p.arrs else p.src

    echelon = {}
    max_len = 1
    d = 2
    while True:
        prev = free[d - 1]
        free[d] = [Path(p.src, p.arrs + (i,))
                   for p in prev for i in range(len(arrows))
                   if arr_src(i) == target_of(p)]
        if not free[d]:
            max_len = d - 1
            break
        # all ideal elements u.r.v of top degree exactly d
        for (rs, rt), terms in relations:
            L = max(len(t[1]) for t in terms)
            for lv in range(0, d - L + 1):
                lu = d - L - lv
                for v in free[lv]:
                    if target_of(v) != rs:
                        continue
                    for u in free[lu]:
                        if u.src != rt:
                            continue
                        row = {}
                        for c, arrs in terms:
                            p = Path(v.src, v.arrs + arrs + u.arrs)
                            row[p] = F.add(row.get(p, F.zero), c)
                        _insert_row(F, echelon, row)
        # does anything of length d survive?
        alive = False
        for p in free[d]:
            nf = _reduce_vec(F, echelon, {p: F.one})
            if any(len(q.arrs) >= d for q in nf):
                alive = True
                break
        if not alive:
            max_len = d - 1
            break
        d += 1
        if d > degree_cap:
            raise NotAdmissible(
                f"paths of length {degree_cap} still alive; ideal not admissible "
                "(or raise the degree cap)")

    # sanity: no pivot of length < 2 (the ideal must sit inside the arrow radical squared)
    for lead in echelon:
        if len(lead.arrs) < 2:
            raise NotAdmissible("ideal reduction produced an element of degree < 2")

    # fully reduced rewrite table: pivot -> combination of non-pivot paths
    red = {}
    for lead in sorted(echelon, key=_path_key):
        expansion = {}
        for p, c in echelon[lead].items():
            if p == lead:
                continue
            if p in red:
                for q, c2 in red[p].items():
                    acc = F.add(expansion.get(q, F.zero), F.neg(F.mul(c, c2)))
                    expansion[q] = acc
            else:
                expansion[p] = F.add(expansion.get(p, F.zero), F.neg(c))
        red[lead] = {q: c for q, c in expansion.items() if not F.is_zero(c)}

    basis = sorted(
        (p for ln in range(0, max_len + 1) for p in free.get(ln, []) if p not in red),
        key=_path_key)
    return PathAlgebra(spec, basis, red, max_len)
