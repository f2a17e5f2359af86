"""Bound quiver algebras A = kQ/I with an ordered vertex set.

The vertex order of the input IS the stratifying order (position in the list,
later = larger).  Paths are stored in traversal order: the tuple (a, b, c)
means "a first, then b, then c", which as a product is written c.b.a
("later.earlier").

The ideal is reduced by tip reduction, the degree-by-degree form of
noncommutative Groebner bases for path algebras (E. L. Green, "Noncommutative
Groebner bases, and projective resolutions", 1999).  Paths are ordered by
length, then by arrow tuple; the tip of an ideal element is its largest path.
The basis of kQ/I is the set of paths that contain no tip, and only those
paths are ever listed: the candidates of length d are the basis paths of
length d - 1 extended by one arrow.  When every relation is a single path,
the tips are the candidates that end in a relation word, each equal to 0,
and the automaton of the words tells them apart with no field arithmetic;
otherwise plain linear algebra over the base field splits the candidates
into tips and basis paths.
"""

from collections import namedtuple

from .errors import MalformedRelation, NotAdmissible, StratakitError, UnknownVertex
from .fields import FieldSpec

# src: source vertex index; arrs: tuple of arrow indices in traversal order.
Path = namedtuple("Path", ["src", "arrs"])

_ALIVE = ("paths of length {} still alive; ideal not admissible "
          "(or raise the degree cap)")


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
        self._red = red                         # tip Path -> {basis Path: coeff}
        self.max_len = max_len                  # no basis path is longer
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
        """Normal form of the path (src, arrs) as {basis Path: coeff}.

        A path whose arrows do not compose is 0 in kQ.  A tip in the rewrite
        table and a basis path are looked up; any other path is rewritten
        through its head, the path minus its last arrow.
        """
        cur = src
        for i in arrs:
            _, s, t = self.arrows[i]
            if s != cur:
                return {}
            cur = t
        return _normal_form(self.field, self._red, self.basis_index,
                            Path(src, tuple(arrs)))

    def opposite(self):
        if self._opposite is None:
            op = build_algebra(self.spec.opposite())
            op._opposite = self
            self._opposite = op
        return self._opposite

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


def _accumulate(field, vec, key, c):
    """vec[key] += c in a sparse vector, dropping the entry when it becomes 0."""
    acc = field.add(vec.get(key, field.zero), c)
    if field.is_zero(acc):
        vec.pop(key, None)
    else:
        vec[key] = acc


def _normal_form(field, red, normal, p):
    """The path p as {normal path: coeff}.

    A tip in `red` is replaced by its entry and a path in `normal` is kept.
    Any other path is rewritten through its head (p minus its last arrow):
    the normal form of the head is extended by the last arrow, which gives
    paths that are again in `red` or `normal`.
    """
    hit = red.get(p)
    if hit is not None:
        return dict(hit)
    if p in normal:
        return {p: field.one}
    last = p.arrs[-1]
    head = _normal_form(field, red, normal, Path(p.src, p.arrs[:-1]))
    return _combine(field, red, normal,
                    {Path(q.src, q.arrs + (last,)): c for q, c in head.items()})


def _combine(field, red, normal, element):
    """The normal form of an element {Path: coeff} of kQ."""
    out = {}
    for p, c in element.items():
        for q, c2 in _normal_form(field, red, normal, p).items():
            _accumulate(field, out, q, field.mul(c, c2))
    return out


def _sweep(field, arrows, nverts, relations, degree_cap):
    """Tip reduction degree by degree: (red, normal paths by length, None).

    At degree d the candidates are the normal paths of length d - 1 extended
    by one arrow; no other path of length d can be normal.  The rows are the
    normal forms of n.r (n a normal path of length d - L, r a relation of top
    length L), with the candidates kept as they are; every other u.r.v of
    degree d reduces to 0 modulo these rows and the lower degrees.  The
    pivots of the rows are the new tips, the other candidates the normal
    paths of length d.  A row whose lead is shorter than d is an ideal
    element that the lower degrees missed: the sweep stops and returns
    (None, None, element).  A homogeneous row reduces to paths of its own
    length, so only mixed-length relations can miss.  The sweep ends at the
    first degree d with no normal path; for homogeneous relations A_d' =
    A_(d'-1).A_1 = 0 for all d' >= d, so the arrow ideal is nilpotent.
    """
    F = field
    out_of = [[i for i, (_, s, _) in enumerate(arrows) if s == v]
              for v in range(nverts)]

    def target(p):
        return arrows[p.arrs[-1]][2] if p.arrs else p.src

    by_len = [[Path(v, ()) for v in range(nverts)],
              [Path(s, (i,)) for i, (_, s, _) in enumerate(arrows)]]
    normal = set(by_len[0]) | set(by_len[1])
    red = {}
    d = 2
    while True:
        cands = [Path(n.src, n.arrs + (i,)) for n in by_len[d - 1]
                 for i in out_of[target(n)]]
        normal.update(cands)
        echelon = {}
        for rs, top, terms in relations:
            if top > d:
                continue
            for n in by_len[d - top]:
                if target(n) != rs:
                    continue
                row = _combine(F, red, normal, {Path(n.src, n.arrs + arrs): c
                                                for arrs, c in terms.items()})
                lead = _insert_row(F, echelon, row)
                if lead is not None and len(lead.arrs) < d:
                    return None, None, echelon[lead]
        # fully reduced rewrite table: pivot -> combination of normal paths
        for lead in sorted(echelon, key=_path_key):
            expansion = {}
            for p, c in echelon[lead].items():
                if p == lead:
                    continue
                for q, c2 in red.get(p, {p: F.one}).items():
                    _accumulate(F, expansion, q, F.neg(F.mul(c, c2)))
            red[lead] = expansion
            normal.discard(lead)
        normal_d = [p for p in cands if p not in echelon]
        if not normal_d:
            return red, by_len, None
        by_len.append(normal_d)
        d += 1
        if d > degree_cap:
            raise NotAdmissible(_ALIVE.format(degree_cap))


def _unreduced(a, relations):
    """The first n.r (n a basis path, r a relation) whose normal form is not 0.

    When there is none, the kernel of the normal form map is a two-sided
    ideal that contains every relation, so it is the ideal itself and the
    tables are those of kQ/I.
    """
    for rs, _, terms in relations:
        for n in a.basis:
            if a.path_target(n) != rs:
                continue
            nf = _combine(a.field, a._red, a.basis_index,
                          {Path(n.src, n.arrs + arrs): c for arrs, c in terms.items()})
            if nf:
                return nf
    return None


def _word_automaton(arrows, nverts, words):
    """The Aho-Corasick automaton of the relation words (A. V. Aho and M. J.
    Corasick, "Efficient string matching", 1975), one table per state.

    A state is a node of the trie of the words: a vertex v (the empty
    suffix at v; states 0 .. nverts - 1) or a nonempty prefix of a word.
    The state of a path is its longest suffix that is a node, and the
    failure link of a node its longest proper suffix that is one.  A node
    is dead when it is a word or its link is dead, that is when it ends in
    a word.  step[s] maps each arrow i out of s's vertex, in index order,
    to the state of s.i, or to None when that state is dead.  Only live
    nodes get a table, found breadth first: the link of a live node is live
    and shallower, so its table is there when the node falls back on it.
    There are at most nverts + sum(len(w) - 1) of them.
    """
    out_of = [[i for i, (_, s, _) in enumerate(arrows) if s == v]
              for v in range(nverts)]
    child = [{} for _ in range(nverts)]
    vertex = list(range(nverts))            # where each node's paths end
    is_word = [False] * nverts
    for w in words:
        node = arrows[w[0]][1]
        for i in w:
            if i not in child[node]:
                child[node][i] = len(child)
                child.append({})
                vertex.append(arrows[i][2])
                is_word.append(False)
            node = child[node][i]
        is_word[node] = True
    step = [None] * len(child)
    fail = [None] * len(child)
    queue = list(range(nverts))
    for s in queue:
        step[s] = {}
        for i in out_of[vertex[s]]:
            # the state of the longest proper suffix of s.i
            back = arrows[i][2] if s < nverts else step[fail[s]][i]
            t = child[s].get(i)
            if t is None:
                t = back
            elif is_word[t] or back is None:
                t = None
            else:
                fail[t] = back
                queue.append(t)
            step[s][i] = t
    return step


def _longest_walk(step, nverts):
    """The length of the longest walk through live transitions from a
    vertex state, or None when such walks reach a cycle and so have every
    length (V. Ufnarovski, "A growth criterion for graphs and algebras
    defined by words", 1982).  One depth-first search: a state's height is
    known when it leaves the stack, and an edge back onto the stack is a
    cycle."""
    on_stack = -1
    height = [None] * len(step)
    for root in range(nverts):
        if height[root] is not None:
            continue
        height[root] = on_stack
        stack = [[root, 0, iter(step[root].values())]]
        while stack:
            top = stack[-1]
            for t in top[2]:
                if t is None:
                    continue
                if height[t] is None:
                    height[t] = on_stack
                    stack.append([t, 0, iter(step[t].values())])
                    break
                if height[t] == on_stack:
                    return None
                top[1] = max(top[1], height[t] + 1)
            else:
                stack.pop()
                height[top[0]] = top[1]
                if stack:
                    stack[-1][1] = max(stack[-1][1], top[1] + 1)
    return max(height[:nverts], default=0)


def _monomial(spec, arrows, nverts, words, degree_cap):
    """kQ/I for I spanned by paths that contain a word: the normal paths
    are the paths that contain none, the tips the normal paths extended by
    one arrow that end in a word, and every tip is 0.

    The automaton of the words decides admissibility first: the quotient is
    refused when its normal paths have no longest (a reachable cycle), or
    when the longest has length d >= 2 with d >= degree_cap, the degrees at
    which the sweep refuses.  The basis is then listed level by level, each
    normal path carrying its state, so one table lookup per arrow splits
    the extensions into normal paths and tips.  Each level comes in path
    order, so the basis needs no sort and the table is filled in the
    sweep's order.
    """
    step = _word_automaton(arrows, nverts, words)
    longest = _longest_walk(step, nverts)
    if longest is None or longest >= max(degree_cap, 2):
        raise NotAdmissible(_ALIVE.format(degree_cap))
    basis = [Path(v, ()) for v in range(nverts)]
    # no word is shorter than 2, so every arrow is normal
    level = [(Path(s, (i,)), step[s][i]) for i, (_, s, _) in enumerate(arrows)]
    red = {}
    while level:
        basis += [p for p, _ in level]
        longer = []
        for p, s in level:
            for i, t in step[s].items():
                q = Path(p.src, p.arrs + (i,))
                if t is None:
                    red[q] = {}
                else:
                    longer.append((q, t))
        level = longer
    return PathAlgebra(spec, basis, red, max(longest, 1))


def _check_nilpotent(a):
    """Raise NotAdmissible unless the arrows generate a nilpotent ideal of kQ/I.

    rad^(k+1) = rad^k . arrows, taken as spans, shrinks at every step until
    it is 0; a nonzero span that stops shrinking is a power of the radical
    that never vanishes.  build_algebra calls it on mixed-length relations.
    """
    F = a.field
    span = [{p: F.one} for p in a.basis if p.arrs]
    while span:
        echelon = {}
        for x in span:
            # x is parallel (one start, one end): it starts as a path, and
            # the echelon only combines rows that share their lead
            end = a.path_target(next(iter(x)))
            for ai, (_, s, _) in enumerate(a.arrows):
                if s == end:
                    _insert_row(F, echelon, _combine(
                        F, a._red, a.basis_index,
                        {Path(q.src, q.arrs + (ai,)): c for q, c in x.items()}))
        if len(echelon) == len(span):
            raise NotAdmissible("the arrow ideal is not nilpotent modulo the "
                                "relations; ideal not admissible")
        span = list(echelon.values())


def path_ends(ends, names):
    """(source, target) of the path through the arrows `names` in traversal
    order, `ends` mapping each arrow name to its (source, target).  Raises
    MalformedRelation for an unknown arrow or a non-composable path."""
    src = cur = None
    for nm in names:
        e = ends.get(nm)
        if e is None:
            raise MalformedRelation(f"unknown arrow {nm!r} in path")
        if src is None:
            src = e[0]
        elif e[0] != cur:
            raise MalformedRelation(
                f"non-composable path: {nm} does not start where the "
                "previous arrow ended")
        cur = e[1]
    return src, cur


def build_algebra(spec, degree_cap=64):
    """Build kQ/I by tip reduction (Green 1999), degree by degree.

    Only paths that contain no tip are ever listed, and the class of the
    validated relations (zero terms dropped) chooses the work:

    - Monomial, every relation a single path: one walk of the automaton of
      the relation words (_monomial).  A cycle in it means an infinite
      quotient, refused at once whatever the cap; otherwise the basis is
      listed level by level, every tip mapped to 0, with no rows and no
      field arithmetic.
    - Graded, every relation homogeneous: one _sweep is exact.  A
      homogeneous row n.r reduces to paths of its own length, so no element
      is missed; every u.r.v of degree d reduces to 0 modulo the rows n.r
      and the lower degrees, so _unreduced would find nothing; and the sweep
      stops at the first empty degree d, where A_d' = A_(d'-1).A_1 gives
      A_d' = 0 for all d' >= d, so the arrow ideal is nilpotent.
    - Mixed-length: the completion.  A missed element, or an n.r that the
      finished tables do not reduce to 0, joins the relations and the sweep
      restarts; then no tip may be shorter than 2, and _check_nilpotent
      decides nilpotency.

    Raises NotAdmissible when some path of length d >= 2 with d >= the
    degree cap is normal (for an infinite quotient, normal paths reach any
    cap), or the arrow ideal is not nilpotent in the quotient, and
    MalformedRelation for unknown arrows, non-composable paths, and
    non-parallel or too-short relation terms.
    """
    F = spec.field
    if not isinstance(F, FieldSpec):
        raise StratakitError("spec.field must be a FieldSpec")
    nverts = len(spec.vertices)
    vindex = {v: i for i, v in enumerate(spec.vertices)}
    arrows = [(a, vindex[s], vindex[t]) for (a, s, t) in spec.arrows]
    aindex = {a[0]: i for i, a in enumerate(spec.arrows)}
    ends = {a: (s, t) for a, s, t in arrows}

    # resolve + validate relations as (src, top length, {arrow tuple: coeff});
    # terms are summed and zero terms dropped before the top length is taken
    relations = []
    for rel in spec.relations:
        terms = {}
        endpoints = None
        for coeff, namesseq in rel:
            if len(namesseq) < 2:
                raise MalformedRelation("relation term shorter than 2 arrows")
            ep = path_ends(ends, namesseq)
            idxseq = tuple(aindex[nm] for nm in namesseq)
            if endpoints is None:
                endpoints = ep
            elif ep != endpoints:
                raise MalformedRelation("relation mixes non-parallel paths")
            c = F.of(coeff) if isinstance(coeff, int) else coeff
            _accumulate(F, terms, idxseq, c)
        if terms:
            relations.append((endpoints[0], max(map(len, terms)), terms))

    if all(len(terms) == 1 for _, _, terms in relations):
        return _monomial(spec, arrows, nverts,
                         {w for _, _, terms in relations for w in terms},
                         degree_cap)

    graded = all(len(set(map(len, terms))) == 1 for _, _, terms in relations)
    while True:
        red, by_len, missed = _sweep(F, arrows, nverts, relations, degree_cap)
        if missed is None:
            basis = sorted((p for ps in by_len for p in ps), key=_path_key)
            a = PathAlgebra(spec, basis, red, len(by_len) - 1)
            if graded:
                return a
            missed = _unreduced(a, relations)
            if missed is None:
                break
        lead = max(missed, key=_path_key)
        relations.append((lead.src, len(lead.arrs),
                          {p.arrs: c for p, c in missed.items()}))

    # the ideal must sit inside the arrow radical squared
    if any(len(lead.arrs) < 2 for lead in red):
        raise NotAdmissible("ideal reduction produced an element of degree < 2")
    _check_nilpotent(a)
    return a
