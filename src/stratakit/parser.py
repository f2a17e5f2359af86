"""Line-oriented algebra description files.

Grammar (one directive per line, `#` comments, blank lines ignored):

    name <word>
    field Q | field GF <p>          # p prime, p < MAX_PRIME = 2^16
    vertices <v1> <v2> ...          # order = stratifying order
    arrow <name> <source> <target>
    relation <coeff>*<path> [+|- <coeff>*<path> ...]
    module <name> ... end           # dims line + one map line per arrow
    embedding ... end               # image lines, for subalgebra files
    duality <a>=<b> [<c>=<d> ...]

Path syntax is `c.b.a`, meaning "a, then b, then c" — the rightmost factor
acts first, matching how compositions are written multiplicatively.  The
paths of `image <arrow> = ...` lines name arrows of the ambient algebra, not
of this file; they are resolved when the embedding is built.
"""

from .errors import MalformedRelation, ParseError, StratakitError
from .fields import GF, MAX_PRIME, QQ
from .linalg import Matrix
from .quiver import QuiverSpec, build_algebra, path_ends
from .reps import Rep


class ModuleLiteral:
    def __init__(self, name, dims, maps):
        self.name = name
        self.dims = list(dims)           # by vertex position
        self.maps = dict(maps)           # arrow name -> list of rows

    def __eq__(self, other):
        return (isinstance(other, ModuleLiteral) and self.name == other.name
                and self.dims == other.dims and self.maps == other.maps)


class AlgebraFile:
    """Parsed description: quiver, relations, optional modules and embedding."""

    def __init__(self, name, field, vertices, arrows, relations,
                 modules=None, embedding=None, duality=None):
        self.name = name
        self.field = field
        self.vertices = list(vertices)
        self.arrows = [tuple(a) for a in arrows]
        self.relations = relations
        self.modules = dict(modules or {})
        self.embedding = dict(embedding or {})   # arrow name -> [(coeff, path)]
        self.duality = dict(duality or {})

    def to_spec(self):
        return QuiverSpec(self.vertices, self.arrows, self.relations,
                          self.field, name=self.name)

    def build(self, degree_cap=64):
        return build_algebra(self.to_spec(), degree_cap)

    def module_rep(self, algebra, name):
        lit = self.modules.get(name)
        if lit is None:
            raise StratakitError(f"no module named {name!r} in the file")
        F = algebra.field
        if len(lit.dims) != algebra.n:
            raise StratakitError(f"module {name!r}: dims length mismatch")
        action = []
        for ai, (aname, s, t) in enumerate(algebra.arrows):
            rows = lit.maps.get(aname)
            if rows is None:
                action.append(Matrix.zero(F, lit.dims[t], lit.dims[s]))
                continue
            if len(rows) != lit.dims[t] or any(len(r) != lit.dims[s] for r in rows):
                raise StratakitError(
                    f"module {name!r}: map for {aname} has the wrong shape")
            action.append(Matrix.from_rows(F, rows) if rows
                          else Matrix.zero(F, 0, lit.dims[s]))
        rep = Rep(algebra, tuple(lit.dims), action, label=name)
        if not rep.relations_hold():
            raise StratakitError(
                f"module {name!r} does not satisfy the algebra's relations")
        return rep


def _parse_path(text, line_no):
    parts = [p.strip() for p in text.split(".")]
    if any(not p for p in parts):
        raise ParseError("empty factor in path", line_no)
    return tuple(reversed(parts))       # traversal order: rightmost first


def _parse_terms(field, text, line_no):
    """`c1*p1 + c2*p2 - p3` into [(coeff, traversal tuple)]."""
    # split at every sign, each - made "+-": a piece starts with "-" after a
    # minus.  Signs before a chunk multiply, so a leading sign is allowed
    sign = 1
    chunks = []
    first, *pieces = text.replace("-", "+-").split("+")
    cur = first.strip()
    for piece in pieces:
        s = -1 if piece[:1] == "-" else 1
        if cur:
            chunks.append((sign, cur))
            sign = s
        else:
            sign *= s
        cur = piece[1 if s < 0 else 0:].strip()
    if cur:
        chunks.append((sign, cur))
    if not chunks:
        raise ParseError("empty relation", line_no)
    out = []
    for sgn, chunk in chunks:
        if "*" in chunk:
            coeff_text, path_text = chunk.split("*", 1)
            try:
                coeff = field.parse_scalar(coeff_text)
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad coefficient {coeff_text!r}", line_no)
        else:
            coeff, path_text = field.one, chunk
        if sgn < 0:
            coeff = field.neg(coeff)
        out.append((coeff, _parse_path(path_text, line_no)))
    return out


def parse(text):
    """Parse an algebra description file into an AlgebraFile."""
    name = ""
    field = None
    vertices = None
    arrows = []
    relations = []
    relation_lines = []
    module_lines = {}
    map_lines = {}
    modules = {}
    embedding = {}
    duality = {}
    lines = text.splitlines()
    i = 0

    def need_field(line_no):
        if field is None:
            raise ParseError("a `field` line must come before this", line_no)

    while i < len(lines):
        line_no = i + 1
        raw = lines[i]
        i += 1
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        head = words[0]
        if head == "name":
            if len(words) != 2:
                raise ParseError("usage: name <word>", line_no)
            name = words[1]
        elif head == "field":
            if field is not None:
                raise ParseError("second `field` line", line_no)
            if words[1:] == ["Q"]:
                field = QQ
            elif len(words) == 3 and words[1] == "GF":
                try:
                    p = int(words[2])
                    field = GF(p) if p < MAX_PRIME else None
                except (ValueError, StratakitError):
                    raise ParseError(f"bad prime {words[2]!r}", line_no)
                if field is None:
                    raise ParseError(f"prime {p} is not below the bound 2^16 "
                                     f"= {MAX_PRIME}", line_no)
            else:
                raise ParseError("usage: field Q | field GF <p>", line_no)
        elif head == "vertices":
            if vertices is not None:
                raise ParseError("second `vertices` line", line_no)
            if len(words) < 2:
                raise ParseError("at least one vertex required", line_no)
            if len(set(words[1:])) != len(words[1:]):
                raise ParseError("duplicate vertex label", line_no)
            vertices = words[1:]
        elif head == "arrow":
            if len(words) != 4:
                raise ParseError("usage: arrow <name> <source> <target>", line_no)
            arrows.append((words[1], words[2], words[3]))
        elif head == "relation":
            need_field(line_no)
            relations.append(_parse_terms(field, line[len("relation"):], line_no))
            relation_lines.append(line_no)
        elif head == "module":
            need_field(line_no)
            if len(words) != 2:
                raise ParseError("usage: module <name>", line_no)
            mname = words[1]
            if mname in modules:
                raise ParseError(f"second module named {mname!r}", line_no)
            dims = None
            maps = {}
            closed = False
            while i < len(lines):
                sub_no = i + 1
                sub = lines[i].split("#", 1)[0].strip()
                i += 1
                if not sub:
                    continue
                sw = sub.split()
                if sw[0] == "end":
                    closed = True
                    break
                if sw[0] == "dims":
                    if dims is not None:
                        raise ParseError(f"second dims line in module {mname!r}",
                                         sub_no)
                    try:
                        dims = [int(x) for x in sw[1:]]
                    except ValueError:
                        raise ParseError("dims must be integers", sub_no)
                    if any(d < 0 for d in dims):
                        raise ParseError("dims must not be negative", sub_no)
                elif sw[0] == "map":
                    if len(sw) < 2:
                        raise ParseError("usage: map <arrow> <entries>", sub_no)
                    if sw[1] in maps:
                        raise ParseError(f"second map for arrow {sw[1]!r} in "
                                         f"module {mname!r}", sub_no)
                    map_lines[mname, sw[1]] = sub_no
                    body = sub.split(None, 2)[2] if len(sw) > 2 else ""
                    rows = []
                    for chunk in body.split(";"):
                        chunk = chunk.strip()
                        if not chunk:
                            continue
                        try:
                            rows.append([field.parse_scalar(x)
                                         for x in chunk.split()])
                        except (ValueError, ZeroDivisionError):
                            raise ParseError("bad matrix entry", sub_no)
                    maps[sw[1]] = rows
                else:
                    raise ParseError(f"unknown module directive {sw[0]!r}", sub_no)
            if not closed:
                raise ParseError(f"module {mname!r} not closed with `end`", line_no)
            if dims is None:
                raise ParseError(f"module {mname!r} has no dims line", line_no)
            modules[mname] = ModuleLiteral(mname, dims, maps)
            module_lines[mname] = line_no
        elif head == "embedding":
            need_field(line_no)
            closed = False
            while i < len(lines):
                sub_no = i + 1
                sub = lines[i].split("#", 1)[0].strip()
                i += 1
                if not sub:
                    continue
                if sub.split()[0] == "end":
                    closed = True
                    break
                if not sub.startswith("image"):
                    raise ParseError("embedding lines are `image <arrow> = ...`",
                                     sub_no)
                rest = sub[len("image"):].strip()
                if "=" not in rest:
                    raise ParseError("missing `=` in image line", sub_no)
                arrow_name, rhs = [x.strip() for x in rest.split("=", 1)]
                if arrow_name in embedding:
                    raise ParseError(f"second image for arrow {arrow_name!r}", sub_no)
                embedding[arrow_name] = _parse_terms(field, rhs, sub_no)
            if not closed:
                raise ParseError("embedding block not closed with `end`", line_no)
        elif head == "duality":
            for pair in words[1:]:
                if "=" not in pair:
                    raise ParseError("duality entries are <a>=<b>", line_no)
                lhs, rhs = pair.split("=", 1)
                for x, y in ((lhs, rhs), (rhs, lhs)):
                    if duality.setdefault(x, y) != y:
                        raise ParseError(f"duality pairs arrow {x!r} twice", line_no)
        else:
            raise ParseError(f"unknown directive {head!r}", line_no)
    if field is None:
        raise ParseError("missing `field` line")
    if vertices is None:
        raise ParseError("missing `vertices` line")
    f = AlgebraFile(name, field, vertices, arrows, relations,
                    modules, embedding, duality)
    # semantic validation: vertices, paths and module shapes resolve
    vset = set(vertices)
    ends = {aname: (s, t) for aname, s, t in f.arrows}
    for aname, s, t in f.arrows:
        if s not in vset or t not in vset:
            raise ParseError(f"arrow {aname}: unknown vertex")
    for rel, line_no in zip(f.relations, relation_lines):
        for _, path in rel:
            try:
                path_ends(ends, path)
            except MalformedRelation as e:
                raise ParseError(str(e), line_no) from None
    for mname, lit in f.modules.items():
        if len(lit.dims) != len(vertices):
            raise ParseError(f"module {mname!r}: dims has {len(lit.dims)} "
                             f"entries for {len(vertices)} vertices",
                             module_lines.get(mname))
        for aname in lit.maps:
            if aname not in ends:
                raise ParseError(f"module {mname!r}: map for unknown arrow "
                                 f"{aname!r}", map_lines[mname, aname])
    return f


def _format_terms(field, terms):
    parts = []
    for k, (coeff, path) in enumerate(terms):
        txt = ".".join(reversed(path))
        lead = field.format_scalar(coeff)
        piece = f"{lead}*{txt}"
        if k == 0:
            parts.append(piece)
        else:
            parts.append(f"+ {piece}")
    return " ".join(parts)


def serialize(f):
    """Canonical text for an AlgebraFile; parse(serialize(f)) equals f."""
    out = []
    if f.name:
        out.append(f"name {f.name}")
    out.append("field Q" if f.field.is_rational else f"field GF {f.field.p}")
    out.append("vertices " + " ".join(f.vertices))
    for aname, s, t in f.arrows:
        out.append(f"arrow {aname} {s} {t}")
    for rel in f.relations:
        out.append("relation " + _format_terms(f.field, rel))
    for mname in sorted(f.modules):
        lit = f.modules[mname]
        out.append(f"module {mname}")
        out.append("  dims " + " ".join(str(d) for d in lit.dims))
        for aname in sorted(lit.maps):
            rows = lit.maps[aname]
            body = " ; ".join(" ".join(f.field.format_scalar(x) for x in row)
                              for row in rows)
            out.append(f"  map {aname} {body}")
        out.append("end")
    if f.embedding:
        out.append("embedding")
        for aname in sorted(f.embedding):
            out.append(f"  image {aname} = "
                       + _format_terms(f.field, f.embedding[aname]))
        out.append("end")
    if f.duality:
        pairs = sorted({tuple(sorted((a, b))) for a, b in f.duality.items()})
        out.append("duality " + " ".join(f"{a}={b}" for a, b in pairs))
    return "\n".join(out) + "\n"


def parse_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}")
