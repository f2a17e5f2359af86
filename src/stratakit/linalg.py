"""Exact dense linear algebra over a FieldSpec.

Matrices are dense, row-major, immutable after construction, and hold the
field's canonical scalars (fields): over Q an int for every integral entry
and a Fraction with denominator > 1 for the rest.  RREF over the field is
the reference semantics for everything (rank, kernels, solving).  One
elimination routine serves them all, with one row step (_cleared)
specialised per field: over GF(p) on int residues, over Q fraction-free on
integer rows.  It stops where the question is answered: rank and
image_basis clear only below each pivot; the others then clear above the
pivots, the last first, and kernel_basis only when there is a free column;
over Q kernel_basis, solve and inverse divide only the entries they
return, rref all of them.  The RREF is unique, so both fields give exactly
the result of elimination on field scalars.  _extend_rows reduces one
vector at a time against the rows kept so far, with the same step, and
builds no matrix: pivot_columns and the spans of reps run on it.

A matrix with no rows or no columns has no entries, so one is shared per
field and shape (_empty), and the constructors and operations whose result
has such a shape return it with no loop; Matrix.of builds a matrix from its
entries or gives the shared one.  block_diag of one block is that block, as
matrices are immutable.  No matrix with entries is shared.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import StratakitError
from .fields import _q


_EMPTY = {}


def _empty(field, rows, cols):
    """The shared rows x cols matrix over field, one of rows, cols being 0:
    keyed by (field.p, rows, cols), as equal fields have equal p."""
    key = (field.p, rows, cols)
    m = _EMPTY.get(key)
    if m is None:
        m = _EMPTY[key] = Matrix(field, rows, cols, ())
    return m


class Matrix:
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows, cols, entries):
        if len(entries) != rows * cols:
            raise StratakitError("entry count does not match shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, field, row_lists):
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        flat = []
        for r in row_lists:
            if len(r) != cols:
                raise StratakitError("ragged rows")
            flat.extend(r)
        return cls(field, rows, cols, flat)

    @classmethod
    def of(cls, field, rows, cols, entries):
        """Matrix(field, rows, cols, entries), or the shared matrix of that
        shape when it has no entries."""
        if not (rows and cols):
            return _empty(field, rows, cols)
        return cls(field, rows, cols, entries)

    @classmethod
    def zero(cls, field, rows, cols):
        if not (rows and cols):
            return _empty(field, rows, cols)
        return cls(field, rows, cols, [field.zero] * (rows * cols))

    @classmethod
    def identity(cls, field, n):
        if not n:
            return _empty(field, 0, 0)
        z, o = field.zero, field.one
        return cls(field, n, n, [o if i == j else z for i in range(n) for j in range(n)])

    @classmethod
    def from_columns(cls, field, col_lists, rows=None):
        cols = len(col_lists)
        if rows is None:
            rows = len(col_lists[0]) if cols else 0
        if not (rows and cols):
            return _empty(field, rows, cols)
        flat = []
        for i in range(rows):
            for c in col_lists:
                flat.append(c[i])
        return cls(field, rows, cols, flat)

    # -- access --------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def column(self, j):
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {[self.row(i) for i in range(self.rows)]})"

    def is_zero(self):
        F = self.field
        return all(F.is_zero(e) for e in self.entries)

    # -- arithmetic ----------------------------------------------------------

    def transpose(self):
        if not self.entries:
            return _empty(self.field, self.cols, self.rows)
        return Matrix(self.field, self.cols, self.rows,
                      [self[i, j] for j in range(self.cols) for i in range(self.rows)])

    def _same_shape(self, other, op):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise StratakitError(f"shape mismatch {self.rows}x{self.cols} {op} "
                                 f"{other.rows}x{other.cols}")

    def add(self, other):
        self._same_shape(other, "+")
        F = self.field
        return Matrix.of(F, self.rows, self.cols,
                         [F.add(a, b) for a, b in zip(self.entries, other.entries)])

    def sub(self, other):
        self._same_shape(other, "-")
        F = self.field
        return Matrix.of(F, self.rows, self.cols,
                         [F.sub(a, b) for a, b in zip(self.entries, other.entries)])

    def scale(self, c):
        F = self.field
        return Matrix.of(F, self.rows, self.cols, [F.mul(c, a) for a in self.entries])

    def neg(self):
        F = self.field
        return Matrix.of(F, self.rows, self.cols, [F.neg(a) for a in self.entries])

    def mul(self, other):
        if self.cols != other.rows:
            raise StratakitError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        F = self.field
        p, n, oc = F.p, self.cols, other.cols
        if not (self.rows and oc):
            return _empty(F, self.rows, oc)
        b_entries = other.entries
        out = []
        for i in range(self.rows):
            acc = [0] * oc
            for k, a in enumerate(self.entries[i * n:(i + 1) * n]):
                if a:
                    for j in range(oc):
                        b = b_entries[k * oc + j]
                        if b:
                            acc[j] += a * b
            out.extend([x % p for x in acc] if p else map(_q, acc))
        return Matrix(F, self.rows, oc, out)

    def apply(self, vec):
        """Matrix times column vector (a plain list)."""
        F = self.field
        p, n = F.p, self.cols
        nonzero = [(k, b) for k, b in enumerate(vec) if b]
        out = []
        for i in range(self.rows):
            row = self.entries[i * n:(i + 1) * n]
            acc = 0
            for k, b in nonzero:
                a = row[k]
                if a:
                    acc += a * b
            out.append(acc % p if p else _q(acc))
        return out


def hstack(mats):
    mats = list(mats)
    if not mats:
        raise StratakitError("hstack of nothing")
    F = mats[0].field
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise StratakitError("hstack height mismatch")
    cols = sum(m.cols for m in mats)
    if not (rows and cols):
        return _empty(F, rows, cols)
    flat = []
    for i in range(rows):
        for m in mats:
            flat.extend(m.entries[i * m.cols:(i + 1) * m.cols])
    return Matrix(F, rows, cols, flat)


def vstack(mats):
    mats = list(mats)
    if not mats:
        raise StratakitError("vstack of nothing")
    F = mats[0].field
    cols = mats[0].cols
    flat = []
    for m in mats:
        if m.cols != cols:
            raise StratakitError("vstack width mismatch")
        flat.extend(m.entries)
    return Matrix.of(F, sum(m.rows for m in mats), cols, flat)


def block_diag(field, mats):
    """The block-diagonal matrix of mats, each row a slice of its block
    padded with zeros; one block is itself."""
    if len(mats) == 1:
        return mats[0]
    rows, cols = sum(m.rows for m in mats), sum(m.cols for m in mats)
    if not (rows and cols):
        return _empty(field, rows, cols)
    flat = []
    c = 0
    for m in mats:
        left, right = [field.zero] * c, [field.zero] * (cols - c - m.cols)
        for i in range(m.rows):
            flat += left
            flat += m.entries[i * m.cols:(i + 1) * m.cols]
            flat += right
        c += m.cols
    return Matrix(field, rows, cols, flat)


def rref(m):
    """Reduced row echelon form.  Returns (Matrix, pivot column indices):
    the pivot rows of _eliminate divided by their pivots, then zero rows."""
    rows, pivots = _echelon(m)
    if not pivots:
        return m, pivots
    out = [x for row, c in zip(rows, pivots) for x in _divided(row, row[c])]
    out.extend([m.field.zero] * ((m.rows - len(pivots)) * m.cols))
    return Matrix(m.field, m.rows, m.cols, out), pivots


def _integral(row):
    """row as ints, scaled by the lcm of its denominators when some entry
    is a Fraction; the scaled row spans the same line.  An int plus a
    Fraction is a Fraction, so the row is all ints exactly when its sum is
    an int."""
    if type(sum(row)) is int:
        return row
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def _cleared(p, row, prow, c):
    """row with its entry at column c cleared by the pivot row prow.  Over
    GF(p) on residues, prow scaled to 1 at c.  Over Q (p None) fraction-free
    (cf. Bareiss 1968) on integer rows: s*row - t*prow, divided by its
    content to keep the entries small."""
    f = row[c]
    if p:
        return [(x - f * y) % p for x, y in zip(row, prow)]
    g = gcd(prow[c], f)
    s, t = prow[c] // g, f // g
    row = [s * x - t * y for x, y in zip(row, prow)]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _eliminate(m, full=True):
    """Gaussian elimination on the rows of m, which has rows and columns:
    (pivot rows, pivot columns), the r-th reduced row being rows[r] / its
    pivot.  Over GF(p) on residues, each pivot row scaled to 1; over Q on
    the rows made integral by _integral (_cleared); callers divide only the
    entries they return (_divided).  A forward pass clears below each pivot:
    an echelon form with the pivots of the rref, enough for a rank.
    full=True then clears above them too (_clear_above)."""
    p, n, nrows, e = m.field.p, m.cols, m.rows, m.entries
    rows = [e[i:i + n] if p else _integral(e[i:i + n])
            for i in range(0, nrows * n, n)]
    pivots = []
    r = 0
    for c in range(n):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        prow = rows[r]
        if p and prow[c] != 1:
            inv = pow(prow[c], -1, p)
            prow = rows[r] = [x * inv % p for x in prow]
        for i in range(r + 1, nrows):
            if rows[i][c]:
                rows[i] = _cleared(p, rows[i], prow, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    rows = rows[:r]
    if full:
        _clear_above(p, rows, pivots)
    return rows, pivots


def _clear_above(p, rows, pivots):
    """Reduce echelon rows in place to the rows of the rref, up to scale:
    clear above each pivot, the last first, so that a pivot row used is 0
    at every later pivot and fills none in."""
    for k in range(len(rows) - 1, 0, -1):
        c, prow = pivots[k], rows[k]
        for i in range(k):
            if rows[i][c]:
                rows[i] = _cleared(p, rows[i], prow, c)


def _echelon(m, full=True):
    """_eliminate(m, full), or no pivots for a matrix with no rows or no
    columns, without elimination."""
    return _eliminate(m, full) if m.rows and m.cols else ([], [])


def _divided(xs, d):
    """The entries x / d, canonical: x // d where d divides x, a Fraction
    otherwise.  d is 1 over GF(p), where pivot rows are scaled."""
    return xs if d == 1 else [x // d if not x % d else Fraction(x, d) for x in xs]


def rank(m):
    return len(_echelon(m, full=False)[1])


def kernel_basis(m):
    """Basis of the right null space, as a list of column vectors: per free
    column fc, 1 at fc and -R[r, fc] at the r-th pivot, R the rref.  With no
    free column, the forward pass of a rank answers."""
    if not m.cols:
        return []
    F, p = m.field, m.field.p
    rows, pivots = _echelon(m, full=False)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    if free:
        _clear_above(p, rows, pivots)
    basis = []
    for fc in free:
        v = [F.zero] * m.cols
        v[fc] = F.one
        for row, pc in zip(rows, pivots):
            if x := row[fc]:
                d = row[pc]
                v[pc] = -x % p if p else -x // d if not x % d else Fraction(-x, d)
        basis.append(v)
    return basis


def image_basis(m):
    """Basis of the column space: the pivot columns of m."""
    return [m.column(c) for c in _echelon(m, full=False)[1]]


def solve(m, b):
    """Some X with m.X = b, for b a block of right-hand sides (a Matrix with
    m.rows rows), or None if the system is inconsistent for some column.

    One elimination of [m | b]: the columns of b are consistent exactly
    when no pivot falls among them, and X holds, in the row of each pivot
    column of m, the reduced row's entries under b."""
    F = m.field
    n, k = m.cols, b.cols
    if b.rows != m.rows:
        raise StratakitError(f"solve: {b.rows} right-hand rows for {m.rows} equations")
    if k == 0:
        return _empty(F, n, 0)
    if n == 0:
        return _empty(F, 0, k) if b.is_zero() else None
    rows, pivots = _echelon(hstack([m, b]))
    if pivots and pivots[-1] >= n:
        return None
    sol = {pc: _divided(row[n:], row[pc]) for row, pc in zip(rows, pivots)}
    zeros = (F.zero,) * k
    return Matrix(F, n, k, [x for c in range(n) for x in sol.get(c, zeros)])


def _extend_rows(p, rows, v):
    """Reduce v against the echelon rows (pivot, row) kept so far and keep
    what is left: its pivot, the first nonzero coordinate, or None when v
    lies in their span.

    Each row is 0 at every earlier pivot, so one pass in order clears every
    kept pivot, and the appended row keeps that so.  Over GF(p) the rows are
    residues scaled to 1 at the pivot; over Q (p None), integer rows divided
    by their content (_cleared)."""
    if p is None:
        v = _integral(v)
    for c, row in rows:
        if v[c]:
            v = _cleared(p, v, row, c)
    c = next((j for j, x in enumerate(v) if x), None)
    if c is None:
        return None
    if p is not None:
        inv = pow(v[c], -1, p)
        v = [x * inv % p for x in v]
    rows.append((c, v))
    return c


def pivot_columns(field, vectors):
    """Indices of the vectors not in the span of the vectors before them, as
    a greedy left-to-right rank test keeps them: the pivot columns of the
    rref of the matrix with these columns, found without building it."""
    rows = []
    return [i for i, v in enumerate(vectors)
            if _extend_rows(field.p, rows, v) is not None]


def leading_positions(field, vectors):
    """The first nonzero coordinates of the nonzero vectors in their span:
    one per echelon row, so as many as the span's dimension."""
    rows = []
    for v in vectors:
        _extend_rows(field.p, rows, v)
    return {c for c, _ in rows}


def is_invertible(m):
    return m.rows == m.cols and rank(m) == m.rows


def inverse(m):
    F = m.field
    if m.rows != m.cols:
        raise StratakitError("inverse of non-square matrix")
    n = m.rows
    rows, pivots = _echelon(hstack([m, Matrix.identity(F, n)]))
    if pivots[:n] != list(range(n)):
        raise StratakitError("matrix not invertible")
    return Matrix(F, n, n, [x for row, c in zip(rows, pivots)
                            for x in _divided(row[n:], row[c])])
