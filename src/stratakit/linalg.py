"""Exact dense linear algebra over a FieldSpec.

Matrices are dense, row-major, immutable after construction.  RREF over the
field is the reference semantics for everything (rank, kernels, solving);
corpus matrices never exceed a few dozen rows so no fraction-free tricks are
needed.
"""

from .errors import StratakitError


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
    def zero(cls, field, rows, cols):
        return cls(field, rows, cols, [field.zero] * (rows * cols))

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, n, n, [o if i == j else z for i in range(n) for j in range(n)])

    @classmethod
    def from_columns(cls, field, col_lists, rows=None):
        cols = len(col_lists)
        if rows is None:
            rows = len(col_lists[0]) if cols else 0
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

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

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
        return Matrix(self.field, self.cols, self.rows,
                      [self[i, j] for j in range(self.cols) for i in range(self.rows)])

    def add(self, other):
        F = self.field
        return Matrix(F, self.rows, self.cols,
                      [F.add(a, b) for a, b in zip(self.entries, other.entries)])

    def sub(self, other):
        F = self.field
        return Matrix(F, self.rows, self.cols,
                      [F.sub(a, b) for a, b in zip(self.entries, other.entries)])

    def scale(self, c):
        F = self.field
        return Matrix(F, self.rows, self.cols, [F.mul(c, a) for a in self.entries])

    def neg(self):
        F = self.field
        return Matrix(F, self.rows, self.cols, [F.neg(a) for a in self.entries])

    def mul(self, other):
        if self.cols != other.rows:
            raise StratakitError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        F = self.field
        out = []
        for i in range(self.rows):
            ri = self.entries[i * self.cols:(i + 1) * self.cols]
            for j in range(other.cols):
                acc = F.zero
                for k, a in enumerate(ri):
                    if not F.is_zero(a):
                        acc = F.add(acc, F.mul(a, other.entries[k * other.cols + j]))
                out.append(acc)
        return Matrix(F, self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix times column vector (a plain list)."""
        F = self.field
        out = []
        for i in range(self.rows):
            acc = F.zero
            for k in range(self.cols):
                a = self.entries[i * self.cols + k]
                if not F.is_zero(a):
                    acc = F.add(acc, F.mul(a, vec[k]))
            out.append(acc)
        return out


def hstack(mats):
    mats = list(mats)
    if not mats:
        raise StratakitError("hstack of nothing")
    F = mats[0].field
    rows = mats[0].rows
    flat = []
    for i in range(rows):
        for m in mats:
            flat.extend(m.entries[i * m.cols:(i + 1) * m.cols])
    return Matrix(F, rows, sum(m.cols for m in mats), flat)


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
    return Matrix(F, sum(m.rows for m in mats), cols, flat)


def block_diag(field, mats):
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [[field.zero] * cols for _ in range(rows)]
    r = c = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out[r + i][c + j] = m[i, j]
        r += m.rows
        c += m.cols
    return Matrix.from_rows(field, out) if rows else Matrix(field, 0, cols, [])


def rref(m):
    """Reduced row echelon form.  Returns (Matrix, pivot column indices)."""
    F = m.field
    rows = [m.row(i) for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if not F.is_zero(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(m.rows):
            if i != r and not F.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Matrix.from_rows(F, rows) if m.rows else m, pivots


def rank(m):
    return len(rref(m)[1])


def kernel_basis(m):
    """Basis of the right null space, as a list of column vectors."""
    F = m.field
    R, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [F.zero] * m.cols
        v[fc] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(R[r, fc])
        basis.append(v)
    return basis


def image_basis(m):
    """Basis of the column space: the pivot columns of m."""
    _, pivots = rref(m)
    return [m.column(c) for c in pivots]


def solve(m, b):
    """Some x with m.x = b, or None if the system is inconsistent."""
    F = m.field
    aug = hstack([m, Matrix.from_columns(F, [list(b)], rows=m.rows)])
    R, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [F.zero] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = R[r, m.cols]
    return x


def pivot_columns(field, vectors, dim):
    """Indices of the vectors not in the span of the vectors before them.

    These are the pivot columns of one rref, which is exactly what a greedy
    left-to-right rank test would keep."""
    return rref(Matrix.from_columns(field, vectors, rows=dim))[1]


def column_reduce(field, vectors, dim):
    """Reduce a list of vectors to a basis of their span (deterministic)."""
    return [list(vectors[i]) for i in pivot_columns(field, vectors, dim)]


def is_invertible(m):
    return m.rows == m.cols and rank(m) == m.rows


def inverse(m):
    F = m.field
    if m.rows != m.cols:
        raise StratakitError("inverse of non-square matrix")
    aug = hstack([m, Matrix.identity(F, m.rows)])
    R, pivots = rref(aug)
    if pivots[:m.rows] != list(range(m.rows)):
        raise StratakitError("matrix not invertible")
    return Matrix(F, m.rows, m.rows,
                  [R[i, m.cols + j] for i in range(m.rows) for j in range(m.rows)])
