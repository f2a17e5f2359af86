"""Property tests for the exact dense linear algebra layer."""

import contextlib
import io
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratakit import fields, linalg
from stratakit.cli import main
from stratakit.errors import StratakitError
from stratakit.fields import GF, QQ
from stratakit.linalg import Matrix
from stratakit.parser import parse

from conftest import FIXTURES, fixture_path

F5 = GF(5)


def _matrix_strategy(field):
    if field.is_rational:
        scalars = st.fractions(min_value=-5, max_value=5,
                               max_denominator=4).map(QQ.of)
    else:
        scalars = st.integers(min_value=0, max_value=field.p - 1)
    return st.integers(min_value=1, max_value=5).flatmap(
        lambda r: st.integers(min_value=1, max_value=5).flatmap(
            lambda c: st.lists(scalars, min_size=r * c, max_size=r * c).map(
                lambda e: Matrix(field, r, c, e))))


qq_matrices = _matrix_strategy(QQ)
gf_matrices = _matrix_strategy(F5)
any_matrices = st.one_of(qq_matrices, gf_matrices)


@settings(max_examples=60)
@given(any_matrices)
def test_rref_idempotent(m):
    r1, p1 = linalg.rref(m)
    r2, p2 = linalg.rref(r1)
    assert r1 == r2 and p1 == p2


@settings(max_examples=60)
@given(any_matrices)
def test_rank_nullity(m):
    assert linalg.rank(m) + len(linalg.kernel_basis(m)) == m.cols


@settings(max_examples=60)
@given(any_matrices)
def test_kernel_vectors_are_killed(m):
    F = m.field
    for v in linalg.kernel_basis(m):
        assert all(F.is_zero(e) for e in m.apply(v))


@settings(max_examples=60)
@given(any_matrices, st.lists(st.integers(-3, 3), min_size=5, max_size=5))
def test_solve_is_exact_on_image(m, coeffs):
    # one block of right-hand sides: an image and its double
    F = m.field
    x = Matrix(F, m.cols, 1, [F.of(coeffs[j]) for j in range(m.cols)])
    b = m.mul(linalg.hstack([x, x.scale(F.of(2))]))
    y = linalg.solve(m, b)
    assert y is not None and (y.rows, y.cols) == (m.cols, 2)
    assert m.mul(y) == b


@settings(max_examples=60)
@given(gf_matrices)
def test_gf_entries_are_canonical_residues(m):
    r, _ = linalg.rref(m)
    for e in list(m.entries) + list(r.entries):
        assert isinstance(e, int) and 0 <= e < 5


@settings(max_examples=40)
@given(any_matrices)
def test_image_basis_spans_columns(m):
    img = linalg.image_basis(m)
    span = Matrix.from_columns(m.field, img, rows=m.rows) if img else \
        Matrix.zero(m.field, m.rows, 0)
    assert len(img) == linalg.rank(m)
    for j in range(m.cols):
        col = m.column(j)
        if img:
            assert linalg.solve(span, _column(m.field, col)) is not None
        else:
            assert all(m.field.is_zero(e) for e in col)


def _column(field, vec):
    return Matrix(field, len(vec), 1, vec)


def _greedy_independent(field, vectors, dim):
    """Reference: keep each vector that raises the rank of those kept."""
    keep, chosen = [], Matrix(field, dim, 0, [])
    for i, v in enumerate(vectors):
        cand = linalg.hstack([chosen, Matrix.from_columns(field, [v], rows=dim)])
        if linalg.rank(cand) > linalg.rank(chosen):
            keep.append(i)
            chosen = cand
    return keep


@settings(max_examples=80)
@given(any_matrices, st.lists(st.integers(0, 4), max_size=4))
def test_pivot_columns_match_greedy_rank_loop(m, repeats):
    # repeated and zero columns make dependent vectors
    F = m.field
    cols = m.columns()
    vectors = [[F.zero] * m.rows] + cols + [cols[i % len(cols)] for i in repeats]
    assert (linalg.pivot_columns(F, vectors)
            == _greedy_independent(F, vectors, m.rows))


def test_inverse_exact():
    m = Matrix.from_rows(QQ, [[1, 2], [3, 5]])
    inv = linalg.inverse(m)
    assert inv.entries == (-5, 2, 3, -1)
    _assert_canonical(QQ, inv.entries)
    assert m.mul(inv) == Matrix.identity(QQ, 2)
    assert inv.mul(m) == Matrix.identity(QQ, 2)


def test_matrix_keeps_a_given_tuple_and_checks_the_count():
    entries = (F5.of(1), F5.of(2), F5.of(3), F5.of(4))
    assert Matrix(F5, 2, 2, entries).entries is entries
    as_list = Matrix(F5, 2, 2, list(entries)).entries
    assert type(as_list) is tuple and as_list == entries
    for bad in (entries[:3], list(entries[:3]), entries + entries):
        with pytest.raises(StratakitError):
            Matrix(F5, 2, 2, bad)


def test_singular_matrix_not_invertible():
    m = Matrix.from_rows(F5, [[1, 2], [2, 4]])
    assert not linalg.is_invertible(m)
    assert linalg.solve(m, _column(F5, [1, 0])) is None
    # one inconsistent column makes the whole block inconsistent
    assert linalg.solve(m, Matrix.from_rows(F5, [[1, 1], [2, 0]])) is None


def test_stack_and_block_diag_shapes():
    a = Matrix.identity(QQ, 2)
    b = Matrix.zero(QQ, 2, 3)
    h = linalg.hstack([a, b])
    v = linalg.vstack([a, Matrix.zero(QQ, 1, 2)])
    d = linalg.block_diag(QQ, [a, Matrix.identity(QQ, 3)])
    assert (h.rows, h.cols) == (2, 5)
    assert (v.rows, v.cols) == (3, 2)
    assert (d.rows, d.cols) == (5, 5)
    assert linalg.rank(d) == 5


def test_field_mismatch_guard():
    with pytest.raises(Exception):
        Matrix(QQ, 2, 2, [QQ.one] * 3)


# -- field-specialised kernels against elimination on field scalars -----------

def reference_rref(m):
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


def _naive_mul(a, b):
    F = a.field
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = F.zero
            for k in range(a.cols):
                acc = F.add(acc, F.mul(a[i, k], b[k, j]))
            out.append(acc)
    return Matrix(F, a.rows, b.cols, out)


FIELDS = (QQ, GF(2), GF(3), GF(101))


def _scalars(field):
    """Mostly zeros and small values, so that ranks drop; over Q also
    numerators up to 10^12 over denominators up to 10^6, in canonical form."""
    if field.is_rational:
        small = st.integers(-2, 2).map(QQ.of)
        large = st.builds(QQ.of, st.integers(-10**12, 10**12),
                          st.integers(1, 10**6))
        return st.one_of(st.just(field.zero), small, large)
    return st.one_of(st.just(0), st.integers(0, field.p - 1))


@st.composite
def _field_matrix(draw, field, rows=None, cols=None):
    rows = draw(st.integers(0, 8)) if rows is None else rows
    cols = draw(st.integers(0, 8)) if cols is None else cols
    entries = draw(st.lists(_scalars(field), min_size=rows * cols,
                            max_size=rows * cols))
    return Matrix(field, rows, cols, entries)


def _assert_canonical(field, entries):
    """Over Q an int, or a Fraction with denominator > 1, never a float;
    over GF(p) an int residue in [0, p)."""
    for e in entries:
        if field.is_rational:
            assert type(e) is int or (type(e) is Fraction
                                      and e.denominator > 1), repr(e)
        else:
            assert type(e) is int and 0 <= e < field.p


def _assert_same_entries(field, got, want):
    assert got == want
    _assert_canonical(field, got.entries)


@settings(max_examples=300)
@given(st.sampled_from(FIELDS).flatmap(_field_matrix))
def test_rref_matches_reference(m):
    got, got_pivots = linalg.rref(m)
    want, want_pivots = reference_rref(m)
    assert got_pivots == want_pivots
    _assert_same_entries(m.field, got, want)


def reference_kernel(m):
    """The kernel basis read off reference_rref: per free column fc, 1 at
    fc and -R[r, fc] at the r-th pivot."""
    F = m.field
    R, pivots = reference_rref(m)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [F.zero] * m.cols
        v[fc] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(R[r, fc])
        basis.append(v)
    return basis


def reference_solve(m, b):
    """X from reference_rref of [m | b], or None if a pivot falls in b."""
    F, n = m.field, m.cols
    if not b.cols or not n:
        return (Matrix(F, n, b.cols, []) if not b.cols or b.is_zero()
                else None)
    R, pivots = reference_rref(linalg.hstack([m, b]))
    if pivots and pivots[-1] >= n:
        return None
    x = [[F.zero] * b.cols for _ in range(n)]
    for r, pc in enumerate(pivots):
        x[pc] = [R[r, n + j] for j in range(b.cols)]
    return Matrix(F, n, b.cols, [e for row in x for e in row])


@st.composite
def _system(draw):
    """(m, b): b has m.rows rows and 0 to 3 columns, each either random or
    an image m.x, so that both outcomes of solve are drawn."""
    field = draw(st.sampled_from(FIELDS))
    m = draw(_field_matrix(field))
    cols = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            cols.append(draw(st.lists(_scalars(field), min_size=m.rows,
                                      max_size=m.rows)))
        else:
            x = draw(st.lists(_scalars(field), min_size=m.cols,
                              max_size=m.cols))
            cols.append(m.apply(x))
    return m, Matrix.from_columns(field, cols, rows=m.rows)


def _types(entries):
    return [type(e) for e in entries]


@settings(max_examples=300)
@given(_system())
def test_rank_kernel_and_solve_match_the_reference(system):
    # rank stops at the echelon form, and over Q kernel_basis and solve
    # divide only the entries they return: same values, of the same types
    m, b = system
    _, pivots = reference_rref(m)
    assert linalg.rank(m) == len(pivots)
    got, want = linalg.kernel_basis(m), reference_kernel(m)
    assert got == want
    assert [_types(v) for v in got] == [_types(v) for v in want]
    for v in got:
        _assert_canonical(m.field, v)
    got, want = linalg.solve(m, b), reference_solve(m, b)
    assert (got is None) == (want is None)
    if got is not None:
        assert got == want and _types(got.entries) == _types(want.entries)
        _assert_canonical(m.field, got.entries)


@st.composite
def _product_operands(draw):
    field = draw(st.sampled_from(FIELDS))
    r, k, c = (draw(st.integers(0, 8)) for _ in range(3))
    return (field, draw(_field_matrix(field, r, k)),
            draw(_field_matrix(field, k, c)))


@settings(max_examples=200)
@given(_product_operands())
def test_mul_and_apply_match_naive_loop(operands):
    field, a, b = operands
    _assert_same_entries(field, a.mul(b), _naive_mul(a, b))
    for j in range(b.cols):
        col = Matrix.from_columns(field, [b.column(j)], rows=b.rows)
        got = a.apply(b.column(j))
        assert len(got) == a.rows
        _assert_same_entries(field, Matrix.from_columns(field, [got], rows=a.rows),
                             _naive_mul(a, col))


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "GF5"])
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_zero_size_matrices(field, shape):
    rows, cols = shape
    m = Matrix(field, rows, cols, [])
    R, pivots = linalg.rref(m)
    assert R is m and pivots == []
    assert linalg.rank(m) == 0
    assert linalg.kernel_basis(m) == [
        [field.one if i == j else field.zero for i in range(cols)]
        for j in range(cols)]
    assert (linalg.solve(m, _column(field, [field.zero] * rows))
            == _column(field, [field.zero] * cols))
    if rows:
        assert linalg.solve(m, _column(field, [field.one] * rows)) is None
    if rows == cols:
        assert linalg.inverse(m) == m


def _count_rref(monkeypatch):
    """The shapes of the matrices eliminated from now on: every rref, rank,
    kernel, solve and inverse goes through linalg._eliminate."""
    shapes = []
    real = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda m, full=True: (
        shapes.append((m.rows, m.cols)) or real(m, full)))
    return shapes


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "GF5"])
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_empty_matrices_take_no_rref(monkeypatch, field, shape):
    # a matrix with no rows or no columns is its own reduced form
    rows, cols = shape
    m = Matrix(field, rows, cols, [])
    shapes = _count_rref(monkeypatch)
    linalg.rank(m)
    linalg.kernel_basis(m)
    linalg.image_basis(m)
    linalg.pivot_columns(field, m.columns())
    linalg.solve(m, _column(field, [field.one] * rows))
    linalg.solve(m, _column(field, [field.zero] * rows))
    linalg.is_invertible(m)
    if rows == cols:
        linalg.inverse(m)
    assert shapes == []


def test_a_check_issues_no_empty_rref(monkeypatch):
    # on the paper's Borel pair, 267 of 2 609 rref calls used to get a
    # matrix with no rows or no columns
    shapes = _count_rref(monkeypatch)
    argv = ["check", fixture_path("borelA.alg"),
            "--borel", fixture_path("borelB.alg"), "--format", "machine"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert shapes and all(rows and cols for rows, cols in shapes)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "GF5"])
def test_zero_size_results_are_the_shared_matrices(field):
    # a result with no rows or no columns is the one matrix of its shape,
    # built with no loop, and equal to a fresh one
    def z(r, c):
        return Matrix.zero(field, r, c)

    results = [
        (z(0, 2).mul(z(2, 3)), (0, 3)), (z(3, 2).mul(z(2, 0)), (3, 0)),
        (z(0, 3).transpose(), (3, 0)), (z(2, 0).transpose(), (0, 2)),
        (Matrix.from_columns(field, [], rows=4), (4, 0)),
        (Matrix.from_columns(field, [[], []]), (0, 2)),
        (Matrix.identity(field, 0), (0, 0)),
        (linalg.block_diag(field, [z(0, 2), z(0, 1)]), (0, 3)),
        (linalg.block_diag(field, [z(2, 0), z(1, 0)]), (3, 0)),
        (linalg.block_diag(field, []), (0, 0)),
        (linalg.hstack([z(0, 2), z(0, 1)]), (0, 3)),
        (linalg.hstack([z(3, 0), z(3, 0)]), (3, 0)),
        (linalg.vstack([z(0, 2), z(0, 2)]), (0, 2)),
        (linalg.vstack([z(2, 0), z(1, 0)]), (3, 0)),
        (Matrix.of(field, 2, 0, []), (2, 0)),
    ]
    # arithmetic on an operand with no entries, built apart from the cache
    for r, c in ((0, 2), (3, 0), (0, 0)):
        x, y = Matrix(field, r, c, []), Matrix(field, r, c, [])
        results += [(x.add(y), (r, c)), (x.sub(y), (r, c)),
                    (x.scale(field.one), (r, c)), (x.neg(), (r, c))]
    for got, (r, c) in results:
        assert got == Matrix(field, r, c, []), (got, r, c)
        assert got is z(r, c)
    # a zero product with entries is built afresh, never shared
    inner = z(2, 0).mul(z(0, 3))
    assert inner == Matrix.zero(field, 2, 3) and inner is not z(2, 3)
    # a block-diagonal matrix of one block is that block
    one = Matrix.from_rows(field, [[field.one, field.zero]])
    assert linalg.block_diag(field, [one]) is one
    for m in linalg._EMPTY.values():
        assert not (m.rows and m.cols) and m.entries == ()


@pytest.mark.parametrize("op", ["add", "sub"])
def test_add_and_sub_refuse_a_shape_mismatch(op):
    a = Matrix.from_rows(F5, [[1], [2]])
    b = Matrix.from_rows(F5, [[1, 2]])
    for x, y in ((a, b), (b, a), (a, Matrix.zero(F5, 2, 0))):
        with pytest.raises(StratakitError):
            getattr(x, op)(y)


def test_hstack_and_solve_refuse_a_height_mismatch():
    a, b = Matrix.zero(F5, 2, 1), Matrix.zero(F5, 3, 1)
    for mats in ([a, b], [b, a], [a, Matrix.zero(F5, 0, 1)]):
        with pytest.raises(StratakitError):
            linalg.hstack(mats)
    m = Matrix.identity(F5, 2)
    for rhs in (_column(F5, [1, 0, 0]), Matrix.zero(F5, 3, 0),
                Matrix.zero(F5, 1, 2)):
        with pytest.raises(StratakitError):
            linalg.solve(m, rhs)


def test_a_check_shares_only_zero_size_matrices():
    argv = ["check", fixture_path("borelA.alg"),
            "--borel", fixture_path("borelB.alg"), "--format", "machine"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert linalg._EMPTY
    for (p, rows, cols), m in linalg._EMPTY.items():
        assert (m.field.p, m.rows, m.cols) == (p, rows, cols)
        assert not (rows and cols) and m.entries == ()


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "GF5"])
def test_inverse_of_zero_raises_zero_division(field):
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        field.inv(field.zero)
    assert field.mul(field.inv(field.of(2)), field.of(2)) == field.one


def test_field_constants_are_shared():
    for field in (QQ, F5):
        assert field.zero is field.zero and field.one is field.one
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert (QQ.zero, QQ.one) == (0, 1)
    assert (F5.zero, F5.one) == (0, 1)
    assert GF(5) == F5 and hash(GF(5)) == hash(F5) and QQ != F5


# -- canonical rationals -------------------------------------------------------

def test_rational_constructors_are_canonical():
    assert QQ.of(4, 2) == 2 and type(QQ.of(4, 2)) is int
    assert QQ.of(-6, -3) == 2 and type(QQ.of(-6, -3)) is int
    assert QQ.of(1, 2) == Fraction(1, 2) and type(QQ.of(1, 2)) is Fraction
    assert QQ.of(Fraction(6, 3)) == 2 and type(QQ.of(Fraction(6, 3))) is int
    assert type(QQ.parse_scalar("4/2")) is int
    assert type(QQ.parse_scalar("-3/4")) is Fraction
    _assert_canonical(QQ, [QQ.of(n, d) for n in range(-6, 7)
                           for d in (-3, -2, -1, 1, 2, 3)])


def test_integer_constructor_takes_no_division(monkeypatch):
    # an integer n, such as every relation coefficient the parser reads,
    # is n itself over Q and n mod p over GF(p)
    monkeypatch.setattr(fields, "Fraction", None)
    monkeypatch.setattr(fields, "pow", None, raising=False)
    assert QQ.of(5) == 5 and type(QQ.of(5)) is int
    assert GF(7).of(-3) == 4 and GF(7).of(10) == 3
    monkeypatch.undo()
    assert QQ.of(3, 6) == Fraction(1, 2) and type(QQ.of(3, 6)) is Fraction


def test_rational_arithmetic_is_canonical():
    half, third = QQ.of(1, 2), QQ.of(1, 3)
    assert QQ.inv(third) == 3 and type(QQ.inv(third)) is int
    assert QQ.inv(QQ.of(-1, 3)) == -3 and type(QQ.inv(QQ.of(-1, 3))) is int
    assert QQ.inv(2) == half and type(QQ.inv(2)) is Fraction
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.add(half, half) == 1 and type(QQ.add(half, half)) is int
    assert type(QQ.sub(QQ.of(3, 2), half)) is int
    assert type(QQ.mul(QQ.of(2, 3), QQ.of(3, 2))) is int
    assert type(QQ.mul(half, 4)) is int
    assert type(QQ.neg(half)) is Fraction and type(QQ.neg(3)) is int
    values = [QQ.of(n, d) for n in range(-4, 5) for d in (1, 2, 3)]
    _assert_canonical(QQ, [op(a, b) for a in values for b in values
                           for op in (QQ.add, QQ.sub, QQ.mul)])
    _assert_canonical(QQ, [QQ.inv(a) for a in values if a])


def test_matrix_results_are_canonical_over_q():
    # proper fractions in, integral values out of every kernel
    half, third = QQ.of(1, 2), QQ.of(1, 3)
    m = Matrix.from_rows(QQ, [[half, third, 1], [2, QQ.of(2, 3), 2],
                              [QQ.of(3, 2), 1, 3]])
    R, pivots = linalg.rref(m)
    assert pivots == [0, 1] and R.entries == (1, 0, 0, 0, 1, 3, 0, 0, 0)
    _assert_canonical(QQ, R.entries)
    kernel = linalg.kernel_basis(m)
    assert kernel == [[0, -3, 1]]
    _assert_canonical(QQ, kernel[0])
    b = Matrix.from_rows(QQ, [[half, half], [2, 1], [QQ.of(3, 2), QQ.of(3, 2)]])
    x = linalg.solve(m, b)
    assert x.entries == (1, 0, 0, QQ.of(3, 2), 0, 0) and m.mul(x) == b
    _assert_canonical(QQ, x.entries)
    square = Matrix.from_rows(QQ, [[half, third], [QQ.of(1, 4), QQ.of(1, 5)]])
    for out in (square.mul(linalg.inverse(square)), square.mul(square),
                square.scale(6), square.add(square), square.sub(square),
                square.neg(), Matrix.from_columns(QQ, [square.apply([2, 3])])):
        _assert_canonical(QQ, out.entries)
    assert square.mul(linalg.inverse(square)) == Matrix.identity(QQ, 2)
    assert square.scale(6).entries == (3, 2, QQ.of(3, 2), QQ.of(6, 5))
    assert square.apply([2, 3]) == [2, QQ.of(11, 10)]


def _xy_text(m):
    """k<x,y>/(x^2, y^2, (xy)^m, (yx)^m) over Q, as a description file."""
    return "\n".join(["field Q", "vertices 1", "arrow x 1 1", "arrow y 1 1",
                      "relation 1*x.x", "relation 1*y.y",
                      "relation 1*" + ".".join(["x", "y"] * m),
                      "relation 1*" + ".".join(["y", "x"] * m)]) + "\n"


def test_every_rational_entry_built_is_canonical(monkeypatch):
    # every matrix over Q that the analyses and the graded builds construct
    # holds ints and proper Fractions only, and no float anywhere
    entries, real = [], Matrix.__init__

    def recording(self, field, rows, cols, values):
        real(self, field, rows, cols, values)
        if field.is_rational:
            entries.extend(self.entries)

    monkeypatch.setattr(Matrix, "__init__", recording)
    rational = [fixture_path(name) for name in sorted(os.listdir(FIXTURES))
                if name.endswith(".alg")
                and "field Q\n" in open(fixture_path(name)).read()]
    assert len(rational) == 6
    runs = [[cmd, path, "--format", "machine"]
            for path in rational for cmd in ("analyze", "check")]
    runs.append(["check", fixture_path("borelA.alg"),
                 "--borel", fixture_path("borelB.alg"), "--format", "machine"])
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    for m in range(4, 8):
        assert parse(_xy_text(m)).build().dim == 4 * m - 1
    assert entries
    _assert_canonical(QQ, entries)
