"""Property tests for the exact dense linear algebra layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratakit import linalg
from stratakit.fields import GF, QQ
from stratakit.linalg import Matrix

F5 = GF(5)


def _matrix_strategy(field):
    if field.is_rational:
        scalars = st.fractions(min_value=-5, max_value=5,
                               max_denominator=4)
    else:
        scalars = st.integers(min_value=0, max_value=field.p - 1)
    return st.integers(min_value=1, max_value=5).flatmap(
        lambda r: st.integers(min_value=1, max_value=5).flatmap(
            lambda c: st.lists(scalars, min_size=r * c, max_size=r * c).map(
                lambda e: Matrix(field, r, c, e))))


qq_matrices = _matrix_strategy(QQ)
gf_matrices = _matrix_strategy(F5)
any_matrices = st.one_of(qq_matrices, gf_matrices)


@settings(max_examples=60, deadline=None)
@given(any_matrices)
def test_rref_idempotent(m):
    r1, p1 = linalg.rref(m)
    r2, p2 = linalg.rref(r1)
    assert r1 == r2 and p1 == p2


@settings(max_examples=60, deadline=None)
@given(any_matrices)
def test_rank_nullity(m):
    assert linalg.rank(m) + len(linalg.kernel_basis(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(any_matrices)
def test_kernel_vectors_are_killed(m):
    F = m.field
    for v in linalg.kernel_basis(m):
        assert all(F.is_zero(e) for e in m.apply(v))


@settings(max_examples=60, deadline=None)
@given(any_matrices, st.lists(st.integers(-3, 3), min_size=5, max_size=5))
def test_solve_is_exact_on_image(m, coeffs):
    F = m.field
    x = [F.of(coeffs[j]) for j in range(m.cols)]
    b = m.apply(x)
    y = linalg.solve(m, b)
    assert y is not None
    assert m.apply(y) == b


@settings(max_examples=60, deadline=None)
@given(gf_matrices)
def test_gf_entries_are_canonical_residues(m):
    r, _ = linalg.rref(m)
    for e in list(m.entries) + list(r.entries):
        assert isinstance(e, int) and 0 <= e < 5


@settings(max_examples=40, deadline=None)
@given(any_matrices)
def test_image_basis_spans_columns(m):
    img = linalg.image_basis(m)
    span = Matrix.from_columns(m.field, img, rows=m.rows) if img else \
        Matrix.zero(m.field, m.rows, 0)
    assert len(img) == linalg.rank(m)
    for j in range(m.cols):
        col = m.column(j)
        if img:
            assert linalg.solve(span, col) is not None
        else:
            assert all(m.field.is_zero(e) for e in col)


def _greedy_independent(field, vectors, dim):
    """Reference: keep each vector that raises the rank of those kept."""
    keep, chosen = [], Matrix(field, dim, 0, [])
    for i, v in enumerate(vectors):
        cand = linalg.hstack([chosen, Matrix.from_columns(field, [v], rows=dim)])
        if linalg.rank(cand) > linalg.rank(chosen):
            keep.append(i)
            chosen = cand
    return keep


@settings(max_examples=80, deadline=None)
@given(any_matrices, st.lists(st.integers(0, 4), max_size=4))
def test_pivot_columns_match_greedy_rank_loop(m, repeats):
    # repeated and zero columns make dependent vectors
    F = m.field
    cols = m.columns()
    vectors = [[F.zero] * m.rows] + cols + [cols[i % len(cols)] for i in repeats]
    assert (linalg.pivot_columns(F, vectors, m.rows)
            == _greedy_independent(F, vectors, m.rows))


def test_inverse_exact():
    m = Matrix.from_rows(QQ, [[Fraction(1), Fraction(2)],
                              [Fraction(3), Fraction(5)]])
    inv = linalg.inverse(m)
    assert m.mul(inv) == Matrix.identity(QQ, 2)
    assert inv.mul(m) == Matrix.identity(QQ, 2)


def test_singular_matrix_not_invertible():
    m = Matrix.from_rows(F5, [[1, 2], [2, 4]])
    assert not linalg.is_invertible(m)
    assert linalg.solve(m, [1, 0]) is None


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
        Matrix(QQ, 2, 2, [Fraction(1)] * 3)
