"""Factoring minimal polynomials over k, against brute force.

`poly._factor` splits a monic polynomial into monic irreducible factors with
multiplicities, by Berlekamp's algorithm over GF(p) and by Zassenhaus's over
Q.  `tilting._local_scalar` finds the scalar c with f - c*id nilpotent.  Over
GF(p) every element is evaluated and small degrees are checked by trial
division; over Q the polynomials are built from known irreducible factors.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratakit import linalg, poly, reps
from stratakit.fields import GF, QQ
from stratakit.linalg import Matrix
from stratakit.tilting import _local_scalar

PRIMES = (2, 3, 5, 101)


def _product(F, factors):
    out = [F.one]
    for f in factors:
        out = poly._poly_mul(F, out, f)
    return out


def _expand(F, factors):
    return _product(F, [g for g, mult in factors for _ in range(mult)])


def _linear_power(F, c, e):
    return _product(F, [[F.neg(c), F.one]] * e)


def _eval(F, f, c):
    acc = F.zero
    for a in reversed(f):
        acc = F.add(F.mul(acc, c), a)
    return acc


def _monic(F, degree):
    """Every monic polynomial of the given degree over GF(p)."""
    for low in product(range(F.p), repeat=degree):
        yield list(low) + [F.one]


def _is_irreducible(F, g):
    """Trial division by every monic polynomial of degree up to deg(g) / 2."""
    return all(poly._poly_divmod(F, g, h)[1]
               for d in range(1, (len(g) - 1) // 2 + 1) for h in _monic(F, d))


@st.composite
def gf_polys(draw):
    """A monic polynomial over GF(p): a product of powers of random monic
    factors of degree 1 to 3, multiplicities up to p + 1."""
    F = GF(draw(st.sampled_from(PRIMES)))
    scalars = st.integers(min_value=0, max_value=F.p - 1)
    factors = draw(st.lists(st.tuples(
        st.lists(scalars, min_size=1, max_size=3),
        st.integers(min_value=1, max_value=min(F.p + 1, 4))), max_size=4))
    return F, _product(F, [low + [F.one] for low, e in factors
                           for _ in range(e)])


@settings(max_examples=200)
@given(gf_polys())
def test_gf_factors_match_evaluation_at_every_element(case):
    F, f = case
    factors = poly._factor(F, f)
    assert _expand(F, factors) == f
    assert len({tuple(g) for g, _ in factors}) == len(factors)
    roots = [F.neg(g[0]) for g, _ in factors if len(g) == 2]
    assert sorted(roots) == [c for c in range(F.p) if _eval(F, f, c) == 0]
    # the random factors have degree at most 3, so a factor of degree 2 or
    # 3 is irreducible iff it has no root
    for g, _ in factors:
        assert 2 <= len(g) <= 4
        assert all(_eval(F, g, c) != 0 for c in range(F.p)) or len(g) == 2


@pytest.mark.parametrize("p", [2, 3])
def test_gf_quartics_factor_into_irreducibles(p):
    F = GF(p)
    irreducible = 0
    for f in _monic(F, 4):
        factors = poly._factor(F, f)
        assert _expand(F, factors) == f
        assert all(_is_irreducible(F, g) for g, _ in factors)
        irreducible += factors == [(f, 1)]
        assert (factors == [(f, 1)]) == _is_irreducible(F, f)
    # the number of monic irreducible quartics: (p^4 - p^2) / 4
    assert irreducible == (p ** 4 - p ** 2) // 4


@settings(max_examples=200)
@given(gf_polys())
def test_gf_squarefree_part_keeps_each_factor_once(case):
    F, f = case
    sqf = poly._squarefree_part(F, f)
    # sqf divides f, f divides a power of sqf, and sqf has no repeated factor
    assert poly._poly_divmod(F, f, sqf)[1] == []
    assert poly._poly_powmod(F, sqf, len(f), f) == []
    deriv = poly._trim(F.mul(F.of(i), c) for i, c in enumerate(sqf))[1:]
    assert poly._poly_gcd(F, sqf, deriv) == [F.one]


def _has_rational_root(f):
    """Brute-force rational-root test for a monic polynomial over Z."""
    n = abs(f[0])
    if n == 0:
        return True
    divisors = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    divisors += [n // d for d in divisors]
    return any(_eval(QQ, f, s * d) == 0 for d in divisors for s in (1, -1))


@st.composite
def rootless(draw):
    """A monic quadratic or cubic over Z with no rational root, so
    irreducible over Q."""
    low = draw(st.lists(st.integers(min_value=-6, max_value=6),
                        min_size=2, max_size=3).filter(
        lambda low: not _has_rational_root(low + [1])))
    return [QQ.of(c) for c in low] + [QQ.one]


@settings(max_examples=200)
@given(st.dictionaries(st.fractions(min_value=-6, max_value=6,
                                    max_denominator=5).map(QQ.of),
                       st.integers(min_value=1, max_value=3), max_size=4),
       st.lists(rootless(), max_size=3),
       st.fractions(min_value=-3, max_value=3, max_denominator=3).map(QQ.of))
def test_rational_factors_of_products(roots, extra, shift):
    # the rootless factors are shifted to x -> x - shift, which keeps them
    # irreducible and gives them non-integer coefficients
    F = QQ
    shifted = []
    for g in extra:
        h = [F.zero]
        for c in reversed(g):
            h = poly._poly_mul(F, h, [F.neg(shift), F.one])
            h[0] = F.add(h[0], c)
        shifted.append(tuple(poly._trim(h)))
    expected = Counter(shifted)
    expected.update({(F.neg(c), F.one): e for c, e in roots.items()})
    f = _expand(F, [(list(g), e) for g, e in expected.items()])
    factors = poly._factor(F, f)
    assert {tuple(g): e for g, e in factors} == expected
    _assert_canonical(factors)


def _q(*coeffs):
    return [QQ.of(c) for c in coeffs]


def _assert_canonical(factors):
    """Coefficients over Q are ints, or Fractions with denominator > 1."""
    for g, _ in factors:
        for c in g:
            assert type(c) is int or (type(c) is Fraction
                                      and c.denominator > 1), repr(c)


@pytest.mark.parametrize("f, expected", [
    # x^4 - 10x^2 + 1 is irreducible over Q but splits modulo every prime
    (_q(1, 0, -10, 0, 1), [_q(1, 0, -10, 0, 1)]),
    (_q(-2, 0, 0, 0, 1), [_q(-2, 0, 0, 0, 1)]),
    (_q(6, 0, -5, 0, 1), [_q(-3, 0, 1), _q(-2, 0, 1)]),
    # x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2)
    (_q(4, 0, 0, 0, 1), [_q(2, -2, 1), _q(2, 2, 1)]),
    (_q(576, 0, -960, 0, 352, 0, -40, 0, 1),
     [_q(576, 0, -960, 0, 352, 0, -40, 0, 1)]),
    (_q(-1, 0, 0, 0, 0, 0, 1),
     [_q(-1, 1), _q(1, 1), _q(1, -1, 1), _q(1, 1, 1)]),
])
def test_rational_factors_of_degree_four_and_more(f, expected):
    factors = poly._factor(QQ, f)
    assert factors == [(g, 1) for g in expected]
    _assert_canonical(factors)


def test_rational_factors_with_large_coefficients():
    F = QQ
    big = QQ.of(10 ** 30 + 7, 3)
    f = _product(F, [[F.neg(big), F.one], _q(-2, 0, 1),
                     [QQ.of(1, 10 ** 12), F.one]])
    # 3x - (10^30 + 7) comes before 10^12 x + 1
    factors = poly._factor(F, f)
    assert factors == [([F.neg(big), F.one], 1),
                       ([QQ.of(1, 10 ** 12), F.one], 1), (_q(-2, 0, 1), 1)]
    _assert_canonical(factors)


@st.composite
def local_matrices(draw):
    """(field, c, c*I + N) with N strictly upper triangular, conjugated by a
    unipotent lower triangular matrix."""
    F = draw(st.sampled_from([QQ] + [GF(p) for p in PRIMES]))
    n = draw(st.integers(min_value=1, max_value=5))
    ints = st.integers(min_value=-3, max_value=3)
    c = F.of(draw(ints))
    m = Matrix.identity(F, n).scale(c)
    upper = Matrix(F, n, n, [F.of(draw(ints)) if j > i else F.zero
                             for i in range(n) for j in range(n)])
    lower = Matrix(F, n, n, [F.of(draw(ints)) if j < i else F.one if i == j
                             else F.zero for i in range(n) for j in range(n)])
    return F, c, lower.mul(m.add(upper)).mul(linalg.inverse(lower))


@settings(max_examples=200)
@given(local_matrices())
def test_local_scalar_of_scalar_plus_nilpotent(case):
    F, c, m = case
    assert _local_scalar(F, m) == c


@settings(max_examples=200)
@given(st.sampled_from([QQ] + [GF(p) for p in PRIMES]),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=3))
def test_local_scalar_rejects_two_eigenvalues(F, c, gap, extra):
    # diag(c, ..., c, c + gap) has two distinct eigenvalues unless p | gap
    n = extra + 2
    entries = [F.of(c) if i == j else F.zero for i in range(n) for j in range(n)]
    entries[-1] = F.of(c + gap)
    m = Matrix(F, n, n, entries)
    expected = F.of(c) if F.is_zero(F.of(gap)) else None
    assert _local_scalar(F, m) == expected


def test_local_scalar_rejects_eigenvalues_outside_k():
    # x^2 + 1 has no root in Q or GF(3); x^2 + x + 1 none in GF(2) or GF(5)
    for F, low in ((QQ, [1, 0]), (GF(3), [1, 0]), (GF(2), [1, 1]),
                   (GF(5), [1, 1])):
        companion = Matrix.from_rows(F, [[0, F.neg(F.of(low[0]))],
                                         [1, F.neg(F.of(low[1]))]])
        assert _local_scalar(F, companion) is None
    # (x^2 + x + 1)^2 over GF(2): degree 4 is even, no root in GF(2)
    F = GF(2)
    block = Matrix.from_rows(F, [[0, 0, 0, 1], [1, 0, 0, 0],
                                 [0, 1, 0, 1], [0, 0, 1, 0]])
    assert reps.minimal_polynomial(F, block) == [1, 0, 1, 0, 1]
    assert _local_scalar(F, block) is None


def test_factor_order():
    # the order of the factors fixes the order of the summands of a split:
    # by degree, then multiplicity, then the coefficients from the top
    F = GF(5)
    factors = [([0, 1], 1), ([1, 1], 1), ([4, 1], 1), ([3, 1], 2),
               ([2, 0, 1], 1), ([1, 1, 1], 1)]
    assert poly._factor(F, _expand(F, factors[::-1])) == factors
    F = QQ
    factors = [(_q(-2, 1), 1), (_q(0, 1), 1), (_q(1, 1), 1),
               ([QQ.of(-1, 2), F.one], 1), (_q(-3, 1), 2),
               ([QQ.of(1, 2), F.zero, F.one], 1), (_q(-2, 0, 1), 2)]
    got = poly._factor(F, _expand(F, factors[::-1]))
    assert got == factors
    _assert_canonical(got)
