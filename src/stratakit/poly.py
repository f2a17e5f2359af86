"""Polynomials over k: ascending coefficient lists with no trailing zeros.

The one entry point is _factor, which splits a monic polynomial into its
monic irreducible factors with multiplicities: over GF(p) by Berlekamp's
algorithm, over Q by Zassenhaus's, from a factorisation modulo a small
prime lifted by Hensel's lemma.  reps factors minimal polynomials of
endomorphisms with it to split modules by Fitting's lemma.
"""

import operator
from itertools import combinations, count
from math import isqrt, lcm
from types import SimpleNamespace

from . import linalg
from .fields import GF, QQ, _is_prime
from .linalg import Matrix


def _trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mul(F, f, g):
    out = [F.zero] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return out


def _poly_divmod(F, f, g):
    """Quotient and remainder of f by the nonzero g."""
    f = list(f)
    inv = F.inv(g[-1])
    q = [F.zero] * max(len(f) - len(g) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = F.mul(f[i + len(g) - 1], inv)
        for j, b in enumerate(g):
            f[i + j] = F.sub(f[i + j], F.mul(c, b))
    return q, _trim(f[:len(g) - 1])


def _poly_gcd(F, f, g):
    """The monic gcd of f and g, not both zero."""
    while g:
        f, g = g, _poly_divmod(F, f, g)[1]
    inv = F.inv(f[-1])
    return [F.mul(c, inv) for c in f]


def _poly_powmod(F, f, e, g):
    """f^e modulo g."""
    out = [F.one]
    while e:
        if e & 1:
            out = _poly_divmod(F, _poly_mul(F, out, f), g)[1]
        f = _poly_divmod(F, _poly_mul(F, f, f), g)[1]
        e >>= 1
    return out


def _squarefree_part(F, f):
    """The product of the distinct monic irreducible factors of the monic f.

    w = f / gcd(f, f') keeps the factors whose multiplicity the
    characteristic does not divide.  Over GF(p), what is left of gcd(f, f')
    once the factors of w are divided out has every multiplicity divisible
    by p, so it is a polynomial in x^p: the p-th power of the polynomial
    with the same coefficients."""
    if len(f) == 1:
        return f
    df = _trim(F.mul(F.of(i), c) for i, c in enumerate(f))[1:]
    if not df:
        return _squarefree_part(F, f[::F.p])
    g = _poly_gcd(F, f, df)
    w = _poly_divmod(F, f, g)[0]
    while len(h := _poly_gcd(F, g, w)) > 1:
        g = _poly_divmod(F, g, h)[0]
    return _poly_mul(F, w, _squarefree_part(F, g[::F.p])) if len(g) > 1 else w


def _poly_add(F, f, g):
    if len(f) < len(g):
        f, g = g, f
    return _trim([F.add(a, g[i]) if i < len(g) else a for i, a in enumerate(f)])


def _mod(f, p):
    return _trim(c % p for c in f)


# Z with the operations _poly_mul, _poly_add and _poly_divmod use; over Z
# they divide only by monic polynomials, and 1 and -1 are their own inverses
_ZZ = SimpleNamespace(zero=0, add=operator.add, sub=operator.sub,
                      mul=operator.mul, inv=lambda unit: unit)


def _berlekamp(F, f):
    """The monic irreducible factors of the monic squarefree f over GF(p).

    The v of degree below deg f with v^p = v modulo f are the polynomials
    that are constant modulo each irreducible factor, so they form a space
    whose dimension is the number of factors (Berlekamp).  For every two
    factors some basis element v is a different constant modulo each, so
    replacing each factor found so far by its gcds with v - s, s in GF(p),
    for every basis element v separates all of them."""
    n = len(f) - 1
    xp = _poly_powmod(F, [0, 1], F.p, f)
    power, cols = [F.one], []
    for i in range(n):
        # column i: x^(i p) - x^i modulo f
        col = power + [F.zero] * (n - len(power))
        col[i] = F.sub(col[i], F.one)
        cols.append(col)
        power = _poly_divmod(F, _poly_mul(F, power, xp), f)[1]
    basis = linalg.kernel_basis(Matrix.from_columns(F, cols, rows=n))
    factors = [f]
    for v in basis:
        if len(factors) == len(basis):
            break
        factors = [h for g in factors for s in range(F.p) if len(
            h := _poly_gcd(F, g, _trim([F.sub(v[0], s)] + v[1:]))) > 1]
    return factors


def _hensel_lift(q, factors, p, mod):
    """The monic lifts modulo mod, a power of p, of the irreducible monic
    factors modulo p of the monic q over Z, which is squarefree modulo p.

    Each factor g is lifted against the product h of the later ones, one
    p-adic digit at a time.  With t = h^-1 modulo g, the next digit
    e = (q - g h) / p^i modulo p is a h + b g for a = e t modulo g, and
    g + p^i a, h + p^i b agree with q one digit further.  The lift of h is
    then split in the same way."""
    F = GF(p)
    out = []
    for i, g in enumerate(factors[:-1]):
        h = [F.one]
        for later in factors[i + 1:]:
            h = _poly_mul(F, h, later)
        # g is irreducible, so k[x]/g is the field with p^deg(g) elements
        t = _poly_powmod(F, _poly_divmod(F, h, g)[1], p ** (len(g) - 1) - 2, g)
        digit = p
        while digit < mod:
            gh = _poly_mul(_ZZ, g, h)
            e = _mod([(c - d) // digit for c, d in zip(q, gh)], p)
            a = _poly_divmod(F, _poly_mul(F, e, t), g)[1]
            ah = [F.neg(c) for c in _poly_mul(F, a, h)]
            b = _poly_divmod(F, _poly_add(F, e, ah), g)[0]
            g = _poly_add(_ZZ, g, [digit * c for c in a])
            h = _poly_add(_ZZ, h, [digit * c for c in b])
            digit *= p
        out.append(g)
        q = h
    return out + [q]


def _factor_rational(f):
    """The monic irreducible factors over Q of the monic squarefree f.

    With d the common denominator of the coefficients, q(y) = d^n f(y/d) is
    monic over Z, and G(x) = d^-m g(dx) turns its monic factors g of degree
    m into those of f.  q is factored modulo the least prime p that keeps it
    squarefree, and the factors are lifted modulo p^k > 2B, where B =
    2^n |q|_2 bounds the coefficients of every factor of q over Z
    (Mignotte).  Products of lifted factors, fewest first, taken as
    symmetric residues, are then tried as divisors of q (Zassenhaus)."""
    n = len(f) - 1
    d = lcm(*(c.denominator for c in f))
    q = [int(c * d ** (n - i)) for i, c in enumerate(f)]
    dq = [i * c for i, c in enumerate(q)][1:]
    p = next(p for p in count(2) if _is_prime(p) and len(
        _poly_gcd(GF(p), _mod(q, p), _mod(dq, p))) == 1)
    mod, bound = p, 2 ** (n + 1) * (isqrt(sum(c * c for c in q)) + 1)
    while mod <= bound:
        mod *= p
    lifted = _hensel_lift(q, _berlekamp(GF(p), _mod(q, p)), p, mod)
    factors, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = [1]
            for i in subset:
                g = [c % mod for c in _poly_mul(_ZZ, g, lifted[i])]
            g = [(c + mod // 2) % mod - mod // 2 for c in g]
            quotient, rest = _poly_divmod(_ZZ, q, g)
            if not rest:
                factors.append(g)
                q = quotient
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return [[QQ.of(c, d ** (len(g) - 1 - i)) for i, c in enumerate(g)]
            for g in factors + [q]]


def _factor(F, f):
    """The monic irreducible factors of the monic f over k, with their
    multiplicities: [(g, mult)].

    The order fixes the order of the summands that decompose_with_inclusions
    returns: by degree, then by multiplicity, then by the coefficients of g
    from the top, over GF(p) as residues 0, ..., p-1 and over Q those of the
    primitive integer multiple of g."""
    sqf = _squarefree_part(F, f)
    if len(sqf) <= 2:
        irreducibles = [sqf] if len(sqf) == 2 else []
    elif F.is_rational:
        irreducibles = _factor_rational(sqf)
    else:
        irreducibles = _berlekamp(F, sqf)
    out = []
    for g in irreducibles:
        mult = 0
        while not (qr := _poly_divmod(F, f, g))[1]:
            f, mult = qr[0], mult + 1
        out.append((g, mult))

    def top_first(g):
        if not F.is_rational:
            return g[::-1]
        # d g is primitive for d the least common denominator of monic g
        d = lcm(*(c.denominator for c in g))
        return [int(c * d) for c in reversed(g)]

    out.sort(key=lambda gm: (len(gm[0]), gm[1], top_first(gm[0])))
    return out
