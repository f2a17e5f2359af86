"""Exact scalar fields: the rationals and prime fields GF(p).

A rational scalar is canonical: an integral value is a Python int, any other
value a `fractions.Fraction` in lowest terms with denominator > 1.  Each value
has one form, so equality and hashing are structural, and the integral
values, nearly all of them in practice, take int arithmetic.  GF(p) scalars
are plain ints in [0, p).  Of the arithmetic operations only FieldSpec.inv
divides.  No floating point anywhere.
"""

from fractions import Fraction

from .errors import StratakitError

# The parser refuses GF(p) for p at or above this bound: primality is tested
# by trial division and Berlekamp's algorithm takes one gcd per element of
# GF(p), so both grow with p.
MAX_PRIME = 2 ** 16


def _q(x):
    """The canonical form of the rational x: an int when x is integral."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FieldSpec:
    """Exact field: either the rationals or GF(p).

    Provides the scalar operations; elements are canonical rationals (int,
    or Fraction with denominator > 1) or canonical int residues (prime
    fields).  Every operation returns a canonical element.
    """

    def __init__(self, p=None):
        if p is not None and not _is_prime(p):
            raise StratakitError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1

    @property
    def is_rational(self):
        return self.p is None

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self):
        return hash(("FieldSpec", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"GF({self.p})"

    # -- element constructors ------------------------------------------------

    def of(self, n, d=1):
        if d == 1:
            return _q(n) if self.p is None else n % self.p
        if self.p is None:
            return _q(Fraction(n, d))
        if d % self.p == 0:
            raise ZeroDivisionError("denominator divisible by p")
        return n * pow(d, -1, self.p) % self.p

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return _q(a + b) if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return _q(a - b) if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return _q(a * b) if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return _q(1 / Fraction(a))
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a == 0

    def parse_scalar(self, text):
        """Parse '3', '-2' or '3/4' into a canonical scalar."""
        text = text.strip()
        if "/" in text:
            n, d = text.split("/", 1)
            return self.of(int(n), int(d))
        return self.of(int(text))

    def format_scalar(self, a):
        return str(a)


QQ = FieldSpec()


def GF(p):
    return FieldSpec(p)
