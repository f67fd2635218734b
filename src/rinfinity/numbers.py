"""Exact arithmetic in Q and Q(sqrt5), plus the additive/multiplicative
subgroups of R that the piecewise-linear groups are built from.

Every value is an element a + b*t of Q(sqrt5), where t = (sqrt(5)-1)/2 is
the small golden ratio, subject to t**2 = 1 - t.  Both fields are always
Fractions (ints are widened, floats refused), and the rational numbers are
exactly the values with b == 0.  When both operands are rational, every
operator works on a alone, so maps over Q never touch the sqrt5
coordinate.  Otherwise sums, differences, products, inverses and
quotients run one integer kernel over the numerators and denominators of
the fields, build each result field with a single Fraction and skip the
field check of the public constructor; signs and comparisons reduce to
the sign of an integer combination u + v*sqrt5, decided by integer
squaring without building a difference.  No floating point is used
anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from operator import index

from . import ParseError, _Value, _construct, _parse_part, _parts


def _exact_field(value) -> Fraction:
    """A field of ExactNumber as a Fraction: ints are widened, anything
    inexact (a float, a Decimal) is refused."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"ExactNumber fields must be int or Fraction, not {type(value).__name__}")


def _sqrt5_combination_sign(u: int, v: int) -> int:
    """Exact sign of u + v*sqrt(5) for integers u, v, by squaring with a
    four-way case split.  Every irrational sign and comparison ends here."""
    if v == 0:
        return (u > 0) - (u < 0)
    if u == 0:
        return (v > 0) - (v < 0)
    if u > 0 and v > 0:
        return 1
    if u < 0 and v < 0:
        return -1
    # Opposite signs: compare u**2 with 5*v**2.
    d = u * u - 5 * v * v
    s = (d > 0) - (d < 0)
    return s if u > 0 else -s


def _difference_sign(x: ExactNumber, y: ExactNumber) -> int:
    """Sign of x - y without building it: over the positive denominator
    D = d1*d2*e1*e2 of the fields, D*(x - y) = A + B*t, and
    2*(A + B*t) = (2A - B) + B*sqrt5."""
    n1, d1 = x.a.numerator, x.a.denominator
    m1, e1 = x.b.numerator, x.b.denominator
    n2, d2 = y.a.numerator, y.a.denominator
    m2, e2 = y.b.numerator, y.b.denominator
    a = (n1 * d2 - n2 * d1) * e1 * e2
    b = (m1 * e2 - m2 * e1) * d1 * d2
    return _sqrt5_combination_sign(2 * a - b, b)


def _field_sum(x: Fraction, y: Fraction) -> Fraction:
    """x + y over the common denominator d1*d2, or over d when both
    denominators are d."""
    d1, d2 = x.denominator, y.denominator
    if d1 == d2:
        return Fraction(x.numerator + y.numerator, d1)
    return Fraction(x.numerator * d2 + y.numerator * d1, d1 * d2)


def _field_difference(x: Fraction, y: Fraction) -> Fraction:
    """x - y over the common denominator d1*d2, or over d when both
    denominators are d."""
    d1, d2 = x.denominator, y.denominator
    if d1 == d2:
        return Fraction(x.numerator - y.numerator, d1)
    return Fraction(x.numerator * d2 - y.numerator * d1, d1 * d2)


def _from_fields(a: Fraction, b: Fraction) -> ExactNumber:
    """a + b*t from fields that are Fractions already, without the field
    check of the public constructor."""
    x = object.__new__(ExactNumber)
    object.__setattr__(x, "a", a)
    object.__setattr__(x, "b", b)
    return x


def _scaled_inverse(x: ExactNumber) -> tuple[int, int, int]:
    """Integers (p, q, norm) with 1/x = (p + q t)/norm: the conjugate
    (a - b) - b t over the norm a^2 - a b - b^2, both scaled by d^2 e^2 for
    a = n/d, b = m/e.  The norm is 0 only for x = 0."""
    n, d = x.a.numerator, x.a.denominator
    m, e = x.b.numerator, x.b.denominator
    de = d * e
    return (n * e - m * d) * de, -m * d * de, n * n * e * e - n * m * de - m * m * d * d


class ExactNumber(_Value):
    """Element a + b*t of Q(sqrt5), with t = (sqrt(5)-1)/2, so t*t = 1 - t."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction = Fraction(0)) -> None:
        if type(a) is not Fraction or type(b) is not Fraction:
            a, b = _exact_field(a), _exact_field(b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @staticmethod
    def of(value) -> ExactNumber:
        if isinstance(value, ExactNumber):
            return value
        if isinstance(value, (int, Fraction)):
            return ExactNumber(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} to ExactNumber")

    @staticmethod
    def rational(num, den=1) -> ExactNumber:
        return ExactNumber(Fraction(num, den))

    @staticmethod
    def quadratic(a, b) -> ExactNumber:
        return ExactNumber(Fraction(a), Fraction(b))

    @property
    def is_rational(self) -> bool:
        return not self.b

    def __add__(self, other) -> ExactNumber:
        o = other if type(other) is ExactNumber else ExactNumber.of(other)
        if not self.b and not o.b:
            return ExactNumber(self.a + o.a)
        return _from_fields(_field_sum(self.a, o.a), _field_sum(self.b, o.b))

    __radd__ = __add__

    def __neg__(self) -> ExactNumber:
        if not self.b:
            return ExactNumber(-self.a)
        return _from_fields(-self.a, -self.b)

    def __sub__(self, other) -> ExactNumber:
        o = other if type(other) is ExactNumber else ExactNumber.of(other)
        if not self.b and not o.b:
            return ExactNumber(self.a - o.a)
        return _from_fields(_field_difference(self.a, o.a), _field_difference(self.b, o.b))

    def __rsub__(self, other) -> ExactNumber:
        return ExactNumber.of(other) - self

    def __mul__(self, other) -> ExactNumber:
        o = other if type(other) is ExactNumber else ExactNumber.of(other)
        if not self.b and not o.b:
            return ExactNumber(self.a * o.a)
        # (a1 + b1 t)(a2 + b2 t) = (a1 a2 + b1 b2) + (a1 b2 + b1 a2 - b1 b2) t
        # with t^2 = 1 - t, over the common denominator d1 d2 e1 e2.
        n1, d1 = self.a.numerator, self.a.denominator
        m1, e1 = self.b.numerator, self.b.denominator
        n2, d2 = o.a.numerator, o.a.denominator
        m2, e2 = o.b.numerator, o.b.denominator
        sq = m1 * m2 * d1 * d2
        den = d1 * d2 * e1 * e2
        return _from_fields(
            Fraction(n1 * n2 * e1 * e2 + sq, den),
            Fraction(n1 * m2 * e1 * d2 + m1 * n2 * d1 * e2 - sq, den),
        )

    __rmul__ = __mul__

    def inverse(self) -> ExactNumber:
        if not self.b:
            if not self.a:
                raise ZeroDivisionError("division by zero")
            return ExactNumber(Fraction(self.a.denominator, self.a.numerator))
        p, q, norm = _scaled_inverse(self)
        return _from_fields(Fraction(p, norm), Fraction(q, norm))

    def __truediv__(self, other) -> ExactNumber:
        o = other if type(other) is ExactNumber else ExactNumber.of(other)
        if not self.b and not o.b:
            if not o.a:
                raise ZeroDivisionError("division by zero")
            return ExactNumber(self.a / o.a)
        p, q, norm = _scaled_inverse(o)
        if not norm:
            raise ZeroDivisionError("division by zero")
        # (a1 + b1 t)(p + q t) = (a1 p + b1 q) + (a1 q + b1 (p - q)) t,
        # over the denominator d1 e1 norm for a1 = n1/d1, b1 = m1/e1.
        n1, d1 = self.a.numerator, self.a.denominator
        m1, e1 = self.b.numerator, self.b.denominator
        ne, md = n1 * e1, m1 * d1
        den = d1 * e1 * norm
        return _from_fields(Fraction(ne * p + md * q, den), Fraction(ne * q + md * (p - q), den))

    def __rtruediv__(self, other) -> ExactNumber:
        return ExactNumber.of(other) / self

    def __pow__(self, k: int) -> ExactNumber:
        k = index(k)  # a float or Fraction exponent raises TypeError
        if k < 0:
            return self.inverse() ** (-k)
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def sign(self) -> int:
        n = self.a.numerator
        if not self.b:
            return (n > 0) - (n < 0)
        # a + b t = ((2a - b) + b*sqrt5) / 2, scaled by d e for a = n/d, b = m/e
        d = self.a.denominator
        m, e = self.b.numerator, self.b.denominator
        return _sqrt5_combination_sign(2 * n * e - m * d, m * d)

    def __lt__(self, other) -> bool:
        o = other if type(other) is ExactNumber else ExactNumber.of(other)
        if not self.b and not o.b:
            return self.a < o.a
        return _difference_sign(self, o) < 0

    def __le__(self, other) -> bool:
        o = other if type(other) is ExactNumber else ExactNumber.of(other)
        if not self.b and not o.b:
            return self.a <= o.a
        return _difference_sign(self, o) <= 0

    def __gt__(self, other) -> bool:
        o = other if type(other) is ExactNumber else ExactNumber.of(other)
        if not self.b and not o.b:
            return self.a > o.a
        return _difference_sign(self, o) > 0

    def __ge__(self, other) -> bool:
        o = other if type(other) is ExactNumber else ExactNumber.of(other)
        if not self.b and not o.b:
            return self.a >= o.a
        return _difference_sign(self, o) >= 0

    def __eq__(self, other) -> bool:
        if type(other) is not ExactNumber:
            if not isinstance(other, (int, Fraction, ExactNumber)):
                return NotImplemented
            other = ExactNumber.of(other)
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __str__(self) -> str:
        return format_number(self)

    def __repr__(self) -> str:
        return f"ExactNumber({self.a!r}, {self.b!r})"


ZERO = ExactNumber.rational(0)
ONE = ExactNumber.rational(1)
TAU = ExactNumber.quadratic(0, 1)


def _format_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_number(x: ExactNumber) -> str:
    """Canonical literal: `a/b` for rationals, `a+b*t` / `a-b*t` otherwise."""
    if x.b == 0:
        return _format_fraction(x.a)
    sign = "+" if x.b > 0 else "-"
    return f"{_format_fraction(x.a)}{sign}{_format_fraction(abs(x.b))}*t"


_RAT = r"-?\d+(?:/\d+)?"
_NUMBER_RE = re.compile(rf"^\s*({_RAT})\s*(?:([+-])\s*({_RAT})\s*\*\s*t)?\s*$")


def parse_number(text: str) -> ExactNumber:
    """Parse a number literal: `a/b`, bare integer, or `a+b*t` / `a-b*t`."""
    m = _NUMBER_RE.match(text)
    if not m:
        stripped = text.strip()
        bad = len(text) - len(text.lstrip())
        for i, ch in enumerate(stripped):
            if ch not in "0123456789/+-* t":
                bad = text.index(stripped) + i if stripped else 0
                break
        raise ParseError("invalid number literal", text, bad)
    a = _literal_fraction(text, m, 1)
    if m.group(2) is None:
        return ExactNumber(a)
    b = _literal_fraction(text, m, 3)
    if m.group(2) == "-":
        b = -b
    return ExactNumber(a, b)


def _literal_fraction(text: str, m: re.Match, group: int) -> Fraction:
    num, slash, den = m.group(group).partition("/")
    if slash and int(den) == 0:
        raise ParseError("zero denominator", text, m.start(group) + len(num) + 1)
    return Fraction(int(num), int(den) if slash else 1)


class NonMember(ValueError):
    """A value was asked to factor over a group it does not belong to."""


class AdditiveGroup(_Value):
    """Additive subgroup of R: Z[1/n], Z[t], or all of Q.

    kind is one of 'zinv' (denominators divide a power of n), 'ztau'
    (integer coordinates in the (1, t) basis), 'rational'.
    """

    __slots__ = ("kind", "n")

    def __init__(self, kind: str, n: int | None = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        if self.kind not in ("zinv", "ztau", "rational"):
            raise ValueError(f"unknown additive group kind {self.kind!r}")
        if self.kind == "zinv" and (self.n is None or self.n < 2):
            raise ValueError("Z[1/n] requires n >= 2")

    @staticmethod
    def z_inv(n: int) -> AdditiveGroup:
        return AdditiveGroup("zinv", n)

    @staticmethod
    def z_tau() -> AdditiveGroup:
        return AdditiveGroup("ztau")

    @staticmethod
    def rationals() -> AdditiveGroup:
        return AdditiveGroup("rational")

    def contains(self, x: ExactNumber) -> bool:
        if self.kind == "rational":
            return x.is_rational
        if self.kind == "zinv":
            if not x.is_rational:
                return False
            # d divides a power of n iff it divides n^k for k >= every
            # prime exponent of d, and bit_length bounds those.
            d = x.a.denominator
            assert self.n is not None
            return pow(self.n, d.bit_length(), d) == 0
        return x.a.denominator == 1 and x.b.denominator == 1

    def __str__(self) -> str:
        if self.kind == "zinv":
            return f"Z[1/{self.n}]"
        return "Z[t]" if self.kind == "ztau" else "Q"


def _prime_factors(m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _rational_exponents(q: Fraction, primes: list[int]) -> list[int] | None:
    """Exponent vector of q over the given primes, or None if q is not
    supported on them."""
    out = []
    num, den = q.numerator, q.denominator
    for p in primes:
        num, e_num = _strip(num, p)
        den, e_den = _strip(den, p)
        out.append(e_num - e_den)
    if num != 1 or den != 1:
        return None
    return out


def _strip(n: int, p: int) -> tuple[int, int]:
    """(n / p^e, e) for the largest e with p^e dividing n.  Dividing by p,
    p^2, p^4, ... and then by the same powers in reverse reads e in binary,
    so the number of divisions grows with log e, not with e."""
    powers: list[int] = []
    q = p
    while n % q == 0:
        n //= q
        powers.append(q)
        q *= q
    e = (1 << len(powers)) - 1
    for k in reversed(range(len(powers))):
        if n % powers[k] == 0:
            n //= powers[k]
            e += 1 << k
    return n, e


class SlopeGroup(_Value):
    """Finitely generated multiplicative subgroup of the positive reals.

    Generators must be > 0, != 1, and multiplicatively independent, so
    that factor() has at most one answer; for two or more rational
    generators the exponent matrix is checked to have full column rank.
    factor() covers the cases needed here: all-rational generator sets via
    smooth factorization, and single-generator sets via exact division by
    repeated squares of the generator.  It refuses mixed quadratic sets of
    two or more generators, whose independence is not checked.
    """

    __slots__ = ("generators", "__dict__")

    def __init__(self, generators: tuple[ExactNumber, ...]) -> None:
        if type(generators) is not tuple:
            raise TypeError("SlopeGroup takes a tuple of ExactNumbers; SlopeGroup.of converts other values")
        object.__setattr__(self, "generators", generators)
        if not self.generators:
            raise ValueError("slope group needs at least one generator")
        for g in self.generators:
            if g.sign() <= 0 or g == ONE:
                raise ValueError(f"generator {g} must be positive and != 1")
        if self.rank > 1 and all(g.is_rational for g in self.generators):
            if self._exponent_lattice[1].rank < self.rank:
                raise ValueError(f"generators of {self} are not multiplicatively independent")

    @staticmethod
    def of(*gens) -> SlopeGroup:
        return SlopeGroup(tuple(ExactNumber.of(g) for g in gens))

    @property
    def rank(self) -> int:
        return len(self.generators)

    @cached_property
    def _exponent_lattice(self):
        """The primes of the (rational) generators and the Smith
        decomposition of their exponent matrix, one column per generator."""
        from .intlinalg import IntMatrix, smith_normal_form

        primes: set[int] = set()
        for g in self.generators:
            primes |= set(_prime_factors(g.a.numerator))
            primes |= set(_prime_factors(g.a.denominator))
        plist = sorted(primes)
        cols = [_rational_exponents(g.a, plist) for g in self.generators]
        return plist, smith_normal_form(IntMatrix.from_columns(cols))

    def _factor_rational(self, x: ExactNumber) -> tuple[int, ...]:
        primes, snf = self._exponent_lattice
        target = _rational_exponents(x.a, primes)
        if target is None:
            raise NonMember(f"{x} is not supported on the primes of {self}")
        # The solution, if any, is unique because the generators are
        # independent.
        sol = snf.solve(target)
        if sol is None:
            raise NonMember(f"{x} is not in {self}")
        return sol

    def _factor_single(self, x: ExactNumber) -> tuple[int, ...]:
        g = self.generators[0]
        g_up, x_up = g > ONE, x >= ONE
        base = g if g_up else g.inverse()
        # With base > 1 and y = x or 1/x >= 1, read the exponent of base in
        # y in binary, as _strip does for a prime: divide by base, base^2,
        # base^4, ... and then by the same powers in reverse.
        y = x if x_up else x.inverse()
        powers: list[ExactNumber] = []
        q = base
        while y >= q:
            y = y / q
            powers.append(q)
            q = q * q
        e = (1 << len(powers)) - 1
        for k in reversed(range(len(powers))):
            if y >= powers[k]:
                y = y / powers[k]
                e += 1 << k
        if y != ONE:
            raise NonMember(f"{x} is not a power of {g}")
        return (e if x_up == g_up else -e,)

    def factor(self, x: ExactNumber) -> tuple[int, ...]:
        """Exponent vector e with x = prod(g_i ** e_i); NonMember otherwise."""
        if x.sign() <= 0:
            raise ValueError("can only factor positive values")
        if all(g.is_rational for g in self.generators):
            if not x.is_rational:
                raise NonMember(f"{x} is irrational, {self} is not")
            return self._factor_rational(x)
        if len(self.generators) == 1:
            return self._factor_single(x)
        raise ValueError(
            "factoring over mixed quadratic multi-generator groups is not supported"
        )

    def contains(self, x: ExactNumber) -> bool:
        try:
            self.factor(x)
            return True
        except NonMember:
            return False

    def expand(self, exponents: tuple[int, ...]) -> ExactNumber:
        if len(exponents) != len(self.generators):
            raise ValueError("exponent vector has wrong length")
        out = ONE
        for g, e in zip(self.generators, exponents):
            out = out * g**e
        return out

    def __str__(self) -> str:
        return "<" + ",".join(format_number(g) for g in self.generators) + ">"


_GROUP_RE = re.compile(r"^\s*Z\[\s*(1/(\d+)|t)\s*\]\s*$|^\s*Q\s*$")


def parse_additive_group(text: str) -> AdditiveGroup:
    """Parse `Z[1/n]`, `Z[t]`, or `Q`."""
    m = _GROUP_RE.match(text)
    if not m:
        raise ParseError("invalid additive group", text, 0)
    if m.group(0).strip() == "Q":
        return AdditiveGroup.rationals()
    if m.group(1) == "t":
        return AdditiveGroup.z_tau()
    return AdditiveGroup.z_inv(int(m.group(2)))


def parse_slope_group(text: str) -> SlopeGroup:
    """Parse `<g1,g2,...>` with number-literal generators."""
    stripped = text.strip()
    if not (stripped.startswith("<") and stripped.endswith(">")):
        raise ParseError("slope group must look like <2,3>", text, 0)
    parts = _parts(text, ",", text.index("<") + 1, text.rindex(">"))
    return _construct(text, SlopeGroup, tuple(_parse_part(text, p, parse_number) for p in parts))
