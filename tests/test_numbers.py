import random
from fractions import Fraction

import mpmath
import pytest

from rinfinity.numbers import (
    ONE,
    TAU,
    AdditiveGroup,
    ExactNumber,
    NonMember,
    ParseError,
    SlopeGroup,
    format_number,
    parse_additive_group,
    parse_number,
    parse_slope_group,
)

mpmath.mp.dps = 50
TAU_DEC = (mpmath.sqrt(5) - 1) / 2


def to_decimal(x: ExactNumber):
    return mpmath.mpf(x.a.numerator) / x.a.denominator + TAU_DEC * x.b.numerator / x.b.denominator


def random_exact(rng, quadratic=True):
    a = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
    b = Fraction(rng.randint(-20, 20), rng.randint(1, 20)) if quadratic else Fraction(0)
    return ExactNumber(a, b)


def test_tau_defining_relation():
    assert TAU * TAU == ExactNumber.quadratic(1, -1)
    assert TAU * TAU == ONE - TAU


def test_rational_addition():
    assert ExactNumber.rational(1, 2) + ExactNumber.rational(1, 3) == ExactNumber.rational(5, 6)


def test_sign_of_minus_one_plus_two_tau():
    x = ExactNumber.quadratic(-1, 2)
    assert x.sign() > 0
    # squaring comparison: -1 + 2t = (-4 + 2*sqrt5)/2 and (2*sqrt5)^2 = 20 > 16
    assert (2 * Fraction(5, 1)) * 2 > 4 * 4 / 2  # sanity on the arithmetic used
    assert mpmath.sign(to_decimal(x)) == 1


def test_sign_matches_decimal_oracle():
    rng = random.Random(7)
    for _ in range(2000):
        x = random_exact(rng)
        dec = to_decimal(x)
        if abs(dec) < mpmath.mpf("1e-40"):
            assert x.sign() == 0
        else:
            assert x.sign() == int(mpmath.sign(dec))


def test_field_axioms_random_triples():
    rng = random.Random(1)
    for _ in range(10_000):
        a, b, c = (random_exact(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
    for _ in range(500):
        a = random_exact(rng)
        if a:
            assert a * a.inverse() == ONE


def test_comparison_total_order():
    rng = random.Random(2)
    for _ in range(3000):
        a, b, c = (random_exact(rng) for _ in range(3))
        if a < b:
            assert not b < a
        if a < b and b < c:
            assert a < c
        assert (a * b).sign() == a.sign() * b.sign()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ExactNumber.rational(0)


def test_powers():
    assert TAU**2 == ONE - TAU
    assert TAU**-1 == ONE + TAU
    assert (TAU**-1) * TAU == ONE


def test_additive_group_membership():
    z6 = AdditiveGroup.z_inv(6)
    assert z6.contains(ExactNumber.rational(1, 6))
    assert z6.contains(ExactNumber.rational(5, 12))
    assert not z6.contains(ExactNumber.rational(1, 5))
    assert not z6.contains(TAU)
    ztau = AdditiveGroup.z_tau()
    assert ztau.contains(ExactNumber.quadratic(2, -3))
    assert not ztau.contains(ExactNumber.quadratic(Fraction(1, 2), 1))
    assert AdditiveGroup.rationals().contains(ExactNumber.rational(22, 7))


def test_additive_group_closure_under_slopes():
    # P * A <= A for each named instance.
    cases = [
        (AdditiveGroup.z_inv(2), SlopeGroup.of(2)),
        (AdditiveGroup.z_inv(6), SlopeGroup.of(2, 3)),
        (AdditiveGroup.z_tau(), SlopeGroup.of(TAU)),
    ]
    rng = random.Random(3)
    for a_spec, p_spec in cases:
        samples = list(a_spec.sample_elements())
        for _ in range(200):
            x = samples[rng.randrange(len(samples))] * rng.randint(-5, 5)
            y = samples[rng.randrange(len(samples))]
            assert a_spec.contains(x + y)
            for g in p_spec.generators:
                assert a_spec.contains(g * x)
                assert a_spec.contains(g.inverse() * x)


def test_slope_factorization():
    p23 = SlopeGroup.of(2, 3)
    assert p23.factor(ExactNumber.rational(6)) == (1, 1)
    assert p23.factor(ExactNumber.rational(4, 3)) == (2, -1)
    with pytest.raises(NonMember):
        p23.factor(ExactNumber.rational(5))
    ptau = SlopeGroup.of(TAU)
    assert ptau.factor(ONE - TAU) == (2,)
    assert ptau.factor(ONE + TAU) == (-1,)
    with pytest.raises(NonMember):
        ptau.factor(ExactNumber.rational(2))


def test_slope_factor_roundtrip():
    rng = random.Random(4)
    groups = [SlopeGroup.of(2), SlopeGroup.of(2, 3), SlopeGroup.of(TAU)]
    for grp in groups:
        for _ in range(300):
            exps = tuple(rng.randint(-6, 6) for _ in grp.generators)
            x = grp.expand(exps)
            assert grp.factor(x) == exps
            assert grp.expand(grp.factor(x)) == x


def test_slope_factor_on_one_group():
    # One group answers many queries from the decomposition it keeps.
    rng = random.Random(6)
    p23 = SlopeGroup.of(2, 3)
    five = ExactNumber.rational(5)
    for _ in range(200):
        exps = (rng.randint(-20, 20), rng.randint(-20, 20))
        x = p23.expand(exps)
        assert p23.factor(x) == exps
        with pytest.raises(NonMember):
            p23.factor(x * five)
    with pytest.raises(NonMember):
        p23.factor(five)
    # <4, 6> has rank 2 on the primes 2, 3 but index 2 in their lattice.
    p46 = SlopeGroup.of(4, 6)
    assert p46.factor(ExactNumber.rational(24)) == (1, 1)
    assert p46.factor(ExactNumber.rational(3, 2)) == (-1, 1)
    for q in (2, 3, 12):
        with pytest.raises(NonMember):
            p46.factor(ExactNumber.rational(q))


def test_literal_roundtrip():
    rng = random.Random(5)
    for _ in range(500):
        x = random_exact(rng)
        assert parse_number(format_number(x)) == x
    assert parse_number("5") == ExactNumber.rational(5)
    assert parse_number("-3/4") == ExactNumber.rational(-3, 4)
    assert parse_number("0+1*t") == TAU
    assert parse_number("1/2-3/4*t") == ExactNumber.quadratic(Fraction(1, 2), Fraction(-3, 4))


def test_parse_errors_have_positions():
    with pytest.raises(ParseError):
        parse_number("1 + q")
    with pytest.raises(ParseError):
        parse_number("t*2")


def test_group_spec_parsing():
    assert parse_additive_group("Z[1/6]") == AdditiveGroup.z_inv(6)
    assert parse_additive_group("Z[t]") == AdditiveGroup.z_tau()
    assert parse_additive_group("Q") == AdditiveGroup.rationals()
    assert parse_slope_group("<2,3>") == SlopeGroup.of(2, 3)
    assert parse_slope_group("<0+1*t>") == SlopeGroup.of(TAU)
