import random
import time
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
    _prime_factors,
    format_number,
    parse_additive_group,
    parse_number,
    parse_slope_group,
)
from rinfinity.plmaps import parse_plmap

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


def test_power_takes_only_integer_exponents():
    # Through operator.index: an int-like exponent works, while a float or a
    # Fraction raises TypeError even where its value is an integer.
    assert TAU ** True == TAU
    assert TAU**0 == ONE
    for k in (0.0, 2.0, Fraction(0), Fraction(2), Fraction(1, 2)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            TAU**k


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


def test_z_inv_membership_matches_prime_factors():
    # 1/d lies in Z[1/n] iff every prime of d divides n.
    rng = random.Random(107)
    dens = [1, 2**3000, 3 * 2**3000, 7 * 6**40, 6**40, 7 * 11**40]
    dens += [rng.randint(2, 10**5) for _ in range(500)]
    for _ in range(100):
        p, q = rng.choice((2, 3, 5, 7)), rng.choice((3, 5, 11))
        dens.append(p ** rng.randint(0, 200) * q ** rng.randint(0, 50))
    for n in (2, 3, 6, 10, 12, 30, 35):
        group, primes = AdditiveGroup.z_inv(n), set(_prime_factors(n))
        for d in dens:
            expected = set(_prime_factors(d)) <= primes
            assert group.contains(ExactNumber.rational(1, d)) is expected, (n, d)


def test_additive_group_closure_under_slopes():
    # P * A <= A for each named instance.
    half, sixth = ExactNumber.rational(1, 2), ExactNumber.rational(1, 6)
    cases = [
        (AdditiveGroup.z_inv(2), SlopeGroup.of(2), (ONE, half, half * half)),
        (AdditiveGroup.z_inv(6), SlopeGroup.of(2, 3), (ONE, sixth, sixth * sixth)),
        (AdditiveGroup.z_tau(), SlopeGroup.of(TAU), (ONE, TAU)),
    ]
    rng = random.Random(3)
    for a_spec, p_spec, samples in cases:
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
    # Exponents far past the powers of p that the stripping squares up to.
    assert SlopeGroup.of(2).factor(ExactNumber.rational(1, 2**20000)) == (-20000,)
    assert p23.factor(ExactNumber.rational(3**777, 2**5)) == (-5, 777)
    with pytest.raises(NonMember):
        p23.factor(ExactNumber.rational(5 * 3**777, 2**5))
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


def test_dependent_rational_generators_are_refused():
    # 4 = 2^2 and 6 = 2 * 3: such a group would factor 8 or 6 in many ways
    for make in (
        lambda: SlopeGroup.of(2, 4),
        lambda: SlopeGroup.of(6, 2, 3),
        lambda: parse_slope_group("<2,4>"),
    ):
        with pytest.raises(ValueError, match="independent"):
            make()
    assert SlopeGroup.of(2, 3).rank == SlopeGroup.of(4, 6).rank == 2


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


def test_fields_are_fractions_and_floats_are_refused():
    x = ExactNumber(3, -2)
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert x == ExactNumber.quadratic(3, -2)
    assert type(ExactNumber(7).b) is Fraction
    assert type((ExactNumber(1) / ExactNumber(2)).a) is Fraction
    assert ExactNumber(1) / ExactNumber(2) == ExactNumber.rational(1, 2)
    for bad in ((0.5,), (1, 0.5), ("1",), (Fraction(1), None)):
        with pytest.raises(TypeError):
            ExactNumber(*bad)


def test_zero_denominator_is_a_parse_error():
    for text in ("1/0", "2+1/0*t", "0/0", "1-3/00*t"):
        with pytest.raises(ParseError) as info:
            parse_number(text)
        assert text[info.value.pos] == "0" and text[info.value.pos - 1] == "/"
    with pytest.raises(ParseError):
        parse_plmap("pl ell=1/0 breaks=[] slopes=[1]")
    with pytest.raises(ParseError):
        parse_slope_group("<2,1/0>")


def test_composite_number_literals_report_errors_in_the_whole_text():
    for parse, text, bad in (
        (parse_slope_group, "<2, x>", "x"),
        (parse_slope_group, "  < 2 ,3,q>", "q"),
        (parse_slope_group, "<2,1/0>", "0>"),
        (parse_plmap, "pl ell=1 breaks=[1/2] slopes=[1/2,x]", "x"),
        (parse_plmap, "pl ell=z breaks=[] slopes=[1]", "z"),
        (parse_plmap, "pl ell=1 breaks=[1/2, 3/x] slopes=[1,1]", "x]"),
    ):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.text == text
        assert text[info.value.pos :].startswith(bad), (text, info.value.pos)


def test_refused_slope_group_literal_is_a_parse_error():
    # <1> is well formed, but 1 generates no slope group.
    with pytest.raises(ParseError, match="!= 1") as info:
        parse_slope_group("<1>")
    assert (info.value.pos, info.value.text) == (0, "<1>")


def test_refused_plmap_literal_is_a_parse_error():
    # One breakpoint needs two slopes.
    text = "pl ell=1 breaks=[1/2] slopes=[1/2]"
    with pytest.raises(ParseError, match="one slope per segment") as info:
        parse_plmap(text)
    assert (info.value.pos, info.value.text) == (0, text)


def assert_rational(x: ExactNumber, q: Fraction) -> None:
    """x is the rational q, stored the way every rational is stored."""
    assert type(x) is ExactNumber
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert x.a == q and x.b == 0 and x.is_rational


def test_rational_operations_match_fraction():
    rng = random.Random(8)
    for _ in range(600):
        x, y = random_exact(rng, quadratic=False), random_exact(rng, quadratic=False)
        p, q = x.a, y.a
        k = rng.randint(-5, 5)
        assert_rational(x + y, p + q)
        assert_rational(x + k, p + k)
        assert_rational(k + x, k + p)
        assert_rational(x - y, p - q)
        assert_rational(x - k, p - k)
        assert_rational(q - x, q - p)
        assert_rational(-x, -p)
        assert_rational(x * y, p * q)
        assert_rational(x * k, p * k)
        assert_rational(q * x, q * p)
        if q:
            assert_rational(x / y, p / q)
            assert_rational(y.inverse(), 1 / q)
        if k:
            assert_rational(x / k, p / k)
        if p:
            assert_rational(k / x, k / p)
        for e in range(-3, 4):
            if p or e >= 0:
                assert_rational(x**e, p**e)
        assert x.sign() == (p > 0) - (p < 0)
        assert (x < y, x <= y, x > y, x >= y) == (p < q, p <= q, p > q, p >= q)
        assert (x < q, x <= k, x > k, x >= q) == (p < q, p <= k, p > k, p >= q)
        assert (x == y) == (p == q)
        assert hash(x) == hash(p)
        assert hash(x) == hash(ExactNumber(p, Fraction(0)))


def test_mixed_operations_match_decimal_oracle():
    rng = random.Random(9)
    tol = mpmath.mpf("1e-40")
    for _ in range(300):
        x, y = random_exact(rng, quadratic=False), random_exact(rng)
        if not y.b:
            continue
        dx, dy = to_decimal(x), to_decimal(y)
        for u, v, du, dv in ((x, y, dx, dy), (y, x, dy, dx)):
            assert abs(to_decimal(u + v) - (du + dv)) < tol
            assert abs(to_decimal(u - v) - (du - dv)) < tol
            assert abs(to_decimal(u * v) - du * dv) < tol
            if v:
                assert abs(to_decimal(u / v) - du / dv) < tol
            assert (u < v, u <= v, u > v, u >= v) == (du < dv, du <= dv, du > dv, du >= dv)
            assert u != v
        assert abs(to_decimal(-y) + dy) < tol
        assert abs(to_decimal(y.inverse()) * dy - 1) < tol


def test_division_by_a_rational_zero():
    zero = ExactNumber.rational(0)
    for x in (ONE, ExactNumber.rational(-3, 4), TAU, zero):
        with pytest.raises(ZeroDivisionError):
            x / zero
        with pytest.raises(ZeroDivisionError):
            x / 0
    with pytest.raises(ZeroDivisionError):
        zero.inverse()
    with pytest.raises(ZeroDivisionError):
        zero**-1
    with pytest.raises(ZeroDivisionError):
        3 / zero


# The Fraction formulas the integer kernels replaced, kept as oracles.


def ref_sqrt5_combination_sign(u: Fraction, v: Fraction) -> int:
    if v == 0:
        return (u > 0) - (u < 0)
    if u == 0:
        return (v > 0) - (v < 0)
    if u > 0 and v > 0:
        return 1
    if u < 0 and v < 0:
        return -1
    d = u * u - 5 * v * v
    s = (d > 0) - (d < 0)
    return s if u > 0 else -s


def ref_sign(x: ExactNumber) -> int:
    return ref_sqrt5_combination_sign(2 * x.a - x.b, x.b)


def ref_add(x: ExactNumber, y: ExactNumber) -> ExactNumber:
    return ExactNumber(x.a + y.a, x.b + y.b)


def ref_sub(x: ExactNumber, y: ExactNumber) -> ExactNumber:
    return ExactNumber(x.a - y.a, x.b - y.b)


def ref_mul(x: ExactNumber, y: ExactNumber) -> ExactNumber:
    cross = x.a * y.b + x.b * y.a
    sq = x.b * y.b
    return ExactNumber(x.a * y.a + sq, cross - sq)


def ref_inverse(x: ExactNumber) -> ExactNumber:
    # The conjugate (a - b) - b t over the norm a^2 - a b - b^2.
    norm = x.a * x.a - x.a * x.b - x.b * x.b
    if norm == 0:
        raise ZeroDivisionError("division by zero")
    return ExactNumber((x.a - x.b) / norm, -x.b / norm)


def ref_truediv(x: ExactNumber, y: ExactNumber) -> ExactNumber:
    return ref_mul(x, ref_inverse(y))


def assert_same_fields(x: ExactNumber, y: ExactNumber) -> None:
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert (x.a, x.b) == (y.a, y.b)


def random_field(rng) -> Fraction:
    kind = rng.random()
    if kind < 0.15:
        return Fraction(0)
    bits = 200 if kind < 0.6 else 12
    num = rng.randint(-(2**bits), 2**bits)
    return Fraction(num, rng.randint(1, 2**bits))


def random_quadratic_pair(rng) -> tuple[ExactNumber, ExactNumber]:
    """Two numbers, at least one of them irrational, with coordinates up
    to 2^200, either field possibly zero and of either sign."""
    while True:
        x = ExactNumber(random_field(rng), random_field(rng))
        y = ExactNumber(random_field(rng), random_field(rng))
        if x.b or y.b:
            return x, y


def test_kernels_match_fraction_formulas():
    rng = random.Random(131)
    for _ in range(2500):
        x, y = random_quadratic_pair(rng)
        assert_same_fields(x * y, ref_mul(x, y))
        assert_same_fields(y * x, ref_mul(y, x))
        for u, v in ((x, y), (y, x)):
            assert_same_fields(u + v, ref_add(u, v))
            assert_same_fields(u - v, ref_sub(u, v))
            assert_same_fields(-u, ExactNumber(-u.a, -u.b))
            if v:
                assert_same_fields(v.inverse(), ref_inverse(v))
                assert_same_fields(u / v, ref_truediv(u, v))
            else:
                with pytest.raises(ZeroDivisionError):
                    u / v
            assert u.sign() == ref_sign(u)
            s = ref_sign(u - v)
            assert (u < v, u <= v, u > v, u >= v) == (s < 0, s <= 0, s > 0, s >= 0)


def test_sums_that_cancel_to_a_rational_are_canonical():
    F = Fraction
    cases = [
        (TAU - TAU + 1, F(1)),
        ((ONE + TAU) - TAU, F(1)),
        (TAU + (ExactNumber(F(1, 2)) - TAU), F(1, 2)),
        (ExactNumber(F(1, 3), F(2, 7)) + ExactNumber(F(1, 6), F(-2, 7)), F(1, 2)),
        (ExactNumber(F(3, 4), F(1, 9)) - ExactNumber(F(3, 4), F(1, 9)), F(0)),
        (-TAU + TAU, F(0)),
    ]
    for x, q in cases:
        assert_rational(x, q)
        assert x.b == Fraction(0)
        assert hash(x) == hash(q) == hash(ExactNumber(q))
        assert x == q and x == ExactNumber(q)


def test_kernel_signs_on_lucas_fibonacci_pairs():
    # L_k^2 - 5 F_k^2 = 4 (-1)^k, so L_k - F_k sqrt5 = 2 psi^k is tiny with
    # sign (-1)^k; a + b t = ((2a - b) + b sqrt5)/2 gives a = (u + v)/2.
    rng = random.Random(137)
    fib, luc = 0, 2
    nxt_fib, nxt_luc = 1, 1
    for k in range(301):
        assert luc * luc - 5 * fib * fib == 4 * (-1) ** k
        for v in (fib, -fib):
            x = ExactNumber(Fraction(luc + v, 2), v)
            expected = 1 if v >= 0 or k % 2 == 0 else -1
            assert x.sign() == ref_sign(x) == expected
            assert (-x).sign() == -expected
        # L_k/2 against F_k sqrt5 / 2, scaled by a random rational
        half_l = ExactNumber(Fraction(luc, 2))
        half_f_sqrt5 = ExactNumber(Fraction(fib, 2), fib)
        c = ExactNumber(Fraction(rng.choice((-1, 1)) * rng.randint(1, 2**64), rng.randint(1, 2**64)))
        for p, q in ((half_l, half_f_sqrt5), (c * half_l, c * half_f_sqrt5)):
            for u, v in ((p, q), (q, p)):
                s = ref_sign(u - v)
                assert (u < v, u <= v, u > v, u >= v) == (s < 0, s <= 0, s > 0, s >= 0)
        if k:
            assert (half_l < half_f_sqrt5) == (k % 2 == 1)
        fib, nxt_fib = nxt_fib, fib + nxt_fib
        luc, nxt_luc = nxt_luc, luc + nxt_luc


def test_single_generator_factoring_is_logarithmic():
    # tau^2000 has coordinates of about 1,390 bits; one division per unit
    # of exponent took about 0.1 s per factorization.
    phi = ONE + TAU
    for g in (TAU, phi):
        group = SlopeGroup.of(g)
        for x, e in ((TAU, 1), (phi, -1)):
            for k in (2000, -2000):
                power = x**k
                expected = (e * k if g == TAU else -e * k,)
                best = float("inf")
                for _ in range(3):
                    start = time.perf_counter()
                    assert group.factor(power) == expected
                    best = min(best, time.perf_counter() - start)
                assert best < 0.01, (g, x, k, best)
    with pytest.raises(NonMember):
        SlopeGroup.of(TAU).factor(2 * TAU**2000)
    with pytest.raises(NonMember):
        SlopeGroup.of(phi).factor(2 * TAU**2000)
