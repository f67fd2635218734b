import copy
import pickle
import random
from fractions import Fraction

import pytest

from rinfinity.numbers import (
    ONE,
    TAU,
    AdditiveGroup,
    ExactNumber,
    NonMember,
    SlopeGroup,
)
from rinfinity.plmaps import (
    PLGroupSpec,
    PLMap,
    compose,
    endpoint_characters,
    format_plmap,
    is_member,
    parse_plmap,
    scaling_family,
    support,
)
from rinfinity.treepairs import X0, X1, multiply, to_pl
from rinfinity.treepairs import inverse as tree_inverse

R = ExactNumber.rational

F_SPEC = PLGroupSpec(ONE, AdditiveGroup.z_inv(2), SlopeGroup.of(2))
F23_SPEC = PLGroupSpec(ONE, AdditiveGroup.z_inv(6), SlopeGroup.of(2, 3))
FTAU_SPEC = PLGroupSpec(ONE, AdditiveGroup.z_tau(), SlopeGroup.of(TAU))


def f2():
    f, _, _ = scaling_family(2, 2, 2)
    return f


def g_map(q):
    _, g, _ = scaling_family(2, q, 2)
    return g


# A slope-tau map in G([0,1]; Z[t], <t>): slope t on [0, t], slope 1/t after.
TAU_MAP = PLMap.make(ONE, (TAU,), (TAU, ONE + TAU))


def random_dyadic_map(rng, depth=4):
    """Random member of the dyadic PL group, built by composing basic maps."""
    basics = [f2(), f2().inverse(), g_map(2), g_map(2).inverse()]
    out = PLMap.identity(1)
    for _ in range(rng.randint(1, depth)):
        out = compose(out, basics[rng.randrange(len(basics))])
    return out


def assert_canonical(c: PLMap) -> None:
    """The validating constructor accepts c, and computes the knots that
    c was built with."""
    fresh = PLMap(c.ell, c.breakpoints, c.slopes)
    assert fresh == c
    assert fresh._knots == c._knots


def test_evaluate_identity():
    assert PLMap.identity(1)(R(3, 7)) == R(3, 7)


def test_evaluate_f2():
    f = f2()
    assert f.breakpoints == (R(1, 2), R(3, 4))
    assert f.slopes == (R(1, 2), R(2), ONE)
    assert f(R(1, 2)) == R(1, 4)
    assert f(R(3, 4)) == R(3, 4)  # continuity: 1/4 + 2*(3/4 - 1/2)
    with pytest.raises(ValueError):
        f(R(2))


def test_compose_inverse_is_identity():
    rng = random.Random(23)
    for _ in range(50):
        f = random_dyadic_map(rng)
        assert compose(f, f.inverse()).is_identity
        assert f.inverse().inverse() == f
        assert_canonical(f.inverse())


def test_compose_f2_squared():
    ff = compose(f2(), f2())
    assert ff.initial_slope == R(1, 4)
    rng = random.Random(29)
    f = f2()
    for _ in range(20):
        x = R(rng.randint(0, 64), 64)
        assert ff(x) == f(f(x))


def test_compose_quadratic_closure():
    hh = compose(TAU_MAP, TAU_MAP)
    assert hh(TAU * TAU) == TAU_MAP(TAU_MAP(TAU * TAU))
    assert all(s == TAU * TAU or s == (ONE + TAU) ** 2 or s == ONE for s in hh.slopes)


def test_invert_f2():
    inv = f2().inverse()
    assert inv.slopes == (R(2), R(1, 2), ONE)
    assert inv.breakpoints == (R(1, 4), R(3, 4))


def test_group_axioms_random():
    rng = random.Random(31)
    for _ in range(250):
        f, g, h = (random_dyadic_map(rng, 3) for _ in range(3))
        fg, gh = compose(f, g), compose(g, h)
        left, right = compose(fg, h), compose(f, gh)
        f_id, id_f = compose(f, PLMap.identity(1)), compose(PLMap.identity(1), f)
        for c in (fg, gh, left, right, f_id, id_f):
            assert_canonical(c)
        assert left == right
        assert f_id == f
        assert id_f == f
    # same over Q(sqrt5)
    maps = [TAU_MAP, TAU_MAP.inverse(), compose(TAU_MAP, TAU_MAP)]
    for f in maps:
        for g in maps:
            for h in maps:
                left, right = compose(compose(f, g), h), compose(f, compose(g, h))
                assert_canonical(left)
                assert_canonical(right)
                assert left == right


def test_membership():
    assert is_member(f2(), F_SPEC).ok
    bad = is_member(f2(), PLGroupSpec(ONE, AdditiveGroup.z_inv(6), SlopeGroup.of(3)))
    assert not bad.ok
    assert any("slope" in v for v in bad.violations)
    fifth = PLMap.make(ONE, (R(1, 5),), (R(3), R(1, 2)))
    rep = is_member(fifth, F23_SPEC)
    assert not rep.ok
    assert any("singularity" in v for v in rep.violations)
    assert is_member(TAU_MAP, FTAU_SPEC).ok
    other = is_member(PLMap.identity(2), PLGroupSpec(ONE, AdditiveGroup.z_inv(2), SlopeGroup.of(2)))
    assert not other.ok
    assert other.violations == ("domain [0,2] does not match [0,1]",)


def sampled_closure(a_spec, p_spec):
    """P A = A as first checked: on a few elements of A, not exactly."""
    if a_spec.kind == "zinv":
        inv = R(1, a_spec.n)
        samples = (ONE, inv, inv * inv)
    elif a_spec.kind == "ztau":
        samples = (ONE, TAU)
    else:
        samples = (ONE, R(1, 2), R(1, 3))
    return all(
        a_spec.contains(p * a) and a_spec.contains(p.inverse() * a)
        for p in p_spec.generators
        for a in samples
    )


def test_slope_check_is_exact_and_agrees_with_sampling():
    z2, z3, z6 = (AdditiveGroup.z_inv(n) for n in (2, 3, 6))
    z_tau, q = AdditiveGroup.z_tau(), AdditiveGroup.rationals()
    with pytest.raises(ValueError, match="does not preserve"):
        PLGroupSpec(ONE, z3, SlopeGroup.of(2))
    cases = [
        (z2, SlopeGroup.of(2), True),
        (z6, SlopeGroup.of(2, 3), True),
        (z_tau, SlopeGroup.of(TAU), True),
        (z6, SlopeGroup.of(3), True),
        (AdditiveGroup.z_inv(4), SlopeGroup.of(2), True),
        (AdditiveGroup.z_inv(10), SlopeGroup.of(R(2, 5)), True),
        (z_tau, SlopeGroup.of(ONE + TAU), True),
        (q, SlopeGroup.of(2, 3), True),
        (z3, SlopeGroup.of(2), False),
        (z2, SlopeGroup.of(3), False),
        (z6, SlopeGroup.of(2, 5), False),
        (z_tau, SlopeGroup.of(2), False),
        (z2, SlopeGroup.of(TAU), False),
        (q, SlopeGroup.of(TAU), False),
    ]
    for a_spec, p_spec, accepted in cases:
        assert sampled_closure(a_spec, p_spec) is accepted, (a_spec, p_spec)
        try:
            PLGroupSpec(ONE, a_spec, p_spec)
        except ValueError:
            assert not accepted, (a_spec, p_spec)
        else:
            assert accepted, (a_spec, p_spec)


def test_membership_closed_under_group_ops():
    rng = random.Random(37)
    for _ in range(100):
        f, g = random_dyadic_map(rng), random_dyadic_map(rng)
        assert is_member(compose(f, g), F_SPEC).ok
        assert is_member(f.inverse(), F_SPEC).ok


def test_endpoint_characters():
    p2 = SlopeGroup.of(2)
    assert endpoint_characters(PLMap.identity(1), p2) == ((0,), (0,))
    assert endpoint_characters(f2(), p2) == ((-1,), (0,))
    with pytest.raises(NonMember):
        endpoint_characters(TAU_MAP, p2)


def test_endpoint_characters_additive():
    rng = random.Random(41)
    p2 = SlopeGroup.of(2)
    for _ in range(100):
        f, g = random_dyadic_map(rng), random_dyadic_map(rng)
        lf, rf = endpoint_characters(f, p2)
        lg, rg = endpoint_characters(g, p2)
        lfg, rfg = endpoint_characters(compose(f, g), p2)
        assert lfg == tuple(a + b for a, b in zip(lf, lg))
        assert rfg == tuple(a + b for a, b in zip(rf, rg))
        comm = compose(compose(f, g), compose(f.inverse(), g.inverse()))
        assert endpoint_characters(comm, p2) == ((0,), (0,))


def test_support():
    assert support(PLMap.identity(1)) == ()
    assert support(f2()) == ((ExactNumber.rational(0), R(3, 4)),)
    assert support(g_map(2)) == ((R(1, 4), ONE),)


def test_support_isolated_fixed_point():
    # slope (1/2, 2) map fixes only 0, the crossing, and 1.
    f = PLMap.make(ONE, (R(2, 3),), (R(1, 2), R(2)))
    assert support(f) == ((ExactNumber.rational(0), ONE),)
    g = compose(f, f)
    assert f(R(2, 3)) == R(1, 3)


def test_scaling_family_paper_values():
    f, g, _ = scaling_family(2, 3, 2)
    assert f.breakpoints[0] == R(1, 2)  # 3p/(4p+4) at p=2
    assert g(R(1, 4)) == R(1, 4)
    assert g.breakpoints == (R(1, 4), R(13, 16))  # (4q+1)/(4q+4) at q=3
    assert g.slope_at(R(1, 2)) == R(1, 3)


def test_scaling_family_quadratic_parameter():
    r = ONE + TAU  # 1/t
    _, _, h = scaling_family(2, 2, r)
    for b in h.breakpoints:
        left = h(b)
        x0 = b - ExactNumber.rational(1, 64)
        assert h(x0) + h.slope_at(x0) * (b - x0) == left


def test_scaling_family_continuity_random_rationals():
    rng = random.Random(43)
    for _ in range(50):
        p = R(rng.randint(2, 40), rng.randint(1, 20))
        if not p > ONE:
            continue
        f, g, h = scaling_family(p, p + ONE, p + R(1, 2))
        for m in (f, g, h):
            assert m(ExactNumber.rational(0)) == ExactNumber.rational(0)
            assert m(ONE) == ONE
            for b in m.breakpoints:
                eps = R(1, 1024)
                lo, hi = m(b - eps), m(b + eps)
                assert lo < m(b) < hi


def test_scaling_family_rejects_small_parameters():
    with pytest.raises(ValueError):
        scaling_family(1, 2, 2)


def test_plmap_literal_roundtrip():
    rng = random.Random(47)
    for _ in range(50):
        f = random_dyadic_map(rng)
        assert parse_plmap(format_plmap(f)) == f
    assert parse_plmap(format_plmap(TAU_MAP)) == TAU_MAP


def test_make_rejects_a_slope_count_that_does_not_fit():
    cases = (
        ([R(1, 2)], [R(1, 2), R(3, 2), R(5)]),  # one slope too many
        ([R(1, 2), R(3, 4)], [R(1, 2), R(3, 2)]),  # one breakpoint too many
        ([], []),
    )
    for breaks, slopes in cases:
        with pytest.raises(ValueError, match="one slope per segment"):
            PLMap.make(ONE, breaks, slopes)


def test_constructor_refuses_fields_of_the_wrong_type():
    # The public constructor takes an ExactNumber and two tuples of them;
    # anything else is a TypeError that points to PLMap.make.
    cases = (
        (1, (), (ONE,)),
        (ONE, [], [ONE]),
        (ONE, (), (1,)),
        (ONE, (Fraction(1, 2),), (R(1, 2), R(3, 2))),
        (ONE, (R(1, 2),), [R(1, 2), R(3, 2)]),
    )
    for ell, breaks, slopes in cases:
        with pytest.raises(TypeError, match="PLMap.make"):
            PLMap(ell, breaks, slopes)
        assert PLMap.make(ell, breaks, slopes) == PLMap.make(ONE, breaks, slopes)


def test_slope_at_rejects_points_outside_the_interval():
    f = f2()
    for x in (R(-5), R(-1, 8), R(9, 8), R(7)):
        with pytest.raises(ValueError, match="outside"):
            f.slope_at(x)
    assert f.slope_at(R(0)) == R(1, 2)
    assert f.slope_at(R(1, 2)) == R(2)
    assert f.slope_at(ONE) == ONE


# Independent oracles for the one-pass `compose` and `support`: they find
# the pieces by inverting g, sorting candidate breakpoints and evaluating
# both maps at the midpoint of every piece.


def ref_compose(f: PLMap, g: PLMap) -> PLMap:
    assert f.ell == g.ell
    g_inv = g.inverse()
    breaks = sorted(set(g.breakpoints) | {g_inv(b) for b in f.breakpoints})
    slopes = []
    prev = R(0)
    half = R(1, 2)
    for b in breaks + [f.ell]:
        mid = (prev + b) * half
        slopes.append(g.slope_at(mid) * f.slope_at(g(mid)))
        prev = b
    return PLMap.make(f.ell, breaks, slopes)


def ref_support(f: PLMap) -> tuple[tuple[ExactNumber, ExactNumber], ...]:
    # Fixed points cutting [0, ell]: the ends, each root of f(x) - x on a
    # segment of slope != 1, and the ends of each segment where f is the
    # identity.  Between two consecutive cuts f is either the identity or
    # moves every point, so the midpoint decides.
    cuts = {R(0), f.ell}
    points = [(R(0), f(R(0)))]
    points += [(b, f(b)) for b in f.breakpoints] + [(f.ell, f(f.ell))]
    for (x0, y0), (x1, _), s in zip(points, points[1:], f.slopes):
        if s == ONE:
            if y0 == x0:
                cuts |= {x0, x1}
        else:
            root = (y0 - s * x0) / (ONE - s)
            if x0 <= root <= x1:
                cuts.add(root)
    cuts = sorted(cuts)
    half = R(1, 2)
    return tuple((a, b) for a, b in zip(cuts, cuts[1:]) if f((a + b) * half) != (a + b) * half)


PHI = ONE + TAU  # the golden ratio, 1/t
FAMILIES = {
    "golden": scaling_family(PHI, PHI**2, PHI**3),
    "dyadic": scaling_family(2, 2, 2),
    "2-3": scaling_family(3, 2, Fraction(3, 2)),
    # x0, x2 = x0^-1 x1 x0 and x1 of Thompson's F: unlike the scaling
    # families, their segments of slope 1 include translations.  Every
    # breakpoint of x0 is one of x1, so x2 comes second, for the merges of
    # test_compose_prunes_as_it_walks.
    "F": tuple(to_pl(d) for d in (X0, multiply(multiply(tree_inverse(X0), X1), X0), X1)),
}


def alphabet(family: str) -> list[PLMap]:
    """The family's generators and their inverses."""
    return [m for gen in FAMILIES[family] for m in (gen, gen.inverse())]


def random_word(rng, family, max_letters, min_letters=1):
    """A random word in the family's generators and their inverses, multiplied
    out by the reference composition."""
    letters = alphabet(family)
    out = PLMap.identity(1)
    for _ in range(rng.randint(min_letters, max_letters)):
        out = ref_compose(out, rng.choice(letters))
    return out


def test_str_parses_back():
    rng = random.Random(59)
    for family in sorted(FAMILIES):
        for _ in range(10):
            f = random_word(rng, family, 6)
            assert parse_plmap(str(f)) == f


def test_str_of_group_specs():
    assert str(F_SPEC) == "G([0,1]; Z[1/2], <2>)"
    assert str(F23_SPEC) == "G([0,1]; Z[1/6], <2,3>)"
    assert str(FTAU_SPEC) == "G([0,1]; Z[t], <0+1*t>)"
    spec = PLGroupSpec(R(3, 2), AdditiveGroup.rationals(), SlopeGroup.of(Fraction(3, 2)))
    assert str(spec) == "G([0,3/2]; Q, <3/2>)"


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_compose_matches_reference(family):
    rng = random.Random(53)
    identity = PLMap.identity(1)
    for _ in range(12):
        u, v = random_word(rng, family, 4), random_word(rng, family, 4)
        # f o f^-1 puts every breakpoint of f on a knot of g.
        for f, g in ((u, v), (v, u), (u, u.inverse()), (u, u), (u, identity), (identity, u)):
            c = compose(f, g)
            assert_canonical(c)
            assert c == ref_compose(f, g)
        assert compose(u, u.inverse()).is_identity


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_compose_long_by_short_matches_reference(family):
    # The accumulated map of a long word has many knots over each segment
    # of a letter, and the reverse order puts many segments of g over one
    # segment of f.
    rng = random.Random(71)
    for _ in range(3):
        long = random_word(rng, family, 30, 12)
        for short in alphabet(family) + [random_word(rng, family, 3)]:
            for f, g in ((long, short), (short, long)):
                c = compose(f, g)
                assert_canonical(c)
                assert c == ref_compose(f, g)


def unit_segment_ends(g: PLMap) -> dict[str, set[ExactNumber]]:
    """The ends y0, y1 of g's segments of slope 1, split into identity
    segments (x0 = y0) and translations."""
    ends = {"identity": set(), "translation": set()}
    for (x0, y0), (_, y1), s in zip(g._knots, g._knots[1:], g.slopes):
        if s == ONE:
            ends["identity" if x0 == y0 else "translation"] |= {y0, y1}
    return ends


def test_compose_where_f_breaks_at_the_end_of_a_unit_segment():
    # to_pl(x0) is a translation on [1/2, 3/4] onto [1/4, 1/2], and to_pl(x1)
    # the identity on [0, 1/2]; 1/2 is a breakpoint of both, so some
    # products of F's generators put a breakpoint of f exactly on y0 or y1
    # of an identity or a translation segment of g.
    letters = alphabet("F")
    products = letters + [compose(a, b) for a in letters[:2] for b in letters]
    hits = {"identity": 0, "translation": 0}
    for f in products:
        for g in products:
            for kind, ends in unit_segment_ends(g).items():
                hits[kind] += len(ends & set(f.breakpoints))
            c = compose(f, g)
            assert_canonical(c)
            assert c == ref_compose(f, g)
    assert hits["identity"] and hits["translation"]


def through_knots(xs: list[ExactNumber]) -> PLMap:
    """The map of [0, 1] with a breakpoint at each x in xs, sending x to
    (x + x^2)/2: its slope between x and x' is (1 + x + x')/2, so no two
    consecutive slopes are equal."""
    half = R(1, 2)
    xs = [R(0)] + sorted(set(xs)) + [ONE]
    ys = [(x + x * x) * half for x in xs]
    slopes = [(y1 - y0) / (x1 - x0) for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:])]
    return PLMap(ONE, tuple(xs[1:-1]), tuple(slopes))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_compose_bisects_at_the_ends_of_g_segments(family):
    # compose finds the knots of f over a segment of g by bisecting f's
    # breakpoints for its end y1.  Put them exactly on each end, and just
    # inside the segments on either side of it.
    eps = R(1, 2**20)
    for g in alphabet(family):
        ends = [y for _, y in g._knots[1:-1]]
        for xs in (ends, [y - eps for y in ends], [y + eps for y in ends]):
            f = through_knots(xs)
            for order in ((f, g), (g, f)):
                c = compose(*order)
                assert_canonical(c)
                assert c == ref_compose(*order)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_compose_prunes_as_it_walks(family):
    # Every merge removes a knot of g that is also the pullback of a
    # breakpoint of f.  Three ways to need one: f o f^-1 loses all of them;
    # (b o a^-1) o a = b loses breakpoints of a; b o (b^-1 o a) = a loses
    # pullbacks of breakpoints of b.
    a, b, _ = FAMILIES[family]
    ell = a.ell
    for f in (a, b, compose(a, b)):
        c = compose(f, f.inverse())
        assert (c.breakpoints, c.slopes) == ((), (ONE,))
        assert c._knots == ((R(0), R(0)), (ell, ell))
        assert_canonical(c)
    f, g = compose(b, a.inverse()), a
    c = compose(f, g)
    assert c == b == ref_compose(f, g)
    assert set(g.breakpoints) - set(c.breakpoints)
    assert_canonical(c)
    f, g = b, compose(b.inverse(), a)
    c = compose(f, g)
    assert c == a == ref_compose(f, g)
    assert {g.inverse()(x) for x in f.breakpoints} - set(c.breakpoints)
    assert_canonical(c)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_composites_survive_copy_and_pickle(family):
    a, b, c = FAMILIES[family]
    for m in (compose(a, b), compose(compose(b, c.inverse()), a), compose(a, a.inverse())):
        for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert clone == m and hash(clone) == hash(m)
            assert clone._knots == m._knots
            assert_canonical(clone)
            assert compose(clone, m.inverse()).is_identity


def assert_segment_data(m: PLMap) -> None:
    """m's segment data equals that of a fresh map built from its fields,
    and each entry inverts its segment: y -> y*r + c sends y0 to x0 and y1
    to x1, a translation adds c, and an identity segment fixes both ends."""
    assert m._segments == PLMap(m.ell, m.breakpoints, m.slopes)._segments
    assert len(m._segments) == len(m.slopes)
    for (x0, y0), end, (x1, y1, s, r, c) in zip(m._knots, m._knots[1:], m._segments):
        assert (x1, y1) == end
        if c is None:
            assert (s, r, x0, x1) == (ONE, None, y0, y1)
        elif r is None:
            assert s == ONE and x0 != y0 and (y0 + c, y1 + c) == (x0, x1)
        else:
            assert s != ONE and r * s == ONE and (y0 * r + c, y1 * r + c) == (x0, x1)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_segment_data_matches_the_knots(family):
    a, b, c = FAMILIES[family]
    maps = [
        PLMap(a.ell, a.breakpoints, a.slopes),
        PLMap.make(ONE, (b.breakpoints[0] * R(1, 2),) + b.breakpoints, b.slopes[:1] + b.slopes),
        parse_plmap(str(c)),
        a.inverse(),
        compose(a, b),
        compose(compose(b, c.inverse()), a),
        compose(a, a.inverse()),
        PLMap.identity(1),
        TAU_MAP,
    ]
    if family == "F":
        maps += [to_pl(multiply(X0, X1)), to_pl(tree_inverse(X1))]
    for m in maps:
        assert_segment_data(m)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_support_matches_reference(family):
    rng = random.Random(59)
    maps = list(FAMILIES[family]) + [PLMap.identity(1), TAU_MAP]
    for _ in range(12):
        u, v = random_word(rng, family, 4), random_word(rng, family, 4)
        # A commutator has breakpoints both inside and outside its support.
        maps += [u, ref_compose(ref_compose(u, v), ref_compose(u.inverse(), v.inverse()))]
    for f in maps:
        assert support(f) == ref_support(f)
        assert support(f.inverse()) == ref_support(f)


def test_support_crossings_and_fixed_spans():
    # Slopes 1/2, 2, 1/2 cross the diagonal inside the middle segment, at
    # 1/2; a map that is the identity on [1/4, 1/2] splits its support.
    crossing = PLMap.make(ONE, (R(1, 3), R(2, 3)), (R(1, 2), R(2), R(1, 2)))
    assert support(crossing) == ((R(0), R(1, 2)), (R(1, 2), ONE))
    assert support(crossing) == ref_support(crossing)
    split = PLMap.make(
        ONE, (R(1, 8), R(1, 4), R(1, 2), R(3, 4)), (R(1, 2), R(3, 2), ONE, R(1, 2), R(3, 2))
    )
    assert support(split) == ((R(0), R(1, 4)), (R(1, 2), ONE))
    assert support(split) == ref_support(split)


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")
ARITHMETIC += ("__truediv__", "__rtruediv__", "inverse")


def count_arithmetic(monkeypatch) -> list[str]:
    """Patch a counter onto each + - * / operator of ExactNumber, and
    return the list that records the name of every call."""
    calls: list[str] = []
    for name in ARITHMETIC:

        def counted(*args, _method=getattr(ExactNumber, name), _name=name):
            calls.append(_name)
            return _method(*args)

        monkeypatch.setattr(ExactNumber, name, counted)
    return calls


def seeded_word(seed: int, family: str, length: int) -> list[PLMap]:
    """A word over fresh copies of the family's letters, so that no letter
    carries segment data that another test computed."""
    rng, letters = random.Random(seed), [copy.copy(m) for m in alphabet(family)]
    return [rng.choice(letters) for _ in range(length)]


def fold(word: list[PLMap]) -> PLMap:
    out = word[0]
    for letter in word[1:]:
        out = compose(out, letter)
    return out


def test_compose_by_the_identity_does_no_arithmetic(monkeypatch):
    # An identity segment of g copies the knots and slopes of f: composing
    # a 30-letter golden word with the identity costs no + - * / at all,
    # where a pullback per knot would cost four.
    f, identity = fold(seeded_word(73, "golden", 30)), PLMap.identity(1)
    assert len(f.breakpoints) > 20
    calls = count_arithmetic(monkeypatch)
    c = compose(f, identity)
    assert calls == []
    assert c == f and c._knots == f._knots


def test_compose_reads_a_reused_right_factor_without_testing_it(monkeypatch):
    # The first composition that reads g as its right factor computes g's
    # segment data: it inverts g's slopes and compares them, and the two
    # coordinates of each knot, for slope 1 and the identity.  A second
    # composition with the same g does neither.
    f = fold(seeded_word(83, "golden", 12))
    g = parse_plmap(str(alphabet("golden")[1]))  # objects no other map holds
    starts = g._knots[:-1]  # (x0, y0) of each segment
    calls = count_arithmetic(monkeypatch)
    compared: list[tuple[ExactNumber, ExactNumber]] = []

    def counted_eq(u, v, _eq=ExactNumber.__eq__):
        compared.append((u, v))
        return _eq(u, v)

    monkeypatch.setattr(ExactNumber, "__eq__", counted_eq)

    def reads_of_g():
        slope_tests = [p for p in compared if any(u is s for u in p for s in g.slopes)]
        knot_tests = [p for p in compared if any({id(u) for u in p} == {id(x), id(y)} for x, y in starts)]
        inverses = calls.count("inverse")
        del calls[:], compared[:]
        return len(slope_tests), len(knot_tests), inverses

    first = compose(f, g)
    slope_tests, knot_tests, inverses = reads_of_g()
    assert slope_tests == len(g.slopes) and knot_tests and inverses
    second = compose(f, g)
    assert reads_of_g() == (0, 0, 0)
    assert second._knots == first._knots


def test_compose_work_per_segment_is_pinned(monkeypatch):
    # A work count that repeats exactly: folding these seeded 30-letter
    # words costs this many + - * / calls.  Each letter computes the
    # inverse affine map of each segment once, the first time it is the
    # right factor; a translation only adds, and an identity segment
    # copies.  Losing one of these shortcuts raises a count: recomputing a
    # letter's segment data on every composition makes 1033 and 600.
    words = {family: seeded_word(79, family, 30) for family in ("golden", "F")}
    calls = count_arithmetic(monkeypatch)
    counts = {}
    for family, word in words.items():
        del calls[:]
        fold(word)
        counts[family] = len(calls)
    assert counts == {"golden": 895, "F": 439}


def test_golden_compose_reaches_the_sqrt5_sign(monkeypatch):
    # Positive control for the test below: every irrational sign goes
    # through numbers._sqrt5_combination_sign, so a counter patched onto it
    # sees the comparisons of one compose in a (phi, phi^2, phi^3) family.
    from rinfinity import numbers

    phi = ONE + TAU
    f, g, _ = scaling_family(phi, phi**2, phi**3)
    original = numbers._sqrt5_combination_sign
    calls = []

    def counting(u, v):
        calls.append((u, v))
        return original(u, v)

    monkeypatch.setattr(numbers, "_sqrt5_combination_sign", counting)
    fg = compose(f, g)
    assert calls
    assert compose(fg, g.inverse()) == f


def test_rational_pipeline_never_reaches_the_sqrt5_sign(monkeypatch):
    # Maps over Q must take the rational path of every ExactNumber operator:
    # with the sign test for irrational values disabled, the PL operations
    # on F and on a (3, 2, 3/2) scaling family still run.
    from rinfinity import numbers

    def refuse(u, v):
        raise AssertionError("a rational operand reached the sqrt5 sign test")

    monkeypatch.setattr(numbers, "_sqrt5_combination_sign", refuse)
    rng = random.Random(61)
    f_letters = [to_pl(d) for d in (X0, X1, tree_inverse(X0), tree_inverse(X1))]
    family = scaling_family(3, 2, Fraction(3, 2))
    family_letters = [m for gen in family for m in (gen, gen.inverse())]
    # (word, slope group of its endpoint characters, is it in F)
    words = [
        ([rng.choice(f_letters) for _ in range(30)], SlopeGroup.of(2), True),
        ([rng.choice(family_letters) for _ in range(8)], SlopeGroup.of(2, 3), False),
        ([rng.choice(family_letters) for _ in range(12)], SlopeGroup.of(2, 3), False),
    ]
    for word, slopes, in_f in words:
        f = PLMap.identity(1)
        for letter in word:
            f = compose(f, letter)
        g = f.inverse()
        assert compose(f, g).is_identity
        assert all(b.is_rational for b in f.breakpoints + g.breakpoints)
        assert support(g) == support(f)
        assert is_member(f, F_SPEC).ok == in_f
        assert is_member(g, F_SPEC).ok == in_f
        left, right = endpoint_characters(f, slopes)
        assert endpoint_characters(g, slopes) == (
            tuple(-e for e in left),
            tuple(-e for e in right),
        )
