"""Orientation-preserving piecewise-linear self-homeomorphisms of [0, ell]
with exact breakpoints and slopes, and membership in the groups of PL maps
with prescribed singularity set A and slope group P.

A map is stored as (ell, breakpoints, slopes) anchored at f(0) = 0, which
makes continuity automatic; f(ell) = ell is a constructor check.  The
canonical form has no breakpoint where the slope does not change, so maps
are equal iff their fields are.  The knots (x, f(x)) at 0, each breakpoint
and ell are computed once per map; inversion, support and membership walk
them from left to right and evaluate nothing.  `compose(f, g)` walks the
segments of g: the knots of f over one segment pull back through its
inverse affine map, computed once, and an identity segment copies them.
Inside a segment the slope of the result changes at every knot, so only
its first piece can need merging with the piece before it.

Only maps built from outside are validated: `PLMap(...)`, `PLMap.make`
and `parse_plmap` check every field.  `compose` and `inverse` produce a
canonical map together with its knots, and hand both to the result
without checking them again.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import cached_property

from . import ParseError, _Value, _construct, _parse_part, _parts
from .numbers import (
    ONE,
    ZERO,
    AdditiveGroup,
    ExactNumber,
    NonMember,
    SlopeGroup,
    format_number,
    parse_number,
)


class PLMap(_Value):
    __slots__ = ("ell", "breakpoints", "slopes", "__dict__")

    def __init__(
        self,
        ell: ExactNumber,
        breakpoints: tuple[ExactNumber, ...],
        slopes: tuple[ExactNumber, ...],
    ) -> None:
        if not (
            isinstance(ell, ExactNumber)
            and type(breakpoints) is type(slopes) is tuple
            and all(isinstance(x, ExactNumber) for x in breakpoints + slopes)
        ):
            raise TypeError("PLMap takes an ExactNumber and tuples of them; use PLMap.make")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "slopes", slopes)
        if self.ell.sign() <= 0:
            raise ValueError("right endpoint must be positive")
        if len(self.slopes) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one slope per segment")
        prev = ZERO
        for b in self.breakpoints + (self.ell,):
            if not prev < b:
                raise ValueError("breakpoints must be strictly increasing inside (0, ell)")
            prev = b
        for s in self.slopes:
            if s.sign() <= 0:
                raise ValueError("slopes must be positive")
        # Canonical form: a breakpoint must change the slope.
        for i in range(len(self.breakpoints)):
            if self.slopes[i] == self.slopes[i + 1]:
                raise ValueError("spurious breakpoint (equal adjacent slopes); use PLMap.make")
        if self._knots[-1][1] != self.ell:
            raise ValueError("map does not fix the right endpoint")

    @staticmethod
    def make(ell, breakpoints, slopes) -> PLMap:
        """Build a map, pruning breakpoints where the slope does not change."""
        ell = ExactNumber.of(ell)
        bs = [ExactNumber.of(b) for b in breakpoints]
        ss = [ExactNumber.of(s) for s in slopes]
        if len(ss) != len(bs) + 1:
            raise ValueError("need exactly one slope per segment")
        pruned_b: list[ExactNumber] = []
        pruned_s: list[ExactNumber] = [ss[0]]
        for b, s in zip(bs, ss[1:]):
            if s == pruned_s[-1]:
                continue
            pruned_b.append(b)
            pruned_s.append(s)
        return PLMap(ell, tuple(pruned_b), tuple(pruned_s))

    @staticmethod
    def identity(ell=1) -> PLMap:
        return PLMap(ExactNumber.of(ell), (), (ONE,))

    @property
    def is_identity(self) -> bool:
        return not self.breakpoints and self.slopes[0] == ONE

    @cached_property
    def _knots(self) -> tuple[tuple[ExactNumber, ExactNumber], ...]:
        """(x, f(x)) at 0, each breakpoint, and ell."""
        out = [(ZERO, ZERO)]
        for b, s in zip(self.breakpoints + (self.ell,), self.slopes):
            x0, y0 = out[-1]
            out.append((b, y0 + s * (b - x0)))
        return tuple(out)

    def _segment_index(self, x: ExactNumber) -> int:
        if x < ZERO or x > self.ell:
            raise ValueError(f"{x} is outside [0, {self.ell}]")
        return bisect_right(self.breakpoints, x)

    def __call__(self, x) -> ExactNumber:
        x = ExactNumber.of(x)
        i = self._segment_index(x)
        x0, y0 = self._knots[i]
        return y0 + self.slopes[i] * (x - x0)

    def slope_at(self, x: ExactNumber) -> ExactNumber:
        """Slope on the segment whose interior contains x (right slope at a
        breakpoint, left slope at ell)."""
        return self.slopes[self._segment_index(x)]

    @property
    def initial_slope(self) -> ExactNumber:
        return self.slopes[0]

    @property
    def final_slope(self) -> ExactNumber:
        return self.slopes[-1]

    def inverse(self) -> PLMap:
        knots = [(y, x) for x, y in self._knots]
        return _from_knots(self.ell, knots, [s.inverse() for s in self.slopes])

    def __str__(self) -> str:
        return format_plmap(self)


def _from_knots(ell, knots, slopes) -> PLMap:
    """The map with these knots and slopes, which must be canonical by
    construction: the public constructor's checks are skipped, and the
    knots seed the map's cache."""
    f = object.__new__(PLMap)
    object.__setattr__(f, "ell", ell)
    object.__setattr__(f, "breakpoints", tuple([x for x, _ in knots[1:-1]]))
    object.__setattr__(f, "slopes", tuple(slopes))
    object.__setattr__(f, "_knots", tuple(knots))
    return f


def compose(f: PLMap, g: PLMap) -> PLMap:
    """The map x -> f(g(x)) and its knots, in one walk over the segments
    of g and the knots of f.

    On the segment from (x0, y0) to (x1, y1) with slope s, the knots
    (b, f(b)) of f with y0 < b < y1 pull back to (b/s + c, f(b)) for
    c = x0 - y0/s, and the slope past each is s times the slope of f
    there.  So 1/s and c are computed once per segment; a translation
    (s = 1) only adds c, and an identity segment (s = 1, x0 = y0) copies
    f's knots and slopes as they are.  The image of x1 is f's knot value
    when y1 is a knot of f, and is read off the last knot of f below y1
    otherwise.  f's knot at ell closes the walk, so it never runs off it.

    Only the first piece of a segment can continue the slope of the piece
    before it: inside the segment, consecutive slopes are s times
    consecutive slopes of the canonical f, so they differ.  When the
    first slope does continue, the knot at x0 is dropped, and the result
    is canonical as built.
    """
    if f.ell != g.ell:
        raise ValueError("maps act on different intervals")
    f_knots, f_slopes = f._knots, f.slopes
    knots = [f_knots[0]]
    slopes: list[ExactNumber] = []
    j = 0  # f's segment from f_knots[j] to f_knots[j + 1] contains y0
    for (x0, y0), (x1, y1), s in zip(g._knots, g._knots[1:], g.slopes):
        k = j + 1  # f_knots[j + 1 : k] are the knots of f inside (y0, y1)
        while f_knots[k][0] < y1:
            k += 1
        unit = s == ONE
        first = f_slopes[j] if unit else s * f_slopes[j]
        if slopes and first == slopes[-1]:
            knots.pop()
        else:
            slopes.append(first)
        if k > j + 1:
            if unit and x0 == y0:
                knots += f_knots[j + 1 : k]
                slopes += f_slopes[j + 1 : k]
            elif unit:
                c = x0 - y0
                knots += [(b + c, fb) for b, fb in f_knots[j + 1 : k]]
                slopes += f_slopes[j + 1 : k]
            else:
                r = s.inverse()
                c = x0 - y0 * r
                knots += [(b * r + c, fb) for b, fb in f_knots[j + 1 : k]]
                slopes += [s * t for t in f_slopes[j + 1 : k]]
        b, fb = f_knots[k]
        if b == y1:
            knots.append((x1, fb))
            j = k
        else:
            j = k - 1
            fx, fy = f_knots[j]
            knots.append((x1, fy + f_slopes[j] * (y1 - fx)))
    return _from_knots(f.ell, knots, slopes)


def support(f: PLMap) -> tuple[tuple[ExactNumber, ExactNumber], ...]:
    """Maximal open intervals where f(x) != x, in one pass over the knots.

    On each segment f(x) - x is affine: it vanishes on the whole segment,
    at a knot, or at the one crossing x0 + (x0 - y0)/(s - 1) where it
    changes sign.  Intervals open and close at these fixed points.
    """
    out = []
    start = None
    d0 = 0  # sign of f(x) - x at the left knot; f(0) = 0
    for (x0, y0), (x1, y1), s in zip(f._knots, f._knots[1:], f.slopes):
        d1 = (y1 - x1).sign()
        if d0 == 0 and d1 != 0:
            start = x0
        elif d0 * d1 < 0:
            cross = x0 + (x0 - y0) / (s - ONE)
            out.append((start, cross))
            start = cross
        if d1 == 0 and start is not None:
            out.append((start, x1))
            start = None
        d0 = d1
    return tuple(out)


class PLGroupSpec(_Value):
    """The group of PL self-homeomorphisms of [0, ell] with singularities
    (and their images) in A and slopes in P."""

    __slots__ = ("ell", "singularities", "slopes")

    def __init__(self, ell: ExactNumber, singularities: AdditiveGroup, slopes: SlopeGroup) -> None:
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "singularities", singularities)
        object.__setattr__(self, "slopes", slopes)
        # A is Z[1/n], Z[t] or Q, a ring with 1, so p A = A exactly when p
        # and 1/p lie in A; checking each generator of P checks all of P.
        if not self.singularities.contains(self.ell):
            raise ValueError(f"ell = {self.ell} is not in {self.singularities}")
        for p in self.slopes.generators:
            if not (self.singularities.contains(p) and self.singularities.contains(p.inverse())):
                raise ValueError(f"slope {p} does not preserve {self.singularities}")

    def __str__(self) -> str:
        return f"G([0,{format_number(self.ell)}]; {self.singularities}, {self.slopes})"


class MembershipReport(_Value):
    __slots__ = ("ok", "violations")

    def __init__(self, ok: bool, violations: tuple[str, ...]) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "violations", violations)


def is_member(f: PLMap, spec: PLGroupSpec) -> MembershipReport:
    """Check breakpoints, breakpoint images, and slopes against the spec."""
    if f.ell != spec.ell:
        return MembershipReport(False, (f"domain [0,{f.ell}] does not match [0,{spec.ell}]",))
    violations = []
    for b, image in f._knots[1:-1]:
        if not spec.singularities.contains(b):
            violations.append(f"singularity {b} is not in {spec.singularities}")
        if not spec.singularities.contains(image):
            violations.append(f"image {image} of singularity {b} is not in {spec.singularities}")
    for s in f.slopes:
        if not spec.slopes.contains(s):
            violations.append(f"slope {s} is not in {spec.slopes}")
    return MembershipReport(not violations, tuple(violations))


def endpoint_characters(f: PLMap, slopes: SlopeGroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exponent vectors of the slopes at 0+ and ell-.

    Slopes at the two endpoints are multiplicative under composition, so
    these exponent vectors are additive; they vanish on commutators.  This
    is the natural pair of homomorphisms fixed by conjugation-like
    symmetries of the group, offered without any claim of canonicity.
    """
    try:
        left = slopes.factor(f.initial_slope)
        right = slopes.factor(f.final_slope)
    except NonMember as exc:
        raise NonMember(f"endpoint slope does not factor: {exc}") from exc
    return left, right


def scaling_family(p, q, r) -> tuple[PLMap, PLMap, PLMap]:
    """The three unit-interval maps with parameters p, q, r > 1: the first
    contracts near 0 by 1/p and is supported on [0, 3/4]; the other two fix
    [0, 1/4] and scale by 1/q (resp. 1/r) just past it.  Exact parameters
    only (rational or in Q(sqrt5))."""
    p, q, r = ExactNumber.of(p), ExactNumber.of(q), ExactNumber.of(r)
    for name, val in (("p", p), ("q", q), ("r", r)):
        if not val > ONE:
            raise ValueError(f"parameter {name} must be > 1")
    three, four = ExactNumber.of(3), ExactNumber.of(4)
    quarter = ExactNumber.rational(1, 4)
    f = PLMap.make(
        ONE,
        (three * p / (four * p + four), ExactNumber.rational(3, 4)),
        (p.inverse(), p, ONE),
    )

    def late_scaler(u: ExactNumber) -> PLMap:
        return PLMap.make(
            ONE,
            (quarter, (four * u + ONE) / (four * u + four)),
            (ONE, u.inverse(), u),
        )

    return f, late_scaler(q), late_scaler(r)


_PL_RE = re.compile(r"^\s*pl\s+ell=(?P<ell>\S+)\s+breaks=\[(?P<breaks>[^\]]*)\]\s+slopes=\[(?P<slopes>[^\]]*)\]\s*$")


def format_plmap(f: PLMap) -> str:
    breaks = ",".join(format_number(b) for b in f.breakpoints)
    slopes = ",".join(format_number(s) for s in f.slopes)
    return f"pl ell={format_number(f.ell)} breaks=[{breaks}] slopes=[{slopes}]"


def parse_plmap(text: str) -> PLMap:
    m = _PL_RE.match(text)
    if not m:
        raise ParseError("invalid PL map literal", text, 0)
    ell = _parse_part(text, (m.start("ell"), m.group("ell")), parse_number)
    breaks, slopes = (
        tuple(_parse_part(text, p, parse_number) for p in _parts(text, ",", *m.span(g)) if p[1])
        for g in ("breaks", "slopes")
    )
    return _construct(text, PLMap, ell, breaks, slopes)
