"""Exact computational toolkit for Thompson-like groups.

`ParseError` is defined here, so that a module can parse its literals
without importing `numbers`.  So is `_Value`, the base of every value
type (tree pairs, diagrams, words, verdicts, maps, matrices): they are
plain slotted classes, because importing the standard library's data
class generator (with `inspect` behind it) and generating each class's
methods cost more than a workload's own set-up.  Modules:

- numbers: exact arithmetic in Q and Q(sqrt5), and the additive and
  multiplicative subgroups of R that PL groups are built from.
- plmaps: piecewise-linear homeomorphisms of [0, ell], membership in
  Bieri-Strebel groups G([0, ell]; A, P), and endpoint characters.
- treepairs: Thompson's group F as reduced tree pairs, with a PL
  realization.
- braids: braid words, decided by free and handle reduction.
- braided: braided paired tree diagrams and the braided Thompson groups
  they form.
- lodha_moore: the four Lodha-Moore groups as transducer words and as
  exact piecewise-Moebius maps of [0, inf]: the maps decide equality, and
  for words whose maps differ a depth-bounded transducer search looks for
  a witness input, whose first differing output bit it reads by replaying
  that input; characters.
- intlinalg: Smith normal form, lattice quotients, and finitely generated
  abelian groups with automorphisms.
- finite_groups: the groups of order <= 16 as multiplication tables,
  built from cyclic groups by direct products and cyclic extensions;
  their automorphisms, and brute-force twisted classes.
- reidemeister: character-invariance certificates for infinite
  Reidemeister numbers.

Everything computes exactly; there is no floating point in any kernel.
"""

__version__ = "0.1.0"


class ParseError(ValueError):
    """Malformed literal; carries the offending position."""

    def __init__(self, message: str, text: str, pos: int) -> None:
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.message = message
        self.text = text
        self.pos = pos


class _Value:
    """An immutable value whose fields are the names in `__slots__` (a
    class with cached properties adds "__dict__", which is not a field).
    Its `__init__` sets each field once with `object.__setattr__`; after
    that, equality, hashing, repr and pickling read the fields in order."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in type(self).__slots__ if name != "__dict__"])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        names = [name for name in type(self).__slots__ if name != "__dict__"]
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._fields()


# Composite literals (tree pairs, diagrams, slope groups, PL maps) parse their
# parts with the parts' own parsers, and report every error in the whole text.


def _parts(text: str, sep: str, start: int = 0, end: int | None = None) -> list[tuple[int, str]]:
    """Each part of text[start:end].split(sep), stripped, with its offset in text."""
    out = []
    for part in text[start:end].split(sep):
        out.append((start + len(part) - len(part.lstrip()), part.strip()))
        start += len(part) + len(sep)
    return out


def _parse_part(text: str, part: tuple[int, str], parse, *args):
    """parse(literal, *args) for the part (offset, literal) of text; a
    ParseError in the part is reported at its place in text."""
    offset, literal = part
    try:
        return parse(literal, *args)
    except ParseError as e:
        raise ParseError(e.message, text, offset + e.pos) from None


def _construct(text: str, make, *args):
    """make(*args) for the parts of a well-formed literal; a refusal is a
    ParseError at position 0."""
    try:
        return make(*args)
    except ValueError as e:
        raise ParseError(str(e), text, 0) from None
