"""Exact computational toolkit for Thompson-like groups.

`ParseError` is defined here, so that a module can parse its literals
without importing `numbers`.  Modules:

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
  exact piecewise-Moebius maps of [0, inf]: equal maps decide equality
  exactly, and words whose maps differ get a depth-bounded transducer
  search for a witness input, whose first differing output bit it reads
  by replaying that input; characters.
- intlinalg: Smith normal form, lattice quotients, and finitely generated
  abelian groups with automorphisms.
- finite_groups: the groups of order <= 16 as multiplication tables,
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
        self.text = text
        self.pos = pos
