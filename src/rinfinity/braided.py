"""Braided paired tree diagrams (T_minus, braid, T_plus) up to
expansion/reduction, and the braided Thompson groups they form.  An
expansion grafts a subtree at both ends of one strand and cables that
strand; the tree-depth characters are `treepairs.f_characters`.

Conventions: the minus tree is drawn on top with leaves 1..n left to
right, strands run top to bottom, strand s joins leaf s of the minus tree
to leaf perm(s) of the plus tree, and sigma_i crosses the strand in
position i over position i+1.
"""

from __future__ import annotations

from . import ParseError, _Value, _construct, _parse_part, _parts
from .braids import BraidWord, _cable, braid_equal, cable, format_braid, parse_braid
from .treepairs import (
    CARET,
    LEAF,
    X0,
    X1,
    Tree,
    TreePair,
    _graft,
    _growth,
    format_tree,
    parse_tree,
    right_vine,
)


class BraidedDiagram(_Value):
    __slots__ = ("minus", "braid", "plus")

    def __init__(self, minus: Tree, braid: BraidWord, plus: Tree) -> None:
        object.__setattr__(self, "minus", minus)
        object.__setattr__(self, "braid", braid)
        object.__setattr__(self, "plus", plus)
        n = self.minus.leaves
        if self.plus.leaves != n or self.braid.n != n:
            raise ValueError("leaf counts and strand count must agree")

    @property
    def n_strands(self) -> int:
        return self.braid.n

    @property
    def is_pure(self) -> bool:
        return self.braid.is_pure

    def __str__(self) -> str:
        return f"{format_tree(self.minus)} | {format_braid(self.braid)} | {format_tree(self.plus)}"


IDENTITY = BraidedDiagram(LEAF, BraidWord(1), LEAF)


def from_treepair(d: TreePair) -> BraidedDiagram:
    """Embed an element of F as a trivial-braid diagram."""
    return BraidedDiagram(d.minus, BraidWord.identity(d.minus.leaves), d.plus)


def expansion(d: BraidedDiagram, leaf: int, subtree: Tree = CARET) -> BraidedDiagram:
    """Graft `subtree` at minus-leaf `leaf` and at the plus leaf its strand
    reaches, cabling that strand into `subtree.leaves` parallel strands."""
    if not 1 <= leaf <= d.n_strands:
        raise ValueError(f"leaf {leaf} out of range")
    partner = d.braid.permutation()[leaf - 1]
    return BraidedDiagram(
        _graft(d.minus, [(leaf, subtree)]),
        cable(d.braid, leaf, subtree.leaves),
        _graft(d.plus, [(partner, subtree)]),
    )


def inverse(d: BraidedDiagram) -> BraidedDiagram:
    return BraidedDiagram(d.plus, d.braid.inverse(), d.minus)


def multiply(d1: BraidedDiagram, d2: BraidedDiagram) -> BraidedDiagram:
    """Glue plus(d1) to minus(d2) after expanding both to their common
    refinement, as `treepairs.multiply` does.  A site on plus(d1) grows the
    minus leaf whose strand reaches it, a site on minus(d2) the plus leaf
    its strand reaches, and each braid cables its grown strands in one
    pass; the braids concatenate.  Only minus(d1) and plus(d2) are kept."""
    grow1, grow2 = _growth(d1.plus, d2.minus)
    starts = d1.braid.inverse().permutation() if grow1 else ()
    sites1 = sorted((starts[leaf - 1], subtree) for leaf, subtree in grow1)
    ends = d2.braid.permutation() if grow2 else ()
    sites2 = sorted((ends[leaf - 1], subtree) for leaf, subtree in grow2)
    braid1 = _cable(d1.braid, {s: subtree.leaves for s, subtree in sites1})
    braid2 = _cable(d2.braid, {s: subtree.leaves for s, subtree in grow2})
    return BraidedDiagram(_graft(d1.minus, sites1), braid1 * braid2, _graft(d2.plus, sites2))


def is_identity(d: BraidedDiagram) -> bool:
    """Expansions and reductions preserve (minus == plus and braid trivial),
    and that property characterizes the class of the identity diagram."""
    return d.minus == d.plus and braid_equal(d.braid, BraidWord.identity(d.n_strands))


def equal(d1: BraidedDiagram, d2: BraidedDiagram) -> bool:
    return is_identity(multiply(inverse(d1), d2))


def wrap_generator(i: int, j: int, n: int) -> BraidWord:
    """The pure braid A_ij wrapping strand i around strand j (i < j <= n):
    (sigma_{j-1} ... sigma_{i+1}) sigma_i^2 (sigma_{i+1}^-1 ... sigma_{j-1}^-1)."""
    if not 1 <= i < j <= n:
        raise ValueError("need 1 <= i < j <= n")
    prefix = list(range(j - 1, i, -1))
    letters = prefix + [i, i] + [-k for k in reversed(prefix)]
    return BraidWord(n, tuple(letters))


def standard_generators() -> dict[str, BraidedDiagram]:
    """The ten standard generators of the braided analogue of F: the two
    tree-pair generators of F with trivial braids, and the wrap diagrams
    alpha_ij = (R_{j+1}, A_ij, R_{j+1}), beta_ij = (R_j, A_ij, R_j) on
    right vines."""
    gens: dict[str, BraidedDiagram] = {
        "x0": from_treepair(X0),
        "x1": from_treepair(X1),
    }
    for i, j in ((1, 2), (1, 3), (2, 3), (2, 4)):
        vine = right_vine(j + 1)
        gens[f"alpha{i}{j}"] = BraidedDiagram(vine, wrap_generator(i, j, j + 1), vine)
        vine = right_vine(j)
        gens[f"beta{i}{j}"] = BraidedDiagram(vine, wrap_generator(i, j, j), vine)
    return gens


def parse_diagram(text: str) -> BraidedDiagram:
    parts = _parts(text, "|")
    if len(parts) != 3:
        raise ParseError("diagram must look like minus | braid | plus", text, 0)
    minus, plus = (_parse_part(text, parts[i], parse_tree) for i in (0, 2))
    braid = _parse_part(text, parts[1], parse_braid, minus.leaves)
    return _construct(text, BraidedDiagram, minus, braid, plus)
