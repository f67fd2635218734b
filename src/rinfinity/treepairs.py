"""Thompson's group F as reduced pairs of finite rooted binary trees, with
an exact piecewise-linear realization used as an independent oracle.

Leaves are numbered 1..n left to right.  A pair (minus, plus) acts on
[0, 1] by sending the i-th standard dyadic interval of the plus tree
affinely onto the i-th interval of the minus tree; with that orientation,
diagram multiplication (glue plus of the left factor to minus of the
right) matches composition of maps, left factor applied last.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .numbers import ONE, AdditiveGroup, ExactNumber, ParseError, SlopeGroup
from .plmaps import PLGroupSpec, PLMap, is_member


@dataclass(frozen=True)
class Tree:
    """A leaf (children is None) or a caret with two subtrees."""

    children: tuple[Tree, Tree] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def left(self) -> Tree:
        assert self.children is not None
        return self.children[0]

    @property
    def right(self) -> Tree:
        assert self.children is not None
        return self.children[1]

    def __str__(self) -> str:
        return format_tree(self)


LEAF = Tree()


def caret(left: Tree, right: Tree) -> Tree:
    return Tree((left, right))


def leaf_count(t: Tree) -> int:
    if t.is_leaf:
        return 1
    return leaf_count(t.left) + leaf_count(t.right)


def left_depth(t: Tree) -> int:
    """Length of the path from the root to the leftmost leaf."""
    d = 0
    while not t.is_leaf:
        t = t.left
        d += 1
    return d


def right_depth(t: Tree) -> int:
    d = 0
    while not t.is_leaf:
        t = t.right
        d += 1
    return d


def right_vine(n: int) -> Tree:
    """The tree with n leaves in which no caret has a caret as left child."""
    if n < 1:
        raise ValueError("need at least one leaf")
    t = LEAF
    for _ in range(n - 1):
        t = caret(LEAF, t)
    return t


def add_caret(t: Tree, leaf: int) -> Tree:
    """Replace the given leaf (1-based) by a caret."""

    def go(node: Tree, offset: int) -> Tree:
        if node.is_leaf:
            return caret(LEAF, LEAF)
        nl = leaf_count(node.left)
        if leaf - offset <= nl:
            return caret(go(node.left, offset), node.right)
        return caret(node.left, go(node.right, offset + nl))

    n = leaf_count(t)
    if not 1 <= leaf <= n:
        raise ValueError(f"leaf index {leaf} out of range 1..{n}")
    return go(t, 0)


def collapse_caret(t: Tree, leaf: int) -> Tree:
    """Replace the caret whose leaves are (leaf, leaf+1) by a leaf."""

    def go(node: Tree, offset: int) -> Tree:
        assert not node.is_leaf
        nl = leaf_count(node.left)
        if node.left.is_leaf and node.right.is_leaf:
            if leaf == offset + 1:
                return LEAF
            raise ValueError("no caret at that leaf position")
        if leaf - offset <= nl - (0 if node.left.is_leaf else 1):
            if node.left.is_leaf:
                raise ValueError("no caret at that leaf position")
            return caret(go(node.left, offset), node.right)
        return caret(node.left, go(node.right, offset + nl))

    return go(t, 0)


def sibling_leaf_pairs(t: Tree) -> list[int]:
    """Leaf indices i such that leaves i and i+1 are children of one caret."""
    out: list[int] = []

    def go(node: Tree, offset: int) -> int:
        if node.is_leaf:
            return 1
        if node.left.is_leaf and node.right.is_leaf:
            out.append(offset + 1)
            return 2
        nl = go(node.left, offset)
        return nl + go(node.right, offset + nl)

    go(t, 0)
    return out


def refine(t1: Tree, t2: Tree) -> Tree:
    """Smallest common refinement (union of the two subdivision patterns)."""
    if t1.is_leaf:
        return t2
    if t2.is_leaf:
        return t1
    return caret(refine(t1.left, t2.left), refine(t1.right, t2.right))


def leaf_intervals(t: Tree) -> list[tuple[Fraction, Fraction]]:
    """Standard dyadic intervals of the leaves, left to right."""
    out: list[tuple[Fraction, Fraction]] = []

    def go(node: Tree, lo: Fraction, hi: Fraction) -> None:
        if node.is_leaf:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        go(node.left, lo, mid)
        go(node.right, mid, hi)

    go(t, Fraction(0), Fraction(1))
    return out


def format_tree(t: Tree) -> str:
    if t.is_leaf:
        return "."
    return f"({format_tree(t.left)}{format_tree(t.right)})"


def parse_tree(text: str) -> Tree:
    pos = 0

    def parse() -> Tree:
        nonlocal pos
        if pos >= len(text):
            raise ParseError("unexpected end of tree literal", text, pos)
        ch = text[pos]
        if ch == ".":
            pos += 1
            return LEAF
        if ch == "(":
            pos += 1
            left = parse()
            right = parse()
            if pos >= len(text) or text[pos] != ")":
                raise ParseError("expected ')'", text, pos)
            pos += 1
            return caret(left, right)
        raise ParseError(f"unexpected character {ch!r} in tree literal", text, pos)

    t = parse()
    if pos != len(text.strip()) and text[pos:].strip():
        raise ParseError("trailing characters after tree literal", text, pos)
    return t


@dataclass(frozen=True)
class TreePair:
    minus: Tree
    plus: Tree

    def __post_init__(self) -> None:
        if leaf_count(self.minus) != leaf_count(self.plus):
            raise ValueError("trees must have equal leaf counts")

    @property
    def n_leaves(self) -> int:
        return leaf_count(self.minus)

    def __str__(self) -> str:
        return f"{format_tree(self.minus)}|{format_tree(self.plus)}"


def parse_treepair(text: str) -> TreePair:
    parts = text.split("|")
    if len(parts) != 2:
        raise ParseError("tree pair must look like minus|plus", text, 0)
    return TreePair(parse_tree(parts[0].strip()), parse_tree(parts[1].strip()))


IDENTITY = TreePair(LEAF, LEAF)

X0 = TreePair(parse_tree("((..).)"), parse_tree("(.(..))"))
X1 = TreePair(parse_tree("(.((..).))"), parse_tree("(.(.(..)))"))


def reduce(d: TreePair, order=None) -> TreePair:
    """Remove caret pairs (leaves i, i+1 forming a caret in both trees)
    until none remain.  `order` optionally picks among the available
    reductions, for confluence testing."""
    minus, plus = d.minus, d.plus
    while True:
        common = sorted(set(sibling_leaf_pairs(minus)) & set(sibling_leaf_pairs(plus)))
        if not common:
            return TreePair(minus, plus)
        i = common[0] if order is None else order(common)
        minus = collapse_caret(minus, i)
        plus = collapse_caret(plus, i)


def expansion(d: TreePair, leaf: int) -> TreePair:
    return TreePair(add_caret(d.minus, leaf), add_caret(d.plus, leaf))


def _expansion_targets(current: Tree, goal: Tree) -> list[int]:
    """Leaves of `current` at which `goal` subdivides further."""
    out: list[int] = []

    def go(cur: Tree, gl: Tree, offset: int) -> int:
        if cur.is_leaf:
            if not gl.is_leaf:
                out.append(offset + 1)
            return 1
        assert not gl.is_leaf, "goal does not refine current tree"
        nl = go(cur.left, gl.left, offset)
        return nl + go(cur.right, gl.right, offset + nl)

    go(current, goal, 0)
    return out


def multiply(d1: TreePair, d2: TreePair) -> TreePair:
    """Reduced product d1 * d2 via common expansion: grow d1 until its plus
    tree equals the common refinement, grow d2 until its minus tree does."""
    target = refine(d1.plus, d2.minus)
    while d1.plus != target:
        d1 = expansion(d1, _expansion_targets(d1.plus, target)[0])
    while d2.minus != target:
        d2 = expansion(d2, _expansion_targets(d2.minus, target)[0])
    return reduce(TreePair(d1.minus, d2.plus))


def inverse(d: TreePair) -> TreePair:
    return TreePair(d.plus, d.minus)


def power(d: TreePair, k: int) -> TreePair:
    if k < 0:
        return power(inverse(d), -k)
    out = IDENTITY
    for _ in range(k):
        out = multiply(out, d)
    return out


def f_characters(d: TreePair) -> tuple[int, int]:
    """(left, right) endpoint characters: the log2 slopes of the PL
    realization at 0 and 1, computed on the trees."""
    return (
        left_depth(d.plus) - left_depth(d.minus),
        right_depth(d.plus) - right_depth(d.minus),
    )


@cache
def _dyadic_spec() -> PLGroupSpec:
    return PLGroupSpec(ONE, AdditiveGroup.z_inv(2), SlopeGroup.of(2))


def to_pl(d: TreePair) -> PLMap:
    """The PL map carrying the plus-tree intervals onto the minus-tree ones."""
    dom = leaf_intervals(d.plus)
    rng = leaf_intervals(d.minus)
    breaks = [ExactNumber.of(hi) for (_, hi) in dom[:-1]]
    slopes = [
        ExactNumber.of((rhi - rlo) / (dhi - dlo))
        for (dlo, dhi), (rlo, rhi) in zip(dom, rng)
    ]
    return PLMap.make(ExactNumber.of(1), breaks, slopes)


def from_pl(f: PLMap) -> TreePair:
    """Inverse of to_pl on members of the dyadic group; raises on others."""
    report = is_member(f, _dyadic_spec())
    if not report.ok:
        raise ValueError("map is not in the dyadic PL group: " + "; ".join(report.violations))

    def is_pow2(q: Fraction) -> bool:
        return (q.numerator == 1 and q.denominator & (q.denominator - 1) == 0) or (
            q.denominator == 1 and q.numerator & (q.numerator - 1) == 0
        )

    def affine_onto_standard(lo: Fraction, hi: Fraction) -> bool:
        """f is affine on [lo, hi] and maps it onto a standard dyadic interval."""
        if any(lo < b.a < hi for b in f.breakpoints):
            return False
        flo, fhi = f(ExactNumber.of(lo)).a, f(ExactNumber.of(hi)).a
        width = fhi - flo
        return is_pow2(width) and (flo / width).denominator == 1

    def build(lo: Fraction, hi: Fraction) -> Tree:
        if affine_onto_standard(lo, hi):
            return LEAF
        mid = (lo + hi) / 2
        return caret(build(lo, mid), build(mid, hi))

    plus = build(Fraction(0), Fraction(1))
    images = [f(ExactNumber.of(hi)).a for (_, hi) in leaf_intervals(plus)[:-1]]

    def build_from_cuts(lo: Fraction, hi: Fraction, cuts: list[Fraction]) -> Tree:
        if not cuts:
            return LEAF
        mid = (lo + hi) / 2
        assert mid in cuts, "image partition is not a binary subdivision"
        k = cuts.index(mid)
        return caret(build_from_cuts(lo, mid, cuts[:k]), build_from_cuts(mid, hi, cuts[k + 1 :]))

    minus = build_from_cuts(Fraction(0), Fraction(1), images)
    return reduce(TreePair(minus, plus))
