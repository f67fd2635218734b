"""Thompson's group F as reduced pairs of finite rooted binary trees, with
an exact piecewise-linear realization used as an independent oracle.

Leaves are numbered 1..n left to right.  A pair (minus, plus) acts on
[0, 1] by sending the i-th standard dyadic interval of the plus tree
affinely onto the i-th interval of the minus tree; with that orientation,
diagram multiplication (glue plus of the left factor to minus of the
right) matches composition of maps, left factor applied last.

A leaf at depth d is the dyadic cell (d, i), the interval [i/2^d,
(i+1)/2^d].  A tree's caret mask has bit i set when leaves i+1 and i+2
form one caret, so a pair whose two masks share no bit is reduced.

The PL realization here is `leaf_intervals` and `to_pl`, which import
`fractions`, `numbers` and `plmaps` inside their bodies: a caller that
needs only the trees and their characters, such as the Reidemeister
workload with X0, X1 and `f_characters`, does not load (and in a fresh
interpreter compile) the PL layer.  Its inverse on the dyadic PL group,
`from_pl`, is a test oracle.
"""

from __future__ import annotations

from . import ParseError, _Value, _construct, _parse_part, _parts


class Tree(_Value):
    """An immutable leaf (children is None) or caret with two subtrees.
    `leaves` (the leaf count) and `carets` (the caret mask) are set from
    the children on construction."""

    __slots__ = ("children", "leaves", "carets")

    def __init__(self, children: tuple[Tree, Tree] | None = None) -> None:
        if children is None:
            leaves, carets = 1, 0
        else:
            left, right = children
            leaves = left.leaves + right.leaves
            carets = 1 if leaves == 2 else left.carets | right.carets << left.leaves
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(self, "carets", carets)

    # Pickled and copied as its literal: format_tree and parse_tree do not
    # recurse, so a tree of any depth round-trips.
    def __reduce__(self) -> tuple:
        return parse_tree, (format_tree(self),)

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def left(self) -> Tree:
        return self.children[0]

    @property
    def right(self) -> Tree:
        return self.children[1]

    def __str__(self) -> str:
        return format_tree(self)

    def __repr__(self) -> str:
        return f"Tree({format_tree(self)!r})"

    # Equality and hashing walk the tree with an explicit stack, so that deep
    # trees do not exhaust the recursion limit.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.children is None or b.children is None:
                if a.children is not b.children:
                    return False
                continue
            stack += zip(a.children, b.children)
        return True

    def __hash__(self) -> int:
        """Hash of the shape read in preorder, right subtree first: 1 per
        caret, 0 per leaf, which determines the tree."""
        shape = bytearray()
        stack = [self]
        while stack:
            t = stack.pop()
            if t.children is None:
                shape.append(0)
            else:
                shape.append(1)
                stack += t.children
        return hash(bytes(shape))


LEAF = Tree()


def caret(left: Tree, right: Tree) -> Tree:
    return Tree((left, right))


def leaf_count(t: Tree) -> int:
    """Leaf count by recursion; `Tree.leaves` holds the same number."""
    children = t.children
    if children is None:
        return 1
    return leaf_count(children[0]) + leaf_count(children[1])


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


CARET = caret(LEAF, LEAF)


def _graft(t: Tree, sites: list[tuple[int, Tree]]) -> Tree:
    """Replace each given leaf (1-based, increasing) by its subtree.  Sites
    are grafted right to left, so the earlier indices stay valid; each
    descends by `Tree.leaves` and copies only the path to its leaf."""
    for leaf, subtree in reversed(sites):
        if not 1 <= leaf <= t.leaves:
            raise ValueError(f"leaf index {leaf} out of range 1..{t.leaves}")
        path: list[tuple[Tree, bool]] = []
        node = t
        while node.children is not None:
            left, right = node.children
            went_right = leaf > left.leaves
            if went_right:
                leaf -= left.leaves
            path.append((node, went_right))
            node = right if went_right else left
        out = subtree
        for parent, went_right in reversed(path):
            left, right = parent.children
            out = caret(left, out) if went_right else caret(out, right)
        t = out
    return t


def _growth(a: Tree, b: Tree) -> tuple[list[tuple[int, Tree]], list[tuple[int, Tree]]]:
    """The sites of `a` and of `b`, each a list of (leaf, subtree of the
    other tree there) where the other tree subdivides further, left to
    right, from one walk.  Grafting a tree's sites turns it into the
    common refinement of the two."""
    grow_a: list[tuple[int, Tree]] = []
    grow_b: list[tuple[int, Tree]] = []
    stack = [(a, b)]
    offset_a = offset_b = 0
    while stack:
        x, y = stack.pop()
        if x.children is None:
            offset_a += 1
            if y.children is not None:
                grow_a.append((offset_a, y))
            offset_b += y.leaves
        elif y.children is None:
            offset_b += 1
            grow_b.append((offset_b, x))
            offset_a += x.leaves
        else:
            stack += ((x.children[1], y.children[1]), (x.children[0], y.children[0]))
    return grow_a, grow_b


def _cells(t: Tree) -> list[tuple[int, int]]:
    """The dyadic cell (depth, index) of each leaf, left to right."""
    out: list[tuple[int, int]] = []
    stack = [(t, 0, 0)]
    while stack:
        node, d, i = stack.pop()
        children = node.children
        if children is None:
            out.append((d, i))
        else:
            stack += ((children[1], d + 1, 2 * i + 1), (children[0], d + 1, 2 * i))
    return out


def leaf_intervals(t: Tree) -> list[tuple[Fraction, Fraction]]:
    """Standard dyadic intervals of the leaves, left to right."""
    from fractions import Fraction

    return [(Fraction(i, 1 << d), Fraction(i + 1, 1 << d)) for d, i in _cells(t)]


def format_tree(t: Tree) -> str:
    """"." for a leaf, "(LR)" for a caret, written in one preorder walk."""
    out: list[str] = []
    stack: list[Tree | None] = [t]  # None closes a caret
    while stack:
        node = stack.pop()
        if node is None:
            out.append(")")
        elif node.children is None:
            out.append(".")
        else:
            out.append("(")
            stack += (None, node.children[1], node.children[0])
    return "".join(out)


def parse_tree(text: str) -> Tree:
    """Inverse of format_tree; the grammar is T := "." | "(" T T ")"."""
    # One entry per open caret: None until its left subtree is read.
    stack: list[Tree | None] = []
    pos = 0
    while True:
        if pos >= len(text):
            raise ParseError("unexpected end of tree literal", text, pos)
        ch = text[pos]
        if ch == "(":
            pos += 1
            stack.append(None)
            continue
        if ch != ".":
            raise ParseError(f"unexpected character {ch!r} in tree literal", text, pos)
        pos += 1
        t = LEAF
        # A finished subtree closes every caret whose left subtree is read.
        while stack and stack[-1] is not None:
            if pos >= len(text) or text[pos] != ")":
                raise ParseError("expected ')'", text, pos)
            pos += 1
            t = caret(stack.pop(), t)
        if not stack:
            break
        stack[-1] = t
    if pos != len(text.strip()) and text[pos:].strip():
        raise ParseError("trailing characters after tree literal", text, pos)
    return t


class TreePair(_Value):
    __slots__ = ("minus", "plus")

    def __init__(self, minus: Tree, plus: Tree) -> None:
        object.__setattr__(self, "minus", minus)
        object.__setattr__(self, "plus", plus)
        if self.minus.leaves != self.plus.leaves:
            raise ValueError("trees must have equal leaf counts")

    @property
    def n_leaves(self) -> int:
        return self.minus.leaves

    def __str__(self) -> str:
        return f"{format_tree(self.minus)}|{format_tree(self.plus)}"


def parse_treepair(text: str) -> TreePair:
    parts = _parts(text, "|")
    if len(parts) != 2:
        raise ParseError("tree pair must look like minus|plus", text, 0)
    minus, plus = (_parse_part(text, part, parse_tree) for part in parts)
    return _construct(text, TreePair, minus, plus)


IDENTITY = TreePair(LEAF, LEAF)

X0 = TreePair(parse_tree("((..).)"), parse_tree("(.(..))"))
X1 = TreePair(parse_tree("(.((..).))"), parse_tree("(.(.(..)))"))


def reduce(d: TreePair) -> TreePair:
    """Remove caret pairs (leaves i, i+1 forming a caret in both trees)
    until none remain.  If the caret masks share no bit, d is reduced.
    Otherwise one pass pushes each leaf's two cells on a stack, first
    merging them with the top into their parents while the top holds their
    left siblings in both trees; the stack's depths build the result."""
    if not d.minus.carets & d.plus.carets:
        return d
    stack: list[tuple[int, int, int, int]] = []
    for (dm, im), (dp, ip) in zip(_cells(d.minus), _cells(d.plus)):
        while im & ip & 1 and stack and stack[-1] == (dm, im - 1, dp, ip - 1):
            stack.pop()
            dm, im, dp, ip = dm - 1, im >> 1, dp - 1, ip >> 1
        stack.append((dm, im, dp, ip))
    return TreePair(_tree_from_depths([c[0] for c in stack]), _tree_from_depths([c[2] for c in stack]))


def expansion(d: TreePair, leaf: int, subtree: Tree = CARET) -> TreePair:
    """Replace the given leaf of both trees by `subtree`: the composite of
    the simple expansions, one per caret of `subtree`, that build it there."""
    site = [(leaf, subtree)]
    return TreePair(_graft(d.minus, site), _graft(d.plus, site))


def multiply(d1: TreePair, d2: TreePair) -> TreePair:
    """Reduced product d1 * d2 via common expansion: the sites of plus(d1)
    and minus(d2) make both the common refinement, and the product keeps
    only the other two trees.  So d1 is expanded at its sites, and plus(d2)
    is grafted at the sites of minus(d2) alone; then glue and reduce."""
    grow1, grow2 = _growth(d1.plus, d2.minus)
    for leaf, subtree in reversed(grow1):
        d1 = expansion(d1, leaf, subtree)
    return reduce(TreePair(d1.minus, _graft(d2.plus, grow2)))


def inverse(d: TreePair) -> TreePair:
    return TreePair(d.plus, d.minus)


def power(d: TreePair, k: int) -> TreePair:
    """d**k by repeated squaring."""
    if k < 0:
        return power(inverse(d), -k)
    out = IDENTITY
    while k:
        if k & 1:
            out = multiply(out, d)
        k >>= 1
        if k:
            d = multiply(d, d)
    return out


def f_characters(d: TreePair) -> tuple[int, int]:
    """(left, right) endpoint characters: the log2 slopes of the PL
    realization at 0 and 1, computed on the trees.  It reads only `minus`
    and `plus`, so it serves braided diagrams (on pure braids) too."""
    return (
        left_depth(d.plus) - left_depth(d.minus),
        right_depth(d.plus) - right_depth(d.minus),
    )


def to_pl(d: TreePair) -> PLMap:
    """The PL map carrying the plus-tree intervals onto the minus-tree ones."""
    from .numbers import ExactNumber
    from .plmaps import PLMap

    dom = leaf_intervals(d.plus)
    rng = leaf_intervals(d.minus)
    breaks = [ExactNumber.of(hi) for (_, hi) in dom[:-1]]
    slopes = [
        ExactNumber.of((rhi - rlo) / (dhi - dlo))
        for (dlo, dhi), (rlo, rhi) in zip(dom, rng)
    ]
    return PLMap.make(ExactNumber.of(1), breaks, slopes)


def _tree_from_depths(depths: list[int]) -> Tree:
    """The tree whose leaves, left to right, lie at the given depths: one
    stack of (depth, subtree) that merges equal-depth neighbours, which are
    siblings because the depths on the stack strictly increase."""
    stack: list[tuple[int, Tree]] = []
    for k in depths:
        t = LEAF
        while stack and stack[-1][0] == k:
            t = caret(stack.pop()[1], t)
            k -= 1
        stack.append((k, t))
    assert len(stack) == 1, "leaf depths do not form a binary subdivision"
    return stack[0][1]
