import copy
import pickle
import random
import time

import pytest

from rinfinity.numbers import ExactNumber, ParseError, SlopeGroup
from rinfinity.plmaps import PLMap, compose, endpoint_characters
from rinfinity import treepairs as tp
from rinfinity.treepairs import (
    IDENTITY,
    LEAF,
    X0,
    X1,
    TreePair,
    caret,
    expansion,
    f_characters,
    format_tree,
    from_pl,
    inverse,
    leaf_count,
    leaf_intervals,
    multiply,
    parse_tree,
    parse_treepair,
    power,
    reduce,
    to_pl,
)

R = ExactNumber.rational
LETTERS = (X0, X1, inverse(X0), inverse(X1))


def random_tree(rng, n_leaves):
    if n_leaves == 1:
        return LEAF
    k = rng.randint(1, n_leaves - 1)
    return caret(random_tree(rng, k), random_tree(rng, n_leaves - k))


def random_pair(rng, max_leaves=8):
    n = rng.randint(1, max_leaves)
    return reduce(TreePair(random_tree(rng, n), random_tree(rng, n)))


def test_tree_parse_roundtrip():
    rng = random.Random(3)
    for _ in range(100):
        t = random_tree(rng, rng.randint(1, 10))
        assert parse_tree(str(t)) == t
    assert str(X0.minus) == "((..).)"
    assert parse_treepair(str(X0)) == X0


def test_reduce_identity_caret():
    pair = TreePair(caret(LEAF, LEAF), caret(LEAF, LEAF))
    assert reduce(pair) == IDENTITY


def test_reduce_leaves_x0_alone():
    assert reduce(X0) == X0


def test_reduce_undoes_random_expansions():
    rng = random.Random(5)
    for _ in range(1000):
        d = random_pair(rng)
        e = d
        for _ in range(rng.randint(1, 4)):
            e = expansion(e, rng.randint(1, e.n_leaves))
        assert reduce(e) == d


def test_reduce_confluent_random_order():
    rng = random.Random(7)
    for _ in range(300):
        d = random_pair(rng)
        e = d
        for _ in range(rng.randint(1, 5)):
            e = expansion(e, rng.randint(1, e.n_leaves))
        a = reduce(e)
        b = ref_reduce(e, order=lambda options: options[rng.randrange(len(options))])
        c = ref_reduce(e, order=lambda options: options[-1])
        assert a == b == c


def test_multiply_inverse_gives_identity():
    rng = random.Random(11)
    for _ in range(200):
        d = random_pair(rng)
        assert multiply(d, inverse(d)) == IDENTITY
        assert multiply(inverse(d), d) == IDENTITY


def test_x0_pl_map():
    f = to_pl(X0)
    assert f.breakpoints == (R(1, 2), R(3, 4))
    assert f.slopes == (R(1, 2), R(1), R(2))
    assert f(R(1, 2)) == R(1, 4)


def test_x0_squared_matches_pl():
    d = multiply(X0, X0)
    assert to_pl(d) == compose(to_pl(X0), to_pl(X0))


def test_multiplication_matches_pl_composition():
    rng = random.Random(13)
    for _ in range(1000):
        d1, d2 = random_pair(rng, 6), random_pair(rng, 6)
        assert to_pl(multiply(d1, d2)) == compose(to_pl(d1), to_pl(d2))


def test_presentation_relator():
    # x1^-1 * (x0^-1 x1 x0) * x1 = x0^-2 x1 x0^2 in F.
    x2 = multiply(multiply(inverse(X0), X1), X0)
    x3 = multiply(multiply(power(X0, -2), X1), power(X0, 2))
    lhs = multiply(multiply(inverse(X1), x2), X1)
    assert lhs == x3
    relator = multiply(lhs, inverse(x3))
    assert relator == IDENTITY
    assert to_pl(relator).is_identity


def test_to_pl_from_pl_roundtrip():
    rng = random.Random(17)
    assert from_pl(to_pl(IDENTITY)) == IDENTITY
    for _ in range(1000):
        d = random_pair(rng, 7)
        assert from_pl(to_pl(d)) == d
    # A left vine over a right vine has end slopes 2^-4998 and 2^4998.
    left = LEAF
    for _ in range(4999):
        left = caret(left, LEAF)
    d = TreePair(left, tp.right_vine(5000))
    assert f_characters(d) == (-4998, 4998)
    assert from_pl(to_pl(d)) == d


def test_from_pl_roundtrip_on_a_long_power():
    f = to_pl(power(X0, 600))
    assert to_pl(from_pl(f)) == f
    assert from_pl(f) == power(X0, 600)


def test_from_pl_rejects_non_members():
    bad = PLMap.make(ExactNumber.of(1), (R(1, 3),), (R(2), R(1, 2)))
    with pytest.raises(ValueError):
        from_pl(bad)


def test_characters_on_standard_generators():
    assert f_characters(IDENTITY) == (0, 0)
    assert f_characters(X0) == (-1, 1)
    assert f_characters(X1) == (0, 1)


def test_characters_match_pl_slopes():
    rng = random.Random(19)
    for _ in range(300):
        d = random_pair(rng)
        left, right = f_characters(d)
        f = to_pl(d)
        assert f.initial_slope == R(2) ** left
        assert f.final_slope == R(2) ** right
        assert endpoint_characters(f, SlopeGroup.of(2)) == ((left,), (right,))


def test_characters_invariant_under_expansion():
    rng = random.Random(23)
    for _ in range(300):
        d = random_pair(rng)
        e = expansion(d, rng.randint(1, d.n_leaves))
        assert f_characters(e) == f_characters(d)


def test_characters_additive():
    rng = random.Random(29)
    for _ in range(1000):
        d1, d2 = random_pair(rng, 6), random_pair(rng, 6)
        c1, c2 = f_characters(d1), f_characters(d2)
        c12 = f_characters(multiply(d1, d2))
        assert c12 == (c1[0] + c2[0], c1[1] + c2[1])


def test_vine_and_depths():
    v = tp.right_vine(4)
    assert leaf_count(v) == 4
    assert tp.left_depth(v) == 1
    assert tp.right_depth(v) == 3


# The product as first written: expand one caret at a time, recomputing
# the common refinement's targets at every step, then collapse one caret
# pair at a time.  Kept as the reference for the grafting product.


def ref_add_caret(t, leaf):
    def go(node, offset):
        if node.is_leaf:
            return caret(LEAF, LEAF)
        nl = leaf_count(node.left)
        if leaf - offset <= nl:
            return caret(go(node.left, offset), node.right)
        return caret(node.left, go(node.right, offset + nl))

    return go(t, 0)


def ref_collapse_caret(t, leaf):
    def go(node, offset):
        nl = leaf_count(node.left)
        if node.left.is_leaf and node.right.is_leaf:
            return LEAF
        if leaf - offset <= nl - (0 if node.left.is_leaf else 1):
            return caret(go(node.left, offset), node.right)
        return caret(node.left, go(node.right, offset + nl))

    return go(t, 0)


def ref_sibling_pairs(t):
    out = []

    def go(node, offset):
        if node.is_leaf:
            return 1
        if node.left.is_leaf and node.right.is_leaf:
            out.append(offset + 1)
            return 2
        nl = go(node.left, offset)
        return nl + go(node.right, offset + nl)

    go(t, 0)
    return out


def ref_refine(t1, t2):
    if t1.is_leaf:
        return t2
    if t2.is_leaf:
        return t1
    return caret(ref_refine(t1.left, t2.left), ref_refine(t1.right, t2.right))


def ref_targets(current, goal):
    out = []

    def go(cur, gl, offset):
        if cur.is_leaf:
            if not gl.is_leaf:
                out.append(offset + 1)
            return 1
        nl = go(cur.left, gl.left, offset)
        return nl + go(cur.right, gl.right, offset + nl)

    go(current, goal, 0)
    return out


def ref_expansion(d, leaf):
    return TreePair(ref_add_caret(d.minus, leaf), ref_add_caret(d.plus, leaf))


def ref_reduce(d, order=lambda common: common[0]):
    """Collapse one common caret pair per pass, the one `order` picks."""
    minus, plus = d.minus, d.plus
    while True:
        common = sorted(set(ref_sibling_pairs(minus)) & set(ref_sibling_pairs(plus)))
        if not common:
            return TreePair(minus, plus)
        i = order(common)
        minus, plus = ref_collapse_caret(minus, i), ref_collapse_caret(plus, i)


def ref_multiply(d1, d2):
    target = ref_refine(d1.plus, d2.minus)
    while d1.plus != target:
        d1 = ref_expansion(d1, ref_targets(d1.plus, target)[0])
    while d2.minus != target:
        d2 = ref_expansion(d2, ref_targets(d2.minus, target)[0])
    return ref_reduce(TreePair(d1.minus, d2.plus))


def simple_expansion_steps(leaf, subtree):
    """Leaf indices of the one-caret expansions that build `subtree` at
    `leaf`, each caret before its children, right child first."""
    steps, stack = [], [(leaf, subtree)]
    while stack:
        i, s = stack.pop()
        if not s.is_leaf:
            steps.append(i)
            stack += [(i, s.left), (i + 1, s.right)]
    return steps


def fold(elements, mul=multiply):
    out = IDENTITY
    for e in elements:
        out = mul(out, e)
    return out


def test_multiply_matches_caretwise_product():
    rng = random.Random(31)
    for _ in range(500):
        d1, d2 = random_pair(rng, 20), random_pair(rng, 20)
        assert multiply(d1, d2) == ref_multiply(d1, d2)


def seeded_words():
    rng = random.Random(37)
    return [[rng.choice(LETTERS) for _ in range(60)] for _ in range(20)]


def test_multiply_matches_caretwise_product_on_words():
    for word in seeded_words():
        assert fold(word) == fold(word, ref_multiply)


def test_reduce_walks_cells_only_past_its_screen(monkeypatch):
    # A work count that repeats exactly: of the 1,200 products of the seeded
    # words, 157 glue trees that share a caret, and only those reduce calls
    # walk the leaf cells (two walks each).  A lost screen walks on all.
    calls = {"reduce": 0, "cells": 0}
    reduce_, cells = tp.reduce, tp._cells

    def counted_reduce(d):
        calls["reduce"] += 1
        return reduce_(d)

    def counted_cells(t):
        calls["cells"] += 1
        return cells(t)

    monkeypatch.setattr(tp, "reduce", counted_reduce)
    monkeypatch.setattr(tp, "_cells", counted_cells)
    for word in seeded_words():
        fold(word)
    assert calls == {"reduce": 1200, "cells": 2 * 157}


def test_subtree_expansion_is_composite_of_simple_expansions():
    rng = random.Random(41)
    for _ in range(300):
        d = random_pair(rng)
        leaf = rng.randint(1, d.n_leaves)
        subtree = random_tree(rng, rng.randint(1, 7))
        e = d
        for i in simple_expansion_steps(leaf, subtree):
            e = expansion(e, i)
        assert expansion(d, leaf, subtree) == e


def test_multi_site_graft_matches_one_site_at_a_time():
    rng = random.Random(45)
    for _ in range(300):
        t = random_tree(rng, rng.randint(1, 12))
        leaves = sorted(rng.sample(range(1, t.leaves + 1), rng.randint(0, t.leaves)))
        sites = [(leaf, random_tree(rng, rng.randint(1, 5))) for leaf in leaves]
        # Left to right, each index shifted by the leaves grafted before it.
        one_at_a_time, shift = t, 0
        for leaf, subtree in sites:
            one_at_a_time = tp._graft(one_at_a_time, [(leaf + shift, subtree)])
            shift += subtree.leaves - 1
        assert tp._graft(t, sites) == one_at_a_time
        assert tp._graft(t, sites).leaves == t.leaves + shift


def test_batched_reduce_matches_one_pair_at_a_time():
    rng = random.Random(43)
    for _ in range(300):
        d = random_pair(rng, 12)
        e = d
        for _ in range(rng.randint(1, 4)):
            e = expansion(e, rng.randint(1, e.n_leaves), random_tree(rng, rng.randint(2, 6)))
        assert reduce(e) == ref_reduce(e, order=lambda c: c[-1]) == ref_reduce(e) == d


def ref_caret_mask(t):
    return sum(1 << (i - 1) for i in ref_sibling_pairs(t))


def test_caret_mask_matches_sibling_pairs():
    rng = random.Random(44)
    for _ in range(300):
        t = random_tree(rng, rng.randint(1, 40))
        assert t.carets == ref_caret_mask(t)
        assert pickle.loads(pickle.dumps(t)).carets == t.carets
    assert LEAF.carets == 0 and tp.CARET.carets == 1


def test_caret_helpers_reject_bad_positions():
    t = parse_tree("((..).)")
    for leaf in (0, 4):
        with pytest.raises(ValueError):
            expansion(TreePair(t, t), leaf)


def test_power_by_squaring_matches_fold():
    d = power(X0, 200)
    assert d == fold([X0] * 200)
    assert f_characters(d) == (-200, 200)
    rng = random.Random(47)
    for _ in range(30):
        d = random_pair(rng)
        for k in (0, 1, 2, 5, 17, -9):
            assert power(d, k) == fold([d if k > 0 else inverse(d)] * abs(k))


def test_deep_tree_equality_and_hash_are_iterative():
    assert power(X0, 300) == power(X0, 300)
    assert power(X0, 600) != power(X0, 599)
    assert tp.right_vine(1500) == tp.right_vine(1500)
    assert tp.right_vine(1500) != tp.right_vine(1499)
    assert hash(tp.right_vine(1500)) == hash(tp.right_vine(1500))


def test_tree_equality_and_hash_are_structural():
    rng = random.Random(53)
    trees = [random_tree(rng, rng.randint(1, 9)) for _ in range(300)]
    for s, t in zip(trees, trees[1:]):
        same = format_tree(s) == format_tree(t)
        assert (s == t) is same and (s != t) is not same
        if same:
            assert hash(s) == hash(t)
    assert len(set(trees)) == len({format_tree(t) for t in trees})
    assert tp.Tree() == LEAF and X0.minus != LEAF


def test_deep_trees_have_repr_and_str():
    v = tp.right_vine(3000)
    text = format_tree(v)
    assert str(v) == text and repr(v) == f"Tree({text!r})"
    assert str(TreePair(v, v)) == f"{text}|{text}"
    assert repr(TreePair(v, v)) == f"TreePair(minus={v!r}, plus={v!r})"
    assert repr(X0) == "TreePair(minus=Tree('((..).)'), plus=Tree('(.(..))'))"


def test_tree_nodes_are_immutable():
    t = X0.minus
    for name in ("children", "leaves", "carets"):
        with pytest.raises(AttributeError):
            setattr(t, name, None)
        with pytest.raises(AttributeError):
            delattr(t, name)
    assert t.children[0] == tp.CARET and t.leaves == 3
    assert copy.copy(t) == t and pickle.loads(pickle.dumps(X0)) == X0


def test_leaf_field_matches_recursive_count():
    rng = random.Random(59)
    for _ in range(300):
        t = random_tree(rng, rng.randint(1, 40))
        assert t.leaves == leaf_count(t)
    assert tp.right_vine(700).leaves == 700


def test_long_power_has_no_recursion_limit():
    d = power(X0, 10_000)
    assert d.n_leaves == 10_002
    assert f_characters(d) == (-10_000, 10_000)


def deep_pair(n):
    """A reduced pair of n-leaf trees, each a right vine down to its last
    three leaves: ((..).) at the bottom of minus, (.(..)) of plus."""
    minus = caret(tp.CARET, LEAF)
    for _ in range(n - 3):
        minus = caret(LEAF, minus)
    return TreePair(minus, tp.right_vine(n))


def test_parse_treepair_error_points_at_the_bad_token():
    for text, bad in (
        ("(..)|(.x)", "x)"),
        ("((..).) | (.(.))", ")"),
        ("  (.x.)|(..)", "x"),
    ):
        with pytest.raises(ParseError) as info:
            parse_treepair(text)
        assert info.value.text == text
        assert text[info.value.pos :].startswith(bad), (text, info.value.pos)


def test_refused_treepair_literal_is_a_parse_error():
    # Both trees are well formed, but their leaf counts differ.
    with pytest.raises(ParseError, match="equal leaf counts") as info:
        parse_treepair("(..)|.")
    assert (info.value.pos, info.value.text) == (0, "(..)|.")


def test_deep_trees_format_parse_and_realize_without_recursion():
    d = deep_pair(5000)
    assert reduce(d) == d
    assert parse_tree(format_tree(d.plus)) == d.plus
    assert parse_treepair(str(d)) == d
    assert len(leaf_intervals(d.plus)) == 5000
    assert from_pl(to_pl(d)) == d


def test_deep_masks_screen_and_linear_reduce():
    # ref_sibling_pairs recurses, so deep masks are checked by their shape:
    # a right vine's one two-leaf caret holds its last two leaves.
    for n in (2, 3, 700, 5000):
        assert tp.right_vine(n).carets == 1 << (n - 2)
    d = deep_pair(5000)
    assert d.minus.carets & d.plus.carets == 0 and reduce(d) is d
    # Equal vines share one caret at a time, which a pass per caret pair
    # would collapse in quadratic time.
    v = tp.right_vine(5000)
    start = time.perf_counter()
    assert reduce(TreePair(v, v)) == IDENTITY
    assert time.perf_counter() - start < 1.0


def test_deep_trees_pickle_and_copy():
    v = tp.right_vine(5000)
    for value in (v, TreePair(v, v), power(X0, 1000), deep_pair(5000)):
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value) and clone == value


def test_multiply_of_deep_vine_pairs_by_generators():
    # The caret-wise reference adds one caret per step, so it is quadratic:
    # it checks 300-leaf products here (about 0.2 s each), while 3,000-leaf
    # products, whose grafts copy paths 3,000 carets deep, are checked
    # against composition of their PL maps.
    for n in (300, 3000):
        d = deep_pair(n)
        for g in (X0, X1):
            for a, b in ((d, g), (g, d)):
                p = multiply(a, b)
                if n == 300:
                    assert p == ref_multiply(a, b)
                else:
                    assert p == from_pl(compose(to_pl(a), to_pl(b)))


# The tree parser as first written, by recursion; kept as the reference
# for the iterative parser's trees and errors.


def ref_parse_tree(text):
    pos = 0

    def parse():
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


def test_parse_tree_matches_reference_on_good_and_bad_literals():
    def outcome(parse, text):
        try:
            return format_tree(parse(text))
        except ParseError as exc:
            return str(exc), exc.pos

    rng = random.Random(61)
    texts = ["", " ", ".", "..", "(.", "(..", "(..) ", "(...)", ")"]
    for _ in range(600):
        chars = list(format_tree(random_tree(rng, rng.randint(1, 8))))
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(len(chars) + 1)
            op = rng.randrange(3)
            if op == 0 and i < len(chars):
                del chars[i]
            elif op == 1:
                chars.insert(i, rng.choice("().x "))
            elif i < len(chars):
                chars[i] = rng.choice("().x ")
        texts.append("".join(chars))
    for text in texts:
        assert outcome(parse_tree, text) == outcome(ref_parse_tree, text), text
