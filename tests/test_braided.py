import copy
import pickle
import random

import pytest

from rinfinity import ParseError
from rinfinity.braided import (
    IDENTITY,
    BraidedDiagram,
    equal,
    from_treepair,
    inverse,
    is_identity,
    multiply,
    parse_diagram,
    standard_generators,
    wrap_generator,
)
from rinfinity.braids import BraidWord, braid_equal
from rinfinity import treepairs as tp
from rinfinity.treepairs import LEAF, Tree, TreePair, caret, f_characters

from oracles import expansion, random_tree


def random_pure_braid(rng, n, length=3):
    word = BraidWord(n)
    if n < 2:
        return word
    for _ in range(length):
        pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        i, j = pairs[rng.randrange(len(pairs))]
        gen = wrap_generator(i, j, n)
        word = word * (gen if rng.random() < 0.5 else gen.inverse())
    return word


def random_pure_diagram(rng, max_leaves=5, braid_length=2):
    n = rng.randint(1, max_leaves)
    return BraidedDiagram(
        random_tree(rng, n), random_pure_braid(rng, n, braid_length), random_tree(rng, n)
    )


def random_diagram(rng, max_leaves=6, braid_length=4):
    """A diagram whose braid permutes its strands, so that growth sites on
    the plus tree route through the permutation."""
    n = rng.randint(2, max_leaves)
    letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(braid_length))
    return BraidedDiagram(random_tree(rng, n), BraidWord(n, letters), random_tree(rng, n))


# The product as first written: expand one caret at a time, recomputing
# the growth sites and the permutation after every caret.  Kept as the
# reference for the product that grafts each growth site once.


def ref_multiply(d1, d2):
    while growth := tp._growth(d1.plus, d2.minus)[0]:
        d1 = expansion(d1, d1.braid.permutation().index(growth[0][0]) + 1)
    while growth := tp._growth(d1.plus, d2.minus)[1]:
        d2 = expansion(d2, growth[0][0])
    return BraidedDiagram(d1.minus, d1.braid * d2.braid, d2.plus)


def assert_same_product(d1, d2):
    p, r = multiply(d1, d2), ref_multiply(d1, d2)
    assert p.minus == r.minus and p.plus == r.plus
    assert braid_equal(p.braid, r.braid)
    return p


def test_multiply_matches_caretwise_product_on_generator_words():
    gens = list(standard_generators().values())
    letters = gens + [inverse(g) for g in gens]
    rng = random.Random(101)
    for _ in range(300):
        d = rng.choice(letters)
        for _ in range(rng.randint(1, 4)):
            d = assert_same_product(d, rng.choice(letters))


def test_multiply_matches_caretwise_product_on_random_diagrams():
    rng = random.Random(103)
    for _ in range(300):
        assert_same_product(random_pure_diagram(rng, 6, 2), random_pure_diagram(rng, 6, 2))
        assert_same_product(random_diagram(rng), random_diagram(rng))


def test_subtree_expansion_is_composite_of_caret_expansions():
    rng = random.Random(105)
    for _ in range(300):
        d = random_diagram(rng)
        leaf = rng.randint(1, d.n_strands)
        subtree = random_tree(rng, rng.randint(1, 6))
        # Carets built top down, each at the leftmost leaf of its subtree.
        e, stack = d, [(leaf, subtree)]
        while stack:
            i, s = stack.pop()
            if not s.is_leaf:
                e = expansion(e, i)
                stack += [(i, s.left), (i + 1, s.right)]
        grafted = expansion(d, leaf, subtree)
        assert grafted.minus == e.minus and grafted.plus == e.plus
        assert braid_equal(grafted.braid, e.braid)


def test_deep_diagram_has_repr_and_str():
    v = tp.right_vine(3000)
    d = BraidedDiagram(v, BraidWord(3000), v)
    assert repr(d) == f"BraidedDiagram(minus={v!r}, braid={d.braid!r}, plus={v!r})"
    assert str(d) == f"{v} | e | {v}"


def test_expansion_of_identity():
    e = expansion(IDENTITY, 1)
    assert e.minus == caret(LEAF, LEAF)
    assert e.plus == caret(LEAF, LEAF)
    assert e.braid == BraidWord(2)
    assert is_identity(e)


def test_expansion_preserves_class():
    rng = random.Random(81)
    for _ in range(60):
        d = random_pure_diagram(rng, 4, 1)
        e = expansion(d, rng.randint(1, d.n_strands))
        assert equal(d, e)


def test_multiply_inverse_is_identity():
    rng = random.Random(83)
    for _ in range(40):
        d = random_pure_diagram(rng, 4, 1)
        assert is_identity(multiply(d, inverse(d)))


def test_multiply_matches_treepair_oracle():
    rng = random.Random(87)
    for _ in range(1000):
        n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
        d1 = tp.reduce(TreePair(random_tree(rng, n1), random_tree(rng, n1)))
        d2 = tp.reduce(TreePair(random_tree(rng, n2), random_tree(rng, n2)))
        product = multiply(from_treepair(d1), from_treepair(d2))
        assert braid_equal(product.braid, BraidWord(product.n_strands))
        expected = tp.multiply(d1, d2)
        assert equal(product, from_treepair(expected))


def test_generators_are_pure():
    gens = standard_generators()
    assert len(gens) == 10
    for name, d in gens.items():
        assert d.braid.is_pure, name


def test_alpha12_linking():
    # Strands 1 and 2 cross twice, positively (linking number 1), and no
    # other pair crosses.
    assert standard_generators()["alpha12"].braid.crossing_counts() == {(1, 2): 2}


def test_beta_vs_alpha_vine_sizes():
    gens = standard_generators()
    for i, j in ((1, 2), (1, 3), (2, 3), (2, 4)):
        assert gens[f"alpha{i}{j}"].n_strands == j + 1
        assert gens[f"beta{i}{j}"].n_strands == j
        assert gens[f"alpha{i}{j}"].minus == gens[f"alpha{i}{j}"].plus


def test_phi_characters_basics():
    assert f_characters(IDENTITY) == (0, 0)
    gens = standard_generators()
    for name, d in gens.items():
        if name.startswith(("alpha", "beta")):
            assert f_characters(d) == (0, 0)
    assert f_characters(gens["x0"]) == f_characters(tp.X0)
    assert f_characters(gens["x1"]) == f_characters(tp.X1)


def test_phi_characters_expansion_invariant():
    rng = random.Random(91)
    for _ in range(1000):
        d = random_pure_diagram(rng, 5, 1)
        e = expansion(d, rng.randint(1, d.n_strands))
        assert f_characters(e) == f_characters(d)


def test_phi_characters_additive():
    rng = random.Random(93)
    for _ in range(1000):
        d1 = random_pure_diagram(rng, 4, 1)
        d2 = random_pure_diagram(rng, 4, 1)
        c1, c2 = f_characters(d1), f_characters(d2)
        c12 = f_characters(multiply(d1, d2))
        assert c12 == (c1[0] + c2[0], c1[1] + c2[1])


def test_phi_quotient_rank_two():
    gens = standard_generators()
    x0, x1 = gens["x0"], gens["x1"]
    rng = random.Random(97)
    for _ in range(50):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        word = IDENTITY
        for _ in range(abs(a)):
            word = multiply(word, x0 if a > 0 else inverse(x0))
        for _ in range(abs(b)):
            word = multiply(word, x1 if b > 0 else inverse(x1))
        chars = f_characters(word)
        assert (chars == (0, 0)) == (a == 0 and b == 0)


def test_multiply_with_braided_generator_characters():
    gens = standard_generators()
    product = multiply(gens["x0"], gens["alpha12"])
    assert product.braid.is_pure
    assert f_characters(product) == f_characters(gens["x0"])


def test_diagram_parse_roundtrip():
    gens = standard_generators()
    for d in gens.values():
        assert parse_diagram(str(d)) == d


def test_parse_diagram_error_points_at_the_bad_token():
    for text, bad in (
        ("(..) | s1 | (.x)", "x)"),
        ("(..) | s1 s5 | (..)", "s5"),
        ("(x.) | e | (..)", "x"),
        ("((..).) |s1 q2| (.(..))", "q2"),
    ):
        with pytest.raises(ParseError) as info:
            parse_diagram(text)
        assert info.value.text == text
        assert text[info.value.pos :].startswith(bad), (text, info.value.pos)


def test_refused_diagram_literal_is_a_parse_error():
    # Each part is well formed, but the trees' leaf counts differ.
    text = "(..) | e | ."
    with pytest.raises(ParseError, match="must agree") as info:
        parse_diagram(text)
    assert (info.value.pos, info.value.text) == (0, text)


def test_deep_diagrams_pickle_and_copy():
    v = tp.right_vine(5000)
    d = BraidedDiagram(v, BraidWord(5000, (1, -4999, 2)), v)
    for clone in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert clone == d and clone.minus.carets == v.carets
