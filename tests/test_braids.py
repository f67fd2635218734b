import random

import pytest

from rinfinity import ParseError
from rinfinity.braids import (
    BraidWord,
    _cable,
    braid_equal,
    format_braid,
    handle_reduce,
    parse_braid,
)

from oracles import cable, exponent_sum


def random_word(rng, n, length):
    letters = []
    for _ in range(length):
        i = rng.randint(1, n - 1)
        letters.append(i if rng.random() < 0.5 else -i)
    return BraidWord(n, tuple(letters))


def artin_action(b):
    """Image of the free-group basis under the Artin representation,
    sigma_i: x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i.  Faithful for all
    n, so it is an independent (if slower) equality oracle; it reduces
    free words on its own, without the library's helpers."""

    def reduce_word(w):
        out = []
        for g in w:
            if out and out[-1] == -g:
                out.pop()
            else:
                out.append(g)
        return out

    images = [[g] for g in range(1, b.n + 1)]
    for l in reversed(b.letters):
        i = abs(l)
        if l > 0:
            new_i, new_i1 = [i, i + 1, -i], [i]
        else:
            new_i, new_i1 = [i + 1], [-(i + 1), i, i + 1]
        table = {i: new_i, i + 1: new_i1}
        updated = []
        for img in images:
            word = []
            for g in img:
                base = table.get(abs(g))
                if base is None:
                    word.append(g)
                elif g > 0:
                    word.extend(base)
                else:
                    word.extend(-x for x in reversed(base))
            updated.append(reduce_word(word))
        images = updated
    return tuple(tuple(img) for img in images)


def test_invariants_of_empty_word():
    b = BraidWord(3)
    assert b.permutation() == (1, 2, 3)
    assert exponent_sum(b) == 0
    assert b.crossing_counts() == {}


def test_sigma1_on_two_strands():
    b = BraidWord(2, (1,))
    assert b.permutation() == (2, 1)
    assert exponent_sum(b) == 1
    assert not b.is_pure


def test_sigma1_squared_linking():
    b = BraidWord(2, (1, 1))
    assert b.is_pure
    assert exponent_sum(b) == 2
    assert b.crossing_counts() == {(1, 2): 2}  # linking number 1


def test_braid_relation():
    assert braid_equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))


def test_far_commutation():
    assert braid_equal(BraidWord(4, (1, 3)), BraidWord(4, (3, 1)))


def test_sigma1_squared_nontrivial():
    assert not braid_equal(BraidWord(2, (1, 1)), BraidWord(2))


def test_equal_implies_same_invariants():
    rng = random.Random(51)
    for _ in range(200):
        n = rng.randint(2, 5)
        b1 = random_word(rng, n, rng.randint(0, 8))
        b2 = random_word(rng, n, rng.randint(0, 8))
        if braid_equal(b1, b2):
            assert b1.permutation() == b2.permutation()
            assert exponent_sum(b1) == exponent_sum(b2)
            assert b1.crossing_counts() == b2.crossing_counts()


def test_crossing_counts_decide_permutation_and_exponent_sum():
    # braid_equal screens on crossing counts alone, which must fix both
    rng = random.Random(59)
    agreeing = 0
    for _ in range(20000):
        n = rng.randint(2, 4)
        b1 = random_word(rng, n, rng.randint(0, 4))
        b2 = random_word(rng, n, rng.randint(0, 4))
        if b1.crossing_counts() == b2.crossing_counts():
            agreeing += 1
            assert b1.permutation() == b2.permutation()
            assert exponent_sum(b1) == exponent_sum(b2)
    assert agreeing > 1000


def test_braid_equal_matches_artin_oracle():
    rng = random.Random(53)
    for _ in range(300):
        n = rng.randint(2, 4)
        b1 = random_word(rng, n, rng.randint(0, 7))
        b2 = random_word(rng, n, rng.randint(0, 7))
        assert braid_equal(b1, b2) == (artin_action(b1) == artin_action(b2))


def test_handle_reduce_trivial_words():
    rng = random.Random(57)
    for _ in range(200):
        n = rng.randint(2, 5)
        w = random_word(rng, n, rng.randint(0, 10))
        assert len(handle_reduce(w * w.inverse()).letters) == 0


def test_permutation_composition():
    rng = random.Random(59)
    for _ in range(300):
        n = rng.randint(2, 5)
        b1 = random_word(rng, n, rng.randint(0, 8))
        b2 = random_word(rng, n, rng.randint(0, 8))
        p1, p2 = b1.permutation(), b2.permutation()
        assert (b1 * b2).permutation() == tuple(p2[p1[s] - 1] for s in range(n))


def test_linking_additive_on_pure_braids():
    rng = random.Random(61)
    count = 0
    while count < 100:
        n = rng.randint(2, 4)
        b1 = random_word(rng, n, rng.randint(0, 8))
        b2 = random_word(rng, n, rng.randint(0, 8))
        if not (b1.is_pure and b2.is_pure):
            continue
        # The linking numbers are half the crossing counts: additive, and
        # integers on pure braids.
        c1, c2, c12 = b1.crossing_counts(), b2.crossing_counts(), (b1 * b2).crossing_counts()
        for pair in set(c1) | set(c2) | set(c12):
            assert c12.get(pair, 0) == c1.get(pair, 0) + c2.get(pair, 0)
            assert c1.get(pair, 0) % 2 == 0
        count += 1


def test_cable_empty_word():
    assert cable(BraidWord(3), 1) == BraidWord(4)


def test_cable_sigma1():
    assert cable(BraidWord(2, (1,)), 1) == BraidWord(3, (2, 1))
    assert cable(BraidWord(2, (-1,)), 1) == BraidWord(3, (-2, -1))
    assert cable(BraidWord(2, (1,)), 2) == BraidWord(3, (1, 2))


def test_wide_cable_is_repeated_doubling():
    rng = random.Random(75)
    for _ in range(2000):
        n = rng.randint(2, 5)
        b = random_word(rng, n, rng.randint(0, 8))
        s, width = rng.randint(1, n), rng.randint(1, 5)
        doubled = b
        for _ in range(width - 1):
            doubled = cable(doubled, s)
        assert cable(b, s, width) == doubled
        assert cable(b, s, 1) == b


def test_cable_permutation_block_refinement():
    # Start positions above s shift by one, end positions above perm(s)
    # shift by one, and the doubled pair (s, s+1) lands in parallel on
    # (perm(s), perm(s)+1).
    rng = random.Random(67)
    for _ in range(1000):
        n = rng.randint(2, 5)
        b = random_word(rng, n, rng.randint(0, 8))
        s = rng.randint(1, n)
        perm = b.permutation()
        e_s = perm[s - 1]
        cperm = cable(b, s).permutation()
        assert cperm[s - 1] == e_s and cperm[s] == e_s + 1
        for t in range(1, n + 1):
            if t == s:
                continue
            new_start = t if t < s else t + 1
            expected_end = perm[t - 1] + (1 if perm[t - 1] > e_s else 0)
            assert cperm[new_start - 1] == expected_end


def test_all_strand_cable_matches_one_strand_at_a_time():
    # Cabling the strands one at a time, last start position first, keeps
    # the start positions of the strands still to cable.  The block of
    # start position s lands in parallel on the block of end position
    # perm(s), and each block begins after the widths of those before it.
    rng = random.Random(69)
    for _ in range(500):
        n = rng.randint(1, 5)
        b = random_word(rng, n, rng.randint(0, 8)) if n > 1 else BraidWord(1)
        widths = [rng.randint(1, 3) for _ in range(n)]
        cabled = _cable(b, dict(enumerate(widths, start=1)))
        one_at_a_time = b
        for s in range(n, 0, -1):
            one_at_a_time = cable(one_at_a_time, s, widths[s - 1])
        assert cabled.n == one_at_a_time.n == sum(widths)
        assert braid_equal(cabled, one_at_a_time)
        perm, cperm = b.permutation(), cabled.permutation()
        end_widths = [0] * n
        for s in range(n):
            end_widths[perm[s] - 1] = widths[s]
        for s in range(n):
            start = sum(widths[:s])
            end = sum(end_widths[: perm[s] - 1])
            for k in range(widths[s]):
                assert cperm[start + k] == end + k + 1


def delete_strand(b, strand):
    """Forget the strand with the given start position; crossings through
    it disappear and the other letters shift accordingly."""
    p = strand  # current position of the deleted strand
    out = []
    for l in b.letters:
        i = abs(l)
        if p not in (i, i + 1):
            out.append((i - 1 if p < i else i) * (1 if l > 0 else -1))
        p = i + 1 if p == i else i if p == i + 1 else p
    return BraidWord(b.n - 1, tuple(out))


def test_cable_then_delete_roundtrip():
    rng = random.Random(71)
    for _ in range(300):
        n = rng.randint(2, 5)
        b = random_word(rng, n, rng.randint(0, 8))
        s = rng.randint(1, n)
        doubled = cable(b, s)
        assert delete_strand(doubled, s) == b or braid_equal(delete_strand(doubled, s), b)
        assert delete_strand(doubled, s + 1) == b or braid_equal(delete_strand(doubled, s + 1), b)


def test_parse_format_roundtrip():
    rng = random.Random(73)
    for _ in range(100):
        n = rng.randint(2, 5)
        b = random_word(rng, n, rng.randint(0, 8))
        assert parse_braid(format_braid(b), n) == b
    assert parse_braid("s1 s2' s1", 3) == BraidWord(3, (1, -2, 1))
    assert parse_braid("e", 3) == BraidWord(3)


def test_str_parses_back():
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randint(1, 5)
        b = random_word(rng, n, rng.randint(0, 8)) if n > 1 else BraidWord(1)
        assert parse_braid(str(b), b.n) == b


def test_parse_braid_error_points_at_the_bad_token():
    for text, bad in (
        ("s1  x", "x"),
        ("  s1 s2 q1", "q1"),
        ("\ts1\t\ts0 s1", "s0"),
        (" s1 \t s2'' ", "s2''"),
        ("x", "x"),
    ):
        with pytest.raises(ParseError) as info:
            parse_braid(text, 3)
        assert text[info.value.pos :].startswith(bad), (text, info.value.pos)


def test_parse_braid_letter_out_of_range_is_a_parse_error():
    # s5 is a well-formed token, but the word on 3 strands refuses it.
    with pytest.raises(ParseError) as info:
        parse_braid("s1 s5", 3)
    assert info.value.pos == 3
    with pytest.raises(ParseError) as info:
        parse_braid("s2' s3'", 3)
    assert info.value.pos == 4


def brute_force_handle(letters):
    """The handle (p, q) with the smallest q, by trying every pair."""
    for q in range(len(letters)):
        i = abs(letters[q])
        for p in range(q - 1, -1, -1):
            between = {abs(l) for l in letters[p + 1 : q]}
            if letters[p] == -letters[q] and not between & {i, i - 1}:
                return p, q
    return None


# Handle reduction as first written: find the handle that ends leftmost,
# rewrite it, free-reduce the whole word and scan again from its start.
# Kept as the reference for the one-pass reduction.


def free_reduce(letters):
    out = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return out


def find_handle(letters):
    """Leftmost-ending handle (p, q): letters[p] = -letters[q] = sigma_i^e
    with no index i or i-1 strictly between."""
    last_seen = {}
    for q, l in enumerate(letters):
        i = abs(l)
        p = last_seen.get(i)
        if p is not None and letters[p] == -l and last_seen.get(i - 1, -1) < p:
            return p, q
        last_seen[i] = q
    return None


def ref_handle_reduce(word):
    letters = free_reduce(word.letters)
    while (found := find_handle(letters)) is not None:
        p, q = found
        e = 1 if letters[p] > 0 else -1
        i = abs(letters[p])
        replacement = []
        for l in letters[p + 1 : q]:
            if abs(l) == i + 1:
                d = 1 if l > 0 else -1
                replacement += [-e * (i + 1), d * i, e * (i + 1)]
            else:
                replacement.append(l)
        letters[p : q + 1] = replacement
        letters = free_reduce(letters)
    return BraidWord(word.n, tuple(letters))


def test_find_handle_matches_brute_force():
    rng = random.Random(79)
    found = 0
    for _ in range(2000):
        n = rng.randint(2, 6)
        letters = list(random_word(rng, n, rng.randint(0, 14)).letters)
        expected = brute_force_handle(letters)
        assert find_handle(letters) == expected, letters
        found += expected is not None
    assert found > 500


def test_handle_reduce_matches_reference():
    # Half the words are w u^-1 with u a prefix of w, so that many reduce
    # through long chains of handles, some to the empty word.
    rng = random.Random(83)
    emptied = 0
    for k in range(2400):
        n = rng.randint(2, 6)
        w = random_word(rng, n, rng.randint(0, 24 if k % 2 else 12))
        if k % 2 == 0:
            w = w * BraidWord(n, w.letters[: rng.randint(0, len(w.letters))]).inverse()
        reduced = handle_reduce(w)
        assert reduced == ref_handle_reduce(w), w
        emptied += not reduced.letters
    assert emptied > 100
