import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rinfinity
from rinfinity import ParseError, lodha_moore, treepairs
from rinfinity.lodha_moore import (
    TAILS,
    VARIANTS,
    DepthVerdict,
    LMLetter,
    LMWord,
    Witness,
    WordMachine,
    character_value,
    characters,
    equal_up_to_depth,
    parse_word,
    relation_suite,
    word_map,
    x_image_of_address,
    y_address_allowed,
)
from rinfinity.treepairs import LEAF, TreePair, caret, f_characters, parse_tree

X = lambda *a: LMLetter("x", tuple(a))
Xi = lambda *a: LMLetter("x", tuple(a), -1)
Y = lambda *a: LMLetter("y", tuple(a))
Yi = lambda *a: LMLetter("y", tuple(a), -1)


def W(*letters, variant="yGy"):
    return LMWord(tuple(letters), variant)


def push_bits(word, bits):
    """What the word's transducer pipeline emits on the finite input bits."""
    machine = WordMachine(word)
    states, out = machine.initial, []
    for bit in bits:
        states, emitted = machine.push(states, bit)
        out.extend(emitted)
    return tuple(out)


def all_addresses(max_len):
    out = [()]
    for n in range(1, max_len + 1):
        out.extend(itertools.product((0, 1), repeat=n))
    return out


def test_x_case_rules():
    # x(00 a) = 0 a, x(01 a) = 10 a, x(1 a) = 11 a
    assert push_bits(W(X()), (0, 0, 1, 0, 1, 0)) == (0, 1, 0, 1, 0)
    assert push_bits(W(X()), (1,)) == (1, 1)
    assert push_bits(W(X()), (0, 1, 0)) == (1, 0, 0)
    assert push_bits(W(X()), (0,)) == ()


def test_y_fixes_zeros():
    # y(00 a) = 0 y(a): one bit out for every two read
    for k in (1, 5, 12):
        assert push_bits(W(Y()), (0,) * (2 * k)) == (0,) * k


def test_y_case_rules_first_bits():
    # y(01 a) = 10 y^-1(a); y^-1(0 a) = 00 y^-1(a); y^-1(10 a) = 01 y(a)
    assert push_bits(W(Y()), (0, 1, 0)) == (1, 0, 0, 0)
    assert push_bits(W(Yi()), (0, 0)) == (0, 0, 0, 0)
    assert push_bits(W(Yi()), (1, 0, 0, 1)) == (0, 1, 1, 0)


def test_address_restriction_outside_cylinder():
    w = W(X(0, 1))
    for bits in ((1, 1, 0, 1, 0, 0), (0, 0, 1, 1), (1,)):
        assert push_bits(w, bits) == bits


def test_variant_legality():
    assert y_address_allowed((0, 1), "G")
    assert not y_address_allowed((0, 0), "G")
    assert not y_address_allowed((), "G")
    assert not y_address_allowed((1, 1), "yG")
    assert y_address_allowed((0,), "yG")
    assert not y_address_allowed((0,), "Gy")
    assert y_address_allowed((), "yGy")
    with pytest.raises(ValueError):
        W(Y(0), variant="Gy")


def test_equal_same_word():
    w = W(X(0), Y(0, 1), Xi())
    assert not equal_up_to_depth(w, w, 12).distinct


def test_x_vs_x_inverse_distinct():
    verdict = equal_up_to_depth(W(X()), W(Xi()), 12)
    assert verdict.distinct
    assert verdict.witness is not None
    assert_witness_holds(W(X()), W(Xi()), verdict.witness)


def test_square_relation_at_root():
    lhs = W(X(), X())
    rhs = W(X(1), X(), X(0))
    assert not equal_up_to_depth(lhs, rhs, 12).distinct
    # perturbed version must be distinguished
    bad = W(X(0), X(), X(0))
    assert equal_up_to_depth(lhs, bad, 12).distinct


def test_x_image_of_address():
    assert x_image_of_address((), (0, 1)) == (1, 0)
    assert x_image_of_address((), (0,)) is None
    assert x_image_of_address((), (1,)) == (1, 1)
    assert x_image_of_address((0,), (0, 0, 1)) == (0, 1, 0)
    assert x_image_of_address((0,), (0, 0, 0)) == (0, 0)
    assert x_image_of_address((1,), (0, 1)) is None
    # t does not extend s; t == s; the remainder (0,) picks no case
    assert x_image_of_address((0, 1), (0, 0, 1, 1)) is None
    assert x_image_of_address((1, 0), (1, 0)) is None
    assert x_image_of_address((1, 0), (1, 0, 0)) is None


def test_conjugation_relation_example():
    lhs = W(X(), X(0, 1))
    rhs = W(X(1, 0), X())
    assert not equal_up_to_depth(lhs, rhs, 12).distinct


def test_commuting_relation_example():
    lhs = W(Y(0), Y(1))
    rhs = W(Y(1), Y(0))
    assert not equal_up_to_depth(lhs, rhs, 12).distinct


def test_expansion_relation_at_root():
    lhs = W(Y())
    rhs = W(Y(1, 1), Yi(1, 0), Y(0), X())
    assert not equal_up_to_depth(lhs, rhs, 12).distinct


def test_relation_suite_spot():
    checks = relation_suite((0,), (1,), 12, "yGy")
    by_name = {c.relation: c for c in checks}
    assert by_name["commute"].status == "pass"
    assert by_name["square"].status == "pass"
    checks_g = relation_suite((0,), (1,), 12, "G")
    assert {c.status for c in checks_g} <= {"pass", "skipped"}


def test_relation_suite_reports_a_failing_instance(monkeypatch):
    # every instance that is not skipped fails, with the witness as detail;
    # here x_s(t) is undefined, so the two conjugation relations are skipped
    witness = Witness((0, 1), "1^w", 7)
    for found, detail in ((witness, "input 011^w, first difference at output bit 7"),
                          (None, "no witness found at depth 5")):
        monkeypatch.setattr(
            lodha_moore, "equal_up_to_depth", lambda w1, w2, d: DepthVerdict(True, d, found)
        )
        checks = relation_suite((0,), (1,), 5, "yGy")
        failed = [c for c in checks if c.status == "fail"]
        assert [c.relation for c in failed] == ["square", "commute", "expand"]
        assert {c.detail for c in failed} == {detail}
        assert detail == str(found or "no witness found at depth 5")


def test_homeomorphism_roundtrip():
    rng = random.Random(101)
    addresses = all_addresses(2)
    for _ in range(40):
        letters = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice("xy")
            addr = addresses[rng.randrange(len(addresses))]
            letters.append(LMLetter(kind, addr, rng.choice((1, -1))))
        w = W(*letters)
        winv = w.inverse()
        bits = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 6)))
        bits += TAILS[rng.choice(list(TAILS))] * 40
        # Each output is a prefix of the image of every extension of its input.
        back = push_bits(winv, push_bits(w, bits))
        assert len(back) >= 12 and back == bits[: len(back)]


def test_characters_on_generators():
    assert character_value(W(X(0, 0, 0), variant="G"), "chi0") == -1
    assert character_value(W(X(0, 1), variant="G"), "chi0") == 0
    for n in range(6):
        w = W(Y(*([0] * n)) if n else Y(), variant="yGy")
        assert character_value(w, "psi0") == 1
    with pytest.raises(ValueError):
        character_value(W(X(), variant="yGy"), "chi0")


def test_unknown_character_is_a_value_error():
    for variant in VARIANTS:
        with pytest.raises(ValueError):
            character_value(W(variant=variant), "foo")


def test_character_domains_follow_the_y_ends():
    domains = {v: set(characters(W(variant=v))) for v in VARIANTS}
    assert domains == {
        "G": {"chi0", "chi1"},
        "yG": {"psi0", "chi1"},
        "Gy": {"chi0", "psi1"},
        "yGy": {"psi0", "psi1"},
    }


def test_character_lm5_consistency():
    # value on y_00 equals the sum over its expansion at s = 00
    lhs = character_value(W(Y(0, 0), variant="yGy"), "psi0")
    rhs_word = W(Y(0, 0, 1, 1), Yi(0, 0, 1, 0), Y(0, 0, 0), X(0, 0), variant="yGy")
    assert lhs == character_value(rhs_word, "psi0") == 1


def test_characters_vanish_on_relators():
    for variant in ("G", "yG", "Gy", "yGy"):
        for s in all_addresses(2):
            for t in all_addresses(2):
                for rel, lhs, rhs in _relator_words(s, t, variant):
                    diff = lhs * rhs.inverse()
                    for name, value in characters(diff).items():
                        assert value == 0, (variant, rel, s, t, name)


def test_relation_suite_checks_exactly_the_relator_words(monkeypatch):
    # relation_suite compares exactly the words _relator_words lists, in its
    # order, and skips every other relation
    compared = []

    def recording(lhs, rhs, d):
        compared.append((lhs, rhs))
        return equal_up_to_depth(lhs, rhs, d)

    monkeypatch.setattr(lodha_moore, "equal_up_to_depth", recording)
    for variant in VARIANTS:
        for s in all_addresses(2):
            for t in all_addresses(2):
                compared.clear()
                checks = relation_suite(s, t, 4, variant)
                expected = _relator_words(s, t, variant)
                assert compared == [(lhs, rhs) for _, lhs, rhs in expected]
                checked = [c for c in checks if c.status != "skipped"]
                assert [c.relation for c in checked] == [rel for rel, _, _ in expected]
                assert all(c.status == "pass" for c in checked)
                assert len(checks) == 5


def test_relation_suite_skip_reasons():
    def reasons(s, t, variant):
        checks = relation_suite(s, t, 4, variant)
        return {c.relation: c.detail for c in checks if c.status == "skipped"}

    assert reasons((0,), (0,), "yGy") == {
        "x-conj": "x_s(t) undefined",
        "y-conj": "x_s(t) undefined",
        "commute": "addresses comparable",
    }
    assert reasons((0,), (0, 1), "yGy") == {"commute": "addresses comparable"}
    assert reasons((), (0, 1), "G") == {
        "commute": "addresses comparable",
        "expand": "y-address not allowed in G",
    }


def _relator_words(s, t, variant):
    out = []
    out.append(
        (
            "square",
            LMWord((X(*s), X(*s)), variant),
            LMWord((X(*(s + (1,))), X(*s), X(*(s + (0,)))), variant),
        )
    )
    image = x_image_of_address(s, t)
    if image is not None:
        out.append(
            ("x-conj", LMWord((X(*s), X(*t)), variant), LMWord((X(*image), X(*s)), variant))
        )
        if y_address_allowed(t, variant) and y_address_allowed(image, variant):
            out.append(
                ("y-conj", LMWord((X(*s), Y(*t)), variant), LMWord((Y(*image), X(*s)), variant))
            )
    comparable = s[: len(t)] == t or t[: len(s)] == s
    if not comparable and y_address_allowed(s, variant) and y_address_allowed(t, variant):
        out.append(("commute", LMWord((Y(*s), Y(*t)), variant), LMWord((Y(*t), Y(*s)), variant)))
    exp_addrs = (s + (1, 1), s + (1, 0), s + (0,))
    if y_address_allowed(s, variant) and all(y_address_allowed(a, variant) for a in exp_addrs):
        out.append(
            (
                "expand",
                LMWord((Y(*s),), variant),
                LMWord((Y(*(s + (1, 1))), Yi(*(s + (1, 0))), Y(*(s + (0,))), X(*s)), variant),
            )
        )
    return out


# The quotient image of a word: its values under the two characters
# defined at the ends 0 and 1.


def test_quotient_image_generators():
    assert characters(LMWord((X(0),), "G")) == {"chi0": -1, "chi1": 0}
    assert characters(LMWord((X(1),), "G")) == {"chi0": 0, "chi1": 1}
    assert characters(LMWord((X(),), "G")) == {"chi0": -1, "chi1": 1}
    for n in range(1, 6):
        assert characters(LMWord((X(*([0] * n)),), "G")) == {"chi0": -1, "chi1": 0}
    assert characters(LMWord((Y(0), X(1)), "yG")) == {"psi0": 1, "chi1": 1}
    assert characters(LMWord((Y(1),), "Gy")) == {"chi0": 0, "psi1": 1}
    assert characters(LMWord((Y(0), Y(1)), "yGy")) == {"psi0": 1, "psi1": 1}


def test_quotient_image_additive():
    rng = random.Random(103)
    addresses = [a for a in all_addresses(2)]
    for _ in range(100):
        letters1 = [X(*addresses[rng.randrange(len(addresses))]) for _ in range(2)]
        letters2 = [X(*addresses[rng.randrange(len(addresses))]) for _ in range(2)]
        w1, w2 = LMWord(tuple(letters1), "G"), LMWord(tuple(letters2), "G")
        a, b = characters(w1), characters(w2)
        assert characters(w1 * w2) == {name: a[name] + b[name] for name in a}


def test_word_parse_roundtrip():
    w = parse_word("x(011) y(01)' x()")
    assert w.letters == (X(0, 1, 1), Yi(0, 1), X())
    assert parse_word(str(w)) == w
    rng = random.Random(107)
    for variant in VARIANTS:
        assert str(W(variant=variant)) == "1"
        words = [W(variant=variant)] + [random_word(rng, variant, 8, 3) for _ in range(30)]
        for w in words:
            assert parse_word(str(w), w.variant) == w


def test_parse_word_error_points_at_the_bad_token():
    for text, bad in (
        ("  x(0) q", "q"),
        ("x(0)  z(1)", "z(1)"),
        ("\tx(0)\t\tx(2) y()", "x(2)"),
        ("x(0) \t y(1)  1", "1"),
        ("1 x(0)", "1"),
    ):
        with pytest.raises(ParseError) as info:
            parse_word(text)
        assert text[info.value.pos :].startswith(bad), (text, info.value.pos)


def test_parse_word_refused_letter_is_a_parse_error():
    # y(0) is a well-formed token, but variant G has no y-letter at the end 0.
    with pytest.raises(ParseError) as info:
        parse_word("x(0) y(0)", "G")
    assert info.value.pos == 5
    with pytest.raises(ParseError) as info:
        parse_word("y(01) y(1)'", "yG")
    assert info.value.pos == 6


def test_parsers_import_without_numbers():
    # lodha_moore and braids parse literals without importing numbers, and
    # with it fractions and decimal; checked in a fresh interpreter.
    src = str(Path(rinfinity.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import rinfinity.lodha_moore, rinfinity.braids; "
        "print(sorted({'rinfinity.numbers', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, src],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def assert_witnessed(w1, w2, d):
    verdict = equal_up_to_depth(w1, w2, d)
    assert verdict.distinct
    assert_witness_holds(w1, w2, verdict.witness)
    return verdict.witness


def test_slow_tail_walk_does_not_stop_the_search():
    # On 0^w, y(000) emits one bit per two read and the identity one per bit,
    # so the walk from the start node never repeats a state.  The maps differ,
    # so the words are distinct at every depth; at depth <= 2 the search
    # finds no witness, and at depth 3 they differ on 000(10)^w.
    assert equal_up_to_depth(W(Y(0, 0, 0)), W(), 2) == DepthVerdict(True, 2, None)
    assert_witnessed(W(Y(0, 0, 0)), W(), 4)
    assert equal_up_to_depth(W(Y()), W(Y(), Y(0, 0)), 1) == DepthVerdict(True, 1, None)


def test_witness_names_the_input_that_differs():
    # The mismatch is on 00(10)^w, which 0(01)^w also names; the witness
    # keeps the prefix 00 that the search walked.
    assert assert_witnessed(W(Y()), W(Y(), Y(0, 0)), 2).prefix == (0, 0)


def test_witness_far_down_the_output_is_certified():
    # y^10 and y^11 first differ at output bit 2848 of the input the search
    # finds; the position is read by replaying that input, with no bound on
    # how far down the output it lies.
    witness = assert_witnessed(W(*[Y()] * 10), W(*[Y()] * 11), 12)
    assert witness.position == 2848


# The case rules of x^sign and y^sign as string rewrites: (read, write, sign
# of the y-letter re-entered after it).  Kept apart from the library's table.
CASE_RULES = {
    1: (("00", "0", 1), ("01", "10", -1), ("1", "11", 1)),
    -1: (("0", "00", -1), ("10", "01", 1), ("11", "1", -1)),
}


def oracle_letter(letter, bits):
    """The letter applied to a finite bit string: the longest output that
    every infinite extension of `bits` shares."""
    s = "".join(map(str, letter.address))
    if bits[: len(s)] != s:
        return "" if s.startswith(bits) else bits
    out, i, sign = [s], len(s), letter.sign
    while True:
        for read, write, again in CASE_RULES[sign]:
            if bits.startswith(read, i):
                break
        else:
            return "".join(out)  # too few bits left to pick a case
        out.append(write)
        i += len(read)
        if letter.kind == "x":
            return "".join(out) + bits[i:]
        sign = again


def oracle_word(word, bits):
    for letter in reversed(word.letters):
        bits = oracle_letter(letter, bits)
    return bits


def oracle_image(word, prefix, period, k):
    """The first k bits of word(prefix period^w) by the case-rule oracle."""
    head, period = "".join(map(str, prefix)), "".join(map(str, period))
    for reps in (8 << j for j in range(16)):
        out = oracle_word(word, head + period * reps)
        if len(out) >= k:
            return tuple(map(int, out[:k]))
    raise AssertionError("the oracle emitted too few bits")


def assert_witness_holds(w1, w2, witness):
    """On the witness input the two images agree before `position` and
    differ at it, by the case-rule oracle."""
    k = witness.position + 1
    o1, o2 = (oracle_image(w, witness.prefix, TAILS[witness.tail], k) for w in (w1, w2))
    assert o1[:-1] == o2[:-1] and o1[-1] != o2[-1], str(witness)


def test_word_machine_matches_case_rule_oracle():
    rng = random.Random(109)
    addresses = all_addresses(3)
    for variant in VARIANTS:
        y_addresses = [a for a in addresses if y_address_allowed(a, variant)]
        for _ in range(40):
            letters = []
            for _ in range(rng.randint(1, 6)):
                kind = rng.choice("xy")
                addr = rng.choice(y_addresses if kind == "y" else addresses)
                letters.append(LMLetter(kind, addr, rng.choice((1, -1))))
            w = W(*letters, variant=variant)
            prefix = [rng.randint(0, 1) for _ in range(rng.randint(0, 6))]
            period = [rng.randint(0, 1) for _ in range(rng.randint(1, 4))]
            bits = tuple(prefix + period * 1600)[:1600]
            expected = oracle_word(w, "".join(map(str, bits)))
            k = min(len(expected), 40)
            assert k >= 1
            out = push_bits(w, bits)
            assert len(out) >= k and out[:k] == tuple(map(int, expected[:k])), (str(w), bits)


# --- the piecewise-Moebius model ---------------------------------------------


def phi(prefix, tail_bit):
    """Phi(prefix tail_bit^w) in Fractions, with math.inf for inf."""
    t = Fraction(0) if tail_bit == 0 else math.inf
    for bit in reversed(prefix):
        if bit:
            t = t + 1
        else:
            t = Fraction(1) if t == math.inf else t / (1 + t)
    return t


def as_number(point):
    p, q = point
    return Fraction(p, q) if q else math.inf


def moebius(matrix, t):
    a, b, c, d = matrix
    if t == math.inf:
        return Fraction(a, c) if c else math.inf
    den = c * t + d
    return (a * t + b) / den if den else math.inf


def map_at(pieces, t):
    for end, _, matrix in pieces:
        if t <= as_number(end):
            return moebius(matrix, t)
    raise AssertionError("the last piece ends at inf")


def assert_canonical(pieces):
    start, start_image = Fraction(0), Fraction(0)
    previous = None
    for end, image, matrix in pieces:
        p, q = end
        assert q >= 0 and math.gcd(p, q) == 1 and (q or p) > 0
        assert math.gcd(*matrix) == 1 and (matrix[0] or matrix[1]) > 0
        assert matrix != previous
        assert start < as_number(end)
        assert moebius(matrix, start) == start_image
        assert moebius(matrix, as_number(end)) == as_number(image)
        start, start_image, previous = as_number(end), as_number(image), matrix
    assert pieces[-1][:2] == (lodha_moore.INFINITY, lodha_moore.INFINITY)


def random_word(rng, variant, max_letters, max_address):
    addresses = all_addresses(max_address)
    y_addresses = [a for a in addresses if y_address_allowed(a, variant)]
    letters = []
    for _ in range(rng.randint(1, max_letters)):
        kind = rng.choice("xy")
        addr = rng.choice(y_addresses if kind == "y" else addresses)
        letters.append(LMLetter(kind, addr, rng.choice((1, -1))))
    return W(*letters, variant=variant)


def test_word_map_matches_case_rule_oracle():
    # The exact image of a rational point lies in the closed cylinder
    # interval of every prefix of the transducer's output.
    rng = random.Random(113)
    for variant in VARIANTS:
        for _ in range(30):
            w = random_word(rng, variant, 8, 3)
            pieces = word_map(w)
            assert_canonical(pieces)
            for _ in range(4):
                prefix = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 6)))
                tail_bit = rng.randint(0, 1)
                image = map_at(pieces, phi(prefix, tail_bit))
                out = oracle_image(w, prefix, (tail_bit,), 16)
                for j in range(1, 17):
                    assert phi(out[:j], 0) <= image <= phi(out[:j], 1), (str(w), prefix, j)


def exact_log2(q):
    k = q.numerator.bit_length() - q.denominator.bit_length()
    assert q == Fraction(2) ** k, q
    return k


def test_characters_are_the_germs_of_the_map():
    # At 0 the first piece is (a, 0, c, d), at inf the last is (A, B, 0, D):
    # psi0 = log2(a/d), psi1 = log2(A/D), and where the germ is parabolic,
    # chi0 = c/a and chi1 = B/D.
    rng = random.Random(127)
    for variant in VARIANTS:
        for _ in range(100):
            w = random_word(rng, variant, 16, 4)
            pieces = word_map(w)
            a, b, c, d = pieces[0][2]
            A, B, C, D = pieces[-1][2]
            assert b == 0 and C == 0
            germs = {}
            if "psi0" in characters(w):
                germs["psi0"] = exact_log2(Fraction(a, d))
            else:
                assert a == d
                germs["chi0"] = Fraction(c, a)
            if "psi1" in characters(w):
                germs["psi1"] = exact_log2(Fraction(A, D))
            else:
                assert A == D
                germs["chi1"] = Fraction(B, D)
            assert germs == characters(w), str(w)


def test_relations_give_equal_maps():
    for variant in VARIANTS:
        for s in all_addresses(2):
            for t in all_addresses(2):
                for rel, lhs, rhs in _relator_words(s, t, variant):
                    assert word_map(lhs) == word_map(rhs), (variant, rel, s, t)


def test_letter_times_inverse_is_the_identity_map():
    assert word_map(W()) == lodha_moore.IDENTITY_MAP
    for addr in all_addresses(3):
        for kind in "xy":
            letter = LMLetter(kind, addr)
            assert word_map(W(letter, letter.inverse())) == lodha_moore.IDENTITY_MAP
            assert word_map(W(letter.inverse(), letter)) == lodha_moore.IDENTITY_MAP
            assert word_map(W(letter)) != lodha_moore.IDENTITY_MAP


def verdict_pairs(rng, variant):
    """Equal pairs (a relator or a cancelling pair inserted), distinct pairs
    (one more letter) and pairs that differ only past small depths."""
    relators = [
        lhs * rhs.inverse()
        for s in all_addresses(1)
        for t in all_addresses(1)
        for _, lhs, rhs in _relator_words(s, t, variant)
    ]
    pairs = []
    for _ in range(3):
        w = random_word(rng, variant, 5, 2)
        cut = rng.randint(0, len(w.letters))
        u = random_word(rng, variant, 2, 2)
        piece = rng.choice((rng.choice(relators), u * u.inverse()))
        inserted = LMWord(w.letters[:cut] + piece.letters + w.letters[cut:], variant)
        pairs.append((w, inserted, True))
        pairs.append((w, w * random_word(rng, variant, 1, 2), False))
    pairs.append((W(Y(1, 0, 1), variant=variant), W(variant=variant), False))
    if variant == "yGy":
        pairs.append((W(Y(0, 0, 0)), W(), False))
        pairs.append((W(Y()), W(Y(), Y(0, 0)), False))
    return pairs


def test_verdicts_match_the_search():
    rng = random.Random(127)
    for variant in VARIANTS:
        for w1, w2, equal in verdict_pairs(rng, variant):
            for d in range(1, 13):
                fast = equal_up_to_depth(w1, w2, d)
                assert fast.witness == lodha_moore._search(w1, w2, d)
                assert fast.depth == d
                assert fast.distinct != equal


def test_distinct_exactly_when_the_maps_differ():
    rng = random.Random(139)
    for variant in VARIANTS:
        for w1, w2, equal in verdict_pairs(rng, variant):
            differ = word_map(w1) != word_map(w2)
            assert differ != equal
            for d in range(1, 13):
                verdict = equal_up_to_depth(w1, w2, d)
                assert verdict.distinct == differ
                assert verdict.witness == lodha_moore._search(w1, w2, d)
                if verdict.witness is not None:
                    assert_witness_holds(w1, w2, verdict.witness)
    # The search finds no witness for y(000) against 1 below depth 3, yet the
    # verdict is "distinct" at every depth.
    found = lodha_moore.Witness((0, 0, 0), "(10)^w", 4)
    for d, witness in ((1, None), (2, None), (3, found), (4, found)):
        assert equal_up_to_depth(W(Y(0, 0, 0)), W(), d) == DepthVerdict(True, d, witness)


def test_equal_pairs_never_push(monkeypatch):
    def push(self, states, bit):
        raise AssertionError("an equal pair ran the transducer search")

    monkeypatch.setattr(lodha_moore.WordMachine, "push", push)
    rng = random.Random(131)
    for variant in VARIANTS:
        for w1, w2, equal in verdict_pairs(rng, variant):
            if equal:
                assert equal_up_to_depth(w1, w2, 12) == DepthVerdict(False, 12)
        for s in all_addresses(2):
            for t in all_addresses(2):
                checks = relation_suite(s, t, 12, variant)
                assert {c.status for c in checks} <= {"pass", "skipped"}
    long_word = random_word(random.Random(137), "yGy", 1, 3)
    while len(long_word.letters) < 40:
        long_word = long_word * random_word(rng, "yGy", 1, 3)
    assert equal_up_to_depth(long_word, long_word, 20) == DepthVerdict(False, 20)


# F is the subgroup of G generated by the x-letters.  x_s is the element of
# F whose minus tree has (.(..)) grafted at the address s and whose plus
# tree has ((..).) there, so the tree pairs check word_map without the
# transducer.


def f_element(word):
    product = treepairs.IDENTITY
    for letter in word.letters:
        minus, plus = parse_tree("(.(..))"), parse_tree("((..).)")
        for bit in reversed(letter.address):
            minus, plus = (caret(t, LEAF) if bit == 0 else caret(LEAF, t) for t in (minus, plus))
        pair = TreePair(minus, plus)
        product = treepairs.multiply(product, pair if letter.sign > 0 else treepairs.inverse(pair))
    return product


def test_x_words_agree_with_f_as_tree_pairs():
    rng = random.Random(139)
    addresses = all_addresses(3)

    def x_word(n_min, n_max):
        n = rng.randint(n_min, n_max)
        letters = (LMLetter("x", rng.choice(addresses), rng.choice((1, -1))) for _ in range(n))
        return LMWord(tuple(letters), "G")

    outcomes = {True: 0, False: 0}
    for i in range(300):
        w = x_word(1, 6)
        if i % 3 == 2:
            other = x_word(1, 12)
        else:
            # insert a square relator x_s x_s (x_s1 x_s x_s0)^-1
            s = rng.choice(all_addresses(2))
            lhs, rhs = W(X(*s), X(*s), variant="G"), W(X(*s, 1), X(*s), X(*s, 0), variant="G")
            cut = rng.randint(0, len(w.letters))
            other = LMWord(w.letters[:cut] + (lhs * rhs.inverse()).letters + w.letters[cut:], "G")
            if i % 3 == 1:
                other = other * x_word(1, 1)
        f_w, f_other = f_element(w), f_element(other)
        same = word_map(w) == word_map(other)
        assert same == (f_w == f_other), (str(w), str(other))
        if i % 3 == 0:
            assert same
        outcomes[same] += 1
        for word, pair in ((w, f_w), (other, f_other)):
            chi = characters(word)
            assert (chi["chi0"], chi["chi1"]) == tuple(-c for c in f_characters(pair))
    assert outcomes[True] >= 100 and outcomes[False] >= 100
