"""Every refusal the library makes on bad input: one row per `raise` (and
per constructor type check) that no other test reaches.  Each row makes
the failing call and matches the exception's exact type and message.

`braids.HandleReductionCap` has no row: it guards handle reduction, which
terminates, so only a cap lowered to 0 reaches it
(`test_handle_reduction_cap_raises`).
"""

import re

import pytest

from rinfinity import (
    ParseError,
    braided,
    braids,
    finite_groups,
    intlinalg,
    lodha_moore,
    numbers,
    plmaps,
    reidemeister,
    treepairs,
)
from rinfinity.braids import BraidWord
from rinfinity.lodha_moore import LMLetter, LMWord
from rinfinity.numbers import AdditiveGroup, ExactNumber, SlopeGroup
from rinfinity.plmaps import PLMap
from rinfinity.reidemeister import CharacterData

N = ExactNumber.of
R = ExactNumber.rational
ONE, HALF = N(1), R(1, 2)
WORD = LMWord((LMLetter("x", ()),), "G")


def row(name, call, error, message):
    return pytest.param(call, error, message, id=name)


REFUSALS = [
    # braided
    row(
        "braided.wrap_generator",
        lambda: braided.wrap_generator(2, 1, 3),
        ValueError,
        "need 1 <= i < j <= n",
    ),
    row(
        "braided.parse_diagram",
        lambda: braided.parse_diagram("() | e"),
        ParseError,
        "diagram must look like minus | braid | plus",
    ),
    # braids
    row("braids.BraidWord.strands", lambda: BraidWord(0), ValueError, "need at least one strand"),
    row(
        "braids.BraidWord.letter",
        lambda: BraidWord(2, (2,)),
        ValueError,
        "letter 2 out of range for 2 strands",
    ),
    row(
        "braids.BraidWord.n_type",
        lambda: BraidWord(2.0, (1,)),
        TypeError,
        "BraidWord takes an int strand count and a tuple of int letters",
    ),
    row(
        "braids.BraidWord.letters_type",
        lambda: BraidWord(3, [1, 2]),
        TypeError,
        "BraidWord takes an int strand count and a tuple of int letters",
    ),
    row(
        "braids.BraidWord.letter_type",
        lambda: BraidWord(3, (1.0,)),
        TypeError,
        "BraidWord takes an int strand count and a tuple of int letters",
    ),
    row("braids.BraidWord.mul", lambda: BraidWord(2) * BraidWord(3), ValueError, "strand counts differ"),
    row(
        "braids.braid_equal",
        lambda: braids.braid_equal(BraidWord(2), BraidWord(3)),
        ValueError,
        "strand counts differ",
    ),
    # finite_groups
    row(
        "finite_groups.FiniteGroup.square",
        lambda: finite_groups.FiniteGroup("x", (0, 0, 0)),
        ValueError,
        "table size is not a perfect square",
    ),
    row(
        "finite_groups.FiniteGroup.identity",
        lambda: finite_groups.FiniteGroup("x", (1, 0, 0, 1)),
        ValueError,
        "element 0 is not an identity",
    ),
    row(
        "finite_groups.FiniteGroup.latin_row",
        # element_orders looped forever on this table: 1 * 1 never reaches 0
        lambda: finite_groups.FiniteGroup("x", (0, 1, 1, 1)),
        ValueError,
        "a row or column of the table is not a permutation of 0..n-1",
    ),
    row(
        "finite_groups.FiniteGroup.latin_range",
        lambda: finite_groups.FiniteGroup("x", (0, 1, 1, 7)),
        ValueError,
        "a row or column of the table is not a permutation of 0..n-1",
    ),
    row(
        "finite_groups.FiniteGroup.latin_column",
        # every row is a permutation, column 1 is (1, 2, 1)
        lambda: finite_groups.FiniteGroup("x", (0, 1, 2, 1, 2, 0, 2, 1, 0)),
        ValueError,
        "a row or column of the table is not a permutation of 0..n-1",
    ),
    row(
        "finite_groups.FiniteGroup.latin_one_row",
        # every column is a permutation, row 1 is (1, 0, 0)
        lambda: finite_groups.FiniteGroup("x", (0, 1, 2, 1, 0, 0, 2, 2, 1)),
        ValueError,
        "a row or column of the table is not a permutation of 0..n-1",
    ),
    row(
        "finite_groups.FiniteGroup.entry_float",
        # 1.0 == 1, so this table passed the Latin-square check
        lambda: finite_groups.FiniteGroup("x", (0, 1.0, 1.0, 0)),
        TypeError,
        "FiniteGroup table entries must be ints, not float",
    ),
    row(
        "finite_groups.FiniteGroup.entry_bool",
        lambda: finite_groups.FiniteGroup("x", (0, True, True, 0)),
        TypeError,
        "FiniteGroup table entries must be ints, not bool",
    ),
    row(
        "finite_groups.FiniteGroup.table_type",
        lambda: finite_groups.FiniteGroup("x", [0]),
        TypeError,
        "FiniteGroup table must be a tuple, not list",
    ),
    row(
        "finite_groups.twisted_classes",
        lambda: finite_groups.twisted_classes(finite_groups.cyclic(3), (0, 0, 0)),
        ValueError,
        "phi is not an automorphism",
    ),
    # intlinalg
    row(
        "intlinalg.AbelianAuto.shape",
        lambda: intlinalg.AbelianAuto(intlinalg.FGAbelianGroup.free(2), intlinalg.IntMatrix.of([[1]])),
        ValueError,
        "matrix must be n x n",
    ),
    # lodha_moore
    row(
        "lodha_moore.y_address_allowed",
        lambda: lodha_moore.y_address_allowed((), "Z"),
        ValueError,
        "unknown variant 'Z'",
    ),
    row("lodha_moore.LMLetter.kind", lambda: LMLetter("z", ()), ValueError, "letter kind must be 'x' or 'y'"),
    row("lodha_moore.LMLetter.sign", lambda: LMLetter("x", (), 2), ValueError, "sign must be +-1"),
    row("lodha_moore.LMLetter.bits", lambda: LMLetter("x", (2,)), ValueError, "address bits must be 0/1"),
    row(
        "lodha_moore.LMLetter.address_type",
        lambda: LMLetter("x", [0, 1]),
        TypeError,
        "LMLetter address must be a tuple of bits, not list",
    ),
    row(
        "lodha_moore.LMLetter.sign_type",
        lambda: LMLetter("x", (), 1.0),
        TypeError,
        "LMLetter sign must be an int, not float",
    ),
    row(
        "lodha_moore.LMLetter.bit_type",
        lambda: LMLetter("x", (0, 1.0)),
        TypeError,
        "LMLetter address bits must be ints, not float",
    ),
    row("lodha_moore.LMWord.variant", lambda: LMWord((), "Z"), ValueError, "unknown variant 'Z'"),
    row(
        "lodha_moore.LMWord.letters_type",
        lambda: LMWord([], "G"),
        TypeError,
        "LMWord letters must be a tuple, not list",
    ),
    row("lodha_moore.LMWord.mul", lambda: LMWord((), "G") * LMWord((), "yG"), ValueError, "variants differ"),
    row(
        "lodha_moore.equal_up_to_depth",
        lambda: lodha_moore.equal_up_to_depth(WORD, WORD, 0),
        ValueError,
        "depth must be >= 1",
    ),
    row(
        "lodha_moore.equal_up_to_depth.type",
        lambda: lodha_moore.equal_up_to_depth(WORD, WORD, 2.5),
        TypeError,
        "depth must be an int, not float",
    ),
    # numbers
    row("numbers.ExactNumber.of", lambda: N(1.5), TypeError, "cannot coerce 1.5 to ExactNumber"),
    row(
        "numbers.AdditiveGroup.kind",
        lambda: AdditiveGroup("foo"),
        ValueError,
        "unknown additive group kind 'foo'",
    ),
    row("numbers.AdditiveGroup.n", lambda: AdditiveGroup("zinv", 1), ValueError, "Z[1/n] requires n >= 2"),
    row(
        "numbers.AdditiveGroup.n_type",
        lambda: AdditiveGroup.z_inv(2.5),
        TypeError,
        "Z[1/n] requires an int n, not float",
    ),
    row("numbers.AdditiveGroup.ztau_n", lambda: AdditiveGroup("ztau", 5), ValueError, "Z[t] takes no n"),
    row("numbers.AdditiveGroup.rational_n", lambda: AdditiveGroup("rational", 5), ValueError, "Q takes no n"),
    row(
        "numbers.SlopeGroup.empty",
        lambda: SlopeGroup(()),
        ValueError,
        "slope group needs at least one generator",
    ),
    row(
        "numbers.SlopeGroup.type",
        lambda: SlopeGroup([N(2)]),
        TypeError,
        "SlopeGroup takes a tuple of ExactNumbers; SlopeGroup.of converts other values",
    ),
    row(
        "numbers.SlopeGroup.factor.sign",
        lambda: SlopeGroup.of(2).factor(N(-1)),
        ValueError,
        "can only factor positive values",
    ),
    row(
        "numbers.SlopeGroup.factor.mixed",
        lambda: SlopeGroup.of(2, ExactNumber(1, 1)).factor(N(2)),
        ValueError,
        "factoring over mixed quadratic multi-generator groups is not supported",
    ),
    row(
        "numbers.SlopeGroup.expand",
        lambda: SlopeGroup.of(2).expand((1, 2)),
        ValueError,
        "exponent vector has wrong length",
    ),
    row(
        "numbers.parse_additive_group",
        lambda: numbers.parse_additive_group("Z[x]"),
        ParseError,
        "invalid additive group",
    ),
    row(
        "numbers.parse_slope_group",
        lambda: numbers.parse_slope_group("2,3"),
        ParseError,
        "slope group must look like <2,3>",
    ),
    # plmaps
    row("plmaps.PLMap.ell", lambda: PLMap(N(0), (), (ONE,)), ValueError, "right endpoint must be positive"),
    row(
        "plmaps.PLMap.order",
        lambda: PLMap(ONE, (HALF, R(1, 4)), (ONE, N(2), ONE)),
        ValueError,
        "breakpoints must be strictly increasing inside (0, ell)",
    ),
    row("plmaps.PLMap.slope", lambda: PLMap(ONE, (), (N(-1),)), ValueError, "slopes must be positive"),
    row(
        "plmaps.PLMap.spurious",
        lambda: PLMap(ONE, (HALF,), (ONE, ONE)),
        ValueError,
        "spurious breakpoint (equal adjacent slopes); use PLMap.make",
    ),
    row(
        "plmaps.PLMap.endpoint",
        lambda: PLMap(ONE, (HALF,), (N(2), HALF)),
        ValueError,
        "map does not fix the right endpoint",
    ),
    row(
        "plmaps.compose",
        lambda: plmaps.compose(PLMap.identity(1), PLMap.identity(2)),
        ValueError,
        "maps act on different intervals",
    ),
    row(
        "plmaps.PLGroupSpec.ell",
        lambda: plmaps.PLGroupSpec(R(1, 3), AdditiveGroup.z_inv(2), SlopeGroup.of(2)),
        ValueError,
        "ell = 1/3 is not in Z[1/2]",
    ),
    row("plmaps.parse_plmap", lambda: plmaps.parse_plmap("pl"), ParseError, "invalid PL map literal"),
    # reidemeister
    row(
        "reidemeister.CharacterData.labels",
        lambda: CharacterData(("a",), ((1, 0), (0, 1))),
        ValueError,
        "need one label per vector",
    ),
    row(
        "reidemeister.CharacterData.zero",
        lambda: CharacterData.of(a=(0, 0)),
        ValueError,
        "characters must be nonzero",
    ),
    row(
        "reidemeister.fixed_vector_certificate",
        lambda: reidemeister.fixed_vector_certificate(
            CharacterData.of(a=(1, 0)), intlinalg.IntMatrix.of([[1, 0]])
        ),
        ValueError,
        "induced matrix must be square",
    ),
    row(
        "reidemeister.swap_matrix",
        lambda: reidemeister.swap_matrix(CharacterData.of(a=(1, 0), b=(0, 1), c=(1, 1))),
        ValueError,
        "need exactly two characters on two generators",
    ),
    # treepairs
    row("treepairs.right_vine", lambda: treepairs.right_vine(0), ValueError, "need at least one leaf"),
    row(
        "treepairs.parse_treepair",
        lambda: treepairs.parse_treepair("()"),
        ParseError,
        "tree pair must look like minus|plus",
    ),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusal(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as caught:
        call()
    assert type(caught.value) is error


def test_handle_reduction_cap_raises(monkeypatch):
    # s1 s2 s1^-1 has one handle: a cap of 1 lets it reduce to
    # s2^-1 s1 s2, and a cap of 0 is breached at once.
    word = BraidWord(3, (1, 2, -1))
    monkeypatch.setattr(braids, "CAP_PER_PAIR", 0)
    monkeypatch.setattr(braids, "CAP_BASE", 1)
    assert braids.handle_reduce(word).letters == (-2, 1, 2)
    monkeypatch.setattr(braids, "CAP_BASE", 0)
    with pytest.raises(braids.HandleReductionCap, match="no normal form after 1 handle reductions"):
        braids.handle_reduce(word)
