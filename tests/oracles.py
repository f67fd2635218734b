"""Independent procedures the tests check the library against, and the
random and exact helpers several test modules share.

Each oracle answers a question the library answers another way:
`expansion` and `cable` grow a braided diagram one strand at a time, where
`braided.multiply` grows every site of a product in one pass;
`letter_walk_characters` sums letters, where `lodha_moore.characters`
reads the germs of the word's map; `from_pl` reads a tree pair off a
dyadic PL map, the inverse of `treepairs.to_pl`; and `exponent_sum` sums
a braid's letters, where `braid_equal` screens on crossing counts.
"""

from fractions import Fraction

from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from rinfinity.braided import BraidedDiagram
from rinfinity.braids import _cable
from rinfinity.lodha_moore import _Y_ENDS, is_constant
from rinfinity.numbers import ONE, AdditiveGroup, SlopeGroup
from rinfinity.plmaps import PLGroupSpec, is_member
from rinfinity.treepairs import CARET, LEAF, TreePair, _graft, _tree_from_depths, caret, reduce

DYADIC_SPEC = PLGroupSpec(ONE, AdditiveGroup.z_inv(2), SlopeGroup.of(2))


def random_tree(rng, n_leaves):
    if n_leaves == 1:
        return LEAF
    k = rng.randint(1, n_leaves - 1)
    return caret(random_tree(rng, k), random_tree(rng, n_leaves - k))


def det(m) -> int:
    """Exact determinant of an IntMatrix by sympy, over its integer domain ZZ."""
    return int(DomainMatrix.from_list(m.rows, ZZ).det())


def cable(b, strand, width=2):
    """Replace the strand with the given start position by `width` parallel
    strands, 2 by default, rewriting each crossing as a block crossing."""
    return _cable(b, {strand: width})


def expansion(d, leaf, subtree=CARET):
    """Graft `subtree` at minus-leaf `leaf` and at the plus leaf its strand
    reaches, cabling that strand into `subtree.leaves` parallel strands."""
    partner = d.braid.permutation()[leaf - 1]
    return BraidedDiagram(
        _graft(d.minus, [(leaf, subtree)]),
        cable(d.braid, leaf, subtree.leaves),
        _graft(d.plus, [(partner, subtree)]),
    )


# Each Lodha-Moore character sums weight * sign over the letters of one
# kind whose address is constant at one end.  chi_b is defined where the
# variant has no y-letters at end b, psi_b where it has.
_CHARACTER_RULES = {
    "chi0": ("x", 0, -1),
    "chi1": ("x", 1, 1),
    "psi0": ("y", 0, 1),
    "psi1": ("y", 1, 1),
}


def letter_walk_characters(word) -> dict[str, int]:
    """The characters defined on the word's variant, summed over its letters."""
    out = {}
    for name, (kind, end, weight) in _CHARACTER_RULES.items():
        if (kind == "y") == (end in _Y_ENDS[word.variant]):
            out[name] = weight * sum(
                l.sign for l in word.letters if l.kind == kind and is_constant(l.address, end)
            )
    return out


def exponent_sum(b) -> int:
    """The sum of the exponents of the letters of a braid word."""
    return sum(1 if l > 0 else -1 for l in b.letters)


def _floor_log2(q: Fraction) -> int:
    """floor(log2 q) for a dyadic rational q > 0: its denominator is 2^j,
    so floor(log2 q) = floor(log2 p) - j for its numerator p."""
    return q.numerator.bit_length() - q.denominator.bit_length()


def from_pl(f) -> TreePair:
    """Inverse of `treepairs.to_pl` on members of the dyadic group; raises
    on others.

    One walk over the affine pieces: from x (with image y) on a piece of
    slope s ending at x1, the next leaf has the largest width w = 2^-k with
    x and y/s multiples of w and x + w <= x1, and its image has width s*w.
    (w <= 1 and s*w <= 1 follow.)  Both trees are built from their leaf
    depths, then reduced."""
    report = is_member(f, DYADIC_SPEC)
    if not report.ok:
        raise ValueError("map is not in the dyadic PL group: " + "; ".join(report.violations))
    plus: list[int] = []
    minus: list[int] = []
    x = y = Fraction(0)
    for x1, s in zip(f.breakpoints + (f.ell,), f.slopes):
        x1, e = x1.a, _floor_log2(s.a)
        while x < x1:
            k = max(
                x.denominator.bit_length() - 1,
                e + y.denominator.bit_length() - 1,
                -_floor_log2(x1 - x),
            )
            plus.append(k)
            minus.append(k - e)
            x += Fraction(1, 1 << k)
            y += Fraction(1, 1 << (k - e))
    return reduce(TreePair(_tree_from_depths(minus), _tree_from_depths(plus)))
