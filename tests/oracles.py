"""Independent procedures the tests check the library against, and the
random and exact helpers several test modules share.

Each oracle answers a question the library answers another way:
`expansion` and `cable` grow a braided diagram one strand at a time, where
`braided.multiply` grows every site of a product in one pass, and
`letter_walk_characters` sums letters, where `lodha_moore.characters`
reads the germs of the word's map.
"""

from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from rinfinity.braided import BraidedDiagram
from rinfinity.braids import _cable
from rinfinity.lodha_moore import _Y_ENDS, is_constant
from rinfinity.treepairs import CARET, LEAF, _graft, caret


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
