"""Seeded queries for each workload, and how each query is posed and checked.

A workload is a list of blocks.  Block `b` of seed `n` is drawn from its
own generator, `random.Random(f"{workload}/{n}/{b}")`, so any block can be
regenerated alone.  Each block holds the workload's whole mix in fixed
proportions and at fixed input sizes, half of its word-problem queries
equal pairs and half distinct pairs, so a run of whole blocks poses the
same mix on every seed.

A query carries its generated `data` (plain tuples and strings, which is
what a replay needs), the verdict known by construction in `expect`, and
the library objects built from the data in `args`.  `materialize` builds
`args` before timing starts; the timed call only multiplies, composes or
decides.

Sizes are chosen so that a run of whole blocks fits `run_seconds` with
several hundred queries and no single query dominates it; README.md
records them.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from math import gcd, inf

WORKLOADS = ("thompson", "golden_pl", "lodha_moore", "reidemeister")

# --- sizes ------------------------------------------------------------------
# Each length yields one equal and one distinct pair per block.

TREE_LENGTHS = (12, 18, 24, 30, 36, 42, 48, 54)  # letters in X0, X1 and inverses
VINE_DEPTHS = (6, 12, 18)  # k in x0^k x1 x0^-k
F_PL_LENGTHS = (4, 6, 8, 10, 12, 14)  # the same F words, as PL maps over Q
BRAIDED_LENGTHS = (8, 14, 20)  # standard generators of braided F
GOLDEN_LENGTHS = (4, 6, 8, 10, 12, 14)  # letters in f, g, h and inverses
LM_DEPTH = 12
LM_LENGTHS = (6, 10, 14, 18)  # per variant; distinct pairs add LM_LONG_DISTINCT
LM_LONG_DISTINCT = 30
AUTOS_PER_GROUP = 8  # seeded automorphisms per group query, drawn with replacement
CERTIFICATES_PER_BLOCK = 2  # each checks a flip and a negation certificate

# Known orders of Aut(G) for the non-cyclic groups of order <= 16, by the
# catalogue's names; |Aut(C_n)| is Euler's phi(n).
AUT_ORDERS = {
    "C2xC2": 6, "D3": 6, "C4xC2": 8, "C2xC2xC2": 168, "D4": 8, "Q8": 24,
    "C3xC3": 48, "D5": 20, "C6xC2": 12, "D6": 12, "A4": 24, "Dic3": 12,
    "D7": 42, "C8xC2": 16, "C4xC4": 96, "C4xC2xC2": 192,
    "C2xC2xC2xC2": 20160, "D8": 32, "Dic4": 32, "SD16": 16, "M4(2)": 16,
    "D4xC2": 64, "Q8xC2": 192, "C4:C4": 32, "(C2xC2):C4": 32, "D4oC4": 48,
}
CATALOGUE_SIZE = 42
ABELIAN_IN_CATALOGUE = 25
_ABELIAN_NAME = re.compile(r"C\d+(?:xC\d+)*")

# Defining relators of F in x0 = a, x1 = b (capitals are inverses):
# [x0 x1^-1, x0^-1 x1 x0] and [x0 x1^-1, x0^-2 x1 x0^2].
F_RELATORS = ("aBAbabAABa", "aBAAbaabAAABaa")

LM_VARIANTS = ("G", "yG", "Gy", "yGy")


@dataclass
class Query:
    kind: str
    expect: object
    data: tuple
    args: tuple = ()
    sizes: dict = field(default_factory=dict)


# --- word helpers ------------------------------------------------------------


def invert_word(word):
    return tuple(_invert_letter(x) for x in reversed(word))


def _invert_letter(x):
    if isinstance(x, str):
        if x.endswith("'"):
            return x[:-1]
        if len(x) == 1:
            return x.swapcase()
        return x + "'"
    kind, address, sign = x
    return (kind, address, -sign)


def reduced_word(rng, alphabet, n):
    """A freely reduced word of n letters over a symmetric alphabet."""
    out = []
    while len(out) < n:
        x = rng.choice(alphabet)
        if out and _invert_letter(out[-1]) == x:
            continue
        out.append(x)
    return tuple(out)


def insert_at(rng, word, piece):
    pos = rng.randint(0, len(word))
    return word[:pos] + tuple(piece) + word[pos:]


def _pair(rng, word, alphabet, relators, equal):
    """(word, partner, expect): the partner has a relator or a cancelling
    pair inserted (equal), or one more letter appended (distinct)."""
    if not equal:
        return word, word + (rng.choice(alphabet),), False
    if relators and rng.random() < 0.5:
        piece = rng.choice(relators)
    else:
        u = reduced_word(rng, alphabet, rng.randint(1, 3))
        piece = u + invert_word(u)
    return word, insert_at(rng, word, piece), True


# --- generation --------------------------------------------------------------

F_ALPHABET = tuple("aAbB")
GOLDEN_ALPHABET = tuple("fFgGhH")
BRAIDED_NAMES = ("x0", "x1") + tuple(
    f"{kind}{i}{j}" for kind in ("alpha", "beta") for i, j in ((1, 2), (1, 3), (2, 3), (2, 4))
)
BRAIDED_ALPHABET = BRAIDED_NAMES + tuple(n + "'" for n in BRAIDED_NAMES)
F_RELATOR_WORDS = tuple(tuple(r) for r in F_RELATORS) + tuple(
    invert_word(tuple(r)) for r in F_RELATORS
)


def _word_pairs(rng, kind, lengths, make_word, alphabet, relators):
    out = []
    for n in lengths:
        for equal in (True, False):
            a, b, expect = _pair(rng, make_word(n), alphabet, relators, equal)
            out.append(Query(kind, expect, (a, b)))
    return out


def _thompson_block(rng):
    def f_word(n):
        return reduced_word(rng, F_ALPHABET, n)

    def vine(k):
        return ("a",) * k + ("b",) + ("A",) * k

    return (
        _word_pairs(rng, "tree", TREE_LENGTHS, f_word, F_ALPHABET, F_RELATOR_WORDS)
        + _word_pairs(rng, "vine", VINE_DEPTHS, vine, F_ALPHABET, F_RELATOR_WORDS)
        + _word_pairs(rng, "f_pl", F_PL_LENGTHS, f_word, F_ALPHABET, F_RELATOR_WORDS)
        + _word_pairs(
            rng,
            "braided",
            BRAIDED_LENGTHS,
            lambda n: reduced_word(rng, BRAIDED_ALPHABET, n),
            BRAIDED_ALPHABET,
            (),
        )
    )


def _golden_block(rng):
    return _word_pairs(
        rng,
        "golden",
        GOLDEN_LENGTHS,
        lambda n: reduced_word(rng, GOLDEN_ALPHABET, n),
        GOLDEN_ALPHABET,
        (),
    )


def _constant(address):
    return all(b == address[0] for b in address)


def y_allowed(address, variant):
    """The variant's rule for y-addresses, as in the Lodha-Moore module;
    restated here so that the generated inputs do not depend on the code
    under test."""
    if variant in ("G", "Gy") and _constant(address) and (not address or address[0] == 0):
        return False
    if variant in ("G", "yG") and _constant(address) and (not address or address[0] == 1):
        return False
    return True


def lm_alphabet(variant):
    out = []
    for depth in range(4):
        for bits in range(1 << depth):
            address = tuple((bits >> (depth - 1 - i)) & 1 for i in range(depth))
            for sign in (1, -1):
                out.append(("x", address, sign))
                if y_allowed(address, variant):
                    out.append(("y", address, sign))
    return tuple(out)


def lm_relators(variant):
    """lhs * rhs^-1 for the square and expansion relations with addresses
    of length <= 3, as letter tuples."""
    out = []
    for depth in range(3):
        for bits in range(1 << depth):
            s = tuple((bits >> (depth - 1 - i)) & 1 for i in range(depth))
            lhs = (("x", s, 1), ("x", s, 1))
            rhs = (("x", s + (1,), 1), ("x", s, 1), ("x", s + (0,), 1))
            out.append(lhs + invert_word(rhs))
            addresses = (s, s + (1, 1), s + (1, 0), s + (0,))
            if depth <= 1 and all(y_allowed(a, variant) for a in addresses):
                rhs = (("y", s + (1, 1), 1), ("y", s + (1, 0), -1), ("y", s + (0,), 1), ("x", s, 1))
                out.append((("y", s, 1),) + invert_word(rhs))
    return tuple(out)


def _random_address(rng, longest):
    return tuple(rng.randint(0, 1) for _ in range(rng.randint(0, longest)))


def _lm_block(rng):
    out = []
    for variant in LM_VARIANTS:
        alphabet = lm_alphabet(variant)
        relators = lm_relators(variant)
        for n in LM_LENGTHS:
            for equal in (True, False):
                a, b, expect = _pair(rng, reduced_word(rng, alphabet, n), alphabet, relators, equal)
                out.append(Query("lm", expect, (variant, a, b)))
        s, t = _random_address(rng, 2), _random_address(rng, 2)
        out.append(Query("lm_suite", True, (variant, s, t)))
        word = reduced_word(rng, alphabet, LM_LONG_DISTINCT)
        a, b, expect = _pair(rng, word, alphabet, relators, False)
        out.append(Query("lm", expect, (variant, a, b)))
    return out


def _reidemeister_block(rng):
    out = [
        Query("group", None, (gi, tuple(rng.getrandbits(32) for _ in range(AUTOS_PER_GROUP))))
        for gi in range(CATALOGUE_SIZE)
    ]
    for _ in range(CERTIFICATES_PER_BLOCK):
        out.append(Query("certify", ((True, inf), (False, 4)), ("flip", "negation")))
    return out


BLOCK_MAKERS = {
    "thompson": _thompson_block,
    "golden_pl": _golden_block,
    "lodha_moore": _lm_block,
    "reidemeister": _reidemeister_block,
}


def block(workload, seed, b):
    """Block b of the seed, shuffled by its own rng.  The run uses block
    -1 to warm up."""
    rng = random.Random(f"{workload}/{seed}/{b}")
    out = BLOCK_MAKERS[workload](rng)
    rng.shuffle(out)
    return out


# --- materialization: plain data -> library objects (before timing) ----------


def _euler_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _invariants(name):
    return tuple(int(part[1:]) for part in name.split("x"))


def _abelian_matrix(phi, invariants):
    """Integer matrix of an automorphism of the catalogue's abelian group
    with these invariants, whose elements are numbered in mixed radix,
    last factor fastest."""
    from rinfinity.intlinalg import IntMatrix

    def decode(index):
        out = []
        for d in reversed(invariants):
            out.append(index % d)
            index //= d
        return out[::-1]

    def encode(coords):
        index = 0
        for c, d in zip(coords, invariants):
            index = index * d + c % d
        return index

    k = len(invariants)
    cols = [decode(phi[encode([int(i == j) for i in range(k)])]) for j in range(k)]
    return IntMatrix.of([[cols[j][i] for j in range(k)] for i in range(k)])


def invariant_class_count(table, n, phi):
    """Number of conjugacy classes mapped onto themselves by phi, read off
    the multiplication table.  For a finite group this equals the number
    of phi-twisted conjugacy classes."""
    inverse = [next(b for b in range(n) if table[a * n + b] == 0) for a in range(n)]
    class_of = [-1] * n
    classes = 0
    for a in range(n):
        if class_of[a] < 0:
            for g in range(n):
                class_of[table[table[g * n + a] * n + inverse[g]]] = classes
            classes += 1
    return len({class_of[a] for a in range(n) if class_of[phi[a]] == class_of[a]})


def materialize(ctx, block):
    """Build each query's library objects and, where the answer is read off
    a group table, its expected verdict."""
    for q in block:
        _MATERIALIZERS[q.kind](ctx, q)


def _words(gens):
    def build(ctx, q):
        a, b = q.data
        table = ctx[gens]
        q.args = (tuple(table[x] for x in a), tuple(table[x] for x in b))
        q.sizes["letters"] = max(len(a), len(b))

    return build


def _lm_words(ctx, q):
    from rinfinity.lodha_moore import LMWord

    variant, a, b = q.data
    letters = ctx["letters"]
    q.args = (
        LMWord(tuple(letters[x] for x in a), variant),
        LMWord(tuple(letters[x] for x in b), variant),
    )
    q.sizes["letters"] = max(len(a), len(b))


def _lm_suite(ctx, q):
    variant, s, t = q.data
    q.args = (s, t, variant)
    q.sizes["address"] = max(len(s), len(t))


def _automorphism_lists(ctx):
    from rinfinity.finite_groups import automorphisms

    if "automorphisms" not in ctx:
        ctx["automorphisms"] = [automorphisms(g) for g in ctx["groups"]]
        ctx["abelian"] = [
            gi for gi, g in enumerate(ctx["groups"]) if _ABELIAN_NAME.fullmatch(g.name)
        ]
        if len(ctx["groups"]) != CATALOGUE_SIZE or len(ctx["abelian"]) != ABELIAN_IN_CATALOGUE:
            raise ValueError("the group catalogue is not the 42 groups of order <= 16")
    return ctx["automorphisms"]


def _group(ctx, q):
    """Aut(G), twisted classes for the seeded automorphisms and, for an
    abelian G, their integer matrices on G's invariant factors."""
    from rinfinity.intlinalg import FGAbelianGroup

    gi, draws = q.data
    autos = _automorphism_lists(ctx)[gi]
    g = ctx["groups"][gi]
    phis = tuple(autos[r % len(autos)] for r in draws)
    aut_order = _euler_phi(g.order) if re.fullmatch(r"C\d+", g.name) else AUT_ORDERS[g.name]
    twisted = tuple(invariant_class_count(g.table, g.order, phi) for phi in phis)
    abelian, matrices, fixed = None, (), ()
    if gi in ctx["abelian"]:
        invariants = _invariants(g.name)
        k = len(invariants)
        abelian = FGAbelianGroup.from_relator_columns(
            k, [tuple(d if i == j else 0 for i in range(k)) for j, d in enumerate(invariants)]
        )
        matrices = tuple(_abelian_matrix(phi, invariants) for phi in phis)
        counts = (sum(1 for a in range(g.order) if phi[a] == a) for phi in phis)
        fixed = tuple((n, n) for n in counts)
    q.args = (g, phis, abelian, matrices)
    q.expect = (aut_order, twisted, fixed)
    q.sizes["order"] = g.order


def _certify(ctx, q):
    q.args = q.data
    q.sizes["rank"] = 2


_MATERIALIZERS = {
    "tree": _words("tree"),
    "vine": _words("tree"),
    "f_pl": _words("pl"),
    "braided": _words("braided"),
    "golden": _words("pl"),
    "lm": _lm_words,
    "lm_suite": _lm_suite,
    "group": _group,
    "certify": _certify,
}


# --- posing a query: the timed call ------------------------------------------
# Each call returns (verdict, evidence).  Library functions are reached
# through their modules, so that the traced run's wrappers see every call.


def _product(mul, elements):
    out = elements[0]
    for e in elements[1:]:
        out = mul(out, e)
    return out


def _call_tree(ctx, q):
    from rinfinity import treepairs

    p = _product(treepairs.multiply, q.args[0])
    r = _product(treepairs.multiply, q.args[1])
    same = treepairs.f_characters(p) == treepairs.f_characters(r) and p == r
    return same, (p, r)


def _pl_caller(slopes):
    def call(ctx, q):
        from rinfinity import plmaps

        p = _product(plmaps.compose, q.args[0])
        r = _product(plmaps.compose, q.args[1])
        chars = ctx[slopes]
        same = (
            plmaps.endpoint_characters(p, chars) == plmaps.endpoint_characters(r, chars)
            and p == r
        )
        return same, (p, r)

    return call


def _call_braided(ctx, q):
    from rinfinity import braided

    p = _product(braided.multiply, q.args[0])
    r = _product(braided.multiply, q.args[1])
    return braided.equal(p, r), (p, r)


def _call_lm(ctx, q):
    from rinfinity import lodha_moore

    verdict = lodha_moore.equal_up_to_depth(q.args[0], q.args[1], LM_DEPTH)
    return not verdict.distinct, verdict


def _call_lm_suite(ctx, q):
    from rinfinity import lodha_moore

    s, t, variant = q.args
    checks = lodha_moore.relation_suite(s, t, LM_DEPTH, variant)
    statuses = {c.status for c in checks}
    return "fail" not in statuses and "pass" in statuses, checks


def _call_group(ctx, q):
    from rinfinity import finite_groups, intlinalg

    g, phis, abelian, matrices = q.args
    autos = finite_groups.automorphisms(g)
    twisted = [finite_groups.twisted_classes(g, phi) for phi in phis]
    fixes = []
    for matrix in matrices:
        auto = intlinalg.AbelianAuto(abelian, matrix)
        fixes.append((intlinalg.reidemeister_number_abelian(auto), intlinalg.fix_subgroup(auto)))
    verdict = (
        len(autos),
        tuple(count for count, _ in twisted),
        tuple((r, fixed.order) for r, fixed in fixes),
    )
    return verdict, (autos, [classes for _, classes in twisted], [fixed for _, fixed in fixes])


def _call_certify(ctx, q):
    from rinfinity import intlinalg, reidemeister, treepairs

    x0, x1 = ctx["f_generators"]
    c0, c1 = treepairs.f_characters(x0), treepairs.f_characters(x1)
    chars = reidemeister.CharacterData.of(chi0=(c0[0], c1[0]), chi1=(c0[1], c1[1]))
    verdict, evidence = [], []
    for kind in q.args:
        matrix = reidemeister.swap_matrix(chars) if kind == "flip" else ctx["negation2"]
        result = reidemeister.fixed_vector_certificate(chars, matrix)
        auto = intlinalg.AbelianAuto(ctx["free2"], matrix)
        verdict.append((result.ok, reidemeister.reidemeister_number_abelian(auto)))
        evidence.append(result)
    return tuple(verdict), evidence


CALLS = {
    "tree": _call_tree,
    "vine": _call_tree,
    "f_pl": _pl_caller("dyadic_slopes"),
    "braided": _call_braided,
    "golden": _pl_caller("slopes"),
    "lm": _call_lm,
    "lm_suite": _call_lm_suite,
    "group": _call_group,
    "certify": _call_certify,
}


def check(q, verdict, evidence):
    """Whether the verdict is the one known by construction; for twisted
    classes, also that the classes partition the group."""
    if verdict != q.expect:
        return False
    if q.kind == "group":
        order = q.args[0].order
        return all(
            sorted(a for cls in classes for a in cls) == list(range(order))
            for classes in evidence[1]
        )
    return True


def output_sizes(q, evidence):
    """Sizes of what the query produced, read after the timed call."""
    if q.kind in ("tree", "vine"):
        return {"leaves": max(d.n_leaves for d in evidence)}
    if q.kind in ("f_pl", "golden"):
        return {"breakpoints": max(len(f.breakpoints) for f in evidence)}
    if q.kind == "braided":
        return {
            "strands": max(d.n_strands for d in evidence),
            "braid_letters": max(len(d.braid.letters) for d in evidence),
        }
    if q.kind == "group":
        autos, classes, fixed = evidence
        out = {"automorphisms": len(autos), "classes": max(len(c) for c in classes)}
        if fixed:
            out["fixed_generators"] = max(len(f.generators) for f in fixed)
        return out
    return {}
