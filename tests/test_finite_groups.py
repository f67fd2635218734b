import gc
import itertools
import random
from collections import Counter
from math import gcd

import pytest

from rinfinity import finite_groups
from rinfinity.finite_groups import (
    FiniteGroup,
    abelian_group,
    automorphisms,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    extension,
    is_automorphism,
    semidirect_cyclic,
    small_groups_up_to_16,
    twisted_classes,
    _extend_checked,
)


def alternating4():
    return extension(abelian_group((2, 2)), 3, (0, 2, 3, 1), name="A4")


def swap_action_group():
    return extension(abelian_group((2, 2)), 4, (0, 2, 1, 3), name="(C2xC2):C4")


def pauli_group():
    c2xc4 = direct_product(cyclic(2), cyclic(4))
    return extension(c2xc4, 2, (0, 1, 2, 3, 6, 7, 4, 5), name="D4oC4")


def test_small_group_counts_by_order():
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5,
                9: 2, 10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14}
    counts = Counter(g.order for g in small_groups_up_to_16())
    assert dict(counts) == expected


def test_group_axioms_of_constructions():
    for g in [cyclic(6), dihedral(4), dicyclic(2), alternating4(),
              swap_action_group(), pauli_group(), semidirect_cyclic(8, 2, 3)]:
        n = g.order
        for a in range(n):
            assert g.mul(a, g.inverses[a]) == 0
        rng = random.Random(1)
        for _ in range(200):
            a, b, c = (rng.randrange(n) for _ in range(3))
            assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_distinguishing_invariants_order_16():
    order16 = [g for g in small_groups_up_to_16() if g.order == 16]
    assert len(order16) == 16 - 2  # 14 groups
    assert sum(1 for g in order16 if g.is_abelian) == 5
    # invariant fingerprints are pairwise distinct except for the known
    # tie between C4:C4 and Q8xC2, separated by their squaring maps
    fingerprints = []
    for g in order16:
        orders = tuple(sorted(g.element_orders))
        squares = tuple(sorted(Counter(g.mul(a, a) for a in range(16)).values()))
        fingerprints.append((g.is_abelian, orders, squares))
    assert len(set(fingerprints)) == 14


def test_extension_refuses_non_group_data():
    c2xc2, c4 = abelian_group((2, 2)), cyclic(4)
    with pytest.raises(ValueError, match="not an automorphism"):
        extension(c2xc2, 2, (0, 1, 2, 2))
    with pytest.raises(ValueError, match="not an automorphism"):
        extension(c4, 2, (0, 2, 1, 3))  # a bijection, not a homomorphism
    with pytest.raises(ValueError, match="does not fix t"):
        extension(c2xc2, 2, (0, 2, 1, 3), t=1)  # the swap moves t = 1
    with pytest.raises(ValueError, match="conjugation by t"):
        extension(c2xc2, 2, (0, 2, 3, 1))  # the 3-cycle squared is not 1
    with pytest.raises(ValueError, match="conjugation by t"):
        extension(c4, 3, (0, 3, 2, 1), t=2)  # negation cubed is not 1
    with pytest.raises(ValueError, match="conjugation by t"):
        # t = 1 is a reflection of D3, so conjugation by it is not 1
        extension(dihedral(3), 2, tuple(range(6)), t=1)


def test_word_tree_is_a_breadth_first_tree_of_the_generators():
    for g in small_groups_up_to_16():
        gens = g.generating_sequence
        reached = [0]
        length = {0: 0}
        for e, parent, i in g.word_tree:
            assert parent in length, (g.name, e)  # 0 or an earlier step
            assert e == g.mul(parent, gens[i]), (g.name, e)
            length[e] = length[parent] + 1
            assert length[e] >= length[reached[-1]], (g.name, e)
            reached.append(e)
        assert sorted(reached) == list(range(g.order)), g.name


def test_q8_has_unique_involution():
    q8 = dicyclic(2)
    assert sum(1 for o in q8.element_orders if o == 2) == 1
    q16 = dicyclic(4)
    assert sum(1 for o in q16.element_orders if o == 2) == 1


# |Aut(G)| for the non-cyclic groups of order <= 16 (|Aut(C_n)| is phi(n)):
# GL(k, 2) for C2^k, GL(2, 3) for C3xC3, S4 for Q8 and A4.
NONCYCLIC_AUT_ORDERS = {
    "C2xC2": 6, "D3": 6, "C4xC2": 8, "C2xC2xC2": 168, "D4": 8, "Q8": 24,
    "C3xC3": 48, "D5": 20, "C6xC2": 12, "D6": 12, "A4": 24, "Dic3": 12,
    "D7": 42, "C8xC2": 16, "C4xC4": 96, "C4xC2xC2": 192,
    "C2xC2xC2xC2": 20160, "D8": 32, "Dic4": 32, "SD16": 16, "M4(2)": 16,
    "D4xC2": 64, "Q8xC2": 192, "C4:C4": 32, "(C2xC2):C4": 32, "D4oC4": 48,
}


def exhaustive_automorphisms(g):
    """Oracle: every assignment of order-matching images to the generating
    sequence, extended along the word tree and checked on the whole table."""
    n = g.order
    gens = g.generating_sequence
    orders = g.element_orders
    candidates = [[b for b in range(n) if orders[b] == orders[a]] for a in gens]
    out = []
    for assignment in itertools.product(*candidates):
        image_of_gen = dict(zip(gens, assignment))
        images = [0] * n
        for e, parent, i in g.word_tree:
            images[e] = g.mul(images[parent], assignment[i])
        if len(set(images)) == n and all(
            images[g.mul(x, a)] == g.mul(images[x], b)
            for x in range(n)
            for a, b in image_of_gen.items()
        ):
            out.append(tuple(images))
    return out


def ref_automorphisms(g):
    """Reference: the pruned depth-first search over generator images that
    verifies every assignment surviving the order, span and span-size
    tests, in lexicographic order of the images."""
    n = g.order
    gens = g.generating_sequence
    k = len(gens)
    if k == 0:
        return [(0,)]
    orders = g.element_orders
    steps = g.word_tree
    sizes = [len(g.subgroup_closure(gens[: i + 1])) for i in range(k)]
    candidates = [[b for b in range(n) if orders[b] == orders[a]] for a in gens]
    columns = [g.table[c::n] for c in range(n)]
    out = []
    assignment = [0] * k
    images = [0] * n
    spans = [{0}] * k
    stack = [iter(candidates[0])]
    while stack:
        i = len(stack) - 1
        span = spans[i]
        for b in stack[i]:
            if b in span:
                continue
            assignment[i] = b
            if i == k - 1:
                if _extend_checked(columns, n, gens, steps, assignment, images):
                    out.append(tuple(images))
                continue
            closure = g.subgroup_closure(assignment[: i + 1])
            if len(closure) == sizes[i]:
                spans[i + 1] = closure
                stack.append(iter(candidates[i + 1]))
                break
        else:
            stack.pop()
    return out


def test_automorphism_counts_known():
    for g in small_groups_up_to_16():
        if g.name == f"C{g.order}":
            expected = sum(1 for k in range(1, g.order + 1) if gcd(k, g.order) == 1)
        else:
            expected = NONCYCLIC_AUT_ORDERS[g.name]
        assert len(automorphisms(g)) == expected, g.name


def test_automorphisms_match_exhaustive_oracle():
    # C2^4 is left out: the oracle tries 15^4 = 50625 assignments there.
    for g in small_groups_up_to_16():
        if g.name != "C2xC2xC2xC2":
            assert set(automorphisms(g)) == set(exhaustive_automorphisms(g)), g.name


def test_automorphisms_match_reference_search_as_lists():
    # list equality: the order is part of the contract, since callers pick
    # automorphisms by index
    for g in small_groups_up_to_16():
        assert automorphisms(g) == ref_automorphisms(g), g.name


def test_verified_search_leaves_pinned(monkeypatch):
    # one verification per search leaf tried for a coset representative,
    # the identity of S_k included in no level; the reference search
    # verifies 22265 leaves in all and 20160 on C2^4
    leaves = Counter()
    name = None

    def counted(*args):
        leaves[name] += 1
        return _extend_checked(*args)

    monkeypatch.setattr(finite_groups, "_extend_checked", counted)
    for g in small_groups_up_to_16():
        name = g.name
        automorphisms(g)
    assert leaves["C2xC2xC2xC2"] == 14
    assert sum(leaves.values()) == 329


def test_automorphisms_leave_no_cyclic_garbage():
    g = abelian_group((2, 2, 2, 2))
    gc.collect()
    gc.disable()
    try:
        autos = automorphisms(g)
        del autos
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_automorphisms_are_automorphisms():
    rng = random.Random(3)
    for g in [dihedral(4), dicyclic(3), swap_action_group()]:
        autos = automorphisms(g)
        for phi in autos:
            assert is_automorphism(g, phi)
        assert len(set(autos)) == len(autos)


def all_pairs_is_automorphism(g, phi):
    """Oracle: phi is a bijection and phi(a * b) == phi(a) * phi(b) for all
    pairs (a, b)."""
    n = g.order
    if sorted(phi) != list(range(n)):
        return False
    table = g.table
    return all(
        phi[table[a * n + b]] == table[phi[a] * n + phi[b]] for a in range(n) for b in range(n)
    )


def test_is_automorphism_matches_all_pairs_oracle():
    # every automorphism (a sample of 300 on C2^4, which has 20160), each
    # with two images swapped, and random permutations fixing the identity
    rng = random.Random(7)
    verdicts = Counter()
    for g in small_groups_up_to_16():
        n = g.order
        autos = automorphisms(g)
        if len(autos) > 300:
            autos = rng.sample(autos, 300)
        maps = []
        for phi in autos:
            maps.append(phi)
            if n > 2:
                a, b = rng.sample(range(1, n), 2)
                swapped = list(phi)
                swapped[a], swapped[b] = swapped[b], swapped[a]
                maps.append(tuple(swapped))
        for _ in range(200):
            rest = list(range(1, n))
            rng.shuffle(rest)
            maps.append((0, *rest))
        for phi in maps:
            verdict = all_pairs_is_automorphism(g, phi)
            assert is_automorphism(g, phi) == verdict, (g.name, phi)
            verdicts[verdict] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 8000


def test_twisted_classes_trivial_group():
    g = cyclic(1)
    assert twisted_classes(g, (0,))[0] == 1


def test_twisted_classes_identity_on_c5():
    g = cyclic(5)
    ident = tuple(range(5))
    assert twisted_classes(g, ident)[0] == 5


def test_twisted_classes_matches_naive():
    rng = random.Random(5)
    for g in [cyclic(6), dihedral(3), dicyclic(2), abelian_group((4, 2))]:
        for phi in automorphisms(g):
            count, classes = twisted_classes(g, phi)
            # naive orbit computation over all of G
            n = g.order
            reach = {a: {g.mul(g.mul(h, a), g.inverses[phi[h]]) for h in range(n)} for a in range(n)}
            seen, naive = set(), 0
            for a in range(n):
                if a in seen:
                    continue
                naive += 1
                stack = [a]
                while stack:
                    x = stack.pop()
                    if x in seen:
                        continue
                    seen.add(x)
                    stack.extend(reach[x])
            assert count == naive
            assert sum(len(c) for c in classes) == n


def test_fixed_points_vs_reidemeister_folklore():
    # |Fix| = 1 iff R = 1, spot-checked on one nonabelian example here.
    g = dihedral(3)
    for phi in automorphisms(g):
        r, _ = twisted_classes(g, phi)
        fixed = [a for a in range(g.order) if phi[a] == a]
        assert (r == 1) == (len(fixed) == 1)


# Subgroups, quotients and induced automorphisms: the oracles of the
# monotonicity test R(phi) >= R(induced phi) below.


def all_subgroups(g):
    """Every subgroup, grown by closing known subgroups with one element."""
    found = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        h = frontier.pop()
        for a in range(1, g.order):
            if a in h:
                continue
            closure = frozenset(g.subgroup_closure(list(h) + [a]))
            if closure not in found:
                found.add(closure)
                frontier.append(closure)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def is_normal(g, h):
    return all(g.mul(g.mul(a, x), g.inverses[a]) in h for a in range(g.order) for x in h)


def quotient_group(g, h):
    """(G/H, coset index of each element); H must be normal.  The
    identity coset is coset 0, since the identity 0 is visited first."""
    coset_of = [-1] * g.order
    reps = []
    for a in range(g.order):
        if coset_of[a] >= 0:
            continue
        for x in h:
            coset_of[g.mul(a, x)] = len(reps)
        reps.append(a)
    m = len(reps)
    table = [0] * (m * m)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            table[i * m + j] = coset_of[g.mul(a, b)]
    return FiniteGroup(f"{g.name}/|{len(h)}|", tuple(table)), coset_of


def induced_automorphism(g, phi, h):
    """The automorphism on G/H induced by phi, or None if phi(H) != H."""
    if any(phi[x] not in h for x in h):
        return None
    _, coset_of = quotient_group(g, h)
    induced = [-1] * (max(coset_of) + 1)
    for a in range(g.order):
        c, ic = coset_of[a], coset_of[phi[a]]
        assert induced[c] in (-1, ic), "induced map is not well defined"
        induced[c] = ic
    return tuple(induced)


def test_subgroups_of_q8_and_c2c2():
    assert len(all_subgroups(dicyclic(2))) == 6
    assert len(all_subgroups(abelian_group((2, 2)))) == 5
    assert len(all_subgroups(abelian_group((2, 2, 2, 2)))) == 67


def test_quotient_group():
    g = dihedral(4)
    center = next(h for h in all_subgroups(g) if len(h) == 2 and is_normal(g, h)
                  and all(g.mul(a, x) == g.mul(x, a) for x in h for a in range(g.order)))
    q, coset_of = quotient_group(g, center)
    assert q.order == 4
    assert q.is_abelian
    for a in range(g.order):
        for b in range(g.order):
            assert coset_of[g.mul(a, b)] == q.mul(coset_of[a], coset_of[b])


def test_induced_automorphism_and_monotonicity():
    g = dihedral(4)
    autos = automorphisms(g)
    normals = [h for h in all_subgroups(g) if is_normal(g, h)]
    for phi in autos:
        r_phi, _ = twisted_classes(g, phi)
        for h in normals:
            induced = induced_automorphism(g, phi, h)
            if induced is None:
                continue
            q, _ = quotient_group(g, h)
            assert r_phi >= twisted_classes(q, induced)[0]
