"""Finite groups as multiplication tables: construction combinators, the
full catalogue of groups of order <= 16, automorphism enumeration, and the
brute-force twisted-conjugacy oracle.

The catalogue is built from cyclic groups by direct products and one
extension constructor: every non-abelian group in it is an extension of a
normal subgroup N by a cyclic group C_m (`extension`), given by an
automorphism alpha of N and an element t of N.  `semidirect_cyclic`,
`dihedral` and `dicyclic` are such extensions of a cyclic N.

Automorphisms are enumerated by images of a generating sequence, level
by level up the chain of stabilisers of its prefixes; each is verified on
the whole table or is a product of verified ones (see `automorphisms`).

Elements are 0..n-1 with 0 the identity; the table is a flat tuple with
table[a * n + b] = a * b, and a Latin square (every row and every column
a permutation of 0..n-1), so that the powers of an element return to 0.
"""

from __future__ import annotations

from functools import cached_property
from math import isqrt
from operator import itemgetter

from . import _Value


class FiniteGroup(_Value):
    """A group by its multiplication table, refused unless it is a Latin square (each
    row and column a permutation of 0..n-1) with identity 0; associativity is unchecked."""

    __slots__ = ("name", "table", "__dict__")

    def __init__(self, name: str, table: tuple[int, ...]) -> None:
        if type(table) is not tuple:
            raise TypeError(f"FiniteGroup table must be a tuple, not {type(table).__name__}")
        if kinds := set(map(type, table)) - {int}:
            raise TypeError(f"FiniteGroup table entries must be ints, not {min(k.__name__ for k in kinds)}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "table", table)
        n = self.order
        if len(table) != n * n:
            raise ValueError("table size is not a perfect square")
        elements = set(range(n))
        for a in range(n):
            if table[a * n] != a or table[a] != a:
                raise ValueError("element 0 is not an identity")
            if set(table[a * n : a * n + n]) != elements or set(table[a::n]) != elements:
                raise ValueError("a row or column of the table is not a permutation of 0..n-1")

    @cached_property
    def order(self) -> int:
        return isqrt(len(self.table))

    def mul(self, a: int, b: int) -> int:
        return self.table[a * self.order + b]

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        n, table = self.order, self.table
        return tuple([table[a * n : a * n + n].index(0) for a in range(n)])

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        out = []
        for a in range(self.order):
            k, x = 1, a
            while x != 0:
                x = self.mul(x, a)
                k += 1
            out.append(k)
        return tuple(out)

    @cached_property
    def is_abelian(self) -> bool:
        n = self.order
        return all(self.mul(a, b) == self.mul(b, a) for a in range(n) for b in range(a))

    @cached_property
    def generating_sequence(self) -> tuple[int, ...]:
        """A short generating sequence, found greedily."""
        gens: list[int] = []
        current = {0}
        candidates = sorted(range(self.order), key=lambda a: -self.element_orders[a])
        while len(current) < self.order:
            for a in candidates:
                if a not in current:
                    gens.append(a)
                    current = self.subgroup_closure(gens)
                    break
        return tuple(gens)

    def subgroup_closure(self, elements) -> set[int]:
        """The subgroup generated by elements: in a finite group, the
        closure of {0} under right multiplication by them."""
        n, table = self.order, self.table
        closed = {0}
        frontier = [0]
        while frontier:
            row = frontier.pop() * n
            for a in elements:
                y = table[row + a]
                if y not in closed:
                    closed.add(y)
                    frontier.append(y)
        return closed

    @cached_property
    def _automorphism_plan(self):
        """What automorphisms() reads from the table, built once per group:
        the word tree; the size of <g_0 .. g_i> for each i; the candidate
        images of each generator (the elements of its order); and the
        table's columns, where columns[c][x] is x * c."""
        n, gens, orders = self.order, self.generating_sequence, self.element_orders
        sizes = [len(self.subgroup_closure(gens[: i + 1])) for i in range(len(gens))]
        candidates = [[b for b in range(n) if orders[b] == orders[a]] for a in gens]
        columns = [self.table[c::n] for c in range(n)]
        return self.word_tree, sizes, candidates, columns

    @cached_property
    def word_tree(self) -> tuple[tuple[int, int, int], ...]:
        """The breadth-first word tree of the generating sequence: one step
        (e, parent, i) with e = parent * g_i for each element e != 0, in
        queue order, so each parent is 0 or the element of an earlier step."""
        gens = self.generating_sequence
        steps: list[tuple[int, int, int]] = []
        seen = {0}
        queue = [0]
        for x in queue:  # the loop reads the elements appended below
            for i, a in enumerate(gens):
                y = self.mul(x, a)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
                    steps.append((y, x, i))
        return tuple(steps)


def from_elements(name: str, identity, elements: list, mul) -> FiniteGroup:
    """Build a table group from abstract elements; identity is moved to 0."""
    ordered = [identity] + [e for e in elements if e != identity]
    index = {e: i for i, e in enumerate(ordered)}
    return FiniteGroup(name, tuple(index[mul(a, b)] for a in ordered for b in ordered))


def cyclic(n: int) -> FiniteGroup:
    return from_elements(f"C{n}", 0, list(range(n)), lambda a, b: (a + b) % n)


def direct_product(g: FiniteGroup, h: FiniteGroup, name: str | None = None) -> FiniteGroup:
    elements = [(a, b) for a in range(g.order) for b in range(h.order)]
    return from_elements(
        name or f"{g.name}x{h.name}",
        (0, 0),
        elements,
        lambda p, q: (g.mul(p[0], q[0]), h.mul(p[1], q[1])),
    )


def extension(n: FiniteGroup, m: int, alpha, t: int = 0, name: str | None = None) -> FiniteGroup:
    """The extension of N = n by C_m = <s> in which s acts on N by alpha
    (the images of 0..|N|-1) and s^m = t.  Its elements are the pairs
    (a, b) = a s^b with a in N and 0 <= b < m, listed a-major, and
    (a1, b1) (a2, b2) = (a1 alpha^b1(a2) t^[b1 + b2 >= m], (b1 + b2) mod m).
    This is a group exactly when alpha is an automorphism of N, alpha(t) = t
    and alpha^m is conjugation by t; with t = 0 it is N x| C_m."""
    if not is_automorphism(n, alpha):
        raise ValueError("alpha is not an automorphism of N")
    if alpha[t] != t:
        raise ValueError("alpha does not fix t")
    powers = [tuple(range(n.order))]  # powers[b] is alpha^b
    for _ in range(m):
        powers.append(tuple(alpha[x] for x in powers[-1]))
    if powers[m] != tuple(n.mul(n.mul(t, x), n.inverses[t]) for x in range(n.order)):
        raise ValueError("alpha^m is not conjugation by t")

    def mul(p, q):
        (a1, b1), (a2, b2) = p, q
        a = n.mul(a1, powers[b1][a2])
        return (n.mul(a, t) if b1 + b2 >= m else a, (b1 + b2) % m)

    elements = [(a, b) for a in range(n.order) for b in range(m)]
    return from_elements(name or f"{n.name}.C{m}", (0, 0), elements, mul)


def semidirect_cyclic(n: int, m: int, k: int, name: str | None = None) -> FiniteGroup:
    """C_n x| C_m with the generator of C_m acting by x -> x^k."""
    alpha = tuple(k * x % n for x in range(n))
    return extension(cyclic(n), m, alpha, name=name or f"C{n}:C{m}(k={k})")


def dihedral(n: int) -> FiniteGroup:
    return semidirect_cyclic(n, 2, n - 1, name=f"D{n}")


def dicyclic(n: int) -> FiniteGroup:
    """Order 4n: <a, b | a^{2n} = 1, b^2 = a^n, bab^-1 = a^-1>; n = 2 is
    the quaternion group."""
    negation = tuple(-x % (2 * n) for x in range(2 * n))
    return extension(cyclic(2 * n), 2, negation, t=n, name="Q8" if n == 2 else f"Dic{n}")


def abelian_group(invariants: tuple[int, ...]) -> FiniteGroup:
    g = cyclic(invariants[0])
    for d in invariants[1:]:
        g = direct_product(g, cyclic(d))
    name = "x".join(f"C{d}" for d in invariants)
    return FiniteGroup(name, g.table)


def small_groups_up_to_16() -> list[FiniteGroup]:
    """All groups of order <= 16 up to isomorphism (42 of them)."""
    groups: list[FiniteGroup] = []
    for n in range(1, 16):
        groups.append(cyclic(n))
    groups.append(abelian_group((2, 2)))  # order 4
    groups.append(dihedral(3))  # = S3, order 6
    groups.extend(
        [
            abelian_group((4, 2)),
            abelian_group((2, 2, 2)),
            dihedral(4),
            dicyclic(2),  # Q8
        ]
    )  # order 8 non-cyclic
    groups.append(abelian_group((3, 3)))  # order 9
    groups.append(dihedral(5))  # order 10
    # A4: C3 cycles the three involutions of C2xC2
    a4 = extension(abelian_group((2, 2)), 3, (0, 2, 3, 1), name="A4")
    groups.extend([abelian_group((6, 2)), dihedral(6), a4, dicyclic(3)])  # order 12
    groups.append(dihedral(7))  # order 14
    groups.extend(
        [
            cyclic(16),
            abelian_group((8, 2)),
            abelian_group((4, 4)),
            abelian_group((4, 2, 2)),
            abelian_group((2, 2, 2, 2)),
            dihedral(8),
            dicyclic(4),  # generalized quaternion Q16
            semidirect_cyclic(8, 2, 3, name="SD16"),
            semidirect_cyclic(8, 2, 5, name="M4(2)"),
            direct_product(dihedral(4), cyclic(2)),
            direct_product(dicyclic(2), cyclic(2)),
            semidirect_cyclic(4, 4, 3, name="C4:C4"),
            # C4 swaps the two factors
            extension(abelian_group((2, 2)), 4, (0, 2, 1, 3), name="(C2xC2):C4"),
            # the central product of D4 and C4: C2 acts on C2xC4 by
            # (x, y) -> (x, y + 2x)
            extension(
                direct_product(cyclic(2), cyclic(4)), 2, (0, 1, 2, 3, 6, 7, 4, 5), name="D4oC4"
            ),
        ]
    )
    return groups


def automorphisms(g: FiniteGroup) -> list[tuple[int, ...]]:
    """All automorphisms, as permutations of 0..n-1, in lexicographic order
    of the images of the generating sequence g_0 .. g_{k-1}.

    Aut(G) is the top of a chain of stabilisers.  Let S_i be the
    automorphisms that fix g_0 .. g_{i-1}, so that S_0 = Aut(G) and
    S_k = {1}.  S_i is the union of the cosets a_b . S_{i+1}, one for each
    image b of g_i under S_i, where a_b is any element of S_i that sends
    g_i to b.  The levels are built from S_k up to S_0, each by the same
    procedure: S_{i+1} permutes the images of g_i, and one b per orbit is
    tried.  A depth-first search completes g_j -> g_j (j < i), g_i -> b
    and stops at the first verified assignment.  If it finds a_b, then
    s . a_b serves s(b) for every s in S_{i+1}; if not, no s(b) is an
    image.

    The search picks later images one at a time.  A candidate image of g_j
    is skipped when its order differs from that of g_j, when it lies in
    the subgroup the earlier images generate, or (below the last
    generator) when that subgroup differs in size from <g_0 .. g_j>; only
    non-automorphisms fail these tests.  An assignment is verified by
    extending it along the BFS word tree and checking all (element,
    generator) products and bijectivity.

    So one representative per coset is verified on the whole table, or is
    a product of verified ones, and every other automorphism is a product
    of verified ones.  Each level lists its cosets in order of b and sorts
    each coset by its generator images."""
    n = g.order
    gens = g.generating_sequence
    k = len(gens)
    steps, sizes, candidates, columns = g._automorphism_plan
    assignment = list(gens)
    images = [0] * n
    # spans[j] is the subgroup generated by assignment[:j]
    spans: list[set[int]] = [{0}] * k

    def first_extension(i: int) -> tuple[int, ...] | None:
        """The first verified automorphism whose generator images begin
        with assignment[: i + 1], or None if there is none."""
        stack = [iter([assignment[i]])]
        while stack:
            j = i + len(stack) - 1
            span = spans[j]
            for b in stack[-1]:
                if b in span:
                    continue
                assignment[j] = b
                if j == k - 1:
                    if _extend_checked(columns, n, gens, steps, assignment, images):
                        return tuple(images)
                    continue
                closure = g.subgroup_closure(assignment[: j + 1])
                if len(closure) == sizes[j]:
                    spans[j + 1] = closure
                    stack.append(iter(candidates[j + 1]))
                    break
            else:
                stack.pop()
        return None

    identity = tuple(range(n))
    stabiliser = [identity]
    for i in reversed(range(k)):
        # reps[b] fixes g_0 .. g_{i-1} and sends g_i to b; done holds the
        # images of g_i already settled, either way
        reps = {gens[i]: identity}
        spans[i] = g.subgroup_closure(gens[:i])
        done = spans[i] | {gens[i]}
        for b in candidates[i]:
            if b in done:
                continue
            assignment[i] = b
            rep = first_extension(i)
            then_rep = itemgetter(*rep) if rep else None
            for s in stabiliser:
                c = s[b]
                if c not in done:
                    done.add(c)
                    if then_rep:
                        reps[c] = then_rep(s)  # s . rep sends g_i to c
        assignment[i] = gens[i]
        # itemgetter(*s)(a) is the product a . s (n > 1 here, so a tuple)
        products_with = [itemgetter(*s) for s in stabiliser]
        by_images = itemgetter(*gens)
        stabiliser = []
        for b in sorted(reps):
            coset = [times(reps[b]) for times in products_with]
            coset.sort(key=by_images)
            stabiliser += coset
    return stabiliser


def _extend_checked(columns, n, gens, steps, assignment, images) -> bool:
    """Fill images with the extension of gens[i] -> assignment[i] along the
    word tree; True iff it is an automorphism.  columns[c][x] is x * c."""
    image_columns = [columns[b] for b in assignment]
    for e, parent, i in steps:
        images[e] = image_columns[i][images[parent]]
    return _respects_generators(columns.__getitem__, n, gens, images)


def _respects_generators(column, n, gens, images) -> bool:
    """True iff f(x) = images[x] is a bijection of 0..n-1 with
    f(x * a) == f(x) * f(a) for every x and every a in gens, where
    column(c)[x] is x * c.  When gens generates the group, f is then an
    automorphism: f(x * w) == f(x) * f(w) for every word w in gens, by
    induction on the length of w."""
    if sorted(images) != list(range(n)):
        return False
    image_of = images.__getitem__
    return all(
        list(map(image_of, column(a))) == list(map(column(images[a]).__getitem__, images))
        for a in gens
    )


def is_automorphism(g: FiniteGroup, phi) -> bool:
    """True iff phi, the images of 0..n-1, is an automorphism of g."""
    n, table = g.order, g.table
    return _respects_generators(lambda c: table[c::n], n, g.generating_sequence, phi)


def twisted_classes(g: FiniteGroup, phi) -> tuple[int, list[list[int]]]:
    """Orbits of (h, a) -> h * a * phi(h)^-1; phi must be an automorphism."""
    if not is_automorphism(g, phi):
        raise ValueError("phi is not an automorphism")
    n = g.order
    table = g.table
    inverses = g.inverses
    twists = [(h * n, inverses[phi[h]]) for h in g.generating_sequence]
    seen = [False] * n
    classes: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        stack = [start]
        while stack:
            a = stack.pop()
            for row, twist in twists:
                b = table[table[row + a] * n + twist]
                if not seen[b]:
                    seen[b] = True
                    orbit.append(b)
                    stack.append(b)
        classes.append(sorted(orbit))
    return len(classes), classes
