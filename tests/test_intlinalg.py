import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, inf, prod

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from rinfinity import intlinalg
from rinfinity.finite_groups import automorphisms, small_groups_up_to_16
from rinfinity.intlinalg import (
    AbelianAuto,
    FGAbelianGroup,
    FixedSubgroup,
    IntMatrix,
    SmithDecomposition,
    fix_subgroup,
    inverse_unimodular,
    lattice_quotient,
    reidemeister_number_abelian,
    smith_normal_form,
)

from oracles import det


def same_element(group: FGAbelianGroup, x, y) -> bool:
    """Whether x and y are one element of Z^n / relators."""
    return group.contains_in_relator_span(tuple(a - b for a, b in zip(x, y)))


def solve_integer(m: IntMatrix, b) -> tuple[int, ...] | None:
    """One integer solution x of M x = b, or None if none exists."""
    return smith_normal_form(m).solve(b)


# The Smith normal form as first written, with one closure per row or
# column operation.  Kept as the reference: the library's loop must make
# the same operations in the same order and return the same U, S and V.


def ref_smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    n, c = m.nrows, m.ncols
    s = [list(r) for r in m.rows]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        s[dst] = [a + q * b for a, b in zip(s[dst], s[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in s:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        s[i] = [-a for a in s[i]]
        u[i] = [-a for a in u[i]]

    t = 0
    while t < min(n, c):
        pivot = None
        for i in range(t, n):
            for j in range(t, c):
                if s[i][j] != 0 and (pivot is None or abs(s[i][j]) < abs(s[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if s[t][t] < 0:
            negate_row(t)
        p = s[t][t]
        residue = False
        for i in range(t + 1, n):
            if s[i][t] != 0:
                q = (s[i][t] + (p >> 1)) // p
                if q:
                    add_row(i, t, -q)
                if s[i][t] != 0:
                    residue = True
        for j in range(t + 1, c):
            if s[t][j] != 0:
                q = (s[t][j] + (p >> 1)) // p
                if q:
                    add_col(j, t, -q)
                if s[t][j] != 0:
                    residue = True
        if residue:
            continue
        culprit = None
        for i in range(t + 1, n):
            if any(s[i][j] % p != 0 for j in range(t + 1, c)):
                culprit = i
                break
        if culprit is not None:
            add_row(t, culprit, 1)
            continue
        t += 1
    return SmithDecomposition(IntMatrix.of(u), IntMatrix.of(s), IntMatrix.of(v))


# R(phi) and Fix(phi) as first written: each builds [M - I | R] and
# decomposes it on its own, through a throwaway group or a Smith kernel.


def ref_reidemeister_number_abelian(auto: AbelianAuto) -> int | float:
    n = auto.group.n
    mi = auto.matrix - IntMatrix.identity(n)
    cols = mi.columns() + auto.group.relators.columns()
    return FGAbelianGroup.from_relator_columns(n, cols).structure().order


def ref_fix_subgroup(auto: AbelianAuto) -> FixedSubgroup:
    n = auto.group.n
    mi = auto.matrix - IntMatrix.identity(n)
    rel_cols = auto.group.relators.columns()
    gens = [k[:n] for k in smith_normal_form(IntMatrix.from_columns(mi.columns() + rel_cols)).kernel()]
    structure = lattice_quotient(gens, rel_cols, n)
    return FixedSubgroup(
        structure, tuple(g for g in gens if not auto.group.contains_in_relator_span(g))
    )


def random_matrix(rng, n, m, lo=-9, hi=9):
    return IntMatrix.of([[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)])


def random_unimodular(rng, n, steps=12):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += q * m[j][k]
    return IntMatrix.of(m)


def test_snf_identity():
    snf = smith_normal_form(IntMatrix.identity(3))
    assert snf.s == IntMatrix.identity(3)
    assert snf.u * IntMatrix.identity(3) * snf.v == snf.s


def test_snf_random_certified():
    rng = random.Random(11)
    for _ in range(1000):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        mat = random_matrix(rng, n, m)
        snf = smith_normal_form(mat)
        assert snf.u * mat * snf.v == snf.s
        assert abs(det(snf.u)) == 1
        assert abs(det(snf.v)) == 1
        d = snf.diagonal
        for i in range(len(d) - 1):
            if d[i + 1] != 0:
                assert d[i] != 0 and d[i + 1] % d[i] == 0
        for i in range(snf.s.nrows):
            for j in range(snf.s.ncols):
                if i != j:
                    assert snf.s.rows[i][j] == 0
        assert all(x >= 0 for x in d)


def test_snf_matches_reference_entry_for_entry():
    rng = random.Random(31)
    mats = [IntMatrix(((0,) * m,) * n) for n in range(1, 5) for m in range(1, 5)]
    mats += [IntMatrix(((),) * n) for n in range(4)]  # 0 columns, and the empty matrix
    for _ in range(2400):
        n, m = rng.randint(1, 6), rng.randint(1, 7)
        mats.append(
            IntMatrix.of(
                [[0 if rng.random() < 0.2 else rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
            )
        )
    for mat in mats:
        ours, ref = smith_normal_form(mat), ref_smith_normal_form(mat)
        assert (ours.u, ours.s, ours.v) == (ref.u, ref.s, ref.v), mat
        assert ours.rank == ref.rank and ours.diagonal == ref.diagonal
        assert intlinalg.smith_reduce([list(r) for r in mat.rows], mat.nrows, mat.ncols) == ref.diagonal


def test_inverse_unimodular():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 6)
        u = random_unimodular(rng, n)
        assert u * inverse_unimodular(u) == IntMatrix.identity(n)


def test_matrix_arithmetic_rejects_mismatched_shapes():
    a, row = IntMatrix.of([[1, 2], [3, 4]]), IntMatrix.of([[1, 2]])
    assert a - a == IntMatrix.of([[0, 0], [0, 0]])
    for x, y in ((row, IntMatrix.of([[1]])), (a, row), (row, a), (IntMatrix(((), ())), IntMatrix(()))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            x - y
    with pytest.raises(ValueError, match="dimension mismatch"):
        a * IntMatrix.of([[1, 2, 3]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        a.apply((1, 2, 3))


def test_from_columns_rejects_ragged_columns():
    assert IntMatrix.from_columns([(1, 2), (3, 4)]) == IntMatrix.of([[1, 3], [2, 4]])
    assert IntMatrix.from_columns([]) == IntMatrix(())
    for cols in ([(1,), (3, 4)], [(1, 2), (3,)], [(), (1,)]):
        with pytest.raises(ValueError, match="ragged columns"):
            IntMatrix.from_columns(cols)


def test_of_refuses_entries_that_are_not_integers():
    m = IntMatrix.of([[True, 2], [sympy.Integer(3), -4]])
    assert m.rows == ((1, 2), (3, -4))
    assert all(type(x) is int for r in m.rows for x in r)
    for bad in (0.5, 2.0, Fraction(3, 2), Fraction(2), "1"):
        with pytest.raises(TypeError):
            IntMatrix.of([[bad, 1], [2, 3]])


def test_constructor_takes_only_a_tuple_of_int_tuples():
    # The constructor keeps its rows as given, so rows that are lists, or
    # entries that are not int, would make a mutable, unhashable or
    # unequal value; IntMatrix.of converts them instead.
    m = IntMatrix(((1, 2), (3, 4)))
    assert m == IntMatrix.of([[1, 2], [3, 4]]) and hash(m) == hash(IntMatrix.of([[1, 2], [3, 4]]))
    assert IntMatrix(()).nrows == IntMatrix(()).ncols == 0 and IntMatrix(((), ())).ncols == 0
    lists = ([[1, 2]], [(1, 2)], ([1, 2],), (1, 2), "12")
    entries = (1.5, 2.0, Fraction(1), True, sympy.Integer(1))
    for bad in lists + tuple(((x, 2),) for x in entries):
        with pytest.raises(TypeError, match="IntMatrix.of"):
            IntMatrix(bad)
    with pytest.raises(ValueError, match="ragged matrix"):
        IntMatrix(((1, 2), (3,)))
    # Matrices the library builds itself skip the check but meet it.
    snf = smith_normal_form(IntMatrix.of([[2, 4], [6, 8], [1, 3]]))
    built_here = (snf.s.transpose(), snf.u - snf.u, snf.v * snf.v, IntMatrix.identity(3))
    for built in (snf.u, snf.s, snf.v) + built_here:
        assert IntMatrix(built.rows) == built


def test_snf_diagonal_matches_sympy_invariant_factors():
    rng = random.Random(23)
    for trial in range(300):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        if trial % 3 == 0:
            # rank r < min(n, m): a product through a thinner matrix
            r = rng.randint(0, min(n, m) - 1)
            mat = (
                random_matrix(rng, n, r, -4, 4) * random_matrix(rng, r, m, -4, 4)
                if r
                else IntMatrix(((0,) * m,) * n)
            )
        else:
            mat = random_matrix(rng, n, m)
        snf = smith_normal_form(mat)
        theirs = [abs(int(d)) for d in sympy_invariant_factors(sympy.Matrix(mat.rows)) if d != 0]
        assert [d for d in snf.diagonal if d != 0] == theirs
        assert snf.rank == sympy.Matrix(mat.rows).rank()
        assert intlinalg.smith_reduce([list(r) for r in mat.rows], mat.nrows, mat.ncols) == snf.diagonal
    # No rows (the empty matrix) or no columns: no invariant factors.
    for n in range(4):
        mat = IntMatrix(((),) * n)
        diagonal = intlinalg.smith_reduce([list(r) for r in mat.rows], mat.nrows, mat.ncols)
        assert diagonal == smith_normal_form(mat).diagonal == ()


def test_inverse_unimodular_rejects():
    with pytest.raises(ValueError, match="not square"):
        inverse_unimodular(IntMatrix.of([[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(ValueError, match="singular"):
        inverse_unimodular(IntMatrix.of([[1, 2], [2, 4]]))
    with pytest.raises(ValueError, match="not unimodular"):
        inverse_unimodular(IntMatrix.of([[2, 0], [0, 1]]))
    with pytest.raises(ValueError, match="not unimodular"):
        inverse_unimodular(IntMatrix.of([[1, 1], [-1, 1]]))


def test_solve_and_kernel():
    rng = random.Random(17)
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mat = random_matrix(rng, n, m, -4, 4)
        x = tuple(rng.randint(-5, 5) for _ in range(m))
        b = mat.apply(x)
        sol = solve_integer(mat, b)
        assert sol is not None
        assert mat.apply(sol) == b
        for k in smith_normal_form(mat).kernel():
            assert mat.apply(k) == (0,) * n


def test_str_of_matrices_and_structures():
    assert str(IntMatrix.of([[1, -2], [3, 4]])) == "[[1, -2], [3, 4]]"
    assert str(IntMatrix.of([[0, 5, -7]])) == "[[0, 5, -7]]"
    assert str(IntMatrix(())) == "[]"
    assert str(intlinalg.GroupStructure((2, 4), 1)) == "Z/2 + Z/4 + Z^1"
    assert str(intlinalg.GroupStructure((3,), 0)) == "Z/3"
    assert str(intlinalg.GroupStructure((), 2)) == "Z^2"
    assert str(intlinalg.GroupStructure((), 0)) == "0"
    group = FGAbelianGroup.from_relator_columns(3, [(2, 0, 0), (0, 4, 0)])
    assert str(group.structure()) == "Z/2 + Z/4 + Z^1"


def test_gw_relator_invariant_factors():
    # Z^3 with relators {2*e1, b*e1}: C2 + Z^2 when b is even, Z^2 when odd.
    even = FGAbelianGroup.from_relator_columns(3, [(2, 0, 0), (2, 0, 0)])
    st = even.structure()
    assert st.torsion == (2,) and st.free_rank == 2
    odd = FGAbelianGroup.from_relator_columns(3, [(2, 0, 0), (3, 0, 0)])
    st = odd.structure()
    assert st.torsion == () and st.free_rank == 2


def test_fix_subgroup_basics():
    z2 = FGAbelianGroup.free(2)
    ident = AbelianAuto(z2, IntMatrix.identity(2))
    assert fix_subgroup(ident).order == inf
    neg = AbelianAuto(z2, IntMatrix.of([[-1, 0], [0, -1]]))
    assert fix_subgroup(neg).order == 1
    assert reidemeister_number_abelian(neg) == 4
    assert reidemeister_number_abelian(ident) == inf


def test_fix_on_torsion_group():
    # -I on C2 + Z^2 fixes the torsion generator: |Fix| = 2.
    grp = FGAbelianGroup.from_relator_columns(3, [(2, 0, 0)])
    neg = AbelianAuto(grp, IntMatrix.of([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]))
    fixed = fix_subgroup(neg)
    assert fixed.order == 2
    assert fixed.generators
    assert all(same_element(grp, g, (1, 0, 0)) for g in fixed.generators)


def random_abelian_auto(rng):
    """A random automorphism of Z/d1 + ... + Z/dt + Z^f with t + f <= 3,
    torsion coordinates first.  Free rows vanish on torsion columns, as
    they must for the matrix to stabilize the relators."""
    while True:
        f = rng.randint(0, 2)
        torsion = [rng.choice((2, 3, 4, 6, 8, 9)) for _ in range(rng.randint(0, 3 - f))]
        t, n = len(torsion), f + len(torsion)
        if n == 0:
            continue
        rels = [tuple(d if i == j else 0 for i in range(n)) for j, d in enumerate(torsion)]
        free_block = random_unimodular(rng, f, steps=rng.randint(0, 6)).rows if f else ()
        rows = []
        for i in range(n):
            if i < t:
                rows.append([rng.randint(-4, 4) for _ in range(n)])
            else:
                rows.append([0] * t + list(free_block[i - t]))
        try:
            return AbelianAuto(FGAbelianGroup.from_relator_columns(n, rels), IntMatrix.of(rows))
        except ValueError:
            continue


def test_fix_generators_are_fixed_and_nonzero():
    # -1 on Z/4 fixes {0, 2}; the generator 1 would not be fixed.
    z4 = FGAbelianGroup.from_relator_columns(1, [(4,)])
    fixed = fix_subgroup(AbelianAuto(z4, IntMatrix.of([[-1]])))
    assert fixed.order == 2
    assert fixed.generators
    assert all(same_element(z4, g, (2,)) for g in fixed.generators)
    rng = random.Random(29)
    for _ in range(300):
        auto = random_abelian_auto(rng)
        grp, m = auto.group, auto.matrix
        fixed = fix_subgroup(auto)
        ref = ref_fix_subgroup(auto)
        assert (fixed.structure, fixed.generators) == (ref.structure, ref.generators)
        assert reidemeister_number_abelian(auto) == ref_reidemeister_number_abelian(auto)
        for g in fixed.generators:
            moved = tuple(a - b for a, b in zip(m.apply(g), g))
            assert grp.contains_in_relator_span(moved)
            assert not grp.contains_in_relator_span(g)
        # and they generate the whole fixed subgroup
        rels = grp.relators.columns()
        assert lattice_quotient(list(fixed.generators) + rels, rels, grp.n) == fixed.structure


def record_reductions(monkeypatch) -> list[tuple[int, int, int, int]]:
    """Record each call of the Smith kernel: the block shape (n, c), the
    identity columns appended to the right of the block (U) and the
    identity rows appended below it (V)."""
    calls = []
    kernel = intlinalg.smith_reduce

    def recorded(a, n, c):
        calls.append((n, c, len(a[0]) - c if n else 0, len(a) - n))
        return kernel(a, n, c)

    monkeypatch.setattr(intlinalg, "smith_reduce", recorded)
    return calls


def test_one_twisted_decomposition_per_automorphism(monkeypatch):
    # With the group's own relators already reduced: [M | R] bare for
    # surjectivity, [M - I | R] with the first n rows of V for both R and
    # Fix, then in lattice_quotient the fixed lattice with U and the
    # relator coordinates bare.
    grp = FGAbelianGroup.from_relator_columns(3, [(2, 0, 0)])
    assert grp.structure().torsion == (2,)
    calls = record_reductions(monkeypatch)
    auto = AbelianAuto(grp, IntMatrix.of([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]))
    assert reidemeister_number_abelian(auto) == 8
    assert fix_subgroup(auto).order == 2
    assert calls == [(3, 4, 0, 0), (3, 4, 0, 3), (3, 1, 3, 0), (1, 1, 0, 0)]
    assert reidemeister_number_abelian(auto) == 8
    assert fix_subgroup(auto).order == 2
    assert len(calls) == 4


def catalogue_abelian_autos(per_group: int, seed: int):
    """For each abelian group of order <= 16 in the catalogue, a seeded
    sample of its automorphisms: (table group, permutation phi, the group
    Z^k / diag(d) for the invariants d in its name, the integer matrix of
    phi).  Elements are numbered in mixed radix over d, last factor
    fastest; the table is checked to be that sum before matrices are read
    off phi, and the groups are new on every call."""
    rng = random.Random(seed)
    out = []
    for g in small_groups_up_to_16():
        if not g.is_abelian:
            continue
        d = tuple(int(part[1:]) for part in g.name.split("x"))
        coords = list(itertools.product(*(range(x) for x in d)))
        index = {c: i for i, c in enumerate(coords)}
        for a, b in itertools.product(range(g.order), repeat=2):
            assert g.mul(a, b) == index[tuple((x + y) % m for x, y, m in zip(coords[a], coords[b], d))]
        k = len(d)
        unit = [index[tuple(int(i == j) % d[i] for i in range(k))] for j in range(k)]
        rels = [tuple(x * int(i == j) for i in range(k)) for j, x in enumerate(d)]
        group = FGAbelianGroup.from_relator_columns(k, rels)
        for phi in rng.choices(automorphisms(g), k=per_group):
            cols = [coords[phi[e]] for e in unit]
            out.append((g, phi, group, IntMatrix.of([[c[i] for c in cols] for i in range(k)])))
    return out


def element_order(g, a: int) -> int:
    k, x = 1, a
    while x != 0:
        x, k = g.mul(x, a), k + 1
    return k


def test_fix_and_reidemeister_number_match_the_multiplication_table():
    # An oracle that shares no code with intlinalg: the fixed points of phi
    # and the cosets of {x - phi(x)}, read off the table.  For a finite
    # abelian A = Z/d1 + ... + Z/dt, |{x : k x = 0}| = prod gcd(k, di), and
    # these counts for k = 1..|A| determine the di.
    autos = catalogue_abelian_autos(per_group=12, seed=43)
    assert len({g.name for g, *_ in autos}) == 25
    for g, phi, group, matrix in autos:
        n = g.order
        auto = AbelianAuto(group, matrix)
        fixed = fix_subgroup(auto)
        fixed_points = [a for a in range(n) if phi[a] == a]
        assert fixed.order == len(fixed_points), (g.name, phi)
        torsion = fixed.structure.torsion
        assert all(d > 1 for d in torsion) and all(b % a == 0 for a, b in zip(torsion, torsion[1:]))
        orders = [element_order(g, a) for a in fixed_points]
        for k in range(1, n + 1):
            assert sum(1 for o in orders if k % o == 0) == prod(gcd(k, d) for d in torsion), (g.name, phi, k)
        inverse = [next(b for b in range(n) if g.mul(a, b) == 0) for a in range(n)]
        twisted_image = {g.mul(a, inverse[phi[a]]) for a in range(n)}
        assert reidemeister_number_abelian(auto) == n // len(twisted_image), (g.name, phi)


def test_work_per_automorphism_over_the_catalogue(monkeypatch):
    # One pass over the 25 abelian catalogue groups, 4 fixed automorphisms
    # each: one reduction per group of its relators that records U, and
    # per automorphism one reduction that records the first n rows of V
    # (the twisted kernel), one that records U (the fixed lattice) and two
    # bare ones (surjectivity, the structure of Fix).  A transform built
    # where no one reads it shows here as a count, with no timing.
    autos = catalogue_abelian_autos(per_group=4, seed=47)
    calls = record_reductions(monkeypatch)
    made = []
    for _, _, group, matrix in autos:
        auto = AbelianAuto(group, matrix)
        reidemeister_number_abelian(auto)
        fix_subgroup(auto)
        made.append(auto)
    assert len(autos) == 100
    kinds = Counter(
        {(0, 0): "bare", (n, 0): "U", (0, n): "V rows", (n, c): "U and V"}.get((u, v), "other")
        for n, c, u, v in calls
    )
    assert kinds == {"U": 125, "V rows": 100, "bare": 200}
    for auto in made:
        reidemeister_number_abelian(auto)
        fix_subgroup(auto)
    assert len(calls) == 425


def test_group_rejects_relators_of_wrong_height():
    # The decomposition acts on Z^n, so the relator matrix must have n
    # rows even when it has no columns.
    assert FGAbelianGroup.free(3).structure().free_rank == 3
    for relators in (IntMatrix(()), IntMatrix.of([[2], [0]])):
        with pytest.raises(ValueError):
            FGAbelianGroup(3, relators)


def test_auto_validation():
    grp = FGAbelianGroup.from_relator_columns(2, [(2, 0)])
    with pytest.raises(ValueError):
        AbelianAuto(grp, IntMatrix.of([[0, 1], [1, 0]]))  # does not stabilize 2Z x 0
    with pytest.raises(ValueError):
        AbelianAuto(FGAbelianGroup.free(2), IntMatrix.of([[2, 0], [0, 1]]))  # not onto


def test_fix_infinite_iff_reidemeister_infinite():
    rng = random.Random(19)
    checked = 0
    while checked < 1000:
        n = rng.randint(1, 5)
        m = random_unimodular(rng, n, steps=rng.randint(2, 10))
        auto = AbelianAuto(FGAbelianGroup.free(n), m)
        r = reidemeister_number_abelian(auto)
        f = fix_subgroup(auto).order
        assert (r == inf) == (f == inf)
        if r != inf:
            # finite case: |coker(M - I)| = |det(M - I)|
            assert r == abs(det(m - IntMatrix.identity(n)))
        checked += 1


def test_lattice_quotient_rejects_outside_relations():
    with pytest.raises(ValueError):
        lattice_quotient([(2, 0)], [(1, 0)], 2)


def test_lattice_quotient_rejects_vectors_of_the_wrong_length():
    # A longer vector would lose its last coordinates without a word, a
    # shorter one would be read past its end.
    assert lattice_quotient([(1, 0)], [(1, 0)], 2).free_rank == 0
    for gens, rels, n in (([(1, 0, 0)], [(1, 0, 0)], 2), ([(1, 0)], [(1, 0)], 3), ([(1, 0)], [(1,)], 2)):
        with pytest.raises(ValueError, match="length"):
            lattice_quotient(gens, rels, n)


def test_wrong_argument_types_raise_type_error():
    with pytest.raises(TypeError, match="IntMatrix.of"):
        FGAbelianGroup(2, [[1], [0]])
    with pytest.raises(TypeError, match="IntMatrix.of"):
        AbelianAuto(FGAbelianGroup.free(1), [[1]])
    with pytest.raises(TypeError, match="FGAbelianGroup"):
        AbelianAuto(IntMatrix.of([[2]]), IntMatrix.of([[1]]))


def test_relators_skewed_against_the_axes():
    # Conjugating by a unimodular P turns Z^n/R with matrix M into the same
    # automorphism of Z^n/PR with matrix P M P^-1, whose relator lattice is
    # no longer spanned by multiples of unit vectors.
    rng = random.Random(53)
    for _ in range(300):
        auto = random_abelian_auto(rng)
        n = auto.group.n
        p = random_unimodular(rng, n)
        group = FGAbelianGroup(n, p * auto.group.relators)
        skewed = AbelianAuto(group, p * auto.matrix * inverse_unimodular(p))
        fixed = fix_subgroup(skewed)
        assert reidemeister_number_abelian(skewed) == reidemeister_number_abelian(auto)
        assert fixed.structure == fix_subgroup(auto).structure
        for g in fixed.generators:
            assert same_element(group, skewed.matrix.apply(g), g)
            assert not group.contains_in_relator_span(g)
        rels = group.relators.columns()
        assert lattice_quotient(list(fixed.generators) + rels, rels, n) == fixed.structure
