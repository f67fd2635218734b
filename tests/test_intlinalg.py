import random
from math import inf

import pytest

from rinfinity.intlinalg import (
    AbelianAuto,
    FGAbelianGroup,
    IntMatrix,
    fix_subgroup,
    inverse_unimodular,
    kernel_basis,
    lattice_quotient,
    reidemeister_number_abelian,
    smith_normal_form,
    solve_integer,
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
        assert abs(snf.u.det()) == 1
        assert abs(snf.v.det()) == 1
        d = snf.diagonal
        for i in range(len(d) - 1):
            if d[i + 1] != 0:
                assert d[i] != 0 and d[i + 1] % d[i] == 0
        for i in range(snf.s.nrows):
            for j in range(snf.s.ncols):
                if i != j:
                    assert snf.s.rows[i][j] == 0
        assert all(x >= 0 for x in d)


def test_inverse_unimodular():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 6)
        u = random_unimodular(rng, n)
        assert u * inverse_unimodular(u) == IntMatrix.identity(n)


def test_snf_diagonal_matches_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

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
        theirs = [abs(int(d)) for d in invariant_factors(sympy.Matrix(mat.rows)) if d != 0]
        assert [d for d in snf.diagonal if d != 0] == theirs
        assert snf.rank == sympy.Matrix(mat.rows).rank()


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
        for k in kernel_basis(mat):
            assert mat.apply(k) == (0,) * n


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
    keys = {grp.element_key(g) for g in fixed.generators}
    assert keys == {grp.element_key((1, 0, 0))}


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
    assert {z4.element_key(g) for g in fixed.generators} == {z4.element_key((2,))}
    rng = random.Random(29)
    for _ in range(300):
        auto = random_abelian_auto(rng)
        grp, m = auto.group, auto.matrix
        fixed = fix_subgroup(auto)
        for g in fixed.generators:
            moved = tuple(a - b for a, b in zip(m.apply(g), g))
            assert grp.contains_in_relator_span(moved)
            assert not grp.contains_in_relator_span(g)
        # and they generate the whole fixed subgroup
        rels = grp.relators.columns()
        assert lattice_quotient(list(fixed.generators) + rels, rels, grp.n) == fixed.structure


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
            assert r == abs((m - IntMatrix.identity(n)).det())
        checked += 1


def test_lattice_quotient_rejects_outside_relations():
    with pytest.raises(ValueError):
        lattice_quotient([(2, 0)], [(1, 0)], 2)
