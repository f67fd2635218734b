import random
from math import inf

import pytest
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from rinfinity.finite_groups import abelian_group, automorphisms, twisted_classes
from rinfinity.intlinalg import AbelianAuto, FGAbelianGroup, IntMatrix, fix_subgroup
from rinfinity.reidemeister import (
    CharacterData,
    fixed_vector_certificate,
    normalize_ray,
    reidemeister_number_abelian,
    swap_matrix,
)


def det(m: IntMatrix) -> int:
    """Exact determinant by sympy, over its integer domain ZZ."""
    return int(DomainMatrix.from_list(m.rows, ZZ).det())


def random_unimodular2(rng):
    m = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, 10)):
        which = rng.randrange(3)
        q = rng.randint(-3, 3)
        if which == 0:
            m[0] = [m[0][0] + q * m[1][0], m[0][1] + q * m[1][1]]
        elif which == 1:
            m[1] = [m[1][0] + q * m[0][0], m[1][1] + q * m[0][1]]
        else:
            m[0], m[1] = [-x for x in m[1]], m[0]
    return IntMatrix.of(m)


def test_normalize_ray():
    assert normalize_ray((2, -4)) == (1, -2)
    assert normalize_ray((-3, 0)) == (-1, 0)
    with pytest.raises(ValueError):
        normalize_ray((0, 0))


def test_character_data_refuses_an_empty_or_ragged_set():
    # Without the check, fixed_vector_certificate(CharacterData.of(), M)
    # raised IndexError on the missing first ray.
    with pytest.raises(ValueError, match="at least one"):
        CharacterData.of()
    with pytest.raises(ValueError, match="same length"):
        CharacterData.of(a=(1, 0), b=(0, 1, 1))


def test_pipeline_identity_action():
    chars = CharacterData.of(a=(-1, 0), b=(0, 1))
    result = fixed_vector_certificate(chars, IntMatrix.identity(2))
    assert result.ok
    assert result.fixed_vector is not None
    assert any(result.fixed_vector)


def test_pipeline_swap_action():
    chars = CharacterData.of(a=(1, 0), b=(0, 1))
    swap = IntMatrix.of([[0, 1], [1, 0]])
    result = fixed_vector_certificate(chars, swap)
    assert result.ok
    assert result.summed_character == (1, 1)
    v = result.fixed_vector
    assert v is not None and swap.apply(v) == v and any(v)


def test_pipeline_rejects_negation():
    chars = CharacterData.of(a=(1, 0), b=(0, 1))
    neg = IntMatrix.of([[-1, 0], [0, -1]])
    result = fixed_vector_certificate(chars, neg)
    assert not result.ok
    assert "does not preserve" in result.reason


def test_pipeline_refuses_a_dying_character():
    chars = CharacterData.of(a=(1, 0), b=(0, 1))
    result = fixed_vector_certificate(chars, IntMatrix.of([[1, 0], [0, 0]]))
    assert not result.ok
    assert result.reason == "a character dies under the action"


def test_pipeline_refuses_a_non_invariant_sum():
    # 2I keeps every ray but doubles the summed character (1, 1)
    chars = CharacterData.of(a=(1, 0), b=(0, 1))
    result = fixed_vector_certificate(chars, IntMatrix.of([[2, 0], [0, 2]]))
    assert not result.ok
    assert result.reason == "summed character is not invariant"
    assert result.summed_character == (1, 1)


def test_pipeline_refuses_a_zero_sum_without_fixed_vector():
    # -I swaps the opposite rays; their sum is 0 and -I fixes no vector
    chars = CharacterData.of(a=(1, 0), b=(-1, 0))
    result = fixed_vector_certificate(chars, IntMatrix.of([[-1, 0], [0, -1]]))
    assert not result.ok
    assert "sum to zero" in result.reason
    assert result.summed_character == (0, 0)


def test_pipeline_zero_sum_with_fixed_vector_is_ok():
    chars = CharacterData.of(a=(1, 0), b=(-1, 0))
    result = fixed_vector_certificate(chars, IntMatrix.identity(2))
    assert result.ok
    assert result.summed_character == (0, 0)


def test_swap_matrix_construction():
    chars = CharacterData.of(phi0=(-1, 0), phi1=(1, 1))
    m = swap_matrix(chars)
    assert m == IntMatrix.of([[-1, -1], [0, 1]])
    # the swap genuinely exchanges the two rays
    mt = m.transpose()
    assert normalize_ray(mt.apply((-1, 0))) == (1, 1)
    assert normalize_ray(mt.apply((1, 1))) == (-1, 0)
    result = fixed_vector_certificate(chars, m)
    assert result.ok


def test_pipeline_success_implies_infinite_fix():
    rng = random.Random(7)
    chars = CharacterData.of(a=(1, 0), b=(0, 1))
    for m in (IntMatrix.identity(2), IntMatrix.of([[0, 1], [1, 0]])):
        result = fixed_vector_certificate(chars, m)
        assert result.ok
        auto = AbelianAuto(FGAbelianGroup.free(2), m)
        assert fix_subgroup(auto).order == inf


def test_eigenvalue_one_check_basics():
    # On Z^2, R(phi) is infinite exactly when M has eigenvalue 1.
    free2 = FGAbelianGroup.free(2)
    for rows, expected in (
        ([[1, 0], [0, 1]], inf),
        ([[1, 1], [0, 1]], inf),
        ([[0, -1], [1, 0]], 2),
        ([[2, 1], [1, 1]], 1),
    ):
        auto = AbelianAuto(free2, IntMatrix.of(rows))
        assert reidemeister_number_abelian(auto) == expected, rows
    with pytest.raises(ValueError):
        AbelianAuto(free2, IntMatrix.of([[2, 0], [0, 2]]))


def test_eigenvalue_one_random_unimodular():
    # R(phi) = |det(M - I)|, or inf exactly when that determinant is 0;
    # Fix(phi) = ker(M - I) is infinite then, and trivial otherwise.
    rng = random.Random(11)
    free2 = FGAbelianGroup.free(2)
    infinite = 0
    for _ in range(1000):
        m = random_unimodular2(rng)
        assert abs(det(m)) == 1
        d = det(m - IntMatrix.identity(2))
        auto = AbelianAuto(free2, m)
        assert reidemeister_number_abelian(auto) == (abs(d) if d else inf), m.rows
        assert fix_subgroup(auto).order == (1 if d else inf), m.rows
        infinite += d == 0
    assert 0 < infinite < 1000


def test_abelian_formula_matches_finite_oracle():
    # |coker(M - I)| equals the brute-force twisted class count on finite
    # abelian groups.
    rng = random.Random(13)
    cases = 0
    while cases < 60:
        invariants = tuple(rng.choice((2, 2, 3, 4, 5, 6, 8, 9)) for _ in range(rng.randint(1, 3)))
        g = abelian_group(invariants)
        if g.order > 80:
            continue
        autos = automorphisms(g)
        rng.shuffle(autos)
        grp = FGAbelianGroup.from_relator_columns(
            len(invariants),
            [tuple(d if i == j else 0 for i in range(len(invariants))) for j, d in enumerate(invariants)],
        )
        for phi in autos[:3]:
            matrix = _matrix_of_table_automorphism(g, phi, invariants)
            auto = AbelianAuto(grp, matrix)
            assert reidemeister_number_abelian(auto) == twisted_classes(g, phi)[0]
            cases += 1


def _matrix_of_table_automorphism(g, phi, invariants):
    # abelian_group enumerates elements in mixed-radix order, last factor
    # fastest; recover the matrix from the images of the basis vectors.
    k = len(invariants)
    radils = list(invariants)

    def decode(idx):
        out = []
        for d in reversed(radils):
            out.append(idx % d)
            idx //= d
        return list(reversed(out))

    def encode(coords):
        idx = 0
        for c, d in zip(coords, radils):
            idx = idx * d + (c % d)
        return idx

    cols = []
    for j in range(k):
        basis = [0] * k
        basis[j] = 1
        cols.append(decode(phi[encode(basis)]))
    return IntMatrix.of([[cols[j][i] for j in range(k)] for i in range(k)])
