"""Fixed-point and twisted-conjugacy machinery built on integer matrices:
the character-invariance pipeline that certifies infinite fixed sets in
abelianizations.

The heavy lifting on abelian groups (Smith normal form, fixed subgroups,
twisted class counts) lives in intlinalg; the brute-force finite oracle
lives in finite_groups.  This module adds the character-level operations.
Its one re-export, `reidemeister_number_abelian`, is read from here by the
benchmark's certificate workload, which puts R(phi) beside each certificate.
"""

from __future__ import annotations

from math import gcd

from . import _Value
from .intlinalg import IntMatrix, inverse_unimodular, kernel_basis
from .intlinalg import reidemeister_number_abelian  # noqa: F401  (read by perfbench/workloads.py)


def normalize_ray(vector: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive representative of the positive ray through the vector:
    divide by the gcd, never flip signs."""
    g = 0
    for x in vector:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no ray")
    return tuple(x // g for x in vector)


class CharacterData(_Value):
    """Finitely many integer characters given by their values on a fixed
    generating set (one vector per character)."""

    __slots__ = ("labels", "vectors")

    def __init__(self, labels: tuple[str, ...], vectors: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "vectors", vectors)
        if len(self.labels) != len(self.vectors):
            raise ValueError("need one label per vector")
        if not self.vectors:
            raise ValueError("need at least one character")
        if len({len(v) for v in self.vectors}) > 1:
            raise ValueError("character vectors must have the same length")
        for v in self.vectors:
            if all(x == 0 for x in v):
                raise ValueError("characters must be nonzero")

    @staticmethod
    def of(**named_vectors) -> CharacterData:
        labels = tuple(named_vectors)
        return CharacterData(labels, tuple(tuple(v) for v in named_vectors.values()))


class PipelineResult(_Value):
    __slots__ = ("ok", "reason", "fixed_vector", "summed_character")

    def __init__(
        self,
        ok: bool,
        reason: str,
        fixed_vector: tuple[int, ...] | None = None,
        summed_character: tuple[int, ...] | None = None,
    ) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "fixed_vector", fixed_vector)
        object.__setattr__(self, "summed_character", summed_character)


def fixed_vector_certificate(chars: CharacterData, induced: IntMatrix) -> PipelineResult:
    """Certify an infinite fixed-point set from invariant characters.

    Requires the induced matrix to permute the character rays (composition
    with the action preserves the set up to positive scalars).  On success
    the sum of the characters is invariant and the matrix has an integer
    fixed vector of infinite order in the free quotient, which is
    returned as the certificate."""
    n = induced.nrows
    if induced.ncols != n:
        raise ValueError("induced matrix must be square")
    rays = [normalize_ray(v) for v in chars.vectors]
    transpose = induced.transpose()
    images = []
    for v in rays:
        image = transpose.apply(v)
        if all(x == 0 for x in image):
            return PipelineResult(False, "a character dies under the action")
        images.append(normalize_ray(image))
    if sorted(images) != sorted(rays):
        return PipelineResult(
            False,
            "the action does not preserve the character set up to positive scalars",
        )
    summed = tuple(sum(v[i] for v in rays) for i in range(len(rays[0])))
    if transpose.apply(summed) != summed:
        return PipelineResult(False, "summed character is not invariant", None, summed)
    kernel = kernel_basis(induced - IntMatrix.identity(n))
    if not kernel:
        # a nonzero invariant sum is fixed by the transpose, and then the
        # matrix fixes a nonzero vector too: so here the characters sum to 0
        return PipelineResult(
            False,
            "the characters sum to zero and no nonzero vector is fixed: nothing to certify",
            None,
            summed,
        )
    return PipelineResult(True, "fixed vector of infinite order found", kernel[0], summed)


def swap_matrix(chars: CharacterData) -> IntMatrix:
    """The unique GL-matrix exchanging a pair of independent characters:
    C^-1 P C for the 2x2 character matrix C and the transposition P."""
    if len(chars.vectors) != 2 or any(len(v) != 2 for v in chars.vectors):
        raise ValueError("need exactly two characters on two generators")
    c = IntMatrix.of(chars.vectors)
    p = IntMatrix.of([[0, 1], [1, 0]])
    # characters act as rows; M must satisfy c * M = p * c as functionals
    return inverse_unimodular(c) * p * c
