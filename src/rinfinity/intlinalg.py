"""Exact integer matrix algebra: Smith normal form, integer linear
systems, lattice quotients, and finitely generated abelian groups with
automorphisms.

Each Smith reduction is one `smith_reduce` of plain row lists, given only
the identity block its caller reads: columns record U, rows record V
(U*M*V = S), neither gives the diagonal alone.  A group Z^n/R decomposes
its relators once; membership in span(R) reads U and the diagonal.  An
automorphism M makes 4 reductions: [M | R] with neither (surjectivity),
[M - I | R] with V's first n rows (R(phi) reads the diagonal, Fix(phi)
the kernel), the fixed lattice with U (the relators' coordinates in it),
and those coordinates with neither (Fix(phi)).  Matrices are int tuples.
"""

from __future__ import annotations

from functools import cached_property
from math import inf, prod
from operator import index, mul, sub

from . import _Value


class IntMatrix(_Value):
    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        if type(rows) is not tuple or set(map(type, rows)) - {tuple}:
            raise TypeError("IntMatrix takes a tuple of int tuples; IntMatrix.of converts other rows")
        if {type(x) for r in rows for x in r} - {int}:
            raise TypeError("IntMatrix takes a tuple of int tuples; IntMatrix.of converts other rows")
        if len(set(map(len, rows))) > 1:
            raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def of(rows) -> IntMatrix:
        """The matrix of these rows, each entry made an int; an entry that is
        not an integer (a float, a Fraction) raises TypeError rather than
        being truncated."""
        return IntMatrix(tuple([tuple([int(index(x)) for x in r]) for r in rows]))

    @staticmethod
    def identity(n: int) -> IntMatrix:
        return _matrix(tuple([tuple([1 if i == j else 0 for j in range(n)]) for i in range(n)]))

    @staticmethod
    def from_columns(cols) -> IntMatrix:
        cols = [tuple(c) for c in cols]
        if any(len(c) != len(cols[0]) for c in cols):
            raise ValueError("ragged columns")
        return IntMatrix(tuple(zip(*cols)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.rows))

    def transpose(self) -> IntMatrix:
        return _matrix(tuple(zip(*self.rows))) if self.rows else self

    def __mul__(self, other: IntMatrix) -> IntMatrix:
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        ot = other.columns()
        return _matrix(tuple([tuple([sum(map(mul, row, col)) for col in ot]) for row in self.rows]))

    def __sub__(self, other: IntMatrix) -> IntMatrix:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("dimension mismatch")
        return _matrix(tuple([tuple(map(sub, r1, r2)) for r1, r2 in zip(self.rows, other.rows)]))

    def apply(self, vector) -> tuple[int, ...]:
        v = tuple(vector)
        if self.ncols != len(v):
            raise ValueError("dimension mismatch")
        return tuple([sum(map(mul, row, v)) for row in self.rows])

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(map(str, r)) + "]" for r in self.rows) + "]"


def _matrix(rows: tuple[tuple[int, ...], ...]) -> IntMatrix:
    """The matrix of int rows of one length, built without the checks."""
    m = object.__new__(IntMatrix)
    object.__setattr__(m, "rows", rows)
    return m


def _quotients(c, d: tuple[int, ...]) -> list[int] | None:
    """For c = U x, the coordinates c_i / d_i of x in the lattice basis U^-1 * S, or None if outside."""
    y = []
    for ci, di in zip(c, d):
        if not di:
            break
        q, rem = divmod(ci, di)
        if rem:
            return None
        y.append(q)
    return None if any(c[len(y) :]) else y


class SmithDecomposition(_Value):
    """U * M * V == S with U, V unimodular and S diagonal, d1 | d2 | ..."""

    __slots__ = ("u", "s", "v", "__dict__")

    def __init__(self, u: IntMatrix, s: IntMatrix, v: IntMatrix) -> None:
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "v", v)

    @cached_property
    def diagonal(self) -> tuple[int, ...]:
        return tuple([self.s.rows[i][i] for i in range(min(self.s.nrows, self.s.ncols))])

    @cached_property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    def kernel(self) -> list[tuple[int, ...]]:
        """Basis of the integer kernel {x : M x = 0}: the columns of V beyond the rank."""
        return self.v.columns()[self.rank :]

    def solve(self, b) -> tuple[int, ...] | None:
        """One integer solution x of M x = b, or None if none exists."""
        y = _quotients(self.u.apply(tuple(b)), self.diagonal)
        return None if y is None else self.v.apply(y + [0] * (self.v.nrows - len(y)))


def smith_reduce(a: list[list[int]], n: int, c: int) -> tuple[int, ...]:
    """Diagonalize in place the n x c block at the top left of the row lists a
    and return its diagonal d1 | d2 | ... (nonnegative, nonzero ones first).
    Row operations act on rows i < n, column operations on columns j < c of
    every row: identity columns right of the block record U, identity rows
    below it record V (U*M*V = S; k rows its first k), none the diagonal."""
    t, m = 0, min(n, c)
    while t < m:
        # Re-pick the smallest nonzero entry of the trailing block as pivot
        # (the first one in row-major order) on every pass; this keeps
        # coefficient growth under control.  No entry beats a first 1.
        pi, pj, best = -1, -1, 0
        for i in range(t, n):
            row = a[i]
            for j in range(t, c):
                x = abs(row[j])
                if x and (pi < 0 or x < best):
                    pi, pj, best = i, j, x
                    if x == 1:
                        break
            if best == 1:
                break
        if pi < 0:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        st = a[t]
        if st[t] < 0:
            a[t] = st = [-x for x in st]
        p = st[t]
        half = p >> 1
        # One nearest-integer reduction pass over column t and row t; any
        # nonzero residue is strictly smaller than p, so looping back to
        # the pivot re-pick makes progress.
        residue = False
        for i in range(t + 1, n):
            if a[i][t] != 0:
                q = (a[i][t] + half) // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], st)]
                if a[i][t] != 0:
                    residue = True
        for j in range(t + 1, c):
            if st[j] != 0:
                q = (st[j] + half) // p
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                if st[j] != 0:
                    residue = True
        if residue:
            continue
        # Row and column t are clear; enforce divisibility of the rest by
        # adding the first row that breaks it to row t (1 divides them all).
        rest = range(t + 1, c)
        bad = p > 1 and next((i for i in range(t + 1, n) if any(a[i][j] % p for j in rest)), 0)
        if bad:
            a[t] = [x + y for x, y in zip(st, a[bad])]
        else:
            t += 1
    return tuple([a[i][i] for i in range(m)])


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Diagonalize an integer matrix by unimodular row/column operations."""
    n, c = m.nrows, m.ncols
    a = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(m.rows)]
    a += [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    smith_reduce(a, n, c)
    u, s, v = [r[c:] for r in a[:n]], [r[:c] for r in a[:n]], a[n:]
    return SmithDecomposition(*[_matrix(tuple(map(tuple, x))) for x in (u, s, v)])


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Inverse of an integer matrix with determinant +-1, exactly: V*U
    for U*M*V = I."""
    if m.nrows != m.ncols:
        raise ValueError("not square")
    snf = smith_normal_form(m)
    if snf.rank < m.nrows:
        raise ValueError("matrix is singular")
    if any(d != 1 for d in snf.diagonal):
        raise ValueError("matrix is not unimodular")
    return snf.v * snf.u


def kernel_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the integer kernel {x : M x = 0}."""
    return smith_normal_form(m).kernel()


class GroupStructure(_Value):
    """Invariant-factor description of a finitely generated abelian group."""

    __slots__ = ("torsion", "free_rank")  # torsion: invariant factors > 1, divisibility chain

    def __init__(self, torsion: tuple[int, ...], free_rank: int) -> None:
        object.__setattr__(self, "torsion", torsion)
        object.__setattr__(self, "free_rank", free_rank)

    @property
    def order(self) -> int | float:
        return inf if self.free_rank > 0 else prod(self.torsion)

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion]
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


def _structure(n: int, diagonal: tuple[int, ...]) -> GroupStructure:
    """Z^n modulo a relator matrix with these invariant factors."""
    return GroupStructure(tuple([d for d in diagonal if d > 1]), n - len(diagonal) + diagonal.count(0))


def lattice_quotient(gens: list[tuple[int, ...]], rels: list[tuple[int, ...]], n: int) -> GroupStructure:
    """Structure of span(gens)/span(rels) inside Z^n.  Requires
    span(rels) <= span(gens); generator lists may be redundant."""
    if {*map(len, gens), *map(len, rels)} - {n}:
        raise ValueError(f"every generator and relator must have length {n}")
    k = len(gens)
    a = [[g[i] for g in gens] + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    d = smith_reduce(a, n, k)
    # The relators' coordinates in the lattice basis U^-1 * diag(d).
    u = [row[k:] for row in a]
    coords = [_quotients([sum(map(mul, row, b)) for row in u], d) for b in rels]
    if None in coords:
        raise ValueError("relation lies outside the generated lattice")
    # Z^r modulo the coordinate columns, read off their invariant factors.
    r = len(d) - d.count(0)
    a = [list(x) for x in zip(*coords)] if coords else [[] for _ in range(r)]
    return _structure(r, smith_reduce(a, r, len(coords)))


class FGAbelianGroup(_Value):
    """Z^n modulo the column span of a relator matrix."""

    __slots__ = ("n", "relators", "__dict__")  # relators: n x k, columns are relators

    def __init__(self, n: int, relators: IntMatrix) -> None:
        if not isinstance(relators, IntMatrix):
            raise TypeError("FGAbelianGroup takes an IntMatrix of relators; IntMatrix.of converts other rows")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "relators", relators)
        if self.relators.nrows != self.n:
            raise ValueError("relator matrix has wrong height")

    @staticmethod
    def free(n: int) -> FGAbelianGroup:
        return FGAbelianGroup(n, _matrix(((),) * n))

    @staticmethod
    def from_relator_columns(n: int, cols) -> FGAbelianGroup:
        cols = list(cols)
        return FGAbelianGroup(n, IntMatrix.from_columns(cols)) if cols else FGAbelianGroup.free(n)

    @cached_property
    def decomposition(self) -> SmithDecomposition:
        """Smith decomposition of the relator matrix."""
        return smith_normal_form(self.relators)

    def structure(self) -> GroupStructure:
        return _structure(self.n, self.decomposition.diagonal)

    def contains_in_relator_span(self, vec: tuple[int, ...]) -> bool:
        return _quotients(self.decomposition.u.apply(vec), self.decomposition.diagonal) is not None


class AbelianAuto(_Value):
    """Automorphism of Z^n / relators, given by an integer matrix that descends
    to the quotient and is invertible on it, both checked; [M - I | R] is reduced once."""

    __slots__ = ("group", "matrix", "__dict__")

    def __init__(self, group: FGAbelianGroup, matrix: IntMatrix) -> None:
        if not (isinstance(group, FGAbelianGroup) and isinstance(matrix, IntMatrix)):
            raise TypeError("AbelianAuto takes an FGAbelianGroup and an IntMatrix; IntMatrix.of converts other rows")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "matrix", matrix)
        n, c = group.n, group.n + group.relators.ncols
        if not matrix.nrows == matrix.ncols == n:
            raise ValueError("matrix must be n x n")
        for col in group.relators.columns():
            if not group.contains_in_relator_span(matrix.apply(col)):
                raise ValueError("matrix does not stabilize the relator lattice")
        # Bijective iff onto (f.g. abelian groups are Hopfian), iff [M | R] has unit invariant factors.
        rows = [m + r for m, r in zip(matrix.rows, group.relators.rows)]
        if smith_reduce([list(row) for row in rows], n, c).count(1) != n:
            raise ValueError("matrix is not invertible on the quotient")
        # [M - I | R] with V's first n rows, whose columns past the rank span the fixed lattice.
        a = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)]
        a += [[1 if i == j else 0 for j in range(c)] for i in range(n)]
        diagonal = smith_reduce(a, n, c)
        object.__setattr__(self, "_diagonal", diagonal)
        object.__setattr__(self, "_kernel", list(zip(*a[n:]))[n - diagonal.count(0) :])


class FixedSubgroup(_Value):
    """Fix(phi) on Z^n / relators: its structure, and generators given as
    fixed representatives in Z^n (M g - g lies in the relator span), each
    nonzero in the quotient."""

    __slots__ = ("structure", "generators")

    def __init__(self, structure: GroupStructure, generators: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "generators", generators)

    @property
    def order(self) -> int | float:
        return self.structure.order


def fix_subgroup(auto: AbelianAuto) -> FixedSubgroup:
    """Kernel of (M - I) on the quotient, {x : (M - I)x in span(R)}, a lattice
    that contains span(R) because M stabilizes it; made once per automorphism."""
    fixed = getattr(auto, "_fixed", None)
    if fixed is None:
        group, gens = auto.group, auto._kernel
        structure = lattice_quotient(gens, group.relators.columns(), group.n)
        fixed = FixedSubgroup(structure, tuple([g for g in gens if not group.contains_in_relator_span(g)]))
        object.__setattr__(auto, "_fixed", fixed)
    return fixed


def reidemeister_number_abelian(auto: AbelianAuto) -> int | float:
    """R(phi) on G = Z^n / R, the order of G / (phi - 1)G = Z^n / (im(M - I) + span R):
    the product of the invariant factors of [M - I | R], infinite iff Fix(phi) is."""
    return prod(auto._diagonal) or inf
