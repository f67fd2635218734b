"""Exact integer matrix algebra: Smith normal form, integer linear
systems, lattice quotients, and finitely generated abelian groups with
automorphisms.

Every lattice question reads one Smith reduction of plain row lists,
which records U and V (U*M*V = S) only where a caller reads them.  A
group Z^n/R decomposes its relators once.  An automorphism with matrix M
makes two full decompositions, of [M - I | R] (read by both R(phi) and
Fix(phi)) and of the fixed lattice, and two reductions to invariant
factors only, of [M | R] (surjectivity) and of the relator coordinates
in the fixed lattice (the structure of Fix(phi)).  Matrices are immutable
row tuples of Python integers.
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

    def column(self, j: int) -> tuple[int, ...]:
        return tuple([r[j] for r in self.rows])

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
        c = self.u.apply(tuple(b))
        d = self.diagonal
        y = [0] * self.v.nrows
        for i, ci in enumerate(c):
            if i < len(d) and d[i] != 0:
                if ci % d[i] != 0:
                    return None
                y[i] = ci // d[i]
            elif ci != 0:
                return None
        return self.v.apply(y)


def _smith(a: list[list[int]], n: int, c: int) -> None:
    """Diagonalize in place the n x c block at the top left of the row lists
    a.  Row operations act on the whole of rows i < n and column operations
    on columns j < c of every row, so identity rows to the right of the
    block record U, identity rows below it record V, and none record none."""
    t = 0
    while t < min(n, c):
        # Re-pick the smallest nonzero entry of the trailing block as pivot
        # (the first one in row-major order) on every pass; this keeps
        # coefficient growth under control.
        pi, pj, best = -1, -1, 0
        for i in range(t, n):
            row = a[i]
            for j in range(t, c):
                x = abs(row[j])
                if x and (pi < 0 or x < best):
                    pi, pj, best = i, j, x
        if pi < 0:
            break
        a[t], a[pi] = a[pi], a[t]
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
        # adding the first row that breaks it to row t.
        for i in range(t + 1, n):
            if any(a[i][j] % p != 0 for j in range(t + 1, c)):
                a[t] = [x + y for x, y in zip(st, a[i])]
                break
        else:
            t += 1


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Diagonalize an integer matrix by unimodular row/column operations."""
    n, c = m.nrows, m.ncols
    a = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(m.rows)]
    a += [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    _smith(a, n, c)
    u, s, v = [r[c:] for r in a[:n]], [r[:c] for r in a[:n]], a[n:]
    return SmithDecomposition(*[_matrix(tuple(map(tuple, x))) for x in (u, s, v)])


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """The diagonal of the Smith normal form of m, without building U and
    V: `smith_normal_form(m).diagonal`."""
    a = [list(r) for r in m.rows]
    _smith(a, m.nrows, m.ncols)
    return tuple([a[i][i] for i in range(min(m.nrows, m.ncols))])


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

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion]
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


def _structure(n: int, diagonal: tuple[int, ...]) -> GroupStructure:
    """Z^n modulo a relator matrix with these invariant factors."""
    return GroupStructure(tuple([d for d in diagonal if d > 1]), n - sum(1 for d in diagonal if d))


def lattice_quotient(gens: list[tuple[int, ...]], rels: list[tuple[int, ...]], n: int) -> GroupStructure:
    """Structure of span(gens)/span(rels) inside Z^n.  Requires
    span(rels) <= span(gens); generator lists may be redundant."""
    if not gens:
        if any(any(x != 0 for x in r) for r in rels):
            raise ValueError("relations not contained in the generated lattice")
        return GroupStructure((), 0)
    snf = smith_normal_form(IntMatrix.from_columns(gens))
    r, d = snf.rank, snf.diagonal
    # Lattice basis is U^-1 * diag(d) restricted to the first r columns;
    # a relator b has basis coordinates ((U b)_i / d_i)_{i<r}.
    coords = []
    for b in rels:
        c = snf.u.apply(b)
        if any(c[i] != 0 for i in range(r, n)) or any(c[i] % d[i] != 0 for i in range(r)):
            raise ValueError("relation lies outside the generated lattice")
        coords.append(tuple([c[i] // d[i] for i in range(r)]))
    # Z^r modulo the coordinate columns, read off their invariant factors.
    return _structure(r, invariant_factors(_matrix(tuple(zip(*coords)) if coords else ((),) * r)))


class FGAbelianGroup(_Value):
    """Z^n modulo the column span of a relator matrix."""

    __slots__ = ("n", "relators", "__dict__")  # relators: n x k, columns are relators

    def __init__(self, n: int, relators: IntMatrix) -> None:
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
        return self.decomposition.solve(vec) is not None


class AbelianAuto(_Value):
    """Automorphism of Z^n / relators, given by an integer matrix that
    descends to the quotient and is invertible on it."""

    __slots__ = ("group", "matrix", "__dict__")

    def __init__(self, group: FGAbelianGroup, matrix: IntMatrix) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "matrix", matrix)
        if not self.matrix.nrows == self.matrix.ncols == self.group.n:
            raise ValueError("matrix must be n x n")
        for col in self.group.relators.columns():
            if not self.group.contains_in_relator_span(self.matrix.apply(col)):
                raise ValueError("matrix does not stabilize the relator lattice")
        if not self._is_surjective():
            raise ValueError("matrix is not invertible on the quotient")

    def _is_surjective(self) -> bool:
        # Surjective iff im(M) + span(relators) = Z^n, that is iff the n
        # invariant factors of [M | R] (n x (n + k)) are units; f.g. abelian
        # groups are Hopfian, so surjective implies bijective.
        rows = [a + b for a, b in zip(self.matrix.rows, self.group.relators.rows)]
        return all(d == 1 for d in invariant_factors(_matrix(tuple(rows))))

    @cached_property
    def twisted_decomposition(self) -> SmithDecomposition:
        """Smith decomposition of [M - I | R], whose columns span
        im(M - I) + span(relators); R(phi) and Fix(phi) both read it."""
        m, r = self.matrix.rows, self.group.relators.rows
        rows = [m[i][:i] + (m[i][i] - 1,) + m[i][i + 1 :] + r[i] for i in range(len(m))]
        return smith_normal_form(_matrix(tuple(rows)))


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
    """Kernel of (M - I) on the quotient: {x : (M - I)x in span(relators)}."""
    n = auto.group.n
    # The projections of ker[M - I | R] span the fixed lattice, which
    # contains span(R) because M stabilizes it.
    gens = [k[:n] for k in auto.twisted_decomposition.kernel()]
    structure = lattice_quotient(gens, auto.group.relators.columns(), n)
    return FixedSubgroup(structure, tuple([g for g in gens if not auto.group.contains_in_relator_span(g)]))


def reidemeister_number_abelian(auto: AbelianAuto) -> int | float:
    """Number of twisted conjugacy classes of phi on G = Z^n / R: the order
    of G / (phi - 1)G = Z^n / (im(M - I) + span R), the product of the
    invariant factors of [M - I | R].  Infinite iff that matrix has rank
    below n, which happens iff Fix(phi) is infinite."""
    snf = auto.twisted_decomposition
    return prod(snf.diagonal) if snf.rank == auto.group.n else inf
