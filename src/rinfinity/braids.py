"""Braid words on n strands with a decision procedure for the word problem.

Letters are nonzero integers: +i is the Artin generator sigma_i (the
strand in position i passes over position i+1), -i its inverse.  Strands
are labeled by their starting positions 1..n; the permutation sends start
position to end position.

Equality is decided by free reduction plus Dehornoy handle reduction,
after a pairwise-crossing-count fast path.  The crossing counts also
decide the permutation (the parity of a pair's count says whether those
two strands swapped) and the exponent sum (the sum of the counts), so
neither needs a screen of its own.  A handle is a factor
sigma_i^e v sigma_i^{-e} where v uses neither index i nor i-1; removing
it rewrites each sigma_{i+1}^d in v as sigma_{i+1}^{-e} sigma_i^d
sigma_{i+1}^{e}.  A freely reduced word with no handle is either empty
or sigma-definite in its lowest index, hence nontrivial.  Handle
reduction terminates, but a generous iteration cap guards against
implementation bugs: breaching it raises, never lies.
"""

from __future__ import annotations

import re
from . import ParseError, _Value


class HandleReductionCap(RuntimeError):
    """The handle-reduction iteration cap was hit; result unknown."""


class BraidWord(_Value):
    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: tuple[int, ...] = ()) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)
        if self.n < 1:
            raise ValueError("need at least one strand")
        for l in self.letters:
            if l == 0 or abs(l) >= self.n:
                raise ValueError(f"letter {l} out of range for {self.n} strands")

    @staticmethod
    def identity(n: int) -> BraidWord:
        return BraidWord(n)

    def __mul__(self, other: BraidWord) -> BraidWord:
        if self.n != other.n:
            raise ValueError("strand counts differ")
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(self.n, tuple(-l for l in reversed(self.letters)))

    def permutation(self) -> tuple[int, ...]:
        """perm[s-1] is the end position of the strand starting at s."""
        pos = list(range(1, self.n + 1))  # pos[p-1] = strand currently at position p
        for l in self.letters:
            i = abs(l)
            pos[i - 1], pos[i] = pos[i], pos[i - 1]
        perm = [0] * self.n
        for p, strand in enumerate(pos, start=1):
            perm[strand - 1] = p
        return tuple(perm)

    @property
    def is_pure(self) -> bool:
        return self.permutation() == tuple(range(1, self.n + 1))

    def exponent_sum(self) -> int:
        return sum(1 if l > 0 else -1 for l in self.letters)

    def crossing_counts(self) -> dict[tuple[int, int], int]:
        """Signed crossing count between each pair of strands (by start
        label); an isotopy invariant of the word."""
        counts: dict[tuple[int, int], int] = {}
        pos = list(range(1, self.n + 1))
        for l in self.letters:
            i = abs(l)
            a, b = pos[i - 1], pos[i]
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + (1 if l > 0 else -1)
            pos[i - 1], pos[i] = b, a
        return {k: v for k, v in counts.items() if v}

    def __str__(self) -> str:
        return format_braid(self)


def _free_reduce(letters) -> list[int]:
    """Cancel adjacent inverse letters until none remain."""
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return out


def _find_handle(letters: list[int]) -> tuple[int, int] | None:
    """Leftmost-ending handle (p, q): letters[p] = -letters[q] = sigma_i^e
    with no index i or i-1 strictly between."""
    last_seen: dict[int, int] = {}
    for q, l in enumerate(letters):
        i = abs(l)
        p = last_seen.get(i)
        if p is not None and letters[p] == -l and last_seen.get(i - 1, -1) < p:
            return p, q
        last_seen[i] = q
    return None


def handle_reduce(word: BraidWord) -> BraidWord:
    """Fully handle-reduce the word; the result is empty iff the braid is
    trivial."""
    letters = _free_reduce(word.letters)
    cap = 4000 + 400 * len(letters) * len(letters)
    steps = 0
    while True:
        found = _find_handle(letters)
        if found is None:
            return BraidWord(word.n, tuple(letters))
        steps += 1
        if steps > cap:
            raise HandleReductionCap(f"no normal form after {steps} handle reductions")
        p, q = found
        e = 1 if letters[p] > 0 else -1
        i = abs(letters[p])
        replacement: list[int] = []
        for l in letters[p + 1 : q]:
            if abs(l) == i + 1:
                d = 1 if l > 0 else -1
                replacement += [-e * (i + 1), d * i, e * (i + 1)]
            else:
                replacement.append(l)
        letters[p : q + 1] = replacement
        # interleave free reduction to keep words short
        letters = _free_reduce(letters)


def braid_equal(b1: BraidWord, b2: BraidWord) -> bool:
    """Exact equality in the braid group B_n."""
    if b1.n != b2.n:
        raise ValueError("strand counts differ")
    if b1.letters == b2.letters:
        return True
    if b1.crossing_counts() != b2.crossing_counts():
        return False
    quotient = b1 * b2.inverse()
    return len(handle_reduce(quotient).letters) == 0


def is_trivial(b: BraidWord) -> bool:
    return braid_equal(b, BraidWord.identity(b.n))


def _block_cross(base: int, u: int, v: int, sign: int) -> list[int]:
    """Letters crossing a width-u block (positions base..base+u-1) with the
    width-v block to its right, all crossings with the given sign."""
    if sign > 0:
        return [base + u - 1 - a + c for a in range(u) for c in range(v)]
    return [-(l) for l in reversed(_block_cross(base, v, u, 1))]


def cable(b: BraidWord, strand: int, width: int = 2) -> BraidWord:
    """Replace the strand with the given start position by `width` parallel
    strands, 2 by default, rewriting each crossing as a block crossing."""
    if width < 1:
        raise ValueError(f"cable width {width} is below 1")
    if not 1 <= strand <= b.n:
        raise ValueError(f"strand {strand} out of range")
    p = strand  # current position of the cabled strand
    out: list[int] = []
    for l in b.letters:
        i = abs(l)
        u, v = (width if p == i else 1), (width if p == i + 1 else 1)
        out.extend(_block_cross(i + width - 1 if p < i else i, u, v, 1 if l > 0 else -1))
        p = i + 1 if p == i else i if p == i + 1 else p
    return BraidWord(b.n + width - 1, tuple(out))


def format_braid(b: BraidWord) -> str:
    if not b.letters:
        return "e"
    return " ".join(f"s{abs(l)}" + ("'" if l < 0 else "") for l in b.letters)


def parse_braid(text: str, n: int) -> BraidWord:
    """Parse words like `s1 s2' s1`; `e` is the empty word."""
    if text.strip() in ("", "e"):
        return BraidWord(n)
    letters: list[int] = []
    for found in re.finditer(r"\S+", text):
        token = found.group()
        body = token[1:]
        inv = body.endswith("'")
        if inv:
            body = body[:-1]
        if not token.startswith("s") or not body.isdigit() or int(body) < 1:
            raise ParseError(f"bad braid token {token!r}", text, found.start())
        if int(body) >= n:
            raise ParseError(f"letter {token!r} out of range for {n} strands", text, found.start())
        letters.append(-int(body) if inv else int(body))
    return BraidWord(n, tuple(letters))
