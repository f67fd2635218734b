"""Braid words on n strands with a decision procedure for the word problem.

Letters are nonzero integers: +i is the Artin generator sigma_i (the
strand in position i passes over position i+1), -i its inverse.  Strands
are labeled by their starting positions 1..n; the permutation sends start
position to end position.

Equality is decided by free reduction plus handle reduction (Dehornoy,
"A fast method for comparing braids", Adv. Math. 125 (1997)), after a
pairwise-crossing-count fast path.  The crossing counts also
decide the permutation (the parity of a pair's count says whether those
two strands swapped) and the exponent sum (the sum of the counts), so
neither needs a screen of its own.  A handle is a factor
sigma_i^e v sigma_i^{-e} where v uses neither index i nor i-1; removing
it rewrites each sigma_{i+1}^d in v as sigma_{i+1}^{-e} sigma_i^d
sigma_{i+1}^{e}.  A freely reduced word with no handle is either empty
or sigma-definite in its lowest index, hence nontrivial.  One stack pass
moves the letters from a freely reduced `todo` onto a freely reduced,
handle-free `out`; a letter that closes a handle pops it from `out` and
pushes its rewrite back onto `todo`.  That removes the handles in the
order that rescanning the word for the leftmost-ending one would.  Handle
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
        if type(n) is not int or type(letters) is not tuple or not all(type(l) is int for l in letters):
            raise TypeError("BraidWord takes an int strand count and a tuple of int letters")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)
        if self.n < 1:
            raise ValueError("need at least one strand")
        if letters and (0 in letters or min(letters) <= -n or max(letters) >= n):
            bad = next(l for l in letters if l == 0 or abs(l) >= n)
            raise ValueError(f"letter {bad} out of range for {n} strands")

    @staticmethod
    def identity(n: int) -> BraidWord:
        return BraidWord(n)

    def __mul__(self, other: BraidWord) -> BraidWord:
        if self.n != other.n:
            raise ValueError("strand counts differ")
        return _braid(self.n, self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return _braid(self.n, tuple([-l for l in reversed(self.letters)]))

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


def _braid(n: int, letters: tuple[int, ...]) -> BraidWord:
    """The word of these letters on n strands, built without the checks:
    for words made from checked words, whose letters are in range."""
    b = object.__new__(BraidWord)
    object.__setattr__(b, "n", n)
    object.__setattr__(b, "letters", letters)
    return b


def _push_reduced(stack: list[int], letters) -> list[int]:
    """Push the letters onto a freely reduced stack, each cancelling the
    top when they are inverse, so that the stack stays freely reduced."""
    for l in letters:
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
    return stack


def handle_reduce(word: BraidWord) -> BraidWord:
    """Fully handle-reduce the word; the result is empty iff the braid is
    trivial."""
    todo = _push_reduced([], reversed(word.letters))  # the next letter on top
    cap = 4000 + 400 * len(todo) * len(todo)
    steps = 0
    out: list[int] = []
    where: list[list[int]] = [[] for _ in range(word.n)]  # positions in out, by index
    while todo:
        l = todo.pop()
        i = abs(l)
        if out and out[-1] == -l:
            out.pop()
            where[i].pop()
            continue
        at, below = where[i], where[i - 1]
        if not at or out[at[-1]] != -l or (below and below[-1] > at[-1]):
            at.append(len(out))
            out.append(l)
            continue
        steps += 1
        if steps > cap:
            raise HandleReductionCap(f"no normal form after {steps} handle reductions")
        # out[p] = sigma_i^e.  The letters between go back onto todo, last
        # first, each sigma_{i+1}^d as sigma_{i+1}^-e sigma_i^d sigma_{i+1}^e.
        p = at[-1]
        up = i + 1 if l < 0 else -i - 1
        for m in reversed(out[p + 1 :]):
            _push_reduced(todo, (up, i if m > 0 else -i, -up) if abs(m) == i + 1 else (m,))
        for m in out[p:]:
            where[abs(m)].pop()
        del out[p:]
    return _braid(word.n, tuple(out))


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


def _block_cross(base: int, u: int, v: int, sign: int) -> list[int]:
    """Letters crossing a width-u block (positions base..base+u-1) with the
    width-v block to its right, all crossings with the given sign."""
    if sign > 0:
        return [base + u - 1 - a + c for a in range(u) for c in range(v)]
    return [-(l) for l in reversed(_block_cross(base, v, u, 1))]


def _cable(b: BraidWord, widths: dict[int, int]) -> BraidWord:
    """Replace each strand s (by start position) in `widths` by widths[s]
    parallel strands, all in one pass, rewriting each crossing as a block
    crossing.  The block at position p+1 is width[p] strands wide and
    begins at start[p]; a crossing at positions i, i+1 moves only start[i]."""
    if not widths:
        return b
    width = [widths.get(s, 1) for s in range(1, b.n + 1)]
    start = [1] * b.n
    for p in range(1, b.n):
        start[p] = start[p - 1] + width[p - 1]
    out: list[int] = []
    for l in b.letters:
        i = abs(l)
        u, v = width[i - 1], width[i]
        if u == v == 1:  # a plain crossing, which leaves start and width as they are
            out.append(start[i - 1] if l > 0 else -start[i - 1])
            continue
        out.extend(_block_cross(start[i - 1], u, v, 1 if l > 0 else -1))
        width[i - 1], width[i] = v, u
        start[i] = start[i - 1] + v
    return _braid(start[-1] + width[-1] - 1, tuple(out))


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
