"""The four Lodha-Moore groups as words in the generators x_s, y_t acting
on infinite binary sequences.

The generator x relabels a neighborhood of the Cantor set
(00a -> 0a, 01a -> 10a, 1a -> 11a) and y does the same while re-entering
itself on each branch (0y(a), 10y^-1(a), 11y(a)); x_s and y_t act inside
the cylinder at the finite address s and fix everything else.  Words act
rightmost letter first.  The variants G, yG, Gy, yGy differ only in the
ends (0...0, 1...1) at which they have y-letters; `_Y_ENDS` records them,
and the allowed y-addresses and the domain of each character chi_b / psi_b
are read off it; `characters` reads their values off the germs of the
word's map.  The five defining relations are read off one table in
`relation_suite`, which skips an instance for the reason the table gives
or for a y-letter the variant does not allow.

Exact model.  The coding Phi(0a) = Phi(a)/(1+Phi(a)), Phi(1a) = 1+Phi(a)
maps the Cantor set onto [0, inf] (Phi(0^w) = 0, Phi(1^w) = inf) and is
one-to-one except that s01^w and s10^w share a point.  The chart of the
address s = s_1...s_k is C_s = c_{s_1} o ... o c_{s_k} with
c_0 = [[1,0],[1,1]] and c_1 = [[1,1],[0,1]], and the cylinder at s codes
the interval I_s = [C_s(0), C_s(inf)].  Through Phi, x is the map with
the matrices [[1,0],[-1,1]], [[3,-1],[1,0]], [[1,1],[0,1]] on [0,1/2],
[1/2,1], [1,inf]; x^-1 has [[1,0],[1,1]], [[0,1],[-1,3]], [[1,-1],[0,1]]
on [0,1], [1,2], [2,inf]; and y^{+-1} is [[2,0],[0,1]] or [[1,0],[0,2]]
(t -> 2t or t/2).  A letter at address s is C_s M C_s^-1 on I_s and the
identity elsewhere, so `word_map` turns a word into a piecewise-Moebius
map of [0, inf] with integer matrices and rational breakpoints, kept
canonical so that equal maps are equal tuples.  Equal maps mean the words
act alike off a countable set, hence everywhere, since the set where two
homeomorphisms of the Cantor set differ is open.

Each letter is also a small sequential transducer, and a word is the
pipeline of its letters (`WordMachine`).  A letter's state is an int (the
number of address bits matched so far), then (sign, bits read) inside a
case of the rule table `_CASES`, which buffers at most two input bits,
and None once the letter is the identity for good.  `equal_up_to_depth`
decides from the two words' maps alone; for words whose maps differ it
also looks for a witness, exploring the product of two pipelines over all
inputs with d branching bits followed by one of the periodic tails 0^w,
1^w, (10)^w, sharing states across inputs.  Where the outputs differ,
replaying the walked input names the first differing output bit.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import gcd

from . import ParseError, _Value

Bits = tuple[int, ...]

VARIANTS = ("G", "yG", "Gy", "yGy")

# The ends (0 for 0...0, 1 for 1...1) at which each variant has y-letters.
# A y-address constant at any other end is excluded; the empty address is
# constant at both.
_Y_ENDS = {"G": (), "yG": (0,), "Gy": (1,), "yGy": (0, 1)}


def is_constant(addr: Bits, bit: int) -> bool:
    return all(b == bit for b in addr)


def y_address_allowed(addr: Bits, variant: str) -> bool:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return all(end in _Y_ENDS[variant] or not is_constant(addr, end) for end in (0, 1))


class LMLetter(_Value):
    __slots__ = ("kind", "address", "sign")  # kind: 'x' or 'y'

    def __init__(self, kind: str, address: Bits, sign: int = 1) -> None:
        if type(address) is not tuple:
            raise TypeError(f"LMLetter address must be a tuple of bits, not {type(address).__name__}")
        if type(sign) is not int:
            raise TypeError(f"LMLetter sign must be an int, not {type(sign).__name__}")
        for b in address:
            if type(b) is not int:
                raise TypeError(f"LMLetter address bits must be ints, not {type(b).__name__}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "address", address)
        object.__setattr__(self, "sign", sign)
        if self.kind not in ("x", "y"):
            raise ValueError("letter kind must be 'x' or 'y'")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +-1")
        if any(b not in (0, 1) for b in self.address):
            raise ValueError("address bits must be 0/1")

    def inverse(self) -> LMLetter:
        return LMLetter(self.kind, self.address, -self.sign)

    def __str__(self) -> str:
        addr = "".join(map(str, self.address))
        return f"{self.kind}({addr})" + ("'" if self.sign < 0 else "")


class LMWord(_Value):
    __slots__ = ("letters", "variant")

    def __init__(self, letters: tuple[LMLetter, ...], variant: str = "yGy") -> None:
        if type(letters) is not tuple:
            raise TypeError(f"LMWord letters must be a tuple, not {type(letters).__name__}")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "variant", variant)
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        for l in self.letters:
            if l.kind == "y" and not y_address_allowed(l.address, self.variant):
                raise ValueError(f"letter {l} is not allowed in variant {self.variant}")

    def inverse(self) -> LMWord:
        return LMWord(tuple(l.inverse() for l in reversed(self.letters)), self.variant)

    def __mul__(self, other: LMWord) -> LMWord:
        if self.variant != other.variant:
            raise ValueError("variants differ")
        return LMWord(self.letters + other.letters, self.variant)

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.letters) if self.letters else "1"


TAILS = {"0^w": (0,), "1^w": (1,), "(10)^w": (1, 0)}


# --- letter transducers -------------------------------------------------

# The case rules of x^sign and y^sign: bits read -> (bits written, sign with
# which a y-letter re-enters itself).  An x-letter is the identity after its
# case.
_CASES = {
    1: {(0, 0): ((0,), 1), (0, 1): ((1, 0), -1), (1,): ((1, 1), 1)},
    -1: {(0,): ((0, 0), -1), (1, 0): ((0, 1), 1), (1, 1): ((1,), -1)},
}


def _letter_initial(letter: LMLetter):
    return 0 if letter.address else (letter.sign, ())


def _letter_step(letter: LMLetter, state, bit: int):
    """One input bit through one letter; returns (state', emitted bits)."""
    if state is None:
        return None, (bit,)
    if isinstance(state, int):
        if bit != letter.address[state]:
            return None, (bit,)
        state += 1
        return (state if state < len(letter.address) else (letter.sign, ())), (bit,)
    sign, read = state
    read += (bit,)
    rule = _CASES[sign].get(read)
    if rule is None:
        return (sign, read), ()
    written, reentry = rule
    return (None if letter.kind == "x" else (reentry, ())), written


class WordMachine:
    """Synchronous pipeline of letter transducers, rightmost letter first."""

    def __init__(self, word: LMWord) -> None:
        self.stages = tuple(reversed(word.letters))
        self.initial = tuple(_letter_initial(l) for l in self.stages)
        self._memo: list[dict] = [dict() for _ in self.stages]

    def push(self, states, bit: int):
        bits = (bit,)
        new_states = []
        for k, letter in enumerate(self.stages):
            memo = self._memo[k]
            st = states[k]
            out: list[int] = []
            for b in bits:
                key = (st, b)
                nxt = memo.get(key)
                if nxt is None:
                    nxt = _letter_step(letter, st, b)
                    memo[key] = nxt
                st, emitted = nxt
                out.extend(emitted)
            new_states.append(st)
            bits = tuple(out)
        return tuple(new_states), bits


def x_image_of_address(s: Bits, t: Bits) -> Bits | None:
    """x_s(t) for a finite address t, or None when not well-defined (t must
    extend s far enough for a case rule of x to read its bits)."""
    if t[: len(s)] != s:
        return None
    rest = t[len(s) :]
    for read, (written, _) in _CASES[1].items():
        if rest[: len(read)] == read:
            return s + written + rest[len(read) :]
    return None


# --- piecewise-Moebius maps of [0, inf] -------------------------------------

# A point p/q of [0, inf] is the reduced pair (p, q) with q >= 0; inf is
# (1, 0).  A matrix (a, b, c, d) acts as t -> (a t + b)/(c t + d) and is
# divided by the gcd of its entries, with its first nonzero entry positive.
# A map is a tuple of pieces (end, image, matrix): the matrix acts from the
# previous piece's end (0 for the first) to its own end, which it sends to
# image; the last end is inf, and adjacent pieces have different matrices.
Point = tuple[int, int]
Matrix = tuple[int, int, int, int]
PiecewiseMap = tuple[tuple[Point, Point, Matrix], ...]

ZERO: Point = (0, 1)
INFINITY: Point = (1, 0)
IDENTITY: Matrix = (1, 0, 0, 1)
IDENTITY_MAP: PiecewiseMap = ((INFINITY, INFINITY, IDENTITY),)

_CHARTS = ((1, 0, 1, 1), (1, 1, 0, 1))  # c_0: t/(1+t), c_1: 1+t

# The pieces (end, matrix) of x^sign and y^sign at the empty address.
_LETTER_PIECES = {
    ("x", 1): (((1, 2), (1, 0, -1, 1)), ((1, 1), (3, -1, 1, 0)), (INFINITY, (1, 1, 0, 1))),
    ("x", -1): (((1, 1), (1, 0, 1, 1)), ((2, 1), (0, 1, -1, 3)), (INFINITY, (1, -1, 0, 1))),
    ("y", 1): ((INFINITY, (2, 0, 0, 1)),),
    ("y", -1): ((INFINITY, (1, 0, 0, 2)),),
}


def _mul(m: Matrix, n: Matrix) -> Matrix:
    a, b, c, d = m
    e, f, g, h = n
    a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    k = gcd(a, b, c, d)
    if (a or b) < 0:
        k = -k
    return a // k, b // k, c // k, d // k


def _image(m: Matrix, point: Point) -> Point:
    a, b, c, d = m
    p, q = point
    p, q = a * p + b * q, c * p + d * q
    k = gcd(p, q)
    if (q or p) < 0:
        k = -k
    return p // k, q // k


@lru_cache(maxsize=4096)
def _letter_map(kind: str, address: Bits, sign: int) -> PiecewiseMap:
    chart = IDENTITY
    for bit in address:
        chart = _mul(chart, _CHARTS[bit])
    a, b, c, d = chart
    inverse = (d, -b, -c, a)  # charts have determinant 1
    low = _image(chart, ZERO)
    pieces = [(low, low, IDENTITY)] if low != ZERO else []
    for end, m in _LETTER_PIECES[kind, sign]:
        m = _mul(_mul(chart, m), inverse)
        end = _image(chart, end)
        pieces.append((end, _image(m, end), m))
    if pieces[-1][0] != INFINITY:
        pieces.append((INFINITY, INFINITY, IDENTITY))
    return tuple(pieces)


def _after(outer: PiecewiseMap, inner: PiecewiseMap) -> PiecewiseMap:
    """outer o inner: cut each piece of inner where its image crosses an end
    of a piece of outer, merging equal neighbours as they are made."""
    out: list[tuple[Point, Point, Matrix]] = []
    last = len(outer) - 1
    j = 0
    cut, cut_image, m = outer[0]
    for end, image, n in inner:
        p, q = image
        while cut[0] * q < p * cut[1]:
            a, b, c, d = n
            mn = n if m == IDENTITY else _mul(m, n)
            point = _image((d, -b, -c, a), cut)
            if out and out[-1][2] == mn:
                out[-1] = (point, cut_image, mn)
            else:
                out.append((point, cut_image, mn))
            j += 1
            cut, cut_image, m = outer[j]
        if m == IDENTITY:
            mn = n
        else:
            mn = _mul(m, n)
            image = _image(m, image)
        if out and out[-1][2] == mn:
            out[-1] = (end, image, mn)
        else:
            out.append((end, image, mn))
        if cut[0] * q == p * cut[1] and j < last:
            j += 1
            cut, cut_image, m = outer[j]
    return tuple(out)


def word_map(word: LMWord) -> PiecewiseMap:
    """The canonical piecewise-Moebius map of [0, inf] that the word induces
    through Phi; two words are equal in the group exactly when their maps
    are equal."""
    pieces = IDENTITY_MAP
    for letter in reversed(word.letters):
        pieces = _after(_letter_map(letter.kind, letter.address, letter.sign), pieces)
    return pieces


# --- equality -----------------------------------------------------------


class Witness(_Value):
    """A concrete input, `prefix` followed by the periodic `tail` (a key of
    `TAILS`), and the index of the first output bit at which the two
    words' images of it differ."""

    __slots__ = ("prefix", "tail", "position")

    def __init__(self, prefix: Bits, tail: str, position: int) -> None:
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "position", position)

    def __str__(self) -> str:
        pre = "".join(map(str, self.prefix)) or "ø"
        return f"input {pre}{self.tail}, first difference at output bit {self.position}"


class DepthVerdict(_Value):
    """The exact verdict of `equal_up_to_depth`: `distinct` exactly when the
    two words' maps differ.  A distinct verdict carries the witness that the
    search at `depth` found, or None where it found none."""

    __slots__ = ("distinct", "depth", "witness")

    def __init__(self, distinct: bool, depth: int, witness: Witness | None = None) -> None:
        object.__setattr__(self, "distinct", distinct)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "witness", witness)


def equal_up_to_depth(w1: LMWord, w2: LMWord, d: int) -> DepthVerdict:
    """Decide w1 = w2 by comparing their `word_map`s; for distinct words,
    `_search` looks for a witness at depth d."""
    if type(d) is not int:
        raise TypeError(f"depth must be an int, not {type(d).__name__}")
    if d < 1:
        raise ValueError("depth must be >= 1")
    if word_map(w1) == word_map(w2):
        return DepthVerdict(False, d)
    return DepthVerdict(True, d, _search(w1, w2, d))


def _search(w1: LMWord, w2: LMWord, d: int) -> Witness | None:
    """The witness of the first difference found on the inputs with d free
    bits followed by one of the tails 0^w, 1^w, (10)^w, or None.  Product
    states are shared between inputs, so the cost is the size of the product
    automaton, not 2^d.  A tail walk ends at a repeated state or, to bound
    the work, after (d + address bits + 4) * 2^letters + 32 bits."""
    m1, m2 = WordMachine(w1), WordMachine(w2)
    start = (m1.initial, m2.initial, (), ())

    def step(node, bit):
        st1, st2, sur1, sur2 = node
        st1, o1 = m1.push(st1, bit)
        st2, o2 = m2.push(st2, bit)
        t1 = sur1 + o1
        t2 = sur2 + o2
        k = min(len(t1), len(t2))
        if t1[:k] != t2[:k]:
            return None
        return (st1, st2, t1[k:], t2[k:])

    paths = {start: ()}
    stack = [start]
    while stack:
        node = stack.pop()
        path = paths[node]
        if len(path) >= d:
            continue
        for bit in (0, 1):
            nxt = step(node, bit)
            if nxt is None:
                return _certify(m1, m2, path + (bit,), "0^w", 0)
            if nxt not in paths or len(paths[nxt]) > len(path) + 1:
                paths[nxt] = path + (bit,)
                stack.append(nxt)

    sizes = [(len(w.letters), sum(len(l.address) for l in w.letters)) for w in (w1, w2)]
    cap = max((d + address + 4) * (1 << letters) + 32 for letters, address in sizes)
    tail_seen: set = set()
    for node, path in paths.items():
        for tail_name, period in TAILS.items():
            cur = node
            for i in range(cap):
                key = (cur, tail_name, i % len(period))
                if key in tail_seen:
                    break
                tail_seen.add(key)
                nxt = step(cur, period[i % len(period)])
                if nxt is None:
                    return _certify(m1, m2, path, tail_name, i + 1)
                cur = nxt
    return None


def _certify(m1: WordMachine, m2: WordMachine, prefix: Bits, tail: str, n: int) -> Witness:
    """Replay the input the search walked, `prefix` and then n bits of
    `tail`, through both machines.  The search saw the outputs differ on
    it, so the replay finds the first differing output bit."""
    period = TAILS[tail]
    bits = prefix + tuple(period[i % len(period)] for i in range(n))
    outputs = []
    for machine in (m1, m2):
        states, out = machine.initial, []
        for bit in bits:
            states, emitted = machine.push(states, bit)
            out.extend(emitted)
        outputs.append(out)
    position = next(i for i, (a, b) in enumerate(zip(*outputs)) if a != b)
    return Witness(prefix, tail, position)


# --- relations -----------------------------------------------------------


class RelationCheck(_Value):
    __slots__ = ("relation", "instance", "status", "detail")  # status: 'pass' | 'fail' | 'skipped'

    def __init__(self, relation: str, instance: str, status: str, detail: str = "") -> None:
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "detail", detail)


def relation_suite(s: Bits, t: Bits, d: int, variant: str = "yGy") -> list[RelationCheck]:
    """Check every instance of the five defining relations attached to the
    addresses (s, t).  An instance fails exactly when its two sides' maps
    differ, with the witness found at depth d as its detail.  It is skipped
    when x_s(t) is undefined, when the commuting addresses are comparable,
    or when a y-letter on either side is not allowed in the variant."""
    image = x_image_of_address(s, t)
    undefined = "x_s(t) undefined" if image is None else ""
    comparable = "addresses comparable" if s[: len(t)] == t or t[: len(s)] == s else ""
    sa, ta = ("".join(map(str, a)) or "ø" for a in (s, t))
    at_s, at_st = f"s={sa}", f"s={sa},t={ta}"

    def x(a: Bits, sign: int = 1):
        return ("x", a, sign)

    def y(a: Bits, sign: int = 1):
        return ("y", a, sign)

    # (relation, instance, lhs letters, rhs letters, reason undefined)
    table = (
        ("square", at_s, (x(s), x(s)), (x(s + (1,)), x(s), x(s + (0,))), ""),
        ("x-conj", at_st, (x(s), x(t)), (x(image), x(s)), undefined),
        ("y-conj", at_st, (x(s), y(t)), (y(image), x(s)), undefined),
        ("commute", at_st, (y(s), y(t)), (y(t), y(s)), comparable),
        ("expand", at_s, (y(s),), (y(s + (1, 1)), y(s + (1, 0), -1), y(s + (0,)), x(s)), ""),
    )
    out: list[RelationCheck] = []
    for relation, instance, lhs, rhs, why in table:
        if not why and not all(y_address_allowed(a, variant) for k, a, _ in lhs + rhs if k == "y"):
            why = f"y-address not allowed in {variant}"
        if why:
            out.append(RelationCheck(relation, instance, "skipped", why))
            continue
        w1, w2 = (LMWord(tuple(LMLetter(*l) for l in side), variant) for side in (lhs, rhs))
        verdict = equal_up_to_depth(w1, w2, d)
        if verdict.distinct:
            detail = str(verdict.witness or f"no witness found at depth {d}")
            out.append(RelationCheck(relation, instance, "fail", detail))
        else:
            out.append(RelationCheck(relation, instance, "pass"))
    return out


# --- characters -----------------------------------------------------------

CHARACTERS = ("chi0", "chi1", "psi0", "psi1")


def character_value(word: LMWord, name: str) -> int:
    if name not in CHARACTERS:
        raise ValueError(f"unknown character {name!r}")
    values = characters(word)
    if name not in values:
        raise ValueError(f"character {name} is not defined on variant {word.variant}")
    return values[name]


def characters(word: LMWord) -> dict[str, int]:
    """The characters defined on the word's variant, read off the germs of
    its map, first piece (a, 0, c, d) and last (A, B, 0, D): psi0 = log2(a/d),
    psi1 = log2(A/D), and at a parabolic end chi0 = c/a (a = d), chi1 = B/D."""
    pieces = word_map(word)
    a, _, c, d = pieces[0][2]
    A, B, _, D = pieces[-1][2]
    ends = _Y_ENDS[word.variant]
    at0 = ("psi0", a.bit_length() - d.bit_length()) if 0 in ends else ("chi0", c // a)
    at1 = ("psi1", A.bit_length() - D.bit_length()) if 1 in ends else ("chi1", B // D)
    return dict((at0, at1))


# --- word literals --------------------------------------------------------

_LM_TOKEN = re.compile(r"([xy])\((\d*)\)('?)")


def parse_word(text: str, variant: str = "yGy") -> LMWord:
    """Parse words like `x(011) y(01)' x()`; empty address = root.  `1`,
    as `str` writes it, is the empty word."""
    if text.strip() == "1":
        return LMWord((), variant)
    letters = []
    for found in re.finditer(r"\S+", text):
        token, pos = found.group(), found.start()
        m = _LM_TOKEN.fullmatch(token)
        if not m:
            raise ParseError(f"bad letter {token!r}", text, pos)
        if m.group(2) and any(c not in "01" for c in m.group(2)):
            raise ParseError(f"bad address in {token!r}", text, pos)
        addr = tuple(int(c) for c in m.group(2))
        if m.group(1) == "y" and not y_address_allowed(addr, variant):
            raise ParseError(f"letter {token!r} is not allowed in variant {variant}", text, pos)
        letters.append(LMLetter(m.group(1), addr, -1 if m.group(3) else 1))
    return LMWord(tuple(letters), variant)
