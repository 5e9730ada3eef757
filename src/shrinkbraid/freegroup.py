"""Reduced words of the free group F_oo on e_1, e_2, ... and the curve order.

Conventions:

- A letter is a pair (index, sign) with index >= 1 and sign +1/-1; e_0 is the
  identity and is dropped at construction time.
- Words are always kept freely reduced; the empty word is the identity.
- ``curve_cmp`` is the linear order obtained by encoding elements of F_n as
  homotopy classes of arcs across a slit disk and ordering their lifted
  endpoints along the boundary of the universal cover.  Combinatorially it is
  a first-divergence tree order: two distinct reduced words are compared at
  the first letter where they differ, using a ranking of the possible
  continuations that depends only on the shared previous letter.

Orientation: the global direction of ``curve_cmp`` is calibrated so that
sigma_1-positive braids sort above the identity under the induced order on
the shrinking-braid monoid (see ``representation.cmp_L``).  Consequences at
the start of a word: among positive letters the SMALLER index is the LARGER
word (e_1 > e_2 > ...), inverse letters sit above all positive letters
(with the larger index higher), the empty word is least, and x-generators
sort BELOW the identity in the induced monoid order.  The calibration is a
single global flip; flipping it exchanges these facts wholesale.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple


class Cmp(Enum):
    """Three-way comparison result."""

    LESS = -1
    EQUAL = 0
    GREATER = 1

    def reverse(self) -> "Cmp":
        return Cmp(-self.value)


class FLetter(NamedTuple):
    index: int
    sign: int

    def inverse(self) -> "FLetter":
        return FLetter(self.index, -self.sign)

    def __str__(self) -> str:
        return f"e{self.index}" + ("^-1" if self.sign < 0 else "")


def reduce(letters: Iterable[FLetter]) -> "FWord":
    """Freely reduce a letter sequence; index-0 letters are dropped first."""
    out: list[FLetter] = []
    for let in letters:
        if let.index == 0:
            continue
        if let.index < 0:
            raise ValueError(f"letter index must be >= 0, got {let.index}")
        if let.sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {let.sign}")
        if out and out[-1].index == let.index and out[-1].sign == -let.sign:
            out.pop()
        else:
            out.append(let)
    return FWord(tuple(out))


class FWord:
    """A freely reduced word over e_1, e_2, ...; immutable and hashable."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[FLetter, ...] = ()):
        self.letters = letters

    @staticmethod
    def generator(index: int, sign: int = 1) -> "FWord":
        if index < 1:
            raise ValueError("generator index must be >= 1")
        return FWord((FLetter(index, sign),))

    @staticmethod
    def identity() -> "FWord":
        return FWord(())

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FWord) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"FWord({str(self)!r})"

    def __str__(self) -> str:
        return " ".join(str(let) for let in self.letters)

    def __mul__(self, other: "FWord") -> "FWord":
        return fmul(self, other)

    def inverse(self) -> "FWord":
        return finv(self)

    def max_index(self) -> int:
        return max((let.index for let in self.letters), default=0)

    def shift(self, k: int = 1) -> "FWord":
        """Raise every letter index by k (k >= 0); preserves reducedness."""
        if k < 0:
            raise ValueError("shift amount must be nonnegative")
        return FWord(tuple(FLetter(let.index + k, let.sign) for let in self.letters))


def fmul(u: FWord, v: FWord) -> FWord:
    """Reduced concatenation: cancellation can only happen at the seam."""
    a = list(u.letters)
    b = v.letters
    i = 0
    while a and i < len(b) and a[-1].index == b[i].index and a[-1].sign == -b[i].sign:
        a.pop()
        i += 1
    return FWord(tuple(a) + b[i:])


def finv(u: FWord) -> FWord:
    return FWord(tuple(let.inverse() for let in reversed(u.letters)))


# --- the signed-int kernel -------------------------------------------------
#
# A reduced word as a tuple of nonzero ints: e_k is k and e_k^-1 is -k.  The
# hot loops of ``coloring.color`` work in this form and build FLetter objects
# once, for the result.

_Ints = tuple[int, ...]


def _int_mul(u: _Ints, v: _Ints) -> _Ints:
    """``fmul`` on signed-int words: cancellation only at the seam."""
    i = 0
    n = min(len(u), len(v))
    while i < n and u[-1 - i] == -v[i]:
        i += 1
    return u[: len(u) - i] + v[i:] if i else u + v


def _int_inv(u: _Ints) -> _Ints:
    """``finv`` on signed-int words."""
    return tuple([-g for g in reversed(u)])


def psi(u: FWord) -> FWord:
    """The automorphism e_i -> e_i^-1; preserves reducedness."""
    return FWord(tuple(let.inverse() for let in u.letters))


# --- the curve order ------------------------------------------------------
#
# The comparison walks the common prefix of the two words; the first place
# they differ is compared by the boundary-walk position of the corresponding
# continuation.  Continuations are ranked by a sort key: larger key = visited
# later along the walk = greater word.  The key tables below enumerate, for
# each entry context (no previous letter / positive previous letter e_c /
# negative previous letter e_c^-1), the cyclic visit order of the possible
# next items.  "None" stands for the word ending (the endpoint marker of the
# shorter word).


def _slot_key(entry: FLetter | None, item: FLetter | None) -> tuple[int, int]:
    if entry is None:
        # Start of both words: marker, then e_j descending, then e_j^-1 ascending.
        if item is None:
            return (0, 0)
        if item.sign > 0:
            return (1, -item.index)
        return (2, item.index)
    c = entry.index
    if entry.sign > 0:
        # After e_c: inverses with index > c, marker, positives descending,
        # inverses with index < c ascending.
        if item is None:
            return (1, 0)
        if item.sign > 0:
            return (2, -item.index)
        return (0, item.index) if item.index > c else (3, item.index)
    # After e_c^-1: positives with index < c descending, all inverses
    # ascending, marker, positives with index > c descending.
    if item is None:
        return (2, 0)
    if item.sign < 0:
        return (1, item.index)
    return (0, -item.index) if item.index < c else (3, -item.index)


def curve_cmp(w: FWord, u: FWord) -> Cmp:
    """Compare two reduced words in the curve order.

    Equal iff the reduced words are identical.  The relation is a strict
    total order, invariant under the braid action of ``representation`` and
    under the index-raising x-action; see that module for the induced order
    on the shrinking-braid monoid.
    """
    a, b = w.letters, u.letters
    m = 0
    n = min(len(a), len(b))
    while m < n and a[m] == b[m]:
        m += 1
    if m == len(a) and m == len(b):
        return Cmp.EQUAL
    entry = a[m - 1] if m > 0 else None
    ka = _slot_key(entry, a[m] if m < len(a) else None)
    kb = _slot_key(entry, b[m] if m < len(b) else None)
    return Cmp.GREATER if ka > kb else Cmp.LESS


# --- word grammar ---------------------------------------------------------


class FWordParseError(ValueError):
    """Raised on malformed free-group word input; carries the byte offset."""

    def __init__(self, message: str, offset: int, token: str):
        super().__init__(f"{message} (offset {offset}, token {token!r})")
        self.offset = offset
        self.token = token


def parse_fword(text: str) -> FWord:
    """Parse the grammar: token := "e" digits ["^-1"]; empty = identity.

    Digits are ASCII 0-9 only.
    """
    letters = []
    pos = 0
    for token in text.split():
        offset = text.index(token, pos)
        pos = offset + len(token)
        body = token
        sign = 1
        if body.endswith("^-1"):
            sign = -1
            body = body[:-3]
        digits = body[1:]
        if not body.startswith("e") or not (digits.isascii() and digits.isdigit()):
            raise FWordParseError("expected e<digits>[^-1]", offset, token)
        try:
            index = int(digits)
        except ValueError:  # more digits than int() converts from text
            raise FWordParseError("generator index has too many digits", offset, token)
        if index < 1:
            raise FWordParseError("generator index must be >= 1", offset, token)
        letters.append(FLetter(index, sign))
    word = reduce(letters)
    return word
