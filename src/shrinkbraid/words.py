"""Words over the shrinking-braid monoid generators.

The monoid R is generated by crossings s_i, their inverses s_i^-1 and the
strand-merging letters x_i (i >= 1), subject to seven defining relations:

    (1) s_i x_i = x_i
    (2) x_{i+1} x_i = x_i x_i
    (3) x_{i+1} s_i = s_i s_{i+1} x_i
    (4) x_i s_i = s_{i+1} s_i x_{i+1}
    (5) x_i x_j = x_{j+1} x_i,  x_i s_j = s_{j+1} x_i   (j > i)
        x_i s_k = s_k x_i                               (k < i - 1)
    (6) s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1}
    (7) s_i s_j = s_j s_i                               (j > i + 1)

plus free cancellation s_i s_i^-1 = s_i^-1 s_i = e.  Words are purely
syntactic here: two RWords may denote the same monoid element.  Semantic
equality is decided by the faithful free-group representation
(``representation.morphism_eq``); no confluent rewriting system is attempted.

``sx_decompose`` also reads the x_a s_b rows of (3)/(4)/(5) with s^-1 for s
on both sides; these follow by multiplying with inverse letters ((3) gives
the s^-1 form of (4) and vice versa) and are checked against the representation.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, Literal, NamedTuple, Optional


class Kind(Enum):
    SIGMA = "s"
    SIGMA_INV = "s^-1"
    X = "x"


class Generator(NamedTuple):
    kind: Kind
    index: int

    def shifted(self, k: int) -> "Generator":
        return Generator(self.kind, self.index + k)

    def __str__(self) -> str:
        if self.kind is Kind.SIGMA:
            return f"s{self.index}"
        if self.kind is Kind.SIGMA_INV:
            return f"s{self.index}^-1"
        return f"x{self.index}"


def sigma(i: int) -> Generator:
    return Generator(Kind.SIGMA, _checked(i))

def sigma_inv(i: int) -> Generator:
    return Generator(Kind.SIGMA_INV, _checked(i))

def x(i: int) -> Generator:
    return Generator(Kind.X, _checked(i))


def _checked(i: int) -> int:
    if i < 1:
        raise ValueError(f"generator index must be >= 1, got {i}")
    return i


class XLetterPresentError(ValueError):
    """An operation restricted to braid words met an x letter."""


class RWord:
    """A word over the R generators; the empty word is the identity e."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Generator] = ()):
        self.letters = tuple(letters)

    @staticmethod
    def identity() -> "RWord":
        return RWord(())

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RWord) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __mul__(self, other: "RWord") -> "RWord":
        return RWord(self.letters + other.letters)

    def __repr__(self) -> str:
        return f"RWord({str(self)!r})"

    def __str__(self) -> str:
        return " ".join(str(g) for g in self.letters)

    def max_index(self) -> int:
        return max((g.index for g in self.letters), default=0)

    def x_count(self) -> int:
        return sum(1 for g in self.letters if g.kind is Kind.X)

    def is_braid(self) -> bool:
        return all(g.kind is not Kind.X for g in self.letters)


def shift(w: RWord, k: int) -> RWord:
    """The shift map sh^k: every letter index is raised by k, kinds kept."""
    if k < 0:
        raise ValueError("shift amount must be nonnegative")
    return RWord(g.shifted(k) for g in w.letters)


def braid_inverse(w: RWord) -> RWord:
    """Group inverse in B_oo: reverse and swap s_i <-> s_i^-1."""
    out = []
    for g in reversed(w.letters):
        if g.kind is Kind.X:
            raise XLetterPresentError("x letters are not invertible in R")
        swapped = Kind.SIGMA_INV if g.kind is Kind.SIGMA else Kind.SIGMA
        out.append(Generator(swapped, g.index))
    return RWord(out)


def free_cancel(w: RWord) -> RWord:
    """Remove all adjacent s_i s_i^-1 and s_i^-1 s_i pairs."""
    out: list[Generator] = []
    for g in w.letters:
        if out and g.kind is not Kind.X and out[-1].index == g.index and (
            (out[-1].kind is Kind.SIGMA and g.kind is Kind.SIGMA_INV)
            or (out[-1].kind is Kind.SIGMA_INV and g.kind is Kind.SIGMA)
        ):
            out.pop()
        else:
            out.append(g)
    return RWord(out)


Direction = Literal["L2R", "R2L"]
_Side = tuple[tuple[Kind, str, int], ...]  # letters (kind, var, offset): kind_{var + offset}
_When = Optional[Callable[[int, int], bool]]


def _s(var: str, offset: int = 0) -> tuple[Kind, str, int]:
    return (Kind.SIGMA, var, offset)

def _x(var: str, offset: int = 0) -> tuple[Kind, str, int]:
    return (Kind.X, var, offset)


# Rows (rule, lhs, rhs, condition on i and j); relation (5) has one per case.
_RELATIONS: tuple[tuple[int, _Side, _Side, _When], ...] = (
    (1, (_s("i"), _x("i")), (_x("i"),), None),
    (2, (_x("i", 1), _x("i")), (_x("i"), _x("i")), None),
    (3, (_x("i", 1), _s("i")), (_s("i"), _s("i", 1), _x("i")), None),
    (4, (_x("i"), _s("i")), (_s("i", 1), _s("i"), _x("i", 1)), None),
    (5, (_x("i"), _x("j")), (_x("j", 1), _x("i")), lambda i, j: j > i),
    (5, (_x("i"), _s("j")), (_s("j", 1), _x("i")), lambda i, j: j > i),
    (5, (_x("i"), _s("j")), (_s("j"), _x("i")), lambda i, j: j < i - 1),
    (6, (_s("i"), _s("i", 1), _s("i")), (_s("i", 1), _s("i"), _s("i", 1)), None),
    (7, (_s("i"), _s("j")), (_s("j"), _s("i")), lambda i, j: j > i + 1),
)


def _rewrite(
    letters: tuple[Generator, ...], pos: int, side: _Side, other: _Side, when: _When
) -> Optional[tuple[Generator, ...]]:
    """``other`` under the values of i and j that read ``side`` at ``pos``.

    None when ``side`` does not occur there: a letter differs in kind, a
    variable would take two values or one below 1, or ``when`` fails.
    """
    if pos + len(side) > len(letters):
        return None
    bound: dict[str, int] = {}
    for (kind, var, offset), g in zip(side, letters[pos:]):
        value = g.index - offset
        if g.kind is not kind or value < 1 or bound.setdefault(var, value) != value:
            return None
    if when is not None and not when(bound["i"], bound["j"]):
        return None
    return tuple(Generator(kind, bound[var] + offset) for kind, var, offset in other)


@lru_cache(maxsize=4096)  # one entry per (x, sigma) pair met; the bound caps its memory
def _x_past_sigma(xg: Generator, s: Generator) -> tuple[Generator, ...]:
    """Rewrite x_a s_b, with s_b of either sign, as sigma letters then one x letter.

    Only the x_a s_b rows of (3), (4) and (5) can match the pair, and exactly
    one does.  s_b^-1 is read as s_b and gives its sign to the sigma letters.
    """
    pair = (xg, Generator(Kind.SIGMA, s.index))
    for _, lhs, rhs, when in _RELATIONS:
        replacement = _rewrite(pair, 0, lhs, rhs, when)
        if replacement is not None:
            break
    return tuple(g if g.kind is Kind.X else Generator(s.kind, g.index) for g in replacement)


def sx_decompose(w: RWord) -> tuple[RWord, RWord]:
    """Split w = braidPart . xPart with the same image in R.

    Scans right to left; each step moves one x letter past the sigma letter
    to its right, so the procedure is deterministic and terminates.
    """
    letters = list(w.letters)
    i = len(letters) - 2
    while i >= 0:
        if (
            i + 1 < len(letters)
            and letters[i].kind is Kind.X
            and letters[i + 1].kind is not Kind.X
        ):
            replacement = _x_past_sigma(letters[i], letters[i + 1])
            letters[i : i + 2] = replacement
            i += len(replacement) - 1  # keep following the moved x letter
        else:
            i -= 1
    split = 0
    while split < len(letters) and letters[split].kind is not Kind.X:
        split += 1
    return RWord(letters[:split]), RWord(letters[split:])


def apply_relation(
    w: RWord, rule: int, position: int, direction: Direction
) -> Optional[RWord]:
    """Apply one defining relation at a position, or return None on no match.

    L2R rewrites the displayed left side to the right side, R2L the reverse.
    Used by test harnesses to generate provably equal word pairs.
    """
    if position < 0 or position > len(w.letters):
        raise IndexError(f"position {position} outside word of length {len(w)}")
    rows = [row[1:] for row in _RELATIONS if row[0] == rule]
    if not rows:
        raise ValueError(f"rule must be 1..7, got {rule}")
    for lhs, rhs, when in rows:
        side, other = (lhs, rhs) if direction == "L2R" else (rhs, lhs)
        replacement = _rewrite(w.letters, position, side, other, when)
        if replacement is not None:
            return RWord(w.letters[:position] + replacement + w.letters[position + len(side) :])
    return None


# --- word grammar ---------------------------------------------------------


class RWordParseError(ValueError):
    """Raised on malformed R-word input; carries the byte offset."""

    def __init__(self, message: str, offset: int, token: str):
        super().__init__(f"{message} (offset {offset}, token {token!r})")
        self.offset = offset
        self.token = token


@lru_cache(maxsize=4096)  # one entry per distinct token met; the bound caps its memory
def _letter(token: str) -> Generator | str:
    """The letter a token spells, or the message of the error it raises.

    The letter is built once per token and shared by every word that reads
    that token.
    """
    body = token
    inverse = body.endswith("^-1")
    if inverse:
        body = body[:-3]
    digits = body[1:]
    if len(body) < 2 or body[0] not in "sx" or not (digits.isascii() and digits.isdigit()):
        return "expected s<digits>[^-1] or x<digits>"
    try:
        index = int(digits)
    except ValueError:  # more digits than int() converts from text
        return "generator index has too many digits"
    if index < 1:
        return "generator index must be >= 1"
    if body[0] == "x":
        return "x letters are not invertible" if inverse else x(index)
    return sigma_inv(index) if inverse else sigma(index)


def parse_rword(text: str) -> RWord:
    """Parse: token := ("s" | "x") digits ["^-1"]; "^-1" is illegal after x.

    Digits are ASCII 0-9 only.  Tokens are split on any whitespace, and
    each maps through the cached ``_letter``, so every occurrence of a token
    gives the same interned ``Generator``.  Offsets are found only when a
    token fails.
    """
    tokens = text.split()
    letters = tuple([_letter(token) for token in tokens])
    if str in map(type, letters):
        pos = 0
        for token, letter in zip(tokens, letters):
            offset = text.index(token, pos)
            pos = offset + len(token)
            if type(letter) is str:
                raise RWordParseError(letter, offset, token)
    return RWord(letters)
