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

The closed rule.  x_a merges strands a and a + 1, and (3), (4) and (5)
say what happens when that merge moves right past a crossing s_b^e
(e = +1 or -1): it leaves sigma letters behind and one x letter after them.

    b = a - 1:   x_a s_b^e = s_b^e s_{b+1}^e x_b          (3)
    b = a:       x_a s_b^e = s_{b+1}^e s_b^e x_{a+1}      (4)
    b > a:       x_a s_b^e = s_{b+1}^e x_a                (5)
    b < a - 1:   x_a s_b^e = s_b^e x_a                    (5)

A crossing beside the merge becomes two, one for each merged strand;
any other stays one crossing, its index raised by one when it lies above
the merge.  For e = +1 these are rows of ``_RELATIONS``; the e = -1 forms
follow by multiplying with inverse letters ((4) gives the s^-1 form of
(3) and vice versa).  ``sx_decompose`` applies the rule inline, reading
no table, and the tests check it against ``_RELATIONS`` and the
representation.

Storage.  An ``RWord`` holds one tuple of letter codes, ``codes``, and its
number of x letters, ``xs``, both fixed at construction, so ``is_braid``
and ``x_count`` read a stored int.  The codes are s_i = i, s_i^-1 = -i and
x_i = (i,) (see ``Code`` below); a braid word's codes are the signed ints
that the signed-int kernels of ``freegroup`` (``_reduced``, ``_inv``,
``_shifted``, ``_inverse_shifted``), ``representation._act`` and the
kernels of ``ldops`` read directly, and ``representation.apply_word`` maps
every code to its free-group image.  So ``braid_inverse`` is ``_inv`` on
the codes and ``free_cancel`` is ``_reduced`` on each braid run; ``shift``
is the one operation that shifts x codes too.  Every operation here, ``_RELATIONS`` included,
reads and writes codes: ``parse_rword`` reads text straight to codes, and
``_text`` spells a code back for ``str`` and error messages.
``Generator``, ``Kind``, ``sigma``, ``sigma_inv``, ``x`` and
``RWord(generators)`` are the public boundary, which no other module of
the library uses (the package only re-exports them): the constructor
encodes, and the read-only ``letters`` property decodes.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import chain, groupby
from typing import Callable, Iterable, Literal, NamedTuple, Optional, Union

from .freegroup import (
    BudgetError, DomainError, ParseError, _Frozen, _int_at_least, _inv, _raise_first, _read_token, _reduced
)


class Kind(Enum):
    SIGMA = "s"
    SIGMA_INV = "s^-1"
    X = "x"


class Generator(NamedTuple):
    kind: Kind
    index: int

    def __str__(self) -> str:
        return _text(_code(self))


def sigma(i: int) -> Generator:
    return Generator(Kind.SIGMA, _checked(i))

def sigma_inv(i: int) -> Generator:
    return Generator(Kind.SIGMA_INV, _checked(i))

def x(i: int) -> Generator:
    return Generator(Kind.X, _checked(i))


def _checked(i: int) -> int:
    return _int_at_least(i, 1, f"generator index must be >= 1, got {i}")


class XLetterPresentError(DomainError):
    """An operation restricted to braid words met an x letter."""


# Letter codes: s_i is the int i, s_i^-1 is -i and x_i is the 1-tuple (i,).
# Every nonzero int is a braid letter (indices are unbounded).  A 1-tuple
# never equals an int and cannot be negated, so an x letter never matches a
# braid letter, and ``freegroup._reduced`` raises TypeError rather than
# cancel one silently.
Code = Union[int, tuple[int]]


def _code(g: Generator) -> Code:
    """The code of a letter; an index that is not an int >= 1 raises ValueError, as in ``sigma``."""
    kind, i = g.kind, _checked(g.index)
    return i if kind is Kind.SIGMA else -i if kind is Kind.SIGMA_INV else (i,)


def _text(c: Code) -> str:
    """The letter a code stands for, as the word grammar spells it."""
    if type(c) is tuple:
        return f"x{c[0]}"
    return f"s{c}" if c > 0 else f"s{-c}^-1"


def _rword(codes: tuple[Code, ...], xs: int) -> "RWord":
    """The RWord stored as ``codes``, of which exactly ``xs`` are x letters."""
    word = object.__new__(RWord)
    _set_codes(word, codes)
    _set_xs(word, xs)
    return word


class RWord(_Frozen):
    """A word over the R generators; the empty word is the identity e.

    A ``_Frozen`` value on one tuple of letter codes, ``codes``, and its
    number of x letters, ``xs``, which the codes determine, so equality and
    hashing are those of the codes.  A word pickles through ``_rword`` and
    reprs as its text; its truth value is its length's, so only e is false.
    """

    __slots__ = ("codes", "xs")

    def __init__(self, letters: Iterable[Generator] = ()):
        codes = tuple([_code(g) for g in letters])
        super().__init__(codes, list(map(type, codes)).count(tuple))

    def __reduce__(self) -> tuple:
        return _rword, (self.codes, self.xs)

    @property
    def letters(self) -> tuple[Generator, ...]:
        """The word as ``Generator`` letters, decoded from ``codes``."""
        return tuple([
            Generator(Kind.X, c[0]) if type(c) is tuple
            else Generator(Kind.SIGMA, c) if c > 0 else Generator(Kind.SIGMA_INV, -c)
            for c in self.codes
        ])

    @staticmethod
    def identity() -> "RWord":
        return _rword((), 0)

    def __len__(self) -> int:
        return len(self.codes)

    def __mul__(self, other: "RWord") -> "RWord":
        return _rword(self.codes + other.codes, self.xs + other.xs)

    def __repr__(self) -> str:
        return f"RWord({str(self)!r})"

    def __str__(self) -> str:
        return " ".join(map(_text, self.codes))

    def max_index(self) -> int:
        return max((c[0] if type(c) is tuple else abs(c) for c in self.codes), default=0)

    def x_count(self) -> int:
        return self.xs

    def is_braid(self) -> bool:
        return not self.xs


_set_codes, _set_xs = RWord.codes.__set__, RWord.xs.__set__


def shift(w: RWord, k: int) -> RWord:
    """The shift map sh^k: every letter index is raised by k, kinds kept.

    The one shift that meets x codes; braid codes alone shift through
    ``freegroup._shifted``.
    """
    k = _int_at_least(k, 0, "shift amount must be nonnegative")
    return _rword(tuple([(c[0] + k,) if type(c) is tuple else c + k if c > 0 else c - k for c in w.codes]), w.xs)


def braid_inverse(w: RWord) -> RWord:
    """Group inverse in B_oo: reverse and swap s_i <-> s_i^-1."""
    if w.xs:
        raise XLetterPresentError("x letters are not invertible in R")
    return _rword(_inv(w.codes), 0)


def free_cancel(w: RWord) -> RWord:
    """Remove all adjacent s_i s_i^-1 and s_i^-1 s_i pairs.

    x letters never cancel, so each run of braid letters between them is
    cancelled on its own.
    """
    runs = groupby(w.codes, lambda c: type(c) is int)
    codes = chain.from_iterable(_reduced(run) if braid else run for braid, run in runs)
    return _rword(tuple(codes), w.xs)


Direction = Literal["L2R", "R2L"]
_Side = tuple[tuple[bool, str, int], ...]  # letters (is_x, var, offset): s or x_{var + offset}
_When = Optional[Callable[[int, int], bool]]


def _s(var: str, offset: int = 0) -> tuple[bool, str, int]:
    return (False, var, offset)

def _x(var: str, offset: int = 0) -> tuple[bool, str, int]:
    return (True, var, offset)


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
    codes: tuple[Code, ...], pos: int, rule: int, direction: Direction
) -> Optional[tuple[Code, ...]]:
    """``codes`` with a side of ``rule`` read at ``pos`` and replaced by the other side.

    L2R reads a row's left side, R2L its right side, and the first row of
    the rule that reads binds i and j.  None when no row reads there: a
    letter differs in kind, a variable would take two values or one below
    1, or the row's condition fails.  This is the one reader of
    ``_RELATIONS``.
    """
    for number, lhs, rhs, when in _RELATIONS:
        side, other = (lhs, rhs) if direction == "L2R" else (rhs, lhs)
        end = pos + len(side)
        if number != rule or end > len(codes):
            continue
        bound: dict[str, int] = {}
        for (is_x, var, offset), c in zip(side, codes[pos:end]):
            if (type(c) is tuple) is not is_x:
                break
            value = (c[0] if is_x else c) - offset
            if value < 1 or bound.setdefault(var, value) != value:
                break
        else:
            if when is None or when(bound["i"], bound["j"]):
                replacement = [(bound[v] + k,) if is_x else bound[v] + k for is_x, v, k in other]
                return codes[:pos] + tuple(replacement) + codes[end:]
    return None


# ``sx_decompose`` takes one step for each braid letter an x letter moves
# past, and the braid part grows as x letters pass: x1^250 s1^250 takes
# 7,843,750 steps and gives 62,750 letters.
MAX_REWRITE_STEPS = 1 << 20


class RewriteBudgetError(BudgetError):
    """``sx_decompose`` would take more than ``MAX_REWRITE_STEPS`` steps."""


def sx_decompose(w: RWord) -> tuple[RWord, RWord]:
    """Split w = braidPart . xPart with the same image in R.

    Reads the codes right to left, keeping what it has read as a braid part
    followed by an x part.  A braid letter joins the front of the braid
    part.  An x letter x_a moves left to right through the braid part into
    a new braid part, one step per braid letter, and joins the front of the
    x part.  A step past s_b^e (e = +1 or -1) is the closed rule of the
    module docstring: relation (3) when b = a - 1, (4) when b = a, and (5)
    otherwise, the crossing raised by one when it lies above the merge.  So
    every x letter is moved past each sigma letter to its right, and the
    procedure is deterministic and terminates.  ``RewriteBudgetError`` is
    raised before a move that would take the step count past
    ``MAX_REWRITE_STEPS``.
    """
    braid: list[int] = []  # the braid part, reversed
    xs: list[tuple[int]] = []  # the x part, reversed
    steps = 0
    for c in reversed(w.codes):
        if type(c) is int:
            braid.append(c)
            continue
        steps += len(braid)
        if steps > MAX_REWRITE_STEPS:
            raise RewriteBudgetError(
                f"decomposition of at least {steps} rewrite steps exceeds the budget of "
                f"{MAX_REWRITE_STEPS}"
            )
        a = c[0]
        moved: list[int] = []
        for s in reversed(braid):
            b, e = (s, 1) if s > 0 else (-s, -1)
            if b == a - 1:  # (3): x_{b+1} s_b = s_b s_{b+1} x_b
                moved += (s, s + e)
                a = b
            elif b == a:  # (4): x_b s_b = s_{b+1} s_b x_{b+1}
                moved += (s + e, s)
                a = b + 1
            else:  # (5): the crossing is above the merge, or below it with a gap
                moved.append(s + e if b > a else s)
        braid = moved[::-1]
        xs.append((a,))
    return _rword(tuple(reversed(braid)), 0), _rword(tuple(reversed(xs)), w.xs)


def apply_relation(
    w: RWord, rule: int, position: int, direction: Direction
) -> Optional[RWord]:
    """Apply one defining relation at a position, or return None on no match.

    L2R rewrites the displayed left side to the right side, R2L the reverse.
    Every relation keeps the number of x letters.  Used by test harnesses to
    generate provably equal word pairs.
    """
    if position < 0 or position > len(w.codes):
        raise IndexError(f"position {position} outside word of length {len(w)}")
    message = f"rule must be 1..7, got {rule}"
    if _int_at_least(rule, 1, message) > 7:  # True reads as rule 1
        raise ValueError(message)
    if direction not in ("L2R", "R2L"):
        raise ValueError(f"direction must be 'L2R' or 'R2L', got {direction!r}")
    codes = _rewrite(w.codes, position, rule, direction)
    return None if codes is None else _rword(codes, w.xs)


# --- word grammar ---------------------------------------------------------


class RWordParseError(ParseError):
    """Raised on malformed R-word input."""


@lru_cache(maxsize=4096)  # one entry per distinct token met; the bound caps its memory
def _letter(token: str) -> Code | str:
    """The code of the letter a token spells, or the message of the error it raises.

    ``freegroup._read_token`` reads the token; the rule left here is that
    x letters take no "^-1".  The code is built once per token and shared
    by every word that reads that token.
    """
    read = _read_token(token, "sx", "expected s<digits>[^-1] or x<digits>")
    if type(read) is str:
        return read
    head, index, inverse = read
    if head == "x":
        return "x letters are not invertible" if inverse else (index,)
    return -index if inverse else index


def parse_rword(text: str) -> RWord:
    """Parse: token := ("s" | "x") digits ["^-1"]; "^-1" is illegal after x.

    Digits are ASCII 0-9 only.  Tokens are split on any whitespace, and
    each maps through the cached ``_letter`` to its code, so every
    occurrence of an x token gives the same interned 1-tuple.  Offsets are
    found only when a token fails.
    """
    tokens = text.split()
    codes = tuple([_letter(token) for token in tokens])
    kinds = list(map(type, codes))
    if str in kinds:
        _raise_first(text, tokens, codes, RWordParseError)
    return _rword(codes, kinds.count(tuple))
