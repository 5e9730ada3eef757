"""Reduced words of the free group F_oo on e_1, e_2, ... and the curve order.

Conventions:

- A letter is a pair (index, sign) with index >= 1 and sign +1/-1; e_0 is the
  identity and is dropped at construction time.
- Words are always kept freely reduced; the empty word is the identity.
- An ``FWord`` stores one tuple of nonzero ints, ``ints``: e_k is k and
  e_k^-1 is -k.  Every operation here reads and writes that tuple.
  ``FLetter`` exists only at the public boundary: the ``letters`` property
  decodes the ints to ``FLetter`` pairs for callers that want them, and
  ``FWord(letters)`` and ``reduce`` encode them.  ``parse_fword`` reads
  text straight to ints.  ``_reduced`` is the one free-cancellation stack
  for signed-int words; braid words share it through their letter codes
  (s_i is i, s_i^-1 is -i; see ``words``), in ``words.free_cancel``, the
  image kernel and the Dynnikov feed of ``representation`` and the kernel
  of ``ldops``.  ``_mul`` (cancellation at the seam only) and ``_inv`` are
  the tuple kernels of ``fmul`` and ``finv``, which wrap their result with
  ``_word``; ``coloring`` calls the kernels directly, so its colors stay
  bare tuples until the word is read.
- ``DomainError`` is the base of the typed errors for input that parses but
  lies outside an operation's domain; the command line maps it, and only
  it, to exit code 2.  ``BudgetError``, one of them, is the base of the
  errors that the size budgets of ``words``, ``ldops``,
  ``representation``, ``xmonoid``, ``coloring`` and ``envelope`` raise.
  ``ParseError`` is the base of the three grammars' errors (free-group
  words here, R words in ``words``, LD terms in ``ldops``): it carries the
  offset and text of the bad token, and the command line maps it to exit
  code 1.
  The first two share one token reader: ``_read_token`` reads a token
  head<ASCII digits>[^-1] or names its error, and ``_raise_first`` raises
  the grammar's error at the first bad token.  All three grammars find the
  offset of a bad token with ``_offset``, from the tokens their parser
  already split, so valid text never computes an offset.
- ``_Frozen`` is the base of every immutable value class (``FWord``,
  ``RWord``, ``LDTerm``, ``BElement``, ``ColoredMorphism``, ``XWord``,
  ``XSeq``): it sets their ``__slots__`` fields once, refuses later
  assignment and deletion, and gives them equality, hashing, pickling and
  a repr over those fields.  The kernel words ``FWord``, ``RWord`` and
  ``LDTerm`` keep their own pickling and a text repr; their kernels build
  one on every call, unchecked, through ``_word``, ``_rword`` and ``_term``.
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
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence


class Cmp(Enum):
    """Three-way comparison result."""

    LESS = -1
    EQUAL = 0
    GREATER = 1

    def reverse(self) -> "Cmp":
        return Cmp(-self.value)


class DomainError(ValueError):
    """Well-formed input outside an operation's domain (exit code 2)."""


class BudgetError(DomainError):
    """A computation grew past one of the library's explicit size budgets."""


class _Frozen:
    """Base of the immutable value classes; a subclass's fields are its ``__slots__``.

    ``__init__(*values)`` sets the fields in slot order, and after that
    assigning or deleting one raises ``AttributeError``.  Equality (same
    type, equal field values), hashing, pickling and the field-naming repr
    all read the fields; equality and hashing read them through ``_fields``,
    one ``operator.attrgetter`` over the slots, built once per subclass when
    it is defined, so a comparison runs no Python loop.  ``_values`` is that
    getter's result as a tuple, for pickling: on a one-slot class the
    getter returns the bare field.  A subclass checks its arguments and
    passes them to ``super().__init__``, so its constructor takes the
    fields in slot order, as ``__reduce__`` calls it.

    The kernels build the kernel words ``FWord``, ``RWord`` and ``LDTerm``
    raw, unchecked: ``_word``, ``_rword`` and ``_term`` skip the constructor
    and set each slot through its descriptor's ``__set__``
    (``FWord.ints.__set__``), which the guard does not see.  The public
    constructors take letters, not fields (``LDTerm`` has none), so
    ``FWord`` and ``RWord`` pickle through ``_word`` and ``_rword``, and
    ``LDTerm`` as its text.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = staticmethod(attrgetter(*cls.__slots__))  # one value if one slot

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        values = self._fields(self)
        return values if len(self.__slots__) > 1 else (values,)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class FLetter(NamedTuple):
    index: int
    sign: int

    def __str__(self) -> str:
        return f"e{self.index}" + ("^-1" if self.sign < 0 else "")


def _reduced(ints: Iterable[int]) -> tuple[int, ...]:
    """The signed ints with every adjacent k, -k pair removed, in one stack pass."""
    out: list[int] = []
    for g in ints:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def _word(ints: tuple[int, ...]) -> "FWord":
    """The FWord stored as ``ints``, which must already be reduced."""
    word = object.__new__(FWord)
    _set_ints(word, ints)
    return word


def reduce(letters: Iterable[FLetter]) -> "FWord":
    """Freely reduce a letter sequence; index-0 letters are dropped first."""
    ints = []
    for index, sign in letters:
        if index == 0:
            continue
        if index < 0:
            raise ValueError(f"letter index must be >= 0, got {index}")
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign}")
        ints.append(index * sign)
    return _word(_reduced(ints))


class FWord(_Frozen):
    """A freely reduced word over e_1, e_2, ...; a ``_Frozen`` value on ``ints``.

    ``FWord(letters)`` is ``reduce(letters)``: it drops index-0 letters,
    rejects a negative index or a sign other than +1 or -1, and cancels.
    Equality and hashing are those of ``ints``; a word pickles through
    ``_word`` and reprs as its text.
    """

    __slots__ = ("ints",)

    def __init__(self, letters: Iterable[FLetter] = ()):
        super().__init__(reduce(letters).ints)

    def __reduce__(self) -> tuple:
        return _word, (self.ints,)

    @property
    def letters(self) -> tuple[FLetter, ...]:
        """The word as (index, sign) letters, decoded from ``ints``."""
        return tuple([FLetter(g, 1) if g > 0 else FLetter(-g, -1) for g in self.ints])

    @staticmethod
    def generator(index: int, sign: int = 1) -> "FWord":
        if index < 1:
            raise ValueError("generator index must be >= 1")
        return reduce([FLetter(index, sign)])  # reduce checks the sign

    @staticmethod
    def identity() -> "FWord":
        return _word(())

    def __len__(self) -> int:
        return len(self.ints)

    def __bool__(self) -> bool:
        return bool(self.ints)

    def __repr__(self) -> str:
        return f"FWord({str(self)!r})"

    def __str__(self) -> str:
        return " ".join([f"e{g}" if g > 0 else f"e{-g}^-1" for g in self.ints])

    def __mul__(self, other: "FWord") -> "FWord":
        return fmul(self, other)

    def inverse(self) -> "FWord":
        return finv(self)

    def max_index(self) -> int:
        return max(map(abs, self.ints), default=0)

    def shift(self, k: int = 1) -> "FWord":
        """Raise every letter index by k (k >= 0); preserves reducedness."""
        if k < 0:
            raise ValueError("shift amount must be nonnegative")
        return _word(tuple([g + k if g > 0 else g - k for g in self.ints]))


_set_ints = FWord.ints.__set__


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The product of two reduced int tuples: cancellation can only happen at the seam.

    When the seam letters do not cancel, which is about half of the products
    of a coloring, the product is ``a + b`` at once.  Otherwise the seam is
    walked letter by letter, a from its end and b from its start together:
    its length is the number of pairs before the first with a nonzero sum.
    """
    if not a or not b or a[-1] != -b[0]:
        return a + b
    i = 0
    for x, y in zip(reversed(a), b):
        if x + y:
            break
        i += 1
    return a[: len(a) - i] + b[i:]


def _inv(a: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of a reduced int tuple, which is reduced too."""
    return tuple([-g for g in reversed(a)])


def fmul(u: FWord, v: FWord) -> FWord:
    """Reduced concatenation; ``_mul`` on the two words' ints."""
    return _word(_mul(u.ints, v.ints))


def finv(u: FWord) -> FWord:
    return _word(_inv(u.ints))


def psi(u: FWord) -> FWord:
    """The automorphism e_i -> e_i^-1; preserves reducedness.

    It is the reflection of the punctured disk in its line of punctures,
    and it reverses ``curve_cmp`` on nonempty words.
    """
    return _word(tuple([-g for g in u.ints]))


# --- the curve order ------------------------------------------------------
#
# The comparison walks the common prefix of the two words; the first place
# they differ is compared by the boundary-walk position of the corresponding
# continuation.  Continuations are ranked by a sort key: larger key = visited
# later along the walk = greater word.  0 stands for "no letter": no previous
# letter (the entry) or the word ending (the item, the endpoint marker of the
# shorter word).  One rank rule serves every entry.  After e_c the visit
# order is: inverses with index above c, the marker, positives, inverses
# with index below c; within a rank, -item orders positives by descending
# and inverses by ascending index.  The start is that rule with no inverse
# ranked above c.  After e_c^-1 the rule is read through ``psi``
# (e_j -> e_j^-1), the reflection of the punctured disk in its line of
# punctures.  It reverses the boundary walk, so it reverses the curve order
# on nonempty words, and it sends the continuations of e_c^-1 to those of
# e_c.  So the key after e_c^-1 is the negated key of psi(item) after e_c,
# (-rank, -item).  The empty word stays least: it is the marker at the
# start, where the rule is not reflected.


def _slot_key(entry: int, item: int) -> tuple[int, int]:
    sign = -1 if entry < 0 else 1
    c, g = sign * entry, sign * item
    rank = 0 if c and g < -c else 1 if g == 0 else 2 if g > 0 else 3
    return (sign * rank, -item)


def curve_cmp(w: FWord, u: FWord) -> Cmp:
    """Compare two reduced words in the curve order.

    Equal iff the reduced words are identical.  The relation is a strict
    total order, invariant under the braid action of ``representation`` and
    under the index-raising x-action; see that module for the induced order
    on the shrinking-braid monoid.
    """
    a, b = w.ints, u.ints
    m = 0
    n = min(len(a), len(b))
    while m < n and a[m] == b[m]:
        m += 1
    if m == len(a) and m == len(b):
        return Cmp.EQUAL
    entry = a[m - 1] if m > 0 else 0
    ka = _slot_key(entry, a[m] if m < len(a) else 0)
    kb = _slot_key(entry, b[m] if m < len(b) else 0)
    return Cmp.GREATER if ka > kb else Cmp.LESS


# --- word grammar ---------------------------------------------------------


class ParseError(ValueError):
    """Malformed input text; carries the offset and text of the bad token."""

    def __init__(self, message: str, offset: int, token: str):
        super().__init__(f"{message} (offset {offset}, token {token!r})")
        self.offset = offset
        self.token = token


class FWordParseError(ParseError):
    """Raised on malformed free-group word input."""


def _offset(text: str, tokens: Sequence[str], k: int) -> int:
    """Where the k-th of ``tokens``, the tokens of ``text`` in order, starts in it.

    Each token is found with ``text.index`` from the end of the one before.
    This is exact because only whitespace lies between one token's end and
    the next token's start, and every token begins with a non-whitespace
    character, so no match can start before the token itself.
    """
    pos = 0
    for token in tokens[:k]:
        pos = text.index(token, pos) + len(token)
    return text.index(tokens[k], pos)


def _read_token(token: str, heads: str, shape: str) -> tuple[str, int, bool] | str:
    """(head, index, inverse) of a token head<ASCII digits>[^-1], or its error message.

    ``heads`` holds the one-character heads the grammar allows and ``shape``
    is its message for a token of any other form.
    """
    inverse = token.endswith("^-1")
    body = token[:-3] if inverse else token
    digits = body[1:]
    if len(body) < 2 or body[0] not in heads or not (digits.isascii() and digits.isdigit()):
        return shape
    try:
        index = int(digits)
    except ValueError:  # more digits than int() converts from text
        return "generator index has too many digits"
    if index < 1:
        return "generator index must be >= 1"
    return body[0], index, inverse


def _raise_first(
    text: str, tokens: Sequence[str], results: Iterable[object], error: type[ParseError]
) -> None:
    """Raise ``error`` at the first of ``tokens`` whose result is a message."""
    for k, result in enumerate(results):
        if type(result) is str:
            raise error(result, _offset(text, tokens, k), tokens[k])


def parse_fword(text: str) -> FWord:
    """Parse the grammar: token := "e" digits ["^-1"]; empty = identity.

    Digits are ASCII 0-9 only.  Each token is read to its signed int, so no
    letter is built.
    """
    tokens = text.split()
    read = [_read_token(token, "e", "expected e<digits>[^-1]") for token in tokens]
    if str in map(type, read):
        _raise_first(text, tokens, read, FWordParseError)
    return _word(_reduced([-index if inverse else index for _, index, inverse in read]))
