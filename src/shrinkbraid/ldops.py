"""Left-distributive operations on braids and their circle compositions.

On braid words the two compositions are

    a . b = a sh(b) s_1 sh(a^-1)        (self-distributive dot)
    a o b = a sh(b) x_1                 (associative circle)

The subset generated by the identity braid under dot is the free
monogenerated LD system; closing under circle gives the free monogenerated
LD monoid.  Circle compositions of braids are exactly the monoid elements of
the form (braid) x_1^{n-1}, represented here by ``BElement(braid, n)``.  The
extended operations on those elements are

    (a x_1^{n-1}) . c = a sh^n(c) s_n ... s_1 sh(a^-1)
    (a x_1^{n-1}) o c = a sh^n(c) x_1^n

and both stay in the family: with c = c' x_1^{m-1},

    (a x_1^{n-1}) . (c' x_1^{m-1}) = a sh^n(c') W sh^m(a^-1) x_1^{m-1},
    W = (s_n s_{n+1} ... s_{n+m-1}) ... (s_1 s_2 ... s_m),

so ``b_dot`` builds its braid part directly, free-cancelled, and no term
is ever rewritten.

The kernels ``_dot`` and ``_circ`` take and return an element as the pair
(word, n), with the braid word as the tuple of letter codes an ``RWord``
stores (s_i is i, s_i^-1 is -i; see ``words``), so ``b_dot`` and ``b_circ``
pass ``(RWord.codes, n)`` straight through and ``eval_term_b`` folds with
the kernels themselves.  The dot builds every letter of a, sh^n(c'), W and
sh^m(a^-1) into one list and pushes it through one free-cancellation
stack, so a need not be cancelled itself (circle products are not).
That stack is ``freegroup._reduced``: a braid word cancels exactly as a
signed-int free-group word does.  Both kernels hold their result to
``MAX_REALIZED_LETTERS``: a circle's exact length and a lower bound on a
dot's are checked before any letter is built, and a dot's exact length
once it is built.  Each check is one comparison with the budget, read at
call time; only a word past it builds its error, by ``_budget_error``.  An
empty operand is neither shifted nor inverted, and a circle with an empty
right operand returns its left word as it is, so a leaf ((), 1) costs no
list.  ``eval_term`` realizes the fold's (word, power) pair through
``_realized``, which ``BElement.realize`` calls too, so only
``eval_term_b`` builds a ``BElement`` for a term.

An ``LDTerm`` is stored as the tuple of its tokens in postfix order ("j",
then "." or "o" after both operands), the order in which ``parse_term``
reads them off the text, so no tree of nodes is built.  Nothing here
recurses: ``parse_term`` is one loop over the tokens ``str.split`` cuts
once each bracket is padded with spaces, with a stack of open brackets,
and ``MAX_TERM_DEPTH`` bounds how many may be open (``TermDepthError``).
Only a failing token is located in the text, by ``freegroup._offset``,
as in the word grammars.  ``depth``, ``str`` and ``eval_term_b`` each read
the postfix tuple through the one fold ``_fold``, with a table of what a
leaf and each operator make.  ``LDTerm`` is a ``freegroup._Frozen`` value
on that tuple, so equality and hashing are the tuple's, and a term pickles
as its text.

Equality and order of terms go through the faithful
representation (``morphism_eq`` / ``cmp_L``).  Note the
induced order sorts a . b above a but a o b BELOW a: the dot direction is
forced by Dehornoy positivity of s_1 and the circle direction is its
unavoidable complement (see the freegroup module's orientation note).
"""

from __future__ import annotations

from typing import Sequence

from .freegroup import (
    BudgetError, Cmp, ParseError, _Frozen, _int_at_least, _inverse_shifted, _offset, _reduced, _shifted
)
from .representation import cmp_L
from .words import RWord, XLetterPresentError, _rword, shift


def _require_braid(w: RWord, what: str) -> None:
    if not w.is_braid():
        raise XLetterPresentError(f"{what} needs braid-only words")


def ld_dot(a: RWord, b: RWord) -> RWord:
    """The self-distributive composition a sh(b) s_1 sh(a^-1) on braids."""
    _require_braid(a, "ld_dot")
    _require_braid(b, "ld_dot")
    return _rword((*a.codes, *_shifted(b.codes, 1), 1, *_inverse_shifted(a.codes, 1)), 0)


def ld_circ(a: RWord, b: RWord) -> RWord:
    """The circle composition a sh(b) x_1 on braids."""
    _require_braid(a, "ld_circ")
    _require_braid(b, "ld_circ")
    return _rword((*a.codes, *_shifted(b.codes, 1), (1,)), 1)


class BElement(_Frozen):
    """A braid-with-power pair (a, n) denoting the element a x_1^{n-1}.

    Immutable: both fields are fixed at construction.
    """

    __slots__ = ("braid", "n")

    def __init__(self, braid: RWord, n: int):
        _require_braid(braid, "BElement")
        super().__init__(braid, _int_at_least(n, 1, "power must be >= 1"))

    def realize(self) -> RWord:
        return _realized(self.braid.codes, self.n)

    @staticmethod
    def from_braid(a: RWord) -> "BElement":
        return BElement(a, 1)


def b_dot(a: BElement, c: BElement) -> BElement:
    """(a x_1^{n-1}) . (c x_1^{m-1}) = a sh^n(c) W sh^m(a^-1) x_1^{m-1}.

    Here W = prod_{k=n..1} s_k s_{k+1} ... s_{k+m-1}.  It comes from the
    displayed a sh^n(c x_1^{m-1}) s_n ... s_1 sh(a^-1): relations (3) and
    (5) give x_{k+1}^{m-1} s_k = s_k s_{k+1} ... s_{k+m-1} x_k^{m-1}, which
    carries the x letters of sh^n(x_1^{m-1}) past s_n, ..., s_1 one factor
    at a time, and x_1^{m-1} sh(a^-1) = sh^m(a^-1) x_1^{m-1} by (5).
    A product past ``MAX_REALIZED_LETTERS`` raises ``RealizationBudgetError``.
    """
    return _element(*_dot((a.braid.codes, a.n), (c.braid.codes, c.n)))


def b_circ(a: BElement, c: BElement) -> BElement:
    """(a x_1^{n-1}) o c = a sh^n(c) x_1^n; powers add.

    A product past ``MAX_REALIZED_LETTERS`` raises ``RealizationBudgetError``.
    """
    return _element(*_circ((a.braid.codes, a.n), (c.braid.codes, c.n)))


# Every word the kernels build, so every ``b_dot``, ``b_circ`` and term node,
# is held to this budget.  A left-nested dot term of depth d realizes
# 2^d - 1 letters, so the budget stops depth 17; every depth-8 term stays
# far below it.
MAX_REALIZED_LETTERS = 1 << 16


class RealizationBudgetError(BudgetError):
    """A realized word grew past ``MAX_REALIZED_LETTERS``."""


def _budget_error(letters: int, at_least: str = "") -> RealizationBudgetError:
    """The error for a word of ``letters`` letters, which the kernels found past the budget."""
    return RealizationBudgetError(
        f"realized word of {at_least}{letters} letters exceeds the budget of {MAX_REALIZED_LETTERS}"
    )


# --- the kernel: braid words as code tuples (s_i = i, s_i^-1 = -i) -------

# An element a x_1^{n-1} as the kernels read it: (a's letter codes, n).
_Value = tuple[tuple[int, ...], int]


def _element(word: tuple[int, ...], n: int) -> BElement:
    return BElement(_rword(word, 0), n)


def _realized(word: tuple[int, ...], n: int) -> RWord:
    """The word in R of the element (word, n): the braid word, then x_1^{n-1}."""
    return _rword(word + ((1,),) * (n - 1), n - 1)


def _dot(left: _Value, right: _Value) -> _Value:
    """``b_dot`` on (code tuple, power) pairs, held to the budget.

    a need not be free-cancelled.  Checked before any letter is built: W
    has n*m positive letters, each of which can cancel only against one
    letter of a, c or a^-1, which bounds the length from below.  The
    letters of a, sh^n(c), W and sh^m(a^-1) then go into one list, W one
    run s_k ... s_{k+m-1} at a time, are cancelled in one pass, and the
    length is checked again, exactly.
    """
    (a, n), (c, m) = left, right
    least = n * m - 2 * len(a) - len(c) + m - 1
    if least > MAX_REALIZED_LETTERS:
        raise _budget_error(least, "at least ")
    letters = [*a, *_shifted(c, n)] if c else list(a)
    for k in range(n, 0, -1):
        letters += range(k, k + m)
    if a:
        letters += _inverse_shifted(a, m)
    word = _reduced(letters)
    if len(word) + m - 1 > MAX_REALIZED_LETTERS:
        raise _budget_error(len(word) + m - 1)
    return word, m


def _circ(left: _Value, right: _Value) -> _Value:
    """``b_circ`` on (code tuple, power) pairs, held to the budget.

    Nothing cancels, so the length checked before the word is built is exact.
    """
    (a, n), (c, m) = left, right
    size = len(a) + len(c) + n + m - 1
    if size > MAX_REALIZED_LETTERS:
        raise _budget_error(size)
    return ((*a, *_shifted(c, n)) if c else a), n + m


# --- terms over the single generator --------------------------------------


def _fold(postfix: tuple[str, ...], leaf, ops: dict):
    """Read a term's postfix tokens bottom up with one stack of values.

    Each "j" pushes ``leaf``; each "." or "o" replaces the top two values,
    left then right, with ``ops[token](left, right)``.  The one value left
    is the term's.  A loop, not a recursion, so any depth is read.
    """
    values = []
    for token in postfix:
        if token == "j":
            values.append(leaf)
        else:
            right = values.pop()
            values[-1] = ops[token](values[-1], right)
    return values[0]


_HEIGHTS = dict.fromkeys(".o", lambda left, right: max(left, right) + 1)
_TEXTS = {".": "({} . {})".format, "o": "({} o {})".format}
_VALUES = {".": _dot, "o": _circ}


class LDTerm(_Frozen):
    """A dot/circle term over the generator (the identity braid).

    A ``_Frozen`` value on its one slot, ``postfix``: the grammar's tokens in
    postfix order, "j" for the generator and "." or "o" after the two
    operands of a dot or a circle, so (s . t) is s.postfix + t.postfix +
    (".",).  Terms are built by ``LEAF``, ``dot``, ``circ`` and
    ``parse_term``, through ``_term``.  Equality and hashing are those of
    the tuple, and the repr is the text; ``depth``, ``str`` and
    ``eval_term_b`` each read it through the one fold ``_fold``.  A
    term pickles as its text and unpickles through ``parse_term``, so a
    term deeper than ``MAX_TERM_DEPTH`` pickles but raises
    ``TermDepthError`` when loaded.
    """

    __slots__ = ("postfix",)

    def __init__(self) -> None:
        raise TypeError("build terms with LEAF, dot, circ or parse_term")

    def depth(self) -> int:
        """Height of the tree."""
        return _fold(self.postfix, 0, _HEIGHTS)

    def __str__(self) -> str:
        """The term in the grammar of ``parse_term``, fully parenthesized."""
        return _fold(self.postfix, "j", _TEXTS)

    def __repr__(self) -> str:
        return f"LDTerm({str(self)!r})"

    def __reduce__(self) -> tuple:
        return parse_term, (str(self),)


def _term(postfix: tuple[str, ...]) -> LDTerm:
    """The LDTerm stored as ``postfix``, which must spell one whole term."""
    term = object.__new__(LDTerm)
    LDTerm.postfix.__set__(term, postfix)
    return term


LEAF = _term(("j",))


def dot(s: LDTerm, t: LDTerm) -> LDTerm:
    return _term(s.postfix + t.postfix + (".",))


def circ(s: LDTerm, t: LDTerm) -> LDTerm:
    return _term(s.postfix + t.postfix + ("o",))


def eval_term_b(t: LDTerm) -> BElement:
    """Evaluate a term; every subterm's realized word is held to the budget.

    The one fold ``_fold`` over the postfix tokens, with (word, power)
    values, so depth is not bounded by Python's recursion limit.  Each node
    is one call of ``_dot`` or ``_circ``, which check the budget before
    they build the node's word.
    """
    return _element(*_fold(t.postfix, ((), 1), _VALUES))


def eval_term(t: LDTerm) -> RWord:
    """Realize a term as a word in R (braid part followed by x_1 power).

    The fold's (word, power) pair is realized directly, with no ``BElement``.
    """
    return _realized(*_fold(t.postfix, ((), 1), _VALUES))


def laver_cmp(s: LDTerm, t: LDTerm) -> Cmp:
    """Compare realized terms in the representation order."""
    return cmp_L(eval_term(s), eval_term(t))


def shift_vector(braids: Sequence[RWord]) -> RWord:
    """The interleaved product a_1 sh(a_2) ... sh^{n-1}(a_n)."""
    out = RWord.identity()
    for k, a in enumerate(braids):
        _require_braid(a, "shift_vector")
        out = out * shift(a, k)
    return out


def sigma_on_braids(i: int, braids: Sequence[RWord]) -> tuple[RWord, ...]:
    """Positive-braid action on braid sequences: merge i, i+1 via dot."""
    if not 1 <= i < len(braids):
        raise IndexError(f"position {i} not below sequence length {len(braids)}")
    out = list(braids)
    out[i - 1 : i + 1] = [ld_dot(braids[i - 1], braids[i]), braids[i - 1]]
    return tuple(out)


# --- term grammar ----------------------------------------------------------


class TermParseError(ParseError):
    """Raised on malformed LD-term input."""


# The deepest term ``parse_term`` reads, counted in open brackets: about
# where the recursive parser it replaced met Python's recursion limit.
MAX_TERM_DEPTH = 1000


class TermDepthError(BudgetError):
    """A term text opened more than ``MAX_TERM_DEPTH`` brackets."""


def parse_term(text: str) -> LDTerm:
    """Parse the grammar: term := "j" | "(" term ("."|"o") term ")".

    The tokens are the text split on whitespace once each bracket is padded
    with spaces: a bracket, or a run of other non-whitespace characters.
    One loop reads them, writing the term's postfix tokens as it goes.
    ``opened`` holds a frame for each bracket not yet closed: "" until its
    left operand and operator are read, then the operator token, which is
    written at the matching ")".  ``complete`` says whether a whole term
    has been read that no frame has taken; while it is False a term must
    start.  Errors are raised at the
    first token that breaks the grammar, with the offset
    ``freegroup._offset`` finds for it, and more than ``MAX_TERM_DEPTH``
    open brackets raise ``TermDepthError``.
    """
    opened: list[str] = []
    postfix: list[str] = []
    complete = False
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    for k, token in enumerate(tokens):
        if not complete:
            if token == "(":
                if len(opened) == MAX_TERM_DEPTH:
                    raise TermDepthError("term nested too deeply")
                opened.append("")
            elif token == "j":
                postfix.append(token)
                complete = True
            else:
                raise TermParseError("expected 'j' or '('", _offset(text, tokens, k), token)
        elif not opened:
            raise TermParseError("trailing input after term", _offset(text, tokens, k), token)
        elif not opened[-1]:
            if token not in (".", "o"):
                raise TermParseError("expected '.' or 'o'", _offset(text, tokens, k), token)
            opened[-1] = token
            complete = False
        elif token == ")":
            postfix.append(opened.pop())
        else:
            raise TermParseError("expected ')'", _offset(text, tokens, k), token)
    if not complete or (opened and not opened[-1]):
        raise TermParseError("unexpected end of input", len(text), "")
    if opened:
        raise TermParseError("expected ')'", len(text), "")
    return _term(tuple(postfix))


def enumerate_terms(max_depth: int) -> list[LDTerm]:
    """All dot/circle terms of depth at most max_depth, which must be >= 0.

    A pair of operands from depths 0 .. d-1 makes a term of depth exactly d
    when one of them is from depth d-1, the last level listed.
    """
    _int_at_least(max_depth, 0, "max_depth must be >= 0")
    by_depth: list[list[LDTerm]] = [[LEAF]]
    for _ in range(max_depth):
        shallow = [t for level in by_depth for t in level]
        top = len(shallow) - len(by_depth[-1])
        by_depth.append([
            op(left, right)
            for op in (dot, circ)
            for i, left in enumerate(shallow)
            for k, right in enumerate(shallow)
            if max(i, k) >= top
        ])
    return [t for level in by_depth for t in level]
