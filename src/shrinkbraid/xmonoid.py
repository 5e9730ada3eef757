"""The submonoid X_oo generated by the merge letters x_i.

X_oo has the single relation family x_i x_j = x_{j+1} x_i (j >= i).  Every
element has a unique canonical form with weakly increasing indices.  The
invariant S(y) = (n_1, n_2, ...) lists the fiber sizes of the monotone
function p(y), where p(x_i) maps j to j for j <= i and to j - 1 for j > i;
all entries are eventually 1 and only the prefix up to the last non-1 entry
is stored.  For the canonical word of y, n_j = 1 + (multiplicity of j).

Functions compose in word order: the leftmost letter acts first, which is the
convention under which S is a homomorphism onto sequence composition
(``seq_compose``).  The quotient R' of R by s_i^2 = e is represented only
through ``sf_eval`` (s_i acts as the transposition of i and i+1).

The hole set H of an x word is the set of k with p(k) = p(k + 1).  It is
the H of proof (c) in the ``representation`` docstring, where a word acts
rightmost letter first and x_i sends e_j to e_{f(j)}, f(j) = j + [j >= i]:
there H is the set of indices that f misses.  Both conventions give one
rule, H(x_a w) = {a} u {h + [h >= a] : h in H(w)}, with H(x_a) = {a}.
Here x_a acts first, so p(x_a w)(k) = p(w)(p(x_a)(k)) merges a and a + 1
and moves each hole h >= a of p(w) up to h + 1; there x_a acts last,
f(x_a w) = f(x_a) o f(w), so f(x_a) adds the miss a and sends each miss h
of f(w) to h + [h >= a].  For the canonical form a_0 <= a_1 <= ..., read
0-based, H = {a_j + j}: these are the keys that ``x_canonicalize``
searches.
"""

from __future__ import annotations

from bisect import bisect_left

from .freegroup import BudgetError, Cmp, _Frozen, _int_at_least
from .words import RWord, _rword


class XWord(_Frozen):
    """A word x_{i_1} ... x_{i_m}, stored as its index sequence; immutable."""

    __slots__ = ("indices",)

    def __init__(self, indices: tuple[int, ...] = ()):
        super().__init__(tuple([_int_at_least(i, 1, "x indices must be >= 1") for i in indices]))

    def __len__(self) -> int:
        return len(self.indices)

    def __mul__(self, other: "XWord") -> "XWord":
        return XWord(self.indices + other.indices)

    def __str__(self) -> str:
        return " ".join(f"x{i}" for i in self.indices)

    def is_canonical(self) -> bool:
        return all(a <= b for a, b in zip(self.indices, self.indices[1:]))

    def to_rword(self) -> RWord:
        return _rword(tuple([(i,) for i in self.indices]), len(self.indices))

    @staticmethod
    def from_rword(w: RWord) -> "XWord":
        if w.xs != len(w):
            raise ValueError("word contains non-x letters")
        return XWord(tuple([c[0] for c in w.codes]))


def x_canonicalize(w: XWord) -> XWord:
    """The unique weakly increasing form of the same X_oo element.

    One pass from the right, keeping the letters read so far in canonical
    form seq.  A new letter a, in front of seq, moves right past seq[k]
    while a - k > seq[k]: read right to left, the defining relation gives
    x_{a-k} x_{seq[k]} = x_{seq[k]} x_{a-k-1}, so each letter it passes
    lowers it by one.  As seq weakly increases, the key seq[k] + k strictly
    increases, and a passes seq[k] exactly when a > seq[k] + k; so the
    letters it passes are a prefix, and it stops at the first k with
    a <= seq[k] + k, which one ``bisect_left`` over the keys finds.  There
    seq[k - 1] <= a - k <= seq[k] (it passed seq[k - 1]), so inserting a - k
    at k keeps the form weakly increasing.

    The keys are the hole set H of the word (see the module docstring).
    Inserting a at k keeps the keys below a, adds a, and raises by one each
    key from a up, since the keys after k each gain one position: that is
    the rule for H of x_a w from H of w, and the empty word has no keys and
    no holes.
    """
    seq: list[int] = []
    for a in reversed(w.indices):
        k = bisect_left(range(len(seq)), a, key=lambda j: seq[j] + j)
        seq.insert(k, a - k)
    return XWord(tuple(seq))


class XSeq(_Frozen):
    """Eventually-1 sequence of positive integers, trailing 1s trimmed; immutable."""

    __slots__ = ("prefix",)

    def __init__(self, prefix: tuple[int, ...] = ()):
        trimmed = [_int_at_least(n, 1, "sequence entries must be >= 1") for n in prefix]
        while trimmed and trimmed[-1] == 1:
            trimmed.pop()
        super().__init__(tuple(trimmed))

    def entry(self, k: int) -> int:
        """1-based access, k >= 1; entries beyond the prefix equal 1."""
        k = _int_at_least(k, 1, "argument must be >= 1")
        return self.prefix[k - 1] if k <= len(self.prefix) else 1

    def weight(self) -> int:
        """Sum of (entry - 1); equals the canonical word length."""
        return sum(n - 1 for n in self.prefix)

    def __str__(self) -> str:
        return "(" + ",".join(str(n) for n in self.prefix) + ")"


# ``s_of`` stores one entry per index up to the largest one, so its time,
# memory and printed length follow the value of that index, not the length
# of the word: x1000000 takes about 0.2 s and 90 MB.
MAX_X_INDEX = 1 << 20


class SequenceBudgetError(BudgetError):
    """An S sequence would run past ``MAX_X_INDEX`` entries."""


def s_of(w: XWord) -> XSeq:
    """The fiber-size sequence of p(w), read off the canonical form."""
    return _s_of_canonical(x_canonicalize(w).indices)


def _s_of_canonical(indices: tuple[int, ...]) -> XSeq:
    """``s_of`` of the word whose canonical form has these weakly increasing indices."""
    if not indices:
        return XSeq(())
    top = indices[-1]
    if top > MAX_X_INDEX:
        raise SequenceBudgetError(
            f"S sequence of {top} entries exceeds the budget of {MAX_X_INDEX}"
        )
    counts = [1] * top
    for i in indices:
        counts[i - 1] += 1
    return XSeq(tuple(counts))


def seq_compose(m: XSeq, n: XSeq) -> XSeq:
    """Blockwise composition: k-th output sums m over the k-th block of n.

    Block lengths are the entries of n (the partial sums partition the
    positive integers).  Matches s_of on products: s_of(u v) =
    seq_compose(s_of(u), s_of(v)) with u the left factor.
    """
    blocks = max(len(n.prefix), len(m.prefix), 1)
    out = []
    pos = 0
    for k in range(1, blocks + 1):
        width = n.entry(k)
        block = m.prefix[pos : pos + width]  # the entries past the prefix are 1s
        out.append(sum(block) + width - len(block))
        pos += width
    return XSeq(tuple(out))


def lex_cmp(c: XWord, d: XWord) -> Cmp:
    """Order X_oo elements by their S-sequences, padded with 1s.

    Oriented to agree with the representation order ``cmp_L``: the word with
    the lexicographically SMALLER sequence is the GREATER element (x_2 > x_1,
    and every x-word sorts below the identity there).  The trimmed prefixes
    compare as plain tuples: a proper prefix sorts first, as its padding
    does, because the longer prefix ends above 1.
    """
    sc, sd = s_of(c).prefix, s_of(d).prefix
    return Cmp.EQUAL if sc == sd else Cmp.GREATER if sc < sd else Cmp.LESS


def p_eval(w: XWord, k: int) -> int:
    """Value at k of the composed monotone function p(w), leftmost first."""
    k = _int_at_least(k, 1, "argument must be >= 1")
    for i in w.indices:
        if k > i:
            k -= 1
    return k


def sf_eval(w: RWord, k: int) -> int:
    """Value at k of the R' representation: s_i^{+-1} swaps i and i+1."""
    k = _int_at_least(k, 1, "argument must be >= 1")
    for c in w.codes:
        if type(c) is tuple:
            if k > c[0]:
                k -= 1
        else:
            i = abs(c)
            if k == i:
                k = i + 1
            elif k == i + 1:
                k = i
    return k
