"""The faithful action of R on the free group F_oo and the order <_L.

Generator images (acting on free-group generators e_j):

    s_i:    e_i -> e_{i-1} e_i^-1 e_{i+1}   (e_0 is dropped),  e_j fixed (j != i)
    s_i^-1: e_i -> e_{i+1} e_i^-1 e_{i-1},                     e_j fixed (j != i)
    x_i:    e_j -> e_{j+1} (j >= i),        e_j fixed (j < i)

Composition convention: a word acts with its RIGHTMOST letter applied first,
(uv)(w) = u(v(w)).  The convention is forced by the defining relations: with
it, both sides of relation (3) send e_i to e_{i-1} e_i^-1 e_{i+2}, while the
opposite convention already fails relation (1).  A dedicated test pins this.

Equality in R is defined as equality of the induced endomorphisms, which the
representation theory guarantees is faithful.  Images of e_j for j above the
largest letter index of a word follow the pure-shift tail
e_j -> e_{j + xCount}, so sampling one point beyond that index decides
equality.
"""

from __future__ import annotations

from .freegroup import Cmp, FLetter, FWord, curve_cmp, reduce
from .words import Generator, Kind, RWord, XLetterPresentError, x


def apply_gen(g: Generator, w: FWord) -> FWord:
    """Image of a reduced word under one generator's endomorphism."""
    out: list[FLetter] = []
    i = g.index
    if g.kind is Kind.X:
        for let in w.letters:
            out.append(FLetter(let.index + 1, let.sign) if let.index >= i else let)
        return FWord(tuple(out))  # index map is monotone, stays reduced
    if g.kind is Kind.SIGMA:
        image = (FLetter(i - 1, 1), FLetter(i, -1), FLetter(i + 1, 1))
    else:
        image = (FLetter(i + 1, 1), FLetter(i, -1), FLetter(i - 1, 1))
    for let in w.letters:
        if let.index != i:
            out.append(let)
        elif let.sign > 0:
            out.extend(image)
        else:
            out.extend(FLetter(idx, -sg) for idx, sg in reversed(image))
    return reduce(out)


def apply_word(w: RWord, u: FWord) -> FWord:
    """Apply a word letter by letter, rightmost letter first."""
    for g in reversed(w.letters):
        u = apply_gen(g, u)
    return u


def _egen(n: int) -> FWord:
    return FWord((FLetter(n, 1),))


def _tail_start(u: RWord, v: RWord) -> int:
    # Both words act as pure shifts by their xCounts from here on: letters
    # never touch e_j for j above every letter index, so one sample there
    # exposes differing shifts.
    return max(u.max_index(), v.max_index()) + 1


def morphism_eq(u: RWord, v: RWord) -> bool:
    """Semantic equality in R via the faithful representation."""
    for n in range(1, _tail_start(u, v) + 1):
        if apply_word(u, _egen(n)) != apply_word(v, _egen(n)):
            return False
    return True


def cmp_L(u: RWord, v: RWord) -> Cmp:
    """The left-invariant linear order on R.

    Scans n = 1, 2, ... and compares the images of e_n in the curve order at
    the first n where they differ.  Restricted to braid words this is the
    Dehornoy order: sigma_1-positive words sort above the identity.
    """
    for n in range(1, _tail_start(u, v) + 1):
        iu = apply_word(u, _egen(n))
        iv = apply_word(v, _egen(n))
        if iu != iv:
            return curve_cmp(iu, iv)
    return Cmp.EQUAL


def stabilizes_x_power(g: RWord, m: int) -> bool:
    """Whether g x_1^{m-1} = x_1^{m-1} in R, i.e. g fixes e_j for all j >= m.

    Precondition: g is a braid word.  This is the membership criterion for
    B_m used to separate equal circle-compositions of braids.
    """
    if not g.is_braid():
        raise XLetterPresentError("stabilizes_x_power needs a braid word")
    if m < 1:
        raise ValueError("m must be >= 1")
    power = RWord((x(1),) * (m - 1))
    return morphism_eq(g * power, power)
