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
equality.  ``_images_cmp`` runs that scan, the only one here: it is the
oracle, and it decides every order query on a word with an x letter and every
equality query on a word outside the shape b x_1^k below.  The scan runs on
letter codes (s_i is i, s_i^-1 is -i, x_i is (i,); see ``words``) and on the
signed ints of free-group words: ``_image`` maps one code and one reduced
tuple of ints to the image tuple, and ``apply_word`` folds it over a word's
codes, so no letter is decoded.  The public ``apply_gen`` is ``_image`` on
one ``Generator``'s code.

Braid words take a fast path.  Free-group images grow exponentially with word
length, but the bit length of a braid's Dynnikov coordinates grows linearly,
and they are a faithful integer action of B_oo whose signs decide the
Dehornoy order (Dehornoy, "Efficient solutions to the braid isotopy problem",
Discrete Appl. Math. 156 (2008), section 3; Dehornoy, Dynnikov, Rolfsen and
Wiest, *Ordering Braids*, AMS 2008, ch. XII).  The coordinates are a sparse
dict from pair index k to a pair (x_k, y_k); a missing key is the pair (0, 1).
``_quotient_coords(u, v)``, the only function that computes them, starts from
the empty dict and feeds ``_act`` the letter codes of u^-1 v (s_i is i,
s_i^-1 is -i; see ``words``), rightmost first as in ``apply_word``: v's codes
reversed, then u's codes negated, ``chain(reversed(v.codes), map(neg,
u.codes))``, so u^-1 is never built and no letter is decoded.  The feed is
freely cancelled by ``freegroup._reduced`` first, so letters of a shared
prefix of u and v and inserted s_i s_i^-1 pairs cost no update; this is
exact because the update below is a group action on all of Z^2n.  With
a+ = max(a, 0) and a- = min(a, 0), the code i > 0 (s_i) and the code -i
(s_i^-1) update pairs i and i + 1:

    s_i:    z = x_i - y_i- - x_{i+1} + y_{i+1}+
            x_i'     = x_i + y_i+ + (y_{i+1}+ - z)+
            y_i'     = y_{i+1} - z+
            x_{i+1}' = x_{i+1} + y_{i+1}- + (y_i- + z)-
            y_{i+1}' = y_i + z+
    s_i^-1: z = x_i + y_i- - x_{i+1} - y_{i+1}+
            x_i'     = x_i - y_i+ - (y_{i+1}+ + z)+
            y_i'     = y_{i+1} + z-
            x_{i+1}' = x_{i+1} - y_{i+1}- - (y_i- - z)-
            y_{i+1}' = y_i - z-

Two braid words u and v are equal iff the coordinates of u^-1 v are all
(0, 1), that is, the dropped dict is empty.  For the order, take the smallest
k with x_k != 0: u < v if x_k > 0, u > v if x_k < 0, and u = v if there is no
such k.  The dict stays sparse, so ``s100000000`` costs two entries, not a
list as long as its index.

Words b x_1^k (braid letters, then a run of x_1; every braid is the case
k = 0, and every realized LD term has this form) take the same coordinates.
``_split_x1_tail`` finds k by reading the x_1 codes at the end of the word
and checks that they are all of its x letters against the stored count.
Their tails are pure shifts by k, so b x_1^k = b' x_1^k' needs k = k'; then
it holds exactly when b^-1 b' x_1^k = x_1^k, which holds exactly when every
key of the coordinates of b^-1 b' is at most k + 1 (``stabilizes_x_power``,
with its proof; for k = 0 the rule reads b = b').
"""

from __future__ import annotations

from itertools import chain
from operator import neg
from typing import Iterable

from .freegroup import BudgetError, Cmp, FWord, _reduced, _word, curve_cmp
from .words import Code, Generator, RWord, XLetterPresentError, _code, _rword

_X1 = (1,)  # the code of x_1


def _image(c: Code, ints: tuple[int, ...]) -> tuple[int, ...]:
    """The image of the reduced word ``ints`` under the letter with code ``c``."""
    if type(c) is tuple:  # x_i: the index map is monotone, so the image stays reduced
        i = c[0]
        return tuple([e + 1 if e >= i else e - 1 if e <= -i else e for e in ints])
    i = c if c > 0 else -c
    image = (i - 1, -i, i + 1) if c > 0 else (i + 1, -i, i - 1)
    if i == 1:  # e_0 is the identity
        image = tuple([e for e in image if e])
    inverse = tuple([-e for e in reversed(image)])
    out: list[int] = []
    for e in ints:
        if e == i:
            out += image
        elif e == -i:
            out += inverse
        else:
            out.append(e)
    return _reduced(out)


def apply_gen(g: Generator, w: FWord) -> FWord:
    """Image of a reduced word under one generator's endomorphism."""
    return _word(_image(_code(g), w.ints))


# Images grow exponentially with word length: without a bound, the scan for
# the circled depth-6 left-nested LD term does not end.  The largest image
# the test suite builds has 455,687 letters.  ``coloring.color`` holds its
# colors to the same budget.
MAX_IMAGE_LETTERS = 1 << 20


class ImageBudgetError(BudgetError):
    """A free-group image or color grew past ``MAX_IMAGE_LETTERS``."""


def apply_word(w: RWord, u: FWord) -> FWord:
    """Apply a word letter by letter, rightmost letter first.

    Reads the word's letter codes and the image's ints, and wraps the last
    image in an ``FWord`` once.  Raises ``ImageBudgetError`` as soon as an
    intermediate image has more than ``MAX_IMAGE_LETTERS`` letters, so
    ``_images_cmp`` is bounded too.
    """
    budget = MAX_IMAGE_LETTERS
    ints = u.ints
    for c in reversed(w.codes):
        ints = _image(c, ints)
        if len(ints) > budget:
            raise ImageBudgetError(
                f"free-group image of {len(ints)} letters exceeds the budget of {budget}"
            )
    return _word(ints)


def _tail_start(u: RWord, v: RWord) -> int:
    # Both words act as pure shifts by their xCounts from here on: letters
    # never touch e_j for j above every letter index, so one sample there
    # exposes differing shifts.
    return max(u.max_index(), v.max_index()) + 1


_TRIVIAL = (0, 1)


def _quotient_coords(u: RWord, v: RWord) -> dict[int, tuple[int, int]]:
    """Sparse Dynnikov coordinates of the braid u^-1 v, (0, 1) pairs dropped.

    u^-1 v acts with v's letters rightmost first, then u's letters left to
    right with their signs flipped, so u^-1 is never built.  That feed is
    freely cancelled before ``_act`` reads it.  This is exact because
    ``_act`` is a group action on all of Z^2n (``TestDynnikovUpdate``), so
    an adjacent s_i s_i^-1 acts as the identity.
    """
    coords: dict[int, tuple[int, int]] = {}
    _act(coords, _reduced(chain(reversed(v.codes), map(neg, u.codes))))
    return {k: pair for k, pair in coords.items() if pair != _TRIVIAL}


def _act(coords: dict[int, tuple[int, int]], codes: Iterable[int]) -> None:
    """Act on ``coords`` in place by braid letter codes, in the order given."""
    get = coords.get
    for g in codes:
        i = g if g > 0 else -g
        a, b = get(i, _TRIVIAL)
        c, d = get(i + 1, _TRIVIAL)
        b_pos = b if b > 0 else 0
        b_neg = b - b_pos
        d_pos = d if d > 0 else 0
        d_neg = d - d_pos
        if g > 0:
            z = a - b_neg - c + d_pos
            z_pos = z if z > 0 else 0
            t = d_pos - z
            coords[i] = (a + b_pos + (t if t > 0 else 0), d - z_pos)
            t = b_neg + z
            coords[i + 1] = (c + d_neg + (t if t < 0 else 0), b + z_pos)
        else:
            z = a + b_neg - c - d_pos
            z_neg = z if z < 0 else 0
            t = d_pos + z
            coords[i] = (a - b_pos - (t if t > 0 else 0), d + z_neg)
            t = b_neg - z
            coords[i + 1] = (c - d_neg - (t if t < 0 else 0), b - z_neg)


def _split_x1_tail(w: RWord) -> tuple[RWord, int] | None:
    """(b, k) with w = b x_1^k and b a braid word, or None for any other shape."""
    codes = w.codes
    end = len(codes)
    while end and codes[end - 1] == _X1:
        end -= 1
    k = len(codes) - end
    return (_rword(codes[:end], 0), k) if w.xs == k else None


def _keys_at_most(coords: dict[int, tuple[int, int]], m: int) -> bool:
    """The x_1-power rule: every key of ``coords`` is at most m (``stabilizes_x_power``)."""
    return all(k <= m for k in coords)


def morphism_eq(u: RWord, v: RWord) -> bool:
    """Semantic equality in R via the faithful representation.

    Two words b x_1^k and b' x_1^k' (braid letters, then a run of x_1; a
    braid is the case k = 0) are equal iff k = k' and every key of the
    coordinates of b^-1 b' is at most k + 1 (the ``stabilizes_x_power``
    rule; for k = 0 the coordinates are empty); see the module docstring.
    Every other pair goes to the image scan ``_images_cmp``.
    """
    split_u, split_v = _split_x1_tail(u), _split_x1_tail(v)
    if split_u is None or split_v is None:
        return _images_cmp(u, v) is Cmp.EQUAL
    (b, k), (b2, k2) = split_u, split_v
    return k == k2 and _keys_at_most(_quotient_coords(b, b2), k + 1)


def cmp_L(u: RWord, v: RWord) -> Cmp:
    """The left-invariant linear order on R.

    Restricted to braid words this is the Dehornoy order: sigma_1-positive
    words sort above the identity.  Two braid words are compared by the
    first nonzero x_k of the Dynnikov coordinates of u^-1 v, which is
    positive exactly when u < v (see the module docstring); any other pair
    by ``_images_cmp``.
    """
    if u.is_braid() and v.is_braid():
        coords = _quotient_coords(u, v)
        for k in sorted(coords):
            first = coords[k][0]
            if first:
                return Cmp.LESS if first > 0 else Cmp.GREATER
        return Cmp.EQUAL
    return _images_cmp(u, v)


def _images_cmp(u: RWord, v: RWord) -> Cmp:
    """The order by images, the oracle for ``cmp_L`` and ``morphism_eq``.

    Scans n = 1, 2, ... and compares the images of e_n in the curve order at
    the first n where they differ.  Each index builds at least one image
    letter per word, so a scan over more than ``MAX_IMAGE_LETTERS`` indices
    raises ``ImageBudgetError`` before it starts.
    """
    top = _tail_start(u, v)
    if top > MAX_IMAGE_LETTERS:
        raise ImageBudgetError(
            f"image scan over {top} indices exceeds the budget of {MAX_IMAGE_LETTERS} letters"
        )
    for n in range(1, top + 1):
        e_n = FWord.generator(n)
        iu = apply_word(u, e_n)
        iv = apply_word(v, e_n)
        if iu != iv:
            return curve_cmp(iu, iv)
    return Cmp.EQUAL


def stabilizes_x_power(g: RWord, m: int) -> bool:
    """Whether g x_1^{m-1} = x_1^{m-1} in R, i.e. g fixes e_j for all j >= m.

    Precondition: g is a braid word.  This is the membership criterion for
    B_m used to separate equal circle-compositions of braids.  It holds
    exactly when every key of the Dynnikov coordinates of g is at most m
    ("keys <= m"), so no free-group image is computed.  For m = 1 it reads
    g = e, so there keys <= 1 holds exactly when the coordinates are empty.

    Proof.  The model (*Ordering Braids*, ch. XII): a disk D with punctures
    P_0, ..., P_N on a line, N >= max(m, largest index of g) + 2, and s_i
    exchanging P_i and P_{i+1}.  Then g is supported in a disk U round
    P_1 ... P_{N-1} that misses P_0, P_N and the vertical arcs l_0 and
    l_{N-1}, where l_k crosses D between P_k and P_{k+1}.  The all-(0, 1)
    start is the lamination E of the round curves C_1, ..., C_{N-1}, C_k
    round P_0 ... P_k; with curves round the right-hand punctures instead,
    a twist round P_1 ... P_N would fix them and the action would not be
    faithful.  The pair (x_k, y_k) of a lamination L reads its minimal
    crossing numbers with l_{k-1}, l_k and the vertical arcs at P_k; in
    particular y_k = (i(L, l_{k-1}) - i(L, l_k)) / 2.  The coordinates of
    g are those of g(E).  With the base point on the left edge of U, e_j
    is the loop round P_1 ... P_j, and the arc in which C_j crosses U is
    that loop pushed off the base point.

    - If g fixes every e_j, j >= m, then keys <= m; so a No is sound.  g
      fixes the arc of C_j in U rel its ends, hence the curve C_j, j >= m,
      and maps C_1, ..., C_{m-1} inside C_m, left of l_m.  Pair k > m
      reads only crossings that those curves miss, and the other curves
      are those of E, so it stays (0, 1).
    - If keys <= m, then g fixes every e_j, j >= m; so a Yes is sound.
      i(g(E), l_{N-1}) = i(E, l_{N-1}) = 0 since U misses l_{N-1}, and
      y_k = 1 for m < k < N gives i(g(E), l_k) = 2(N - 1 - k) for
      m <= k < N.  Fix such a k.  Each g(C_j) bounds a disk holding P_0
      and j more punctures, and only P_0 ... P_k lie left of l_k, so for
      j > k it crosses l_k at least twice.  Those N - 1 - k curves use up
      every crossing, so g(C_k) misses l_k: it lies left of l_k, round all
      of P_0 ... P_k, which makes it C_k.  With C_m, ..., C_{N-1} fixed
      and the pieces between them annuli with one puncture, g = h T: h is
      supported inside C_m, and T is a product of powers of Dehn twists
      along C_m, ..., C_{N-1} and the boundary of D.  Let f_j be the loop
      round P_0 ... P_j (f_N runs along the boundary) and t_0 the loop
      round P_0, both based on the boundary; g fixes t_0 because U misses
      P_0.  T conjugates the loops inside C_m, H = <t_0, ..., t_m>, by
      W = f_N^{a_N} ... f_m^{a_m}, and h(t_0) = u t_0 u^-1 with u in H.
      So W u commutes with t_0, W lies in H, and killing t_0 ... t_m sends
      f_N^{a_N} ... f_{m+1}^{a_{m+1}} to 1.  The images of f_{m+1}, ...,
      f_N form a free basis, so those a_j are 0: g is supported inside
      C_m and its collar, it fixes f_j for j >= m, and filling P_0 turns
      f_j into e_j.
    - B_m lies on both sides, as it must: s_1 ... s_{m-1} touch only
      pairs 1..m and change only e_1, ..., e_{m-1}.
    """
    if not g.is_braid():
        raise XLetterPresentError("stabilizes_x_power needs a braid word")
    if m < 1:
        raise ValueError("m must be >= 1")
    return _keys_at_most(_quotient_coords(RWord(), g), m)
