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
oracle of the tests, and it decides every order query on a word with an x
letter.  The scan runs on letter codes (s_i is i, s_i^-1 is -i, x_i is (i,);
see ``words``) and on the signed ints of free-group words: ``_image`` maps
one code and one reduced tuple of ints to the image tuple, and
``_imaged`` folds it over a word's codes, so no letter is decoded.  That
fold is the one loop of ``apply_word`` and of the scan, and it counts the
letters it images against ``MAX_SCAN_LETTERS``.  The public ``apply_gen``
is ``_image`` on one ``Generator``'s code.

Equality and the braid order take coordinates instead.  Free-group images
grow exponentially with word length, but the bit length of a braid's
Dynnikov coordinates grows linearly, and they are a faithful integer action
of B_oo whose signs decide the Dehornoy order (Dehornoy, "Efficient
solutions to the braid isotopy problem", Discrete Appl. Math. 156 (2008),
section 3; Dehornoy, Dynnikov, Rolfsen and Wiest, *Ordering Braids*, AMS
2008, ch. XII).  The coordinates are a sparse dict from pair index k to a
pair (x_k, y_k); a missing key is the pair (0, 1).  ``_coords(codes, xs)``,
the only function that computes them, starts from the empty dict and acts
by a word's codes rightmost first, as ``apply_word`` does.  It feeds each
run of braid codes to ``_act`` freely cancelled by ``freegroup._reduced``,
which is exact because the update below is a group action on all of Z^2n.
With a+ = max(a, 0) and a- = min(a, 0), the code i > 0 (s_i) updates pairs
i and i + 1 by

    z = x_i - y_i- - x_{i+1} + y_{i+1}+
    x_i'     = x_i + y_i+ + (y_{i+1}+ - z)+
    y_i'     = y_{i+1} - z+
    x_{i+1}' = x_{i+1} + y_{i+1}- + (y_i- + z)-
    y_{i+1}' = y_i + z+

and the code -i (s_i^-1) runs the same update between two reflections: it
negates x_i and x_{i+1}, applies the s_i formula, and negates the two x
it wrote.  The reflection rho of the disk D of the proof below in its
line of punctures proves it.  rho fixes E, every puncture and every arc
l_k, and swaps the vertical arcs above and below each puncture, so it
acts on every pair as (x, y) -> (-x, y).  It conjugates the half twist
s_i to s_i^-1; on the free group it is ``freegroup.psi``, and
psi s_i psi = s_i^-1 on e_i.  So s_i^-1(L) = rho(s_i(rho(L))) for every
lamination L, and the coordinates follow.  rho also commutes with the
doubling rule below, which keeps x and reads y off the sign of y alone,
so a word with every braid letter's sign flipped has the coordinates of
the word with every x negated.

An x letter doubles a puncture.  x_i splits pair i, (x, y), into
(x, y-) at i and (x, y+) at i + 1, and every pair above i moves up one.  On
the default (0, 1) this leaves a hole (0, 0) at i.  So that a doubling does
not rebuild the dict, ``_coords`` keys each pair by its index plus the
number of x letters still to act, and shifts each braid run by that number
as it feeds it.  A doubling then leaves the pairs above i where they are and
moves only those below i down one key: it probes indices 1..i-1 when
i <= len(coords) and takes the sorted keys below otherwise, so each x
letter costs O(min(i, pairs)).  At the end every key is an index, raised
by any surplus that ``xs`` started with, and the (0, 1) pairs are dropped.

u = v iff u(E) and v(E) have the same coordinates, for the lamination E
of the proof below.  On two braid words ``morphism_eq`` reads this as
u^-1 v (E) = E: ``_quotient_coords(u, v)`` is ``_coords`` on the braid
u^-1 v, read off u and v without building u^-1, and two braid words are
equal iff those coordinates are empty.  One pass decides, and free
cancellation removes a shared prefix before any update.  A braid word has
no x letter, so ``_coords`` feeds it to ``_act`` as one run.  On any other
pair ``morphism_eq`` cuts the longest common prefix of the two code tuples
and compares the coordinates of what is left.  The cut is exact because
every letter acts injectively on F_oo: s_i is an automorphism, and x_i
sends the basis into the basis, so p u = p v exactly when u = v.  The x
letters of the cut prefix stay in both offsets, which raises every key of
both dicts alike.  For the order, take the smallest k with x_k != 0:
u < v if x_k > 0, u > v if x_k < 0, and u = v if there is no such k.  The
dict stays sparse, so ``s100000000`` costs two entries, not a list as long
as its index.

Proof that equal coordinates mean equal elements.  The model (*Ordering
Braids*, ch. XII): a disk D with punctures P_0, ..., P_N on a line, N above
every index and x count involved, s_i exchanging P_i and P_{i+1}, l_k the
vertical arc between P_k and P_{k+1}, and E, the all-(0, 1) start, the
lamination of the round curves C_1, ..., C_{N-1}, C_k round P_0 ... P_k.
The pair (x_k, y_k) of a lamination L reads its minimal crossing numbers
with l_{k-1}, l_k and the vertical arcs above and below P_k; with
b_k = i(L, l_{k-1}), y_k = (b_k - b_{k+1}) / 2.  x_i replaces P_i by two
punctures side by side, the twins, so a curve round P_i goes round both.

(a) The doubling rule.  In minimal position, the vertical line through P_i
    meets L max(b_i, b_{i+1}) times: an arc through the strip between
    l_{i-1} and l_i meets it once, and an arc that turns back round P_i
    meets it twice, once above P_i and once below.  Turning arcs come from
    one side only, because two such arcs from opposite sides would cross.
    Doubling P_i makes the part of that line between the twins a new
    vertical arc, which L crosses max(b_i, b_{i+1}) times, with l_{i-1}
    and l_i on either side.  So the twins read
    y_i' = (b_i - max(b_i, b_{i+1})) / 2 = y_i- and
    y_{i+1}' = (max(b_i, b_{i+1}) - b_{i+1}) / 2 = y_i+.  The twins inherit
    P_i's arcs above and below, so both keep its x.  The pairs above i read
    the same arcs one index higher.
(b) Equal elements give equal coordinates.  Let t_j be the loop round P_j
    and e_j the loop round P_1 ... P_j, based on the boundary.  The curve
    C_j is the conjugacy class of t_0 e_j, and every letter fixes t_0, so
    u sends C_j to the class of t_0 u(e_j).  So u(E) depends only on the
    endomorphism u.
(c) Equal coordinates give equal elements.  Coordinates determine the
    lamination (*Ordering Braids*, ch. XII), so say u(E) = v(E).  Write
    u = b X with b a braid and X an x word (``words.sx_decompose``).  X
    sends e_j to e_{f(j)} for an increasing f; let H be the finite set of
    its holes, the indices missing from f's image.  Then X(E) = E_H, E
    without the curves C_h for h in H, and u(E) = b(E_H).  b(C_j) goes
    round P_0 and j more punctures, so counting the punctures each curve of
    u(E) encloses recovers H.  So v = b' X' with the same holes, X' = X as
    endomorphisms, and g = b^-1 b' fixes C_j for every j outside H.  The
    based step below shows that g then fixes e_j for every such j.  Since
    f(j) is never in H, v(e_j) = b g(e_{f(j)}) = b(e_{f(j)}) = u(e_j) for
    every j, so u = v.

    The based step.  Let g be a braid in s_1, ..., s_{N-2} that fixes C_j
    for every j in a set M holding every j from some m_0 up to N - 1, and
    let f_j = t_0 e_j, the loop round P_0 ... P_j.  Work in a disk D'
    bounded by a fixed curve C_{m'} (at first D itself, m' = N), with the
    base point on its boundary, which g fixes pointwise.  g fixes t_0,
    because g is supported in a disk that misses P_0.  Let m be the
    largest index of M below m'.  g preserves C_m, so g = h k T: h
    supported inside C_m, k in the annulus A between C_m and the boundary,
    and T a power of the twist along C_m.  For an arc a in A from the base
    point to C_m, k T sends a loop of G = pi_1(inside C_m) =
    <t_0, ..., t_m>, read through a, to its conjugate by W = k T(a) a^-1,
    and h(t_0) = w t_0 w^-1 with w in G.  So W w commutes with t_0, and W
    lies in G.  It also lies in pi_1(A) = <f_m> * <t_{m+1}, ..., t_{m'}>,
    whose meet with G is <f_m>.  So g(f_m) = W f_m W^-1 = f_m.  W = f_m^p
    is what the p-th power of the twist along C_m does to a; moved from T
    into h, that power leaves k T fixing a.  Then g acts on the loops
    inside C_m as h does, and h fixes t_0 and the boundary.  Repeat inside
    C_m down to the smallest index of M: g fixes f_j for every j in M, and
    filling P_0 turns f_j into e_j.  ``stabilizes_x_power`` runs this step
    for M = {m, m + 1, ...}.
"""

from __future__ import annotations

from itertools import chain, groupby
from operator import neg
from typing import Iterable

from .freegroup import BudgetError, Cmp, FWord, _reduced, _word, curve_cmp
from .words import Code, Generator, RWord, XLetterPresentError, _code


def _image(c: Code, ints: tuple[int, ...]) -> tuple[int, ...]:
    """The image of the reduced word ``ints`` under the letter with code ``c``."""
    if type(c) is tuple:  # x_i: the index map is monotone, so the image stays reduced
        i = c[0]
        return tuple([e + 1 if e >= i else e - 1 if e <= -i else e for e in ints])
    i = c if c > 0 else -c
    if i not in ints and -i not in ints:  # s_i^{+-1} fixes every e_j, j != i
        return ints
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
# the test suite builds has 455,687 letters.  ``coloring.color`` holds each
# of its colors to the same budget.
MAX_IMAGE_LETTERS = 1 << 20

# The letters that one ``apply_word``, one whole ``_images_cmp`` scan or one
# ``coloring.color`` may build, every intermediate image or color counted in
# full: the budget above bounds memory, this one the work, about a second of
# it.  The test suite and the CLI corpus image at most 3,686,500 letters in
# one scan: the circled depth-6 left-nested term, which the per-image budget
# stops.  A coloring's colors can grow and cancel again letter after letter,
# so only this budget bounds its time.  No coloring of the test suite, the
# CLI corpus or the benchmark's color queries that answers builds more than
# 31,488 letters in all, and the 18-pair word that the per-color budget
# stops builds 2,692,534.
MAX_SCAN_LETTERS = 1 << 25


class ImageBudgetError(BudgetError):
    """A free-group image or color grew past ``MAX_IMAGE_LETTERS``, or a scan
    or coloring built more than ``MAX_SCAN_LETTERS`` letters."""


def _total_budget_error() -> ImageBudgetError:
    """The error for work past ``MAX_SCAN_LETTERS``, in ``_imaged`` and ``coloring.color``."""
    return ImageBudgetError(
        f"free-group images of more than {MAX_SCAN_LETTERS} letters in all exceed the budget"
    )


def _imaged(codes: tuple[Code, ...], ints: tuple[int, ...], left: int) -> tuple[tuple[int, ...], int]:
    """The image of ``ints`` under the word with these codes, rightmost letter
    first, and ``left`` less the letters of every image built on the way.

    Raises ``ImageBudgetError`` as soon as an image has more than
    ``MAX_IMAGE_LETTERS`` letters or ``left`` falls below 0.
    """
    budget = MAX_IMAGE_LETTERS
    for c in reversed(codes):
        ints = _image(c, ints)
        size = len(ints)
        if size > budget:
            raise ImageBudgetError(
                f"free-group image of {size} letters exceeds the budget of {budget}"
            )
        left -= size
        if left < 0:
            raise _total_budget_error()
    return ints, left


def apply_word(w: RWord, u: FWord) -> FWord:
    """Apply a word letter by letter, rightmost letter first.

    Reads the word's letter codes and the image's ints through ``_imaged``,
    the loop ``_images_cmp`` runs too, and wraps the last image in an
    ``FWord`` once, under the budgets ``MAX_IMAGE_LETTERS`` and
    ``MAX_SCAN_LETTERS``.
    """
    return _word(_imaged(w.codes, u.ints, MAX_SCAN_LETTERS)[0])


def _tail_start(u: RWord, v: RWord) -> int:
    # Both words act as pure shifts by their xCounts from here on: letters
    # never touch e_j for j above every letter index, so one sample there
    # exposes differing shifts.
    return max(u.max_index(), v.max_index()) + 1


_TRIVIAL = (0, 1)


def _quotient_coords(u: RWord, v: RWord) -> dict[int, tuple[int, int]]:
    """Sparse Dynnikov coordinates of the braid u^-1 v, its codes read off u and v."""
    return _coords(tuple(chain(map(neg, reversed(u.codes)), v.codes)), 0)


def _coords(codes: tuple[Code, ...], xs: int) -> dict[int, tuple[int, int]]:
    """Sparse coordinates of w(E) for the word w with these codes, (0, 1) pairs dropped.

    Acts rightmost letter first, with every pair keyed by its index plus
    ``xs``, the number of x letters still to act: a braid run goes to
    ``_act`` shifted by ``xs`` and freely cancelled, and x_i doubles pair i
    by moving only the pairs below it (see the module docstring).  ``xs``
    starts at the number of x letters in ``codes`` or above it; a surplus
    raises every key by that much.  So ``xs`` = 0 means a braid word, and
    that is one run: one ``_act`` over ``_reduced(reversed(codes))``, with
    no grouping by letter kind.
    """
    coords: dict[int, tuple[int, int]] = {}
    runs = groupby(reversed(codes), type) if xs else [(int, reversed(codes))]
    for kind, run in runs:
        if kind is int:
            _act(coords, _reduced([g + xs if g > 0 else g - xs for g in run] if xs else run))
            continue
        for (i,) in run:
            xs -= 1
            top = i + xs  # the key of the lower twin
            below = range(xs + 2, top + 1) if i <= len(coords) else sorted(k for k in coords if k <= top)
            for k in below:
                if k in coords:
                    coords[k - 1] = coords.pop(k)
            a, b = coords.get(top + 1, _TRIVIAL)
            coords[top], coords[top + 1] = (a, b if b < 0 else 0), (a, b if b > 0 else 0)
    return {k: pair for k, pair in coords.items() if pair != _TRIVIAL}


def _act(coords: dict[int, tuple[int, int]], codes: Iterable[int]) -> None:
    """Act on ``coords`` in place by braid letter codes, in the order given.

    One update formula serves both signs.  The sign m of a code is the
    reflection of the module docstring: read x_i and x_{i+1} as m x_i and
    m x_{i+1}, run the s_i update, and write each new x times m.  Since
    m m = 1, the x written is the old x plus m times its s_i increment, and
    z reads m (x_i - x_{i+1}).
    """
    get = coords.get
    for g in codes:
        m = 1 if g > 0 else -1
        i = m * g
        a, b = get(i, _TRIVIAL)
        c, d = get(i + 1, _TRIVIAL)
        b_pos = b if b > 0 else 0
        b_neg = b - b_pos
        d_pos = d if d > 0 else 0
        d_neg = d - d_pos
        z = m * (a - c) - b_neg + d_pos
        z_pos = z if z > 0 else 0
        t = d_pos - z
        coords[i] = (a + m * (b_pos + (t if t > 0 else 0)), d - z_pos)
        t = b_neg + z
        coords[i + 1] = (c + m * (d_neg + (t if t < 0 else 0)), b + z_pos)


def morphism_eq(u: RWord, v: RWord) -> bool:
    """Semantic equality in R: u = v iff u(E) and v(E) have the same coordinates.

    Two braid words are equal iff the coordinates of u^-1 v are empty, read
    by ``_quotient_coords`` in one pass, whose free cancellation removes a
    common prefix.  Otherwise the longest common prefix of the two code
    tuples is cut first; its x letters stay in both offsets.  The module
    docstring proves the rule.
    """
    if u.is_braid() and v.is_braid():
        return not _quotient_coords(u, v)
    a, b = u.codes, v.codes
    n = next((k for k, (p, q) in enumerate(zip(a, b)) if p != q), min(len(a), len(b)))
    return _coords(a[n:], u.xs) == _coords(b[n:], v.xs)


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
    """The order by images: ``cmp_L`` on words with an x letter, and the tests' oracle.

    Scans n = 1, 2, ... and compares the images of e_n in the curve order at
    the first n where they differ.  Each index builds at least one image
    letter per word, so a scan over more than ``MAX_IMAGE_LETTERS`` indices
    raises ``ImageBudgetError`` before it starts; a scan that images more
    than ``MAX_SCAN_LETTERS`` letters in all raises it when it gets there.
    """
    top = _tail_start(u, v)
    if top > MAX_IMAGE_LETTERS:
        raise ImageBudgetError(
            f"image scan over {top} indices exceeds the budget of {MAX_IMAGE_LETTERS} letters"
        )
    left = MAX_SCAN_LETTERS
    for n in range(1, top + 1):
        iu, left = _imaged(u.codes, (n,), left)
        iv, left = _imaged(v.codes, (n,), left)
        if iu != iv:
            return curve_cmp(_word(iu), _word(iv))
    return Cmp.EQUAL


def stabilizes_x_power(g: RWord, m: int) -> bool:
    """Whether g x_1^{m-1} = x_1^{m-1} in R, i.e. g fixes e_j for all j >= m.

    Precondition: g is a braid word.  This is the membership criterion for
    B_m used to separate equal circle-compositions of braids.  It holds
    exactly when every key of the Dynnikov coordinates of g is at most m
    ("keys <= m"), so no free-group image is computed, and m may be too
    large to build x_1^{m-1}.  For m = 1 it reads g = e, so there keys <= 1
    holds exactly when the coordinates are empty.  The rule is the case
    H = {1..m-1} of the general one that ``morphism_eq`` uses; this reads
    it off g's own coordinates.

    Proof, in the model of the module docstring, with N >= max(m, largest
    index of g) + 2.  g is supported in a disk U round P_1 ... P_{N-1}
    that misses P_0, P_N and the vertical arcs l_0 and l_{N-1}.  With
    curves round the right-hand punctures instead of E, a twist round
    P_1 ... P_N would fix them and the action would not be faithful.  The
    coordinates of g are those of g(E).  With the base point on the left
    edge of U, e_j is the loop round P_1 ... P_j, and the arc in which C_j
    crosses U is that loop pushed off the base point.

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
      of P_0 ... P_k, which makes it C_k.  So g fixes C_m, ..., C_{N-1},
      and the based step of the module docstring, with
      M = {m, ..., N - 1}, gives g(e_j) = e_j for every j >= m.
    - B_m lies on both sides, as it must: s_1 ... s_{m-1} touch only
      pairs 1..m and change only e_1, ..., e_{m-1}.
    """
    if not g.is_braid():
        raise XLetterPresentError("stabilizes_x_power needs a braid word")
    if m < 1:
        raise ValueError("m must be >= 1")
    return all(k <= m for k in _coords(g.codes, 0))
