"""Braid coloring: multi-braid words as morphisms between free groups.

A word on n top strands is processed top to bottom (leftmost letter first).
Strands start colored with the free generators (e_1, ..., e_n); each letter
recolors the current strand configuration:

    s_i:    (g, h) at i, i+1  ->  (g h g^-1, g)
    s_i^-1: (g, h) at i, i+1  ->  (h, h^-1 g h)     (two-sided inverse of s_i)
    x_i:    merge i, i+1 into the single color g h  (strand count drops by 1)

A word ending with m strands induces the morphism F_m -> F_n sending the
k-th generator to the k-th final color; stacking words composes morphisms by
substitution, contravariantly.

``color`` reads the word's letter codes (``words``) and keeps each color as
a bare reduced tuple of signed ints (e_k is k, e_k^-1 is -k), multiplied and
inverted by the free-group tuple kernels ``_mul`` and ``_inv``; each final
color is wrapped in an ``FWord`` once, so there is no decode step and no
word object per letter.  The morphism is built raw, as ``freegroup._word``
builds a word: ``object.__new__`` and ``_Frozen.__init__``, without the
public constructor's scan of every color by ``max_index``.  No check is
lost: each color is a product of e_1, ..., e_{n_top} and their inverses,
and there is one color per strand left.  ``ColoredMorphism.apply``, and so
``compose_colored``, folds ``_mul`` the same way.  Colors share the
free-group image budgets of ``representation``: once a letter makes a color
longer than ``MAX_IMAGE_LETTERS``, or the colors built so far, each counted
in full, add up to more than ``MAX_SCAN_LETTERS``, ``color`` raises the
``representation.ImageBudgetError`` that ``representation._over_budget``
builds, after the one test of both budgets that ``_imaged`` makes too.
Cancelling letters keep every color short while the work goes on, so only
the total bounds the time.

The representation is the oracle of ``color``.  Let flip(w) be w with
every braid letter inverted and the x letters kept, write t_j for the
j-th generator of the colors, and let P_k be apply_word(flip(w), e_k)
with each e_j rewritten as t_1 ... t_j, and P_0 = 1.  Then the k-th
color of color(w, n) is P_{k-1}^-1 P_k.  Proof: follow the prefix
products P_k = c_1 ... c_k of the colors c_1, c_2, ... as the letters are
read, left to right.  At the start c_j = t_j, so P_j is the rewrite of
e_j.  With (g, h) the colors at i, i + 1:

- s_i gives (g h g^-1, g), so P_i becomes P_{i-1} g h g^-1, which is
  P_{i+1} P_i^-1 P_{i-1}, and every other P_j stays: the substitution
  e_i -> e_{i+1} e_i^-1 e_{i-1}, the image of e_i under s_i^-1;
- s_i^-1 gives (h, h^-1 g h), so P_i becomes P_{i-1} h, which is
  P_{i-1} P_i^-1 P_{i+1}, the image of e_i under s_i;
- x_i merges g and h into g h, so P_j becomes P_{j+1} for j >= i, the
  image of e_j under x_i.

So the prefix products after a letter a are those before it composed
with the endomorphism of flip(a): after the letters a_1 ... a_r, P_j is
the rewrite of flip(a_1)( ... flip(a_r)(e_j) ... ), which is
apply_word(flip(w), e_j), rightmost letter first.  A letter at strands
i, i + 1 reads only P_{i-1}, P_i and P_{i+1}, all within the strands at
its height, so no e_j past the n top strands is ever read.  The flip is
``freegroup.psi``'s conjugation, psi s_i psi = s_i^-1 and
psi x_i psi = x_i on F_oo, so words equal in R
(``representation.morphism_eq``) have equal flips, hence equal colors
whenever both color on n strands: that is the color clause of criterion 1
of ``tests/test_acceptance.py``.  The tests check ``color`` against this
identity through ``apply_word``; ``color`` keeps its own kernel, which is
faster than rewriting images.
"""

from __future__ import annotations

from . import representation
from .freegroup import BudgetError, DomainError, FWord, _Frozen, _int_at_least, _inv, _mul, _word
from .words import RWord, _text


class InvalidStrandIndexError(DomainError):
    """A letter addressed a strand pair that does not exist at its height."""


class RankMismatchError(DomainError):
    """Composition of colored morphisms with incompatible ranks."""


# Colors and output grow with the strand count whatever the word: 65,536
# strands color and print in about 0.5 s, 3,000,000 would take about 20 s.
MAX_STRANDS = 1 << 16


class StrandBudgetError(BudgetError):
    """A coloring asked for more than ``MAX_STRANDS`` top strands."""


class ColoredMorphism(_Frozen):
    """Images of the source generators as words over the target generators.

    Immutable: the ranks and the images are fixed at construction.
    """

    __slots__ = ("source_rank", "target_rank", "images")

    def __init__(self, source_rank: int, target_rank: int, images: tuple[FWord, ...]):
        if len(images) != source_rank:
            raise ValueError("one image per source generator required")
        for image in images:
            if image.max_index() > target_rank:
                raise ValueError("image uses generators beyond the target rank")
        super().__init__(source_rank, target_rank, images)

    def apply(self, w: FWord) -> FWord:
        """Substitute source generators by their images."""
        out: tuple[int, ...] = ()
        for g in w.ints:
            index = abs(g)
            if index > self.source_rank:
                raise ValueError(f"letter index {index} beyond source rank")
            image = self.images[index - 1].ints
            out = _mul(out, image if g > 0 else _inv(image))
        return _word(out)

    @staticmethod
    def identity_on(n: int) -> "ColoredMorphism":
        return ColoredMorphism(n, n, tuple(FWord.generator(k) for k in range(1, n + 1)))


def color(w: RWord, n_top: int) -> ColoredMorphism:
    """Color a multi-braid word starting from n_top strands."""
    n_top = _int_at_least(n_top, 1, "need at least one strand")
    if n_top > MAX_STRANDS:
        raise StrandBudgetError(f"{n_top} strands exceed the budget of {MAX_STRANDS}")
    budget, room = representation.MAX_IMAGE_LETTERS, representation.MAX_SCAN_LETTERS
    colors = [(k,) for k in range(1, n_top + 1)]
    for c in w.codes:
        i = c[0] if type(c) is tuple else c if c > 0 else -c
        if i >= len(colors):
            raise InvalidStrandIndexError(
                f"letter {_text(c)} needs strands {i},{i + 1} but only {len(colors)} remain"
            )
        left, right = colors[i - 1], colors[i]
        if type(c) is tuple:
            grown = _mul(left, right)
            colors[i - 1 : i + 1] = [grown]
        elif c > 0:
            colors[i - 1] = grown = _mul(_mul(left, right), _inv(left))
            colors[i] = left
        else:
            colors[i - 1] = right
            colors[i] = grown = _mul(_mul(_inv(right), left), right)
        size = len(grown)
        room -= size
        if size > budget or room < 0:
            raise representation._over_budget(size, "color")
    morphism = object.__new__(ColoredMorphism)  # raw: every color is a word in e_1..e_{n_top}
    _Frozen.__init__(morphism, len(colors), n_top, tuple([_word(c) for c in colors]))
    return morphism


def compose_colored(f: ColoredMorphism, g: ColoredMorphism) -> ColoredMorphism:
    """Substitution composite: g's images rewritten through f.

    For stacked words u (on top, colored by f) and v (below, colored by g
    from f's source rank), this equals color(u v, n): contravariance.
    """
    if g.target_rank != f.source_rank:
        raise RankMismatchError(
            f"cannot feed rank-{g.target_rank} images into a rank-{f.source_rank} source"
        )
    return ColoredMorphism(
        g.source_rank, f.target_rank, tuple(f.apply(image) for image in g.images)
    )
