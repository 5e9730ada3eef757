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
in full, add up to more than ``MAX_SCAN_LETTERS``, ``color`` raises
``representation.ImageBudgetError``.  Cancelling letters keep every color
short while the work goes on, so only the total bounds the time.
"""

from __future__ import annotations

from . import representation
from .freegroup import BudgetError, DomainError, FWord, _Frozen, _inv, _mul, _word
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
    if n_top < 1:
        raise ValueError("need at least one strand")
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
        if size > budget:
            raise representation.ImageBudgetError(f"color of {size} letters exceeds the budget of {budget}")
        room -= size
        if room < 0:
            raise representation._total_budget_error()
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
