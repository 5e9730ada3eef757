import pickle

import pytest
from hypothesis import assume, given, strategies as st

from shrinkbraid import coloring, representation
from shrinkbraid import (
    ColoredMorphism,
    InvalidStrandIndexError,
    RankMismatchError,
    RWord,
    braid_inverse,
    color,
    compose_colored,
    parse_rword,
    sigma,
    sigma_inv,
    x,
)
from shrinkbraid.freegroup import FWord, finv, fmul, parse_fword
from shrinkbraid.words import Kind

from conftest import random_braid


def fw(text: str) -> FWord:
    return parse_fword(text)


def reference_color(w: RWord, n_top: int) -> ColoredMorphism:
    """``color`` computed on ``FWord`` colors with ``fmul`` and ``finv``."""
    colors = [FWord.generator(k) for k in range(1, n_top + 1)]
    for g in w.letters:
        i = g.index
        if i + 1 > len(colors):
            raise InvalidStrandIndexError(f"letter {g} needs strands {i},{i + 1}")
        left, right = colors[i - 1], colors[i]
        if g.kind is Kind.SIGMA:
            colors[i - 1 : i + 1] = [fmul(fmul(left, right), finv(left)), left]
        elif g.kind is Kind.SIGMA_INV:
            colors[i - 1 : i + 1] = [right, fmul(fmul(finv(right), left), right)]
        else:
            colors[i - 1 : i + 1] = [fmul(left, right)]
    return ColoredMorphism(len(colors), n_top, tuple(colors))


@st.composite
def multi_braids(draw) -> tuple[RWord, int]:
    """A word valid on n_top strands, 1 <= n_top <= 8, of s, s^-1 and x letters.

    A drawn pair flag follows a crossing with its inverse, so adjacent
    cancelling pairs occur.
    """
    n_top = draw(st.integers(1, 8))
    strands = n_top
    letters = []
    spec = st.tuples(st.sampled_from("sSx"), st.integers(0, 7), st.booleans())
    for kind, raw, pair in draw(st.lists(spec, max_size=16)):
        if strands < 2:
            break
        i = 1 + raw % (strands - 1)
        if kind == "x":
            letters.append(x(i))
            strands -= 1
            continue
        first, second = (sigma, sigma_inv) if kind == "s" else (sigma_inv, sigma)
        letters.append(first(i))
        if pair:
            letters.append(second(i))
    return RWord(letters), n_top


class TestAgainstReference:
    @given(multi_braids())
    def test_matches_free_group_coloring(self, case):
        w, n_top = case
        assert color(w, n_top) == reference_color(w, n_top)

    def test_long_braid_matches(self, rng):
        for _ in range(20):
            b = random_braid(rng, max_len=24, max_index=4)
            assert color(b, 5) == reference_color(b, 5)


class TestRawMorphism:
    """``color`` builds its morphism without the constructor's check; it must pass that check."""

    @given(multi_braids())
    def test_equals_the_checked_rebuild(self, case):
        w, n_top = case
        morphism = color(w, n_top)
        rebuilt = ColoredMorphism(morphism.source_rank, morphism.target_rank, morphism.images)
        assert type(morphism) is ColoredMorphism and morphism.target_rank == n_top
        assert morphism == rebuilt and hash(morphism) == hash(rebuilt) and repr(morphism) == repr(rebuilt)

    @given(multi_braids())
    def test_refuses_assignment_and_pickles(self, case):
        w, n_top = case
        assume(w.xs)
        morphism = color(w, n_top)
        for name in ColoredMorphism.__slots__:
            with pytest.raises(AttributeError):
                setattr(morphism, name, 1)
            with pytest.raises(AttributeError):
                delattr(morphism, name)
        copy = pickle.loads(pickle.dumps(morphism))
        assert copy == morphism and copy.images == morphism.images == color(w, n_top).images


class TestColorBasics:
    def test_positive_crossing(self):
        morphism = color(parse_rword("s1"), 2)
        assert morphism.images == (fw("e1 e2 e1^-1"), fw("e1"))
        assert morphism.source_rank == 2 and morphism.target_rank == 2

    def test_merge(self):
        morphism = color(parse_rword("x1"), 2)
        assert morphism.images == (fw("e1 e2"),)
        assert morphism.source_rank == 1

    def test_empty_word_is_identity(self):
        assert color(RWord.identity(), 4) == ColoredMorphism.identity_on(4)

    def test_value_semantics(self):
        morphism = color(parse_rword("s1 x1"), 2)
        same = ColoredMorphism(1, 2, (fw("e1 e2"),))
        assert morphism == same and hash(morphism) == hash(same)
        assert morphism != ColoredMorphism.identity_on(1)
        assert morphism != (1, 2, morphism.images)
        assert repr(morphism) == "ColoredMorphism(source_rank=1, target_rank=2, images=(FWord('e1 e2'),))"
        assert pickle.loads(pickle.dumps(morphism)) == morphism

    def test_fields_are_read_only(self):
        morphism = ColoredMorphism.identity_on(2)
        for name in ("source_rank", "target_rank", "images"):
            with pytest.raises(AttributeError):
                setattr(morphism, name, 1)
            with pytest.raises(AttributeError):
                delattr(morphism, name)
        assert morphism == ColoredMorphism.identity_on(2)

    def test_constructor_checks(self):
        with pytest.raises(ValueError, match="one image per source generator required"):
            ColoredMorphism(2, 2, (fw("e1"),))
        with pytest.raises(ValueError, match="image uses generators beyond the target rank"):
            ColoredMorphism(1, 1, (fw("e2"),))

    def test_strand_bookkeeping(self):
        morphism = color(parse_rword("x1 x1"), 3)
        assert morphism.source_rank == 3 - 2

    def test_invalid_strand(self):
        with pytest.raises(InvalidStrandIndexError):
            color(parse_rword("s3"), 2)
        with pytest.raises(InvalidStrandIndexError):
            color(parse_rword("x1 s2"), 3)  # only 2 strands left after the merge

    def test_strand_budget(self, monkeypatch):
        monkeypatch.setattr(coloring, "MAX_STRANDS", 4)
        assert color(parse_rword("s3"), 4).source_rank == 4
        with pytest.raises(coloring.StrandBudgetError):
            color(RWord.identity(), 5)
        assert issubclass(coloring.StrandBudgetError, ValueError)

    def test_image_budget(self, monkeypatch):
        w = parse_rword("s1 s2^-1 " * 8)
        prefixes = [RWord(w.letters[:k]) for k in range(len(w) + 1)]
        longest = max(len(image) for p in prefixes for image in color(p, 3).images)
        monkeypatch.setattr(representation, "MAX_IMAGE_LETTERS", longest)
        assert color(w, 3) == reference_color(w, 3)
        monkeypatch.setattr(representation, "MAX_IMAGE_LETTERS", longest - 1)
        with pytest.raises(representation.ImageBudgetError, match=f"the budget of {longest - 1}$"):
            color(w, 3)

    @staticmethod
    def built_letters(w: RWord, n_top: int) -> int:
        """The letters of every color ``color`` builds on ``w``, from its prefixes."""
        total = 0
        for k, g in enumerate(w.letters):
            images = reference_color(RWord(w.letters[: k + 1]), n_top).images
            total += len(images[g.index if g.kind is Kind.SIGMA_INV else g.index - 1])
        return total

    @pytest.mark.parametrize("text, n_top", [
        ("s1 s2^-1 " * 4 + "s1 s1^-1 x1 s1^-1", 3),
        ("s2 s1^-1 x2 s1 s1^-1 s1", 4),
    ])
    def test_total_budget_edge(self, monkeypatch, text, n_top):
        w = parse_rword(text)
        total = self.built_letters(w, n_top)
        monkeypatch.setattr(representation, "MAX_SCAN_LETTERS", total)
        assert color(w, n_top) == reference_color(w, n_top)
        monkeypatch.setattr(representation, "MAX_SCAN_LETTERS", total - 1)
        with pytest.raises(representation.ImageBudgetError) as info:
            color(w, n_top)
        assert str(info.value) == (
            f"free-group images of more than {total - 1} letters in all exceed the budget"
        )


class TestRecoloringRules:
    def test_inverse_crossing_undoes_positive(self):
        for word in ("s1 s1^-1", "s1^-1 s1", "s2 s2^-1"):
            assert color(parse_rword(word), 3) == ColoredMorphism.identity_on(3)

    def test_braid_colorings_invert(self, rng):
        for _ in range(40):
            b = random_braid(rng, max_len=6, max_index=3)
            forward = color(b, 4)
            backward = color(braid_inverse(b), 4)
            assert compose_colored(forward, backward) == ColoredMorphism.identity_on(4)
            assert compose_colored(backward, forward) == ColoredMorphism.identity_on(4)

    def test_pants_relation_one(self):
        assert color(parse_rword("s1 x1"), 2) == color(parse_rword("x1"), 2)

    def test_pants_relation_two(self):
        assert color(parse_rword("x2 x1"), 3) == color(parse_rword("x1 x1"), 3)

    def test_braid_relation(self):
        assert color(parse_rword("s1 s2 s1"), 3) == color(parse_rword("s2 s1 s2"), 3)


class TestComposition:
    def test_identity_neutral(self):
        morphism = color(parse_rword("s1 x2"), 3)
        top_identity = ColoredMorphism.identity_on(3)
        bottom_identity = ColoredMorphism.identity_on(morphism.source_rank)
        assert compose_colored(top_identity, morphism) == morphism
        assert compose_colored(morphism, bottom_identity) == morphism

    def test_contravariant_stacking(self, rng):
        for _ in range(40):
            n = 4
            u = random_braid(rng, max_len=4, max_index=n - 1)
            merges = RWord([x(rng.randint(1, n - 1))])
            v = merges * random_braid(rng, max_len=3, max_index=n - 2)
            stacked = color(u * v, n)
            composed = compose_colored(color(u, n), color(v, color(u, n).source_rank))
            assert stacked == composed

    def test_rank_mismatch(self):
        f = color(parse_rword("x1"), 3)  # F_2 -> F_3
        g = color(parse_rword("s1"), 3)  # F_3 -> F_3
        with pytest.raises(RankMismatchError):
            compose_colored(f, g)  # rank-3 images cannot feed a rank-2 source

    def test_apply_checks_rank(self):
        morphism = color(parse_rword("x1"), 2)
        with pytest.raises(ValueError):
            morphism.apply(fw("e2"))


class TestRelationSoundnessUnderColoring:
    @pytest.mark.parametrize("i", range(1, 5))
    def test_cross_relations(self, i):
        for n in range(i + 2, 9):
            assert color(RWord([x(i + 1), sigma(i)]), n) == color(
                RWord([sigma(i), sigma(i + 1), x(i)]), n
            )
            assert color(RWord([x(i), sigma(i)]), n) == color(
                RWord([sigma(i + 1), sigma(i), x(i + 1)]), n
            )

    def test_thompson_relation(self):
        for n in range(5, 9):
            assert color(RWord([x(1), x(3)]), n) == color(RWord([x(4), x(1)]), n)
            assert color(RWord([x(1), sigma(3)]), n) == color(RWord([sigma(4), x(1)]), n)
