import random
import time

import pytest
from hypothesis import given, strategies as st

from shrinkbraid import (
    Cmp,
    Kind,
    RWord,
    XLetterPresentError,
    apply_gen,
    apply_word,
    braid_inverse,
    cmp_L,
    morphism_eq,
    parse_rword,
    sigma,
    sigma_inv,
    stabilizes_x_power,
    x,
)
from shrinkbraid.freegroup import FLetter, FWord, parse_fword, reduce
from shrinkbraid.words import _RELATIONS, Generator, _code, apply_relation, sx_decompose
from shrinkbraid import representation
from shrinkbraid.representation import (
    ImageBudgetError,
    _act,
    _coords,
    _images_cmp,
    _quotient_coords,
    _tail_start,
)

from conftest import (
    gen_act,
    gen_quotient_coords,
    letter_apply_gen,
    random_braid,
    random_rplus,
    random_sigma1_positive,
    with_cancelling_pairs,
)


def fw(text: str) -> FWord:
    return parse_fword(text)


def egen(n: int) -> FWord:
    return FWord((FLetter(n, 1),))


def apply_word_leftmost(w: RWord, u: FWord) -> FWord:
    # The rejected composition convention, kept only to demonstrate failure.
    for g in w.letters:
        u = apply_gen(g, u)
    return u


class TestGeneratorImages:
    def test_sigma_on_own_index(self):
        assert apply_gen(sigma(1), fw("e1")) == fw("e1^-1 e2")
        assert apply_gen(sigma(2), fw("e2")) == fw("e1 e2^-1 e3")

    def test_sigma_fixes_others(self):
        for j in (1, 3, 4):
            assert apply_gen(sigma(2), egen(j)) == egen(j)

    def test_x_shifts_from_its_index(self):
        assert apply_gen(x(2), fw("e3")) == fw("e4")
        assert apply_gen(x(2), fw("e1")) == fw("e1")

    def test_sigma_inverse_image(self):
        # Derived image: the unique word v with s_1(v) = e_1.
        assert apply_gen(sigma_inv(1), fw("e1")) == fw("e2 e1^-1")
        assert apply_gen(sigma(1), apply_gen(sigma_inv(1), fw("e1"))) == fw("e1")

    @pytest.mark.parametrize("kind", list(Kind))
    def test_refuses_an_index_below_1(self, kind):
        with pytest.raises(ValueError, match="generator index must be >= 1"):
            apply_gen(Generator(kind, 0), fw("e1"))

    @pytest.mark.parametrize("i", range(1, 6))
    def test_two_sided_inverse_on_generators(self, i):
        for j in range(1, 21):
            assert apply_gen(sigma(i), apply_gen(sigma_inv(i), egen(j))) == egen(j)
            assert apply_gen(sigma_inv(i), apply_gen(sigma(i), egen(j))) == egen(j)

    def test_substitutes_through_words(self):
        image = apply_gen(sigma(1), fw("e1 e2 e1^-1"))
        assert image == reduce(
            list(fw("e1^-1 e2").letters)
            + list(fw("e2").letters)
            + list(fw("e2^-1 e1").letters)
        )


fletters = st.lists(st.tuples(st.integers(1, 7), st.sampled_from((1, -1))), max_size=12)
generators = st.builds(
    lambda kind, i: kind(i), st.sampled_from((sigma, sigma_inv, x)), st.integers(1, 6)
)


class TestApplyGenAgainstReference:
    """``apply_gen`` on signed ints against the FLetter reference code."""

    @given(generators, fletters)
    def test_matches_reference(self, g, pairs):
        w = reduce(FLetter(i, s) for i, s in pairs)
        assert apply_gen(g, w).letters == letter_apply_gen(g, w.letters)

    @pytest.mark.parametrize("make", [sigma, sigma_inv])
    def test_index_one_drops_e0(self, make):
        w = fw("e1 e2 e1^-1 e1^-1 e3")
        image = apply_gen(make(1), w)
        assert image.letters == letter_apply_gen(make(1), w.letters)
        assert all(let.index >= 1 for let in image.letters)


def reference_apply_word(w: RWord, u: FWord) -> tuple[FLetter, ...]:
    """``apply_word`` as a fold of the FLetter reference over Generator letters."""
    letters = u.letters
    for g in reversed(w.letters):
        letters = letter_apply_gen(g, letters)
    return letters


class TestImageFastPath:
    """s_i^{+-1} fixes every e_j with j != i, so ``_image`` returns a word
    without e_i as it is; against the full substitution of the reference."""

    @given(st.integers(1, 6), st.sampled_from((sigma, sigma_inv)), fletters)
    def test_matches_the_full_substitution(self, i, make, pairs):
        g = make(i)
        u = reduce(FLetter(j, s) for j, s in pairs)
        assert apply_gen(g, u).letters == letter_apply_gen(g, u.letters)
        w = reduce(FLetter(j, s) for j, s in pairs if j != i)
        assert representation._image(_code(g), w.ints) is w.ints
        assert w.letters == letter_apply_gen(g, w.letters)


class TestApplyWordAgainstReference:
    """The scan on letter codes against the Generator-by-Generator fold."""

    @given(st.lists(generators, max_size=6).map(RWord), fletters)
    def test_matches_reference(self, w, pairs):
        u = reduce(FLetter(i, s) for i, s in pairs)
        assert apply_word(w, u).letters == reference_apply_word(w, u)

    @pytest.mark.parametrize("text", ["s1", "s1^-1", "s1 s1", "x1 s1^-1 s2", "s2 s1^-1 x1 s1"])
    def test_index_one_drops_e0(self, text):
        w = parse_rword(text)
        for u in (fw("e1"), fw("e1^-1 e2 e1"), fw("e2 e1 e1 e3^-1")):
            image = apply_word(w, u)
            assert image.letters == reference_apply_word(w, u)
            assert all(let.index >= 1 for let in image.letters)


class TestImageBudget:
    def test_apply_word_raises_past_budget(self, monkeypatch):
        w = parse_rword("s1 s2^-1 " * 6)
        assert len(apply_word(w, egen(1))) > 64
        monkeypatch.setattr(representation, "MAX_IMAGE_LETTERS", 64)
        with pytest.raises(ImageBudgetError):
            apply_word(w, egen(1))
        assert apply_word(parse_rword("s1"), egen(1)) == fw("e1^-1 e2")

    def test_cmp_L_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(representation, "MAX_IMAGE_LETTERS", 64)
        w = parse_rword("s1 s2^-1 " * 6 + "x1")
        with pytest.raises(ImageBudgetError):
            cmp_L(w, parse_rword("x1"))

    def test_scan_past_budget_raises_before_it_starts(self, monkeypatch):
        # x9 scans indices 1..10, one image letter each; x10 scans 11.
        monkeypatch.setattr(representation, "MAX_IMAGE_LETTERS", 10)
        assert _images_cmp(parse_rword("x9"), parse_rword("x9")) is Cmp.EQUAL
        assert morphism_eq(parse_rword("x9 s1"), parse_rword("s1 x9"))
        monkeypatch.setattr(representation, "apply_word", None)  # no index is scanned
        for u, v in [("x10", "x10"), ("s10", "x1 x2"), ("x2", "s9 s10")]:
            with pytest.raises(ImageBudgetError, match="image scan over 11 indices"):
                _images_cmp(parse_rword(u), parse_rword(v))
        assert morphism_eq(parse_rword("x10"), parse_rword("x10"))  # coordinates, no scan
        with pytest.raises(ImageBudgetError):
            cmp_L(parse_rword("x10"), parse_rword("x10"))


class TestScanBudget:
    """Every letter that ``apply_word`` or a whole ``_images_cmp`` scan images
    counts against ``MAX_SCAN_LETTERS``: exactly the total a call images
    answers, one letter less raises."""

    @staticmethod
    def imaged(monkeypatch, call):
        """What ``call()`` returns and the letters of every image it built."""
        image, sizes = representation._image, []

        def counting(c, ints):
            out = image(c, ints)
            sizes.append(len(out))
            return out

        monkeypatch.setattr(representation, "_image", counting)
        answer = call()
        monkeypatch.setattr(representation, "_image", image)
        return answer, sum(sizes)

    def check_edge(self, monkeypatch, call):
        answer, total = self.imaged(monkeypatch, call)
        monkeypatch.setattr(representation, "MAX_SCAN_LETTERS", total)
        assert call() == answer
        monkeypatch.setattr(representation, "MAX_SCAN_LETTERS", total - 1)
        with pytest.raises(ImageBudgetError) as info:
            call()
        assert str(info.value) == (
            f"free-group images of more than {total - 1} letters in all exceed the budget"
        )

    @pytest.mark.parametrize("u, v", [
        ("s1 s2^-1 s1 s2^-1 x1", "x1"),
        ("x2 s1 s3", "s1 x2 s3^-1"),
        ("x1 x3 s2", "x1 x3 s2"),
    ])
    def test_scan_edge(self, monkeypatch, u, v):
        u, v = parse_rword(u), parse_rword(v)
        self.check_edge(monkeypatch, lambda: _images_cmp(u, v))

    def test_apply_word_edge(self, monkeypatch):
        w = parse_rword("s1 s2^-1 " * 4 + "x1 s3")
        self.check_edge(monkeypatch, lambda: apply_word(w, fw("e1 e3^-1")))

    def test_seeded_3000_letter_pair_stops_on_the_budget(self):
        # No single image of this scan passes MAX_IMAGE_LETTERS for minutes;
        # the total budget ends it in about a second.
        rnd = random.Random(1)
        u, v = _random_r_word(rnd, 3000), _random_r_word(rnd, 3000)
        start = time.monotonic()
        with pytest.raises(ImageBudgetError, match="letters in all exceed the budget"):
            cmp_L(u, v)
        assert time.monotonic() - start < 20


class TestCompositionConvention:
    def test_rightmost_first(self):
        assert apply_word(RWord.identity(), fw("e1 e2")) == fw("e1 e2")
        assert apply_word(parse_rword("x2 x1"), egen(1)) == fw("e3")
        assert apply_word(parse_rword("x1 x1"), egen(1)) == fw("e3")

    @pytest.mark.parametrize("j", range(1, 11))
    def test_relation_one_under_convention(self, j):
        assert apply_word(parse_rword("s1 x1"), egen(j)) == apply_word(
            parse_rword("x1"), egen(j)
        )

    @pytest.mark.parametrize("i", range(1, 7))
    def test_relation_three_on_ei(self, i):
        lhs = RWord([x(i + 1), sigma(i)])
        rhs = RWord([sigma(i), sigma(i + 1), x(i)])
        expected = reduce(
            [FLetter(i - 1, 1), FLetter(i, -1), FLetter(i + 2, 1)]
        )
        assert apply_word(lhs, egen(i)) == expected
        assert apply_word(rhs, egen(i)) == expected

    def test_leftmost_first_fails_relation_one(self):
        lhs = apply_word_leftmost(parse_rword("s1 x1"), egen(1))
        rhs = apply_word_leftmost(parse_rword("x1"), egen(1))
        assert lhs != rhs


class TestRelationSoundness:
    def test_all_relations(self, rng):
        pairs = []
        for i in range(1, 9):
            pairs.append((RWord([sigma(i), x(i)]), RWord([x(i)])))
            pairs.append((RWord([x(i + 1), x(i)]), RWord([x(i), x(i)])))
            pairs.append((RWord([x(i + 1), sigma(i)]), RWord([sigma(i), sigma(i + 1), x(i)])))
            pairs.append((RWord([x(i), sigma(i)]), RWord([sigma(i + 1), sigma(i), x(i + 1)])))
            for j in range(i + 1, 9):
                pairs.append((RWord([x(i), x(j)]), RWord([x(j + 1), x(i)])))
                pairs.append((RWord([x(i), sigma(j)]), RWord([sigma(j + 1), x(i)])))
            for k in range(1, i - 1):
                pairs.append((RWord([x(i), sigma(k)]), RWord([sigma(k), x(i)])))
            pairs.append(
                (RWord([sigma(i), sigma(i + 1), sigma(i)]),
                 RWord([sigma(i + 1), sigma(i), sigma(i + 1)]))
            )
            for j in range(i + 2, 9):
                pairs.append((RWord([sigma(i), sigma(j)]), RWord([sigma(j), sigma(i)])))
        for lhs, rhs in pairs:
            assert morphism_eq(lhs, rhs), f"{lhs} != {rhs}"

    def test_images_agree_on_first_twenty_generators(self):
        # Spot-check the tail fact behind morphism_eq on a long window.
        pairs = [
            (parse_rword("s1 x1"), parse_rword("x1")),
            (parse_rword("x2 x1"), parse_rword("x1 x1")),
            (parse_rword("x2 s1"), parse_rword("s1 s2 x1")),
            (parse_rword("s2 s3 s2"), parse_rword("s3 s2 s3")),
        ]
        for lhs, rhs in pairs:
            for j in range(1, 21):
                assert apply_word(lhs, egen(j)) == apply_word(rhs, egen(j))


class TestStabilization:
    def test_formula_values(self):
        assert _tail_start(RWord.identity(), RWord.identity()) == 1
        assert _tail_start(parse_rword("x3"), parse_rword("x3")) == 4

    def test_bound_dominates_tail(self, rng):
        # From the tail start on, both words act as pure shifts.
        for _ in range(40):
            u, v = random_rplus(rng), random_rplus(rng)
            start = _tail_start(u, v)
            for w in (u, v):
                for j in range(start, start + 4):
                    assert apply_word(w, egen(j)) == egen(j + w.x_count())


class TestMorphismEq:
    def test_braid_relation(self):
        assert morphism_eq(parse_rword("s1 s2 s1"), parse_rword("s2 s1 s2"))

    def test_distinguishes(self):
        assert not morphism_eq(parse_rword("s1"), parse_rword("x1"))

    def test_reflexive(self, rng):
        for _ in range(20):
            w = random_rplus(rng)
            assert morphism_eq(w, w)

    def test_detects_differing_shift(self):
        assert not morphism_eq(parse_rword("x1"), parse_rword("x1 x1"))

    def test_free_cancellation(self):
        assert morphism_eq(parse_rword("s1 s1^-1"), RWord.identity())


class TestCmpL:
    def test_identity_below_sigma1(self):
        assert cmp_L(RWord.identity(), parse_rword("s1")) is Cmp.LESS

    def test_identity_against_x1(self):
        # Forced complement of the Dehornoy anchor: with sigma_1-positive
        # words above the identity, x-words fall below it (their first
        # disagreeing images are e_2 vs e_1, the same root cell that ranks
        # s_1^-1-images below e_1).
        assert cmp_L(RWord.identity(), parse_rword("x1")) is Cmp.GREATER

    def test_x2_against_x1(self):
        # First differing image: x2(e1) = e1 vs x1(e1) = e2.
        assert cmp_L(parse_rword("x2"), parse_rword("x1")) is Cmp.GREATER

    def test_equal_words(self, rng):
        for _ in range(10):
            w = random_rplus(rng)
            assert cmp_L(w, w) is Cmp.EQUAL

    def test_agrees_with_morphism_eq(self, rng):
        for _ in range(150):
            u, v = random_braid(rng), random_braid(rng)
            assert (cmp_L(u, v) is Cmp.EQUAL) == morphism_eq(u, v)

    def test_trichotomy(self, rng):
        for _ in range(150):
            u, v = random_rplus(rng), random_rplus(rng)
            forward, backward = cmp_L(u, v), cmp_L(v, u)
            assert backward is forward.reverse()

    def test_left_invariance_over_R(self, rng):
        # Holds for multipliers containing x letters as well: every
        # generator acts as an order-preserving injection.
        for _ in range(200):
            r, a, b = random_rplus(rng), random_rplus(rng), random_rplus(rng)
            assert cmp_L(a, b) is cmp_L(r * a, r * b)

    def test_dehornoy_restriction(self, rng):
        e = RWord.identity()
        for _ in range(200):
            b = random_sigma1_positive(rng)
            assert cmp_L(e, b) is Cmp.LESS
            assert cmp_L(braid_inverse(b), e) is Cmp.LESS


class TestPureShiftTail:
    def test_tail_images(self, rng):
        for _ in range(40):
            w = random_rplus(rng)
            start = _tail_start(w, w)
            for j in range(start, start + 4):
                assert apply_word(w, egen(j)) == egen(j + w.x_count())


class TestStabilizesXPower:
    def test_examples(self):
        assert stabilizes_x_power(RWord.identity(), 1)
        assert stabilizes_x_power(parse_rword("s1"), 2)
        assert not stabilizes_x_power(parse_rword("s2"), 2)

    def test_rejects_x_letters(self):
        with pytest.raises(XLetterPresentError):
            stabilizes_x_power(parse_rword("x1"), 2)

    def test_membership_criterion(self, rng):
        for _ in range(40):
            m = rng.randint(2, 5)
            inside = random_braid(rng, max_len=6, max_index=m - 1)
            assert stabilizes_x_power(inside, m)
            outside = RWord(
                inside.letters[:3] + (sigma(m),) + inside.letters[3:]
            )
            assert not stabilizes_x_power(outside, m)

    def test_equivalent_fixing_characterization(self, rng):
        for _ in range(30):
            m = rng.randint(1, 5)
            g = random_braid(rng, max_len=5, max_index=4)
            fixes = all(
                apply_word(g, egen(j)) == egen(j)
                for j in range(m, _tail_start(g, g) + 1)
            )
            assert stabilizes_x_power(g, m) == fixes


# --- the Dynnikov fast path against the free-group oracle ------------------

MAX_STRAND_INDEX = 6


def _signed(i: int, positive: bool):
    return sigma(i) if positive else sigma_inv(i)


letters = st.builds(_signed, st.integers(1, MAX_STRAND_INDEX), st.booleans())
braids = st.lists(letters, max_size=12).map(RWord)


@st.composite
def cancelling_braids(draw):
    """A braid word with cancelling pairs s_i^e s_i^-e inserted anywhere.

    Pairs may land inside one another, so the feed of ``_quotient_coords``
    holds nested runs that free cancellation removes.
    """
    out = list(draw(braids).letters)
    pairs = st.tuples(st.integers(1, MAX_STRAND_INDEX), st.booleans(), st.integers(0, 20))
    for i, positive, p in draw(st.lists(pairs, max_size=4)):
        p = min(p, len(out))
        out[p:p] = [_signed(i, positive), _signed(i, not positive)]
    return RWord(out)


def _equal_rewrite(w: RWord, rnd: random.Random) -> RWord:
    """A word equal to w: relations (6)/(7) and inserted cancelling pairs."""
    out = list(w.letters)
    for _ in range(rnd.randint(1, 6)):
        p = rnd.randrange(len(out) + 1)
        move = rnd.randrange(3)
        if move == 0:
            i, positive = rnd.randint(1, MAX_STRAND_INDEX), rnd.random() < 0.5
            out[p:p] = [_signed(i, positive), _signed(i, not positive)]
        elif move == 1 and p + 1 < len(out):
            a, b = out[p], out[p + 1]
            if abs(a.index - b.index) >= 2:
                out[p:p + 2] = [b, a]
        elif move == 2 and p + 2 < len(out):
            a, b, c = out[p:p + 3]
            if a == c and a.kind is b.kind and abs(a.index - b.index) == 1:
                out[p:p + 3] = [b, a, b]
    return RWord(out)


@st.composite
def sigma_k_positive(draw):
    """A braid with s_k, no s_k^-1 and no letter of index below k."""
    k = draw(st.integers(1, MAX_STRAND_INDEX - 1))
    rest = draw(st.lists(
        st.builds(_signed, st.integers(k + 1, MAX_STRAND_INDEX), st.booleans()), max_size=5))
    positions = draw(st.lists(st.integers(0, len(rest)), min_size=1, max_size=2))
    out = list(rest)
    for p in positions:
        out.insert(p, sigma(k))
    return RWord(out)


def images_eq(u: RWord, v: RWord) -> bool:
    """Equality by the image scan, the oracle for ``morphism_eq``."""
    return _images_cmp(u, v) is Cmp.EQUAL


def coords(w: RWord) -> dict[int, tuple[int, int]]:
    """Trimmed Dynnikov coordinates of the braid word w."""
    return _quotient_coords(RWord(), w)


def assert_matches_oracle(u: RWord, v: RWord) -> None:
    assert cmp_L(u, v) is _images_cmp(u, v)
    assert morphism_eq(u, v) == images_eq(u, v)


class TestDynnikovAgainstOracle:
    @given(braids, braids)
    def test_random_pairs(self, u, v):
        assert_matches_oracle(u, v)

    @given(braids, st.randoms(use_true_random=False))
    def test_equal_pairs(self, u, rnd):
        v = _equal_rewrite(u, rnd)
        assert morphism_eq(u, v)
        assert_matches_oracle(u, v)

    @given(braids, sigma_k_positive())
    def test_positive_extension(self, u, q):
        assert cmp_L(u, u * q) is Cmp.LESS
        assert_matches_oracle(u, u * q)

    @pytest.mark.parametrize("u, v", [
        ("s1 s2 s1", "s2 s1 s2"),
        ("s2^-1 s3^-1 s2^-1", "s3^-1 s2^-1 s3^-1"),
        ("s1 s4", "s4 s1"),
        ("s1 s1 s2 s2 s1^-1 s1^-1 s2^-1 s2^-1", ""),
        ("", "s1"),
        ("s2", "s1"),
        ("s1^-1", "s2 s2 s2"),
    ])
    def test_fixed_cases(self, u, v):
        assert_matches_oracle(parse_rword(u), parse_rword(v))

    def test_fixed_answers(self):
        assert morphism_eq(parse_rword("s1 s2 s1"), parse_rword("s2 s1 s2"))
        assert morphism_eq(parse_rword("s1 s4"), parse_rword("s4 s1"))
        commutator = parse_rword("s1 s1 s2 s2 s1^-1 s1^-1 s2^-1 s2^-1")
        assert not morphism_eq(commutator, RWord.identity())
        assert cmp_L(RWord.identity(), parse_rword("s1")) is Cmp.LESS

    @given(braids, braids)
    def test_quotient_feed_matches_built_inverse(self, u, v):
        assert _quotient_coords(u, v) == coords(braid_inverse(u) * v)

    @given(braids, braids)
    def test_braid_equality_is_coordinate_equality(self, u, v):
        assert morphism_eq(u, v) == (coords(u) == coords(v))

    def test_trivial_pairs_are_dropped(self):
        assert coords(parse_rword("s3 s3^-1 s7^-1 s7")) == {}
        assert coords(parse_rword("s100000000")).keys() == {100000000, 100000001}


SMALL = st.integers(-9, 9)


class TestCoordinatesAgainstReference:
    """The code-fed Dynnikov update against the Kind-dispatch copy in ``conftest``."""

    @given(cancelling_braids(), cancelling_braids())
    def test_quotient_coords(self, u, v):
        assert _quotient_coords(u, v) == gen_quotient_coords(u.letters, v.letters)

    @given(braids, cancelling_braids(), cancelling_braids())
    def test_quotient_coords_shared_prefix(self, p, u, v):
        pu, pv = p * u, p * v
        assert _quotient_coords(pu, pv) == gen_quotient_coords(pu.letters, pv.letters)

    @given(braids, st.dictionaries(st.integers(1, 8), st.tuples(SMALL, SMALL)))
    def test_act(self, w, start):
        out, expected = dict(start), dict(start)
        _act(out, w.codes)
        gen_act(expected, w.letters, Kind.SIGMA)
        assert out == expected

    @given(st.lists(st.one_of(letters, st.builds(x, st.integers(1, 12))), max_size=30).map(RWord))
    def test_reflection_negates_every_x(self, w):
        # The reflection in the line of punctures: flipping the sign of
        # every braid letter negates every x and keeps every y.
        flip = {Kind.SIGMA: Kind.SIGMA_INV, Kind.SIGMA_INV: Kind.SIGMA, Kind.X: Kind.X}
        flipped = RWord([Generator(flip[g.kind], g.index) for g in w.letters])
        expected = {k: (-a, b) for k, (a, b) in _coords(w.codes, w.xs).items()}
        assert _coords(flipped.codes, flipped.xs) == expected


class TestFreeCancellationBeforeAct:
    """``_act`` receives u^-1 v freely cancelled: a shared prefix costs no update."""

    @pytest.fixture
    def fed(self, monkeypatch):
        lengths = []
        act = representation._act

        def recorder(coords, codes):
            codes = tuple(codes)
            lengths.append(len(codes))
            act(coords, codes)

        monkeypatch.setattr(representation, "_act", recorder)
        return lengths

    def test_equal_long_words_make_no_update(self, fed):
        rnd = random.Random(20000)
        w = RWord(
            [_signed(rnd.randint(1, MAX_STRAND_INDEX), rnd.random() < 0.5) for _ in range(20000)]
        )
        assert morphism_eq(w, w)
        assert cmp_L(w, w) is Cmp.EQUAL
        assert fed and not any(fed)
        assert cmp_L(w, w * RWord([sigma(1)])) is Cmp.LESS
        assert fed[-1] == 1 and not any(fed[:-1])


class TestDynnikovUpdate:
    """The coordinate update is an action of the braid group on all of Z^2n."""

    @staticmethod
    def random_vector(rng):
        return {k: (rng.randint(-9, 9), rng.randint(-9, 9)) for k in range(1, 8)}

    @staticmethod
    def acted(w, start):
        out = dict(start)
        _act(out, reversed(w.codes))
        return out

    @pytest.mark.parametrize("lhs, rhs", [
        ("s1 s2 s1", "s2 s1 s2"),
        ("s3 s4 s3", "s4 s3 s4"),
        ("s1^-1 s2^-1 s1^-1", "s2^-1 s1^-1 s2^-1"),
        ("s1 s3", "s3 s1"),
        ("s2 s5^-1", "s5^-1 s2"),
        ("s2 s2^-1", ""),
        ("s4^-1 s4", ""),
    ])
    def test_relations_on_random_vectors(self, rng, lhs, rhs):
        u, v = parse_rword(lhs), parse_rword(rhs)
        for _ in range(300):
            start = self.random_vector(rng)
            assert self.acted(u, start) == self.acted(v, start)


# --- the x_1-power rule against the free-group oracle -----------------------

MAX_POWER = 3
short_braids = st.lists(letters, max_size=8).map(RWord)
powers = st.integers(0, MAX_POWER)


def with_power(b: RWord, k: int) -> RWord:
    return b * RWord((x(1),) * k)


@st.composite
def inside_b_k_plus_1(draw, k: int) -> RWord:
    """A word in the letters s_i and s_i^-1 with i <= k, so it fixes x_1^k."""
    if k == 0:
        return RWord.identity()
    return RWord(draw(st.lists(
        st.builds(_signed, st.integers(1, k), st.booleans()), max_size=6)))


def assert_eq_matches_oracle(u: RWord, v: RWord) -> bool:
    answer = morphism_eq(u, v)
    assert answer == images_eq(u, v)
    return answer


class TestXPowerRuleAgainstOracle:
    """``powers`` includes 0, so every test also covers plain braid pairs."""

    @given(short_braids, short_braids, powers)
    def test_random_pairs(self, b, b2, k):
        assert_eq_matches_oracle(with_power(b, k), with_power(b2, k))

    @given(short_braids, powers, st.data(), st.randoms(use_true_random=False))
    def test_pairs_equal_by_b_k_plus_1(self, b, k, data, rnd):
        w = data.draw(inside_b_k_plus_1(k))
        b2 = _equal_rewrite(b * w, rnd)
        assert assert_eq_matches_oracle(with_power(b, k), with_power(b2, k))

    @given(short_braids, short_braids, powers, st.integers(1, MAX_POWER))
    def test_different_powers(self, b, b2, k, offset):
        k2 = (k + offset) % (MAX_POWER + 1)
        assert not assert_eq_matches_oracle(with_power(b, k), with_power(b2, k2))

    @pytest.mark.parametrize("u, v, equal", [
        ("s1 x1", "x1", True),
        ("s2 x1", "x1", False),
        ("s1 s2 x1 x1", "s2^-1 s1 x1 x1", True),
        ("s3 x1 x1", "x1 x1", False),
        ("x1", "x1 x1", False),
    ])
    def test_fixed_cases(self, u, v, equal):
        assert assert_eq_matches_oracle(parse_rword(u), parse_rword(v)) is equal


# --- equality on all of R: coordinates against the free-group oracle -------

MAX_X_INDEX = 4
r_letters = st.one_of(letters, st.builds(x, st.integers(1, MAX_X_INDEX)))
r_words = st.lists(r_letters, max_size=8).map(RWord)


def _related(w: RWord, rnd: random.Random, steps: int = 6) -> RWord:
    """A word equal to w by up to ``steps`` defining relations, each at a random matching site."""
    for _ in range(steps):
        moves = [
            (rule, pos, direction)
            for rule in range(1, 8)
            for pos in range(len(w) + 1)
            for direction in ("L2R", "R2L")
            if apply_relation(w, rule, pos, direction) is not None
        ]
        if moves:
            w = apply_relation(w, *rnd.choice(moves))
    return w


def reference_coords(w: RWord) -> dict[int, tuple[int, int]]:
    """The coordinates of w(E), one letter at a time on an index-keyed dict rebuilt per x letter."""
    out: dict[int, tuple[int, int]] = {}
    for c in reversed(w.codes):
        if type(c) is int:
            _act(out, [c])
            continue
        i = c[0]
        a, b = out.get(i, (0, 1))
        out = {k if k < i else k + 1: pair for k, pair in out.items() if k != i}
        out[i], out[i + 1] = (a, min(b, 0)), (a, max(b, 0))
    return {k: pair for k, pair in out.items() if pair != (0, 1)}


class TestEqualityOnR:
    """``morphism_eq`` on words with x letters anywhere, against ``_images_cmp``."""

    @given(r_words, r_words)
    def test_random_pairs(self, u, v):
        assert morphism_eq(u, v) == images_eq(u, v)

    @given(r_words, st.randoms(use_true_random=False))
    def test_pairs_equal_by_relations(self, u, rnd):
        v = _related(u, rnd)
        assert morphism_eq(u, v) and images_eq(u, v)

    @given(r_words, r_words)
    def test_pairs_equal_by_sx_decompose(self, p, w):
        braid, xs = sx_decompose(w)
        assert morphism_eq(p * w, p * braid * xs) and images_eq(w, braid * xs)

    @given(r_words, r_letters, st.integers(0, 8), st.randoms(use_true_random=False))
    def test_near_equal_pairs(self, u, letter, position, rnd):
        out = list(_related(u, rnd).letters)
        out.insert(min(position, len(out)), letter)
        v = RWord(out)
        assert morphism_eq(u, v) == images_eq(u, v)

    @pytest.mark.parametrize("row", range(len(_RELATIONS)))
    @given(r_words, r_words, st.data())
    def test_coords_keep_every_relation(self, row, p, q, data):
        rule, lhs, rhs, when = _RELATIONS[row]
        i, j = data.draw(st.sampled_from([
            (i, j) for i in range(1, 7) for j in range(1, 7) if when is None or when(i, j)
        ]))
        values = {"i": i, "j": j}
        side = [x(values[v] + k) if is_x else sigma(values[v] + k) for is_x, v, k in lhs]
        w = p * RWord(side) * q
        rewritten = apply_relation(w, rule, len(p), "L2R")
        assert rewritten is not None
        assert _coords(w.codes, w.xs) == _coords(rewritten.codes, rewritten.xs)

    @given(st.lists(st.one_of(letters, st.builds(x, st.integers(1, 12))), max_size=30).map(RWord))
    def test_offset_keys_match_reference(self, w):
        expected = reference_coords(w)
        assert _coords(w.codes, w.xs) == expected
        # A surplus offset, as a cut prefix's x letters leave, raises every key.
        assert _coords(w.codes, w.xs + 3) == {k + 3: pair for k, pair in expected.items()}

    @given(braids, st.integers(1, 5))
    def test_x_power_rule_is_the_general_rule(self, g, m):
        power = RWord((x(1),) * (m - 1))
        assert stabilizes_x_power(g, m) == morphism_eq(g * power, power)

    @pytest.mark.parametrize("u, v, equal", [
        ("x2 s1", "s1 s2 x1", True),
        ("x3 x1", "x1 x2", True),
        ("x2 x1", "x1 x2", False),
        ("x1 s2 s1", "s3 x1 s1", True),
        ("s1 x2", "x2 s1", False),
    ])
    def test_fixed_cases(self, u, v, equal):
        assert morphism_eq(parse_rword(u), parse_rword(v)) is equal


def _random_r_word(rnd: random.Random, length: int) -> RWord:
    """Braid letters and 30 % x letters, every index at most 50."""
    return RWord([
        x(rnd.randint(1, 50)) if rnd.random() < 0.3 else _signed(rnd.randint(1, 50), rnd.random() < 0.5)
        for _ in range(length)
    ])


class TestEqualityStaysFast:
    """Long words that the image scan could not answer in time; each answers well within 2 s."""

    @staticmethod
    def timed(u: RWord, v: RWord) -> bool:
        start = time.monotonic()
        answer = morphism_eq(u, v)
        assert time.monotonic() - start < 2
        return answer

    def test_x1_power_against_x2_x1_power(self):
        assert self.timed(parse_rword("x1 " * 10000), parse_rword("x2 " + "x1 " * 9999))

    def test_alternating_tails(self):
        tail = "x1 s1 " * 10000
        assert self.timed(parse_rword("s1 " + tail), parse_rword("s1^-1 " + tail))

    def test_random_pair_of_20000_letters(self):
        rnd = random.Random(20000)
        u, v = _random_r_word(rnd, 20000), _random_r_word(rnd, 20000)
        assert not self.timed(u, v)

    @pytest.mark.parametrize("u, v, equal", [
        ("x100000", "x100000", True),
        ("x99999999", "x99999999", True),
        ("s1 x99999999 s3", "s2 x99999998 s1", False),
        ("x99999999 x1 s3", "x99999999 x2 s3^-1 s2", False),
    ])
    def test_huge_x_indices(self, u, v, equal):
        assert self.timed(parse_rword(u), parse_rword(v)) is equal

    def test_against_the_decomposed_form(self):
        w = parse_rword("x1 s1 " * 100)
        braid, xs = sx_decompose(w)
        assert len(braid) == 5150
        assert self.timed(w, braid * xs)


# --- braid equality in one pass over u^-1 v ---------------------------------


def assert_eq_agrees(u: RWord, v: RWord) -> bool:
    """``morphism_eq`` against the image scan and against ``cmp_L``; returns the answer."""
    answer = morphism_eq(u, v)
    assert answer == images_eq(u, v) == (cmp_L(u, v) is Cmp.EQUAL)
    return answer


class TestBraidEqualityByQuotient:
    """``morphism_eq`` on two braid words is ``not _quotient_coords(u, v)``.

    Random pairs, pairs equal by (6)/(7) and pairs with inserted cancelling
    letters are checked against the image scan and ``cmp_L``; pairs with an
    x letter on either side keep the general path and are checked too.
    """

    @given(cancelling_braids(), cancelling_braids())
    def test_random_pairs(self, u, v):
        assert_eq_agrees(u, v)

    @given(braids, st.randoms(use_true_random=False))
    def test_pairs_equal_by_relations_6_and_7(self, u, rnd):
        v = _related(u, rnd)  # a braid word matches only rows (6) and (7)
        assert v.is_braid() and assert_eq_agrees(u, v)

    @given(braids, st.randoms(use_true_random=False), st.integers(1, 4))
    def test_pairs_with_inserted_cancelling_letters(self, u, rnd, count):
        v = with_cancelling_pairs(_related(u, rnd), rnd, count)
        assert assert_eq_agrees(u, v) and assert_eq_agrees(v, u)

    @given(braids, braids, st.randoms(use_true_random=False))
    def test_shared_prefix_cancels_in_the_quotient(self, p, u, rnd):
        v = with_cancelling_pairs(u, rnd, 1)
        assert assert_eq_agrees(p * u, p * v)
        x1 = RWord([x(1)])
        assert assert_eq_agrees(p * u * x1, p * v * x1) and assert_eq_agrees(x1 * u, x1 * v)

    @given(braids, r_words, st.randoms(use_true_random=False))
    def test_mixed_pairs_keep_the_general_path(self, u, w, rnd):
        assert morphism_eq(u, w) == images_eq(u, w) and morphism_eq(w, u) == images_eq(w, u)
        v = with_cancelling_pairs(_related(w, rnd), rnd, 2)
        assert morphism_eq(w, v) and images_eq(w, v)

    def test_one_coordinate_pass_for_braids_only(self, monkeypatch):
        calls = []
        quotient, general = representation._quotient_coords, representation._coords
        monkeypatch.setattr(representation, "_quotient_coords",
                            lambda u, v: calls.append("quotient") or quotient(u, v))
        monkeypatch.setattr(representation, "_coords",
                            lambda codes, xs: calls.append("coords") or general(codes, xs))
        assert morphism_eq(parse_rword("s1 s2 s1"), parse_rword("s2 s1 s2"))
        assert calls == ["quotient", "coords"]
        calls.clear()
        assert not morphism_eq(parse_rword("s1 x2"), parse_rword("x2 s1"))
        assert calls == ["coords", "coords"]

    def test_braid_words_act_as_one_run(self, monkeypatch):
        # With no x letter, ``_coords`` neither groups the codes nor calls
        # ``_act`` more than once.
        runs = []
        act = representation._act
        monkeypatch.setattr(representation, "groupby", None)
        monkeypatch.setattr(representation, "_act", lambda coords, codes: runs.append(1) or act(coords, codes))
        u = parse_rword("s1 s2 s2 s3^-1 s4 s4^-1 s1")
        assert _coords(u.codes, 0) == reference_coords(u)
        assert runs == [1]
