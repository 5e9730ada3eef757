import sys
import time

import pytest
from hypothesis import given, strategies as st

from shrinkbraid import (
    RWord,
    XLetterPresentError,
    apply_relation,
    braid_inverse,
    free_cancel,
    morphism_eq,
    parse_rword,
    shift,
    sigma,
    sigma_inv,
    sx_decompose,
    x,
)
from shrinkbraid import words
from shrinkbraid.freegroup import BudgetError
from shrinkbraid.words import Generator, Kind, RewriteBudgetError, RWordParseError, _rword

from conftest import (
    gen_braid_inverse,
    gen_free_cancel,
    gen_shift,
    random_braid,
    random_rplus,
    splice_sx_decompose,
    table_x_past_sigma,
)


def w(text: str) -> RWord:
    return parse_rword(text)


def reference_parse_rword(text: str) -> RWord:
    """The per-token parser ``parse_rword`` replaced, digits held to ASCII."""
    letters = []
    pos = 0
    for token in text.split():
        offset = text.index(token, pos)
        pos = offset + len(token)
        body = token
        inverse = False
        if body.endswith("^-1"):
            inverse = True
            body = body[:-3]
        digits = body[1:]
        if len(body) < 2 or body[0] not in "sx" or not (digits.isascii() and digits.isdigit()):
            raise RWordParseError("expected s<digits>[^-1] or x<digits>", offset, token)
        index = int(digits)
        if index < 1:
            raise RWordParseError("generator index must be >= 1", offset, token)
        if body[0] == "x":
            if inverse:
                raise RWordParseError("x letters are not invertible", offset, token)
            letters.append(x(index))
        else:
            letters.append(sigma_inv(index) if inverse else sigma(index))
    return RWord(letters)


# Word text: tokens, well formed or built from grammar pieces, ASCII and other
# digits and garbage, with runs of ten whitespace code points between them.
WHITESPACE = [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u3000"]
PIECES = ["s", "x", "0", "1", "9", "10", "^-1", "^", "-1", "e", "(", "\u00b2", "\u0663"]
WELL_FORMED = st.builds(str.format, st.sampled_from(["s{}", "s{}^-1", "x{}"]), st.integers(1, 120))
TOKENS = st.one_of(  # three draws in four well formed
    WELL_FORMED, WELL_FORMED, WELL_FORMED,
    st.lists(st.sampled_from(PIECES), min_size=1, max_size=4).map("".join),
)
GAPS = st.lists(st.sampled_from(WHITESPACE), max_size=3).map("".join)
WORD_TEXTS = st.builds(
    lambda parts, end: "".join(gap + token for gap, token in parts) + end,
    st.lists(st.tuples(GAPS, TOKENS), max_size=8),
    GAPS,
)


class TestShift:
    def test_raises_every_index(self):
        assert shift(w("s1 x2"), 1) == w("s2 x3")

    def test_zero_is_identity(self):
        word = w("s1 s2^-1 x1")
        assert shift(word, 0) == word

    def test_composes(self):
        word = w("s1 s2^-1 x1")
        assert shift(shift(word, 1), 1) == shift(word, 2)

    def test_distributes_over_concatenation(self, rng):
        for _ in range(50):
            u, v = random_rplus(rng), random_rplus(rng)
            assert shift(u * v, 2) == shift(u, 2) * shift(v, 2)

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            shift(w("s1"), -1)


class TestBraidInverse:
    def test_reverses_and_swaps(self):
        assert braid_inverse(w("s1 s2")) == w("s2^-1 s1^-1")

    def test_identity(self):
        assert braid_inverse(RWord.identity()) == RWord.identity()

    def test_inverse_letter(self):
        assert braid_inverse(w("s3^-1")) == w("s3")

    def test_x_letter_rejected(self):
        with pytest.raises(XLetterPresentError):
            braid_inverse(w("x1"))

    def test_two_sided_inverse(self, rng):
        for _ in range(30):
            b = random_braid(rng)
            assert morphism_eq(b * braid_inverse(b), RWord.identity())
            assert morphism_eq(braid_inverse(b) * b, RWord.identity())


class TestFreeCancel:
    @pytest.mark.parametrize(
        "before, after",
        [("s1 s1^-1", ""), ("s1 s2 s2^-1 x1", "s1 x1"), ("x1 s2^-1 s2", "x1")],
    )
    def test_examples(self, before, after):
        assert free_cancel(w(before)) == w(after)

    def test_idempotent_and_length_nonincreasing(self, rng):
        for _ in range(100):
            word = random_braid(rng, max_len=10)
            once = free_cancel(word)
            assert free_cancel(once) == once
            assert len(once) <= len(word)

    def test_preserves_element(self, rng):
        for _ in range(30):
            word = random_braid(rng, max_len=8)
            assert morphism_eq(free_cancel(word), word)

    def test_nested_pairs(self):
        assert free_cancel(w("s1 s2 s2^-1 s1^-1")) == RWord.identity()


class TestSxDecompose:
    @pytest.mark.parametrize(
        "word, braid_part, x_part",
        [
            ("x2 s1", "s1 s2", "x1"),
            ("x1 s2", "s3", "x1"),
            ("x2 s1^-1", "s1^-1 s2^-1", "x1"),
            ("x1 s1^-1", "s2^-1 s1^-1", "x2"),
            ("x1 s3^-1", "s4^-1", "x1"),
            ("x4 s1^-1", "s1^-1", "x4"),
            ("", "", ""),
            ("s1 s2", "s1 s2", ""),
            ("x1 x2", "", "x1 x2"),
        ],
    )
    def test_examples(self, word, braid_part, x_part):
        assert sx_decompose(w(word)) == (w(braid_part), w(x_part))

    def test_parts_are_pure(self, rng):
        for _ in range(100):
            word = RWord(random_rplus(rng, max_len=8).letters)
            braid_part, x_part = sx_decompose(word)
            assert braid_part.is_braid()
            assert all(g.kind is Kind.X for g in x_part.letters)

    def test_preserves_element(self, rng):
        for _ in range(60):
            word = random_rplus(rng, max_len=8)
            braid_part, x_part = sx_decompose(word)
            assert morphism_eq(braid_part * x_part, word)

    def test_inverse_letters_supported(self, rng):
        for _ in range(60):
            letters = []
            for _ in range(rng.randrange(0, 8)):
                i = rng.randint(1, 4)
                letters.append(rng.choice((sigma(i), sigma_inv(i), x(i))))
            word = RWord(letters)
            braid_part, x_part = sx_decompose(word)
            assert braid_part.is_braid()
            assert morphism_eq(braid_part * x_part, word)


class TestDerivedInverseRules:
    """The sigma-inverse forms of the cross/commutation rules are not among
    the defining relations; each one is validated against the representation
    for every index used by sx_decompose."""

    @pytest.mark.parametrize("i", range(1, 9))
    def test_cross_rules(self, i):
        assert morphism_eq(
            RWord([x(i + 1), sigma_inv(i)]),
            RWord([sigma_inv(i), sigma_inv(i + 1), x(i)]),
        )
        assert morphism_eq(
            RWord([x(i), sigma_inv(i)]),
            RWord([sigma_inv(i + 1), sigma_inv(i), x(i + 1)]),
        )

    @pytest.mark.parametrize("i", range(1, 7))
    def test_commutation_rules(self, i):
        for j in range(i + 1, 9):
            assert morphism_eq(
                RWord([x(i), sigma_inv(j)]), RWord([sigma_inv(j + 1), x(i)])
            )
        for k in range(1, i - 1):
            assert morphism_eq(RWord([x(i), sigma_inv(k)]), RWord([sigma_inv(k), x(i)]))


RELATION_CASES = [
    (1, "s1 x1", "x1"),
    (2, "x2 x1", "x1 x1"),
    (3, "x2 s1", "s1 s2 x1"),
    (4, "x1 s1", "s2 s1 x2"),
    (5, "x1 x3", "x4 x1"),
    (5, "x1 s3", "s4 x1"),
    (5, "x4 s1", "s1 x4"),
    (6, "s1 s2 s1", "s2 s1 s2"),
    (7, "s1 s3", "s3 s1"),
    (1, "s4 x4", "x4"),
    (2, "x5 x4", "x4 x4"),
    (3, "x5 s4", "s4 s5 x4"),
    (4, "x3 s3", "s4 s3 x4"),
    (5, "x2 x5", "x6 x2"),
    (5, "x2 s3", "s4 x2"),
    (5, "x5 s3", "s3 x5"),
    (6, "s3 s4 s3", "s4 s3 s4"),
    (7, "s2 s5", "s5 s2"),
]


class TestApplyRelation:
    @pytest.mark.parametrize("rule, lhs, rhs", RELATION_CASES)
    def test_forward_and_back(self, rule, lhs, rhs):
        assert apply_relation(w(lhs), rule, 0, "L2R") == w(rhs)
        assert apply_relation(w(rhs), rule, 0, "R2L") == w(lhs)

    def test_no_match_returns_none(self):
        assert apply_relation(w("s1 s2"), 1, 0, "L2R") is None
        assert apply_relation(w("s1 s2"), 7, 0, "L2R") is None
        # i would be 0 here
        assert apply_relation(w("x1 s1"), 3, 0, "L2R") is None
        assert apply_relation(w("s1 s1 x1"), 4, 0, "R2L") is None

    def test_interior_position(self):
        assert apply_relation(w("s3 s1 x1 s3"), 1, 1, "L2R") == w("s3 x1 s3")

    def test_position_out_of_range(self):
        with pytest.raises(IndexError):
            apply_relation(w("s1"), 1, 5, "L2R")

    def test_rule_out_of_range(self):
        with pytest.raises(ValueError):
            apply_relation(w("s1"), 8, 0, "L2R")

    def test_random_walks_preserve_representation(self, rng):
        for _ in range(40):
            word = random_rplus(rng, max_len=6)
            start = word
            for _ in range(25):
                rule = rng.randint(1, 7)
                pos = rng.randrange(0, len(word) + 1)
                direction = rng.choice(("L2R", "R2L"))
                result = apply_relation(word, rule, pos, direction)
                if result is not None:
                    word = result
            assert morphism_eq(word, start)


class TestGeneratorIndices:
    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("index", [0, -1])
    def test_word_refuses_an_index_below_1(self, kind, index):
        with pytest.raises(ValueError, match="generator index must be >= 1"):
            RWord([Generator(kind, index)])


class TestGrammar:
    def test_round_trip(self):
        text = "s1 x2 s3^-1 x10"
        assert str(parse_rword(text)) == text

    def test_empty_is_identity(self):
        assert parse_rword("") == RWord.identity()
        assert str(RWord.identity()) == ""

    def test_whitespace_normalized(self):
        assert str(parse_rword("  s1   x2 ")) == "s1 x2"

    @pytest.mark.parametrize("bad", ["x1^-1", "s0", "e1", "s", "s1^2", "sx1"])
    def test_rejects(self, bad):
        with pytest.raises(RWordParseError):
            parse_rword(bad)

    def test_error_carries_offset_and_token(self):
        with pytest.raises(RWordParseError) as info:
            parse_rword("s1 x2^-1")
        assert info.value.offset == 3
        assert info.value.token == "x2^-1"

    def test_offset_of_a_token_repeated_inside_an_earlier_one(self):
        with pytest.raises(RWordParseError) as info:
            parse_rword("s10\u3000s1 0")
        assert info.value.offset == 7 and info.value.token == "0"

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff11", "\u2460"])
    def test_non_ascii_digits_rejected(self, digit):
        # str.isdigit accepts each of these; int() rejects some and reads others.
        for token in (f"s{digit}", f"x{digit}", f"s1{digit}^-1"):
            with pytest.raises(RWordParseError) as info:
                parse_rword(f"s1\t{token}")
            assert info.value.offset == 3
            assert info.value.token == token

    def test_index_too_long_for_int_is_parse_error(self):
        token = "s" + "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(RWordParseError) as info:
            parse_rword(f"s1 {token}")
        assert info.value.offset == 3 and info.value.token == token

    @given(st.lists(st.tuples(st.sampled_from("sSx"), st.integers(1, 120)), max_size=12))
    def test_printed_word_parses_back(self, spec):
        word = RWord([{"s": sigma, "S": sigma_inv, "x": x}[kind](i) for kind, i in spec])
        assert parse_rword(str(word)) == word

    @given(WORD_TEXTS)
    def test_matches_token_loop(self, text):
        try:
            expected = reference_parse_rword(text)
        except RWordParseError as exc:
            with pytest.raises(RWordParseError) as info:
                parse_rword(text)
            assert (str(info.value), info.value.offset, info.value.token) == (
                str(exc), exc.offset, exc.token
            )
        else:
            assert parse_rword(text).letters == expected.letters


class TestDerivedQuantities:
    @given(st.lists(st.tuples(st.sampled_from("sSx"), st.integers(1, 9)), max_size=12))
    def test_max_index_and_x_count(self, spec):
        letters = []
        for kind, i in spec:
            letters.append({"s": sigma, "S": sigma_inv, "x": x}[kind](i))
        word = RWord(letters)
        assert word.max_index() == max((i for _, i in spec), default=0)
        assert word.x_count() == sum(1 for kind, _ in spec if kind == "x")
        assert word.is_braid() == all(kind != "x" for kind, _ in spec)

    @given(st.lists(st.tuples(st.sampled_from("sSx"), st.integers(1, 9)), max_size=4))
    def test_truth_is_nonemptiness(self, spec):
        word = RWord({"s": sigma, "S": sigma_inv, "x": x}[kind](i) for kind, i in spec)
        assert bool(word) is bool(spec) is (word != RWord.identity())
        assert not RWord.identity() and not parse_rword("") and parse_rword("x1")
        assert "__bool__" not in vars(RWord)


# Words of s, s^-1 and x letters over indices 1-6, and braid words with
# adjacent cancelling pairs, so that cancellation has work to do.
GENERATORS = st.builds(Generator, st.sampled_from(list(Kind)), st.integers(1, 6))
R_WORDS = st.lists(GENERATORS, max_size=10).map(RWord)
_SIGNED = st.builds(Generator, st.sampled_from([Kind.SIGMA, Kind.SIGMA_INV]), st.integers(1, 6))
_SWAP = {Kind.SIGMA: Kind.SIGMA_INV, Kind.SIGMA_INV: Kind.SIGMA, Kind.X: Kind.X}
CHUNKS = st.one_of(
    GENERATORS.map(lambda g: (g,)),
    _SIGNED.map(lambda g: (g, Generator(_SWAP[g.kind], g.index))),
)
CANCELLING_WORDS = st.lists(CHUNKS, max_size=6).map(lambda cs: RWord(g for c in cs for g in c))


class TestCodesAgainstReference:
    """Operations on letter codes against the Generator code in ``conftest``."""

    @given(R_WORDS)
    def test_round_trips(self, word):
        assert RWord(word.letters) == word
        assert parse_rword(str(word)) == word
        assert parse_rword(str(word)).x_count() == word.x_count()

    @given(st.lists(GENERATORS, max_size=10))
    def test_codes(self, letters):
        word = RWord(letters)
        assert word.letters == tuple(letters)
        codes = {Kind.SIGMA: lambda i: i, Kind.SIGMA_INV: lambda i: -i, Kind.X: lambda i: (i,)}
        assert word.codes == tuple(codes[g.kind](g.index) for g in letters)

    @given(R_WORDS)
    def test_text_spells_each_letter(self, word):
        spelled = {Kind.SIGMA: "s{}", Kind.SIGMA_INV: "s{}^-1", Kind.X: "x{}"}
        assert str(word) == " ".join(map(str, word.letters))
        assert [str(g) for g in word.letters] == [
            spelled[g.kind].format(g.index) for g in word.letters
        ]

    @given(R_WORDS, st.integers(0, 4))
    def test_shift(self, word, k):
        shifted = shift(word, k)
        assert shifted.letters == gen_shift(word.letters, k)
        assert shifted.x_count() == word.x_count()

    @given(CANCELLING_WORDS)
    def test_braid_inverse(self, word):
        if word.is_braid():
            assert braid_inverse(word).letters == gen_braid_inverse(word.letters)
        else:
            with pytest.raises(XLetterPresentError):
                braid_inverse(word)

    @given(CANCELLING_WORDS)
    def test_free_cancel(self, word):
        cancelled = free_cancel(word)
        assert cancelled.letters == gen_free_cancel(word.letters)
        assert cancelled.x_count() == word.x_count()

    @given(R_WORDS, R_WORDS)
    def test_product_and_decomposition_keep_the_count(self, u, v):
        assert (u * v).letters == u.letters + v.letters
        assert (u * v).x_count() == u.x_count() + v.x_count()
        braid_part, x_part = sx_decompose(u * v)
        assert braid_part.is_braid() and x_part.x_count() == len(x_part) == (u * v).x_count()
        assert RWord(braid_part.letters) == braid_part and RWord(x_part.letters) == x_part


class TestSxRebuild:
    """``sx_decompose`` against the splice loop in ``conftest``, and its budget."""

    @given(st.lists(GENERATORS, max_size=16).map(RWord))
    def test_matches_the_splice_loop(self, word):
        assert sx_decompose(word) == splice_sx_decompose(word)

    def test_step_budget(self, monkeypatch):
        assert issubclass(RewriteBudgetError, BudgetError)
        assert words.MAX_REWRITE_STEPS == 1 << 20
        word = w("x2 x1 s1 s2 s1^-1")  # x1 moves past 3 letters, then x2 past 5
        assert sx_decompose(word) == splice_sx_decompose(word)
        monkeypatch.setattr(words, "MAX_REWRITE_STEPS", 8)
        assert sx_decompose(word) == splice_sx_decompose(word)
        monkeypatch.setattr(words, "MAX_REWRITE_STEPS", 7)
        with pytest.raises(RewriteBudgetError) as info:
            sx_decompose(word)
        assert str(info.value) == (
            "decomposition of at least 8 rewrite steps exceeds the budget of 7"
        )


class TestClosedRule:
    """The inline step of ``sx_decompose`` against the rows of ``_RELATIONS``."""

    @pytest.mark.parametrize("a", range(1, 13))
    def test_every_step_is_the_table_step(self, a):
        for b in range(1, 13):
            for s in (b, -b):
                step = table_x_past_sigma((a,), s)
                assert sx_decompose(_rword(((a,), s), 1)) == (
                    _rword(step[:-1], 0),
                    _rword(step[-1:], 1),
                )

    def test_x1_s1_power_decomposes_in_time(self):
        word = w("x1 s1 " * 180)
        start = time.monotonic()
        braid_part, x_part = sx_decompose(word)
        assert time.monotonic() - start < 1
        assert len(braid_part) == 16470
        assert x_part == w(" ".join(f"x{k}" for k in range(181, 1, -1)))

    def test_budget_error_comes_in_time(self):
        word = w("x1 s1 " * 200)
        start = time.monotonic()
        with pytest.raises(RewriteBudgetError, match="at least 1055240 rewrite steps"):
            sx_decompose(word)
        assert time.monotonic() - start < 1
