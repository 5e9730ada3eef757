import itertools
import pickle
import sys

import pytest
from hypothesis import assume, example, given, strategies as st

from shrinkbraid import Cmp, apply_word, cmp_L, curve_cmp, finv, fmul, freegroup, parse_rword, psi
from shrinkbraid.freegroup import (
    FLetter,
    FWord,
    FWordParseError,
    ParseError,
    _Frozen,
    _inv,
    _mul,
    _reduced,
    parse_fword,
    reduce,
)
from shrinkbraid.ldops import TermParseError
from shrinkbraid.words import RWordParseError

from conftest import (
    OffsetRan,
    letter_curve_cmp,
    letter_finv,
    letter_fmul,
    letter_reduce,
    no_offset,
    random_braid,
    random_fword,
    reduced_ints,
    seam_pairs,
)


letters = st.lists(
    st.tuples(st.integers(1, 6), st.sampled_from((1, -1))), max_size=10
).map(lambda pairs: [FLetter(i, s) for i, s in pairs])


def fw(text: str) -> FWord:
    return parse_fword(text)


class TestReduce:
    @pytest.mark.parametrize(
        "before, after",
        [("e1 e1^-1", ""), ("e1 e2 e2^-1 e3", "e1 e3"), ("e2^-1 e2 e2", "e2")],
    )
    def test_examples(self, before, after):
        assert fw(before) == fw(after)

    def test_drops_index_zero(self):
        assert reduce([FLetter(0, 1), FLetter(1, 1), FLetter(0, -1)]) == fw("e1")

    @pytest.mark.parametrize("build", [reduce, FWord])
    @pytest.mark.parametrize("bad", [FLetter(2, 5), FLetter(2, 0), FLetter(-1, 1)])
    def test_refuses_a_bad_letter(self, build, bad):
        with pytest.raises(ValueError):
            build([FLetter(0, 1), bad])

    @given(letters)
    def test_reduced_invariant(self, lets):
        word = reduce(lets)
        for a, b in zip(word.letters, word.letters[1:]):
            assert not (a.index == b.index and a.sign == -b.sign)

    @given(letters)
    def test_idempotent(self, lets):
        word = reduce(lets)
        assert reduce(word.letters) == word


class TestGroupOps:
    def test_fmul_cancels(self):
        assert fmul(fw("e1"), fw("e1^-1")) == FWord.identity()

    def test_finv(self):
        assert finv(fw("e1 e2")) == fw("e2^-1 e1^-1")

    def test_psi_flips_signs(self):
        assert psi(fw("e1 e2^-1")) == fw("e1^-1 e2")

    @given(letters, letters)
    def test_fmul_matches_reduce(self, a, b):
        u, v = reduce(a), reduce(b)
        assert fmul(u, v) == reduce(u.letters + v.letters)

    @given(letters)
    def test_inverse_law(self, lets):
        u = reduce(lets)
        assert fmul(u, finv(u)) == FWord.identity()
        assert fmul(finv(u), u) == FWord.identity()

    @given(letters)
    def test_psi_involution(self, lets):
        u = reduce(lets)
        assert psi(psi(u)) == u

    @given(letters, letters)
    def test_psi_homomorphism(self, a, b):
        u, v = reduce(a), reduce(b)
        assert psi(fmul(u, v)) == fmul(psi(u), psi(v))


class TestIntKernel:
    """``fmul`` and ``finv`` on signed ints against the FLetter reference code."""

    @given(letters, letters)
    def test_mul_matches_fmul(self, a, b):
        u, v = reduce(a), reduce(b)
        assert fmul(u, v).letters == letter_fmul(u.letters, v.letters)

    @given(letters)
    def test_inv_matches_finv(self, lets):
        u = reduce(lets)
        assert finv(u).letters == letter_finv(u.letters)
        assert fmul(u, finv(u)) == FWord.identity()


def decoded(ints: tuple[int, ...]) -> tuple[FLetter, ...]:
    return tuple(FLetter(g, 1) if g > 0 else FLetter(-g, -1) for g in ints)


class TestTupleKernels:
    """``_mul`` and ``_inv`` on bare int tuples against the FLetter reference code."""

    @given(letters, letters)
    def test_mul_matches_reference(self, a, b):
        u, v = reduce(a), reduce(b)
        product = _mul(u.ints, v.ints)
        assert type(product) is tuple
        assert decoded(product) == letter_fmul(u.letters, v.letters)

    @given(letters)
    def test_inv_matches_reference(self, lets):
        u = reduce(lets)
        inverse = _inv(u.ints)
        assert type(inverse) is tuple
        assert decoded(inverse) == letter_finv(u.letters)
        assert _mul(u.ints, inverse) == () and _mul(inverse, u.ints) == ()


LONG = tuple(range(1, 21))  # 20 letters, for long seams


class TestSeamProduct:
    """``_mul`` against the reduced concatenation, on every kind of seam."""

    @given(seam_pairs())
    @example(((), ()))
    @example(((), (1, 2)))
    @example(((1, 2), ()))
    @example(((1, 2), (1, 2)))
    @example(((1, 2), (-2, 3)))
    @example((LONG, _inv(LONG)))
    @example((LONG, _inv(LONG[3:]) + (5,)))
    @example((LONG[:4], _inv(LONG[:4]) + (7,)))
    def test_is_reduced_concatenation(self, pair):
        a, b = pair
        assert _mul(a, b) == _reduced(a + b)

    @given(reduced_ints, reduced_ints)
    def test_unrelated_words(self, a, b):
        assert _mul(a, b) == _reduced(a + b)

    @pytest.mark.parametrize("a, b, expected", [
        ((), (), ()),
        ((2,), (), (2,)),
        ((1, 2), (3,), (1, 2, 3)),  # no cancellation: returned at once
        ((1, 2), (-2, 3), (1, 3)),  # one letter
        (LONG, _inv(LONG[2:]) + (9,), (1, 2, 9)),  # 18 letters
        (LONG, _inv(LONG), ()),  # both sides cancel
        (LONG[:17], _inv(LONG[:17]) + (9,), (9,)),  # all of a
        (LONG, _inv(LONG[3:]), (1, 2, 3)),  # all of b
    ])
    def test_fixed_seams(self, a, b, expected):
        assert _mul(a, b) == expected


class _One(_Frozen):
    __slots__ = ("a",)


class _Two(_Frozen):
    __slots__ = ("a", "b")


class TestFrozenFields:
    """``_Frozen`` reads the fields through one getter per class; ``_values`` is always a tuple."""

    @pytest.mark.parametrize("value, values", [(_One((1, 2)), ((1, 2),)), (_Two(1, (2,)), (1, (2,)))])
    def test_values_are_a_tuple_in_slot_order(self, value, values):
        assert value._values() == values
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value) and copy == value and hash(copy) == hash(value)

    def test_equality_reads_every_field_and_the_type(self):
        assert _Two(1, 2) == _Two(1, 2) and _Two(1, 2) != _Two(1, 3) and _Two(1, 2) != _Two(0, 2)
        assert _One(1) != _Two(1, 2) and _One((1,)) != (1,) and _One(1) == _One(1)


class TestStorage:
    """An FWord holds one tuple of signed ints; ``letters`` decodes it."""

    @given(letters)
    def test_letters_round_trip(self, lets):
        w = reduce(lets)
        assert FWord(w.letters) == w
        assert FWord(w.letters).ints == w.ints
        assert w.ints == tuple(let.index * let.sign for let in w.letters)

    @given(letters)
    def test_reduce_matches_reference(self, lets):
        assert reduce(lets).letters == letter_reduce(lets)

    @given(letters)
    def test_constructor_is_reduce(self, lets):
        assert FWord(lets) == reduce(lets)

    def test_constructor_cancels_and_drops_e0(self):
        assert FWord([FLetter(1, 1), FLetter(1, -1)]) == FWord.identity()
        assert FWord([FLetter(0, 1), FLetter(2, 1)]) == FWord.generator(2)

    def test_letters_are_fletters(self):
        assert fw("e2 e1^-1").letters == (FLetter(2, 1), FLetter(1, -1))
        assert fw("e2 e1^-1").ints == (2, -1)

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_reduce_rejects_bad_sign(self, sign):
        with pytest.raises(ValueError, match="sign"):
            reduce([FLetter(1, 1), FLetter(2, sign)])

    def test_reduce_rejects_negative_index(self):
        with pytest.raises(ValueError, match="index"):
            reduce([FLetter(-1, 1)])

    def test_reduce_drops_index_zero_between_inverse_letters(self):
        assert reduce([FLetter(3, 1), FLetter(0, -1), FLetter(3, -1)]) == FWord.identity()

    def test_max_index_and_shift(self):
        w = fw("e2 e5^-1 e1")
        assert w.max_index() == 5
        assert w.shift(2) == fw("e4 e7^-1 e3")
        assert FWord.identity().max_index() == 0


class TestCurveOrderAgainstReference:
    @given(letters, letters)
    def test_random_pairs(self, a, b):
        u, v = reduce(a), reduce(b)
        assert curve_cmp(u, v) is letter_curve_cmp(u.letters, v.letters)

    @given(letters, letters, letters)
    def test_shared_prefix(self, prefix, a, b):
        p = reduce(prefix)
        u, v = fmul(p, reduce(a)), fmul(p, reduce(b))
        assert curve_cmp(u, v) is letter_curve_cmp(u.letters, v.letters)


class TestCurveOrderCalibration:
    """Orientation anchor: the order is pinned so that sigma_1-positive
    braids exceed the identity in cmp_L.  That choice determines every
    comparison below; in particular x-images sort below their preimages."""

    def test_dehornoy_anchor(self):
        from shrinkbraid import RWord

        assert cmp_L(RWord.identity(), parse_rword("s1")) is Cmp.LESS

    def test_single_letters(self):
        # Positive block ranks by descending index; inverse-initial words
        # sit above every positive-initial word.
        assert curve_cmp(fw("e1"), fw("e2")) is Cmp.GREATER
        assert curve_cmp(fw("e1^-1"), fw("e1")) is Cmp.GREATER
        assert curve_cmp(fw("e2^-1"), fw("e1^-1")) is Cmp.GREATER

    def test_sigma_image_above_generator(self):
        # s_1(e_1) = e_1^-1 e_2 must exceed e_1: this is the anchor rewritten
        # at the image level.
        assert curve_cmp(fw("e1^-1 e2"), fw("e1")) is Cmp.GREATER
        # s_1^-1(e_1) = e_2 e_1^-1 must sit below e_1.
        assert curve_cmp(fw("e2 e1^-1"), fw("e1")) is Cmp.LESS

    def test_empty_word_is_least(self):
        assert curve_cmp(FWord.identity(), fw("e1")) is Cmp.LESS
        assert curve_cmp(FWord.identity(), fw("e3^-1")) is Cmp.LESS

    def test_reflexive_equal(self):
        word = fw("e1 e2^-1 e3")
        assert curve_cmp(word, word) is Cmp.EQUAL

    def test_prefix_cases(self):
        assert curve_cmp(fw("e1"), fw("e1 e2")) is Cmp.LESS
        assert curve_cmp(fw("e1"), fw("e1 e5^-1")) is Cmp.GREATER
        assert curve_cmp(fw("e2"), fw("e2 e1^-1")) is Cmp.LESS
        assert curve_cmp(fw("e2^-1"), fw("e2^-1 e3")) is Cmp.LESS
        assert curve_cmp(fw("e2^-1"), fw("e2^-1 e1")) is Cmp.GREATER
        assert curve_cmp(fw("e2^-1"), fw("e2^-1 e5^-1")) is Cmp.GREATER

    def test_psi_duality_after_negative_entry(self):
        # After an inverse letter the ranking is the psi-mirror of the
        # positive-entry ranking with the arguments swapped.
        pairs = [
            (fw("e2^-1 e1"), fw("e2^-1 e3")),
            (fw("e2^-1 e1^-1"), fw("e2^-1 e3^-1")),
            (fw("e2^-1 e1"), fw("e2^-1 e1^-1")),
        ]
        for w1, w2 in pairs:
            assert curve_cmp(w1, w2) is curve_cmp(psi(w2), psi(w1))

    @given(letters, letters, letters)
    def test_psi_reverses_the_order(self, prefix, a, b):
        # psi, the reflection of the punctured disk, reverses the order on
        # nonempty words; the shared prefix reaches every entry context.
        p = reduce(prefix)
        u, v = fmul(p, reduce(a)), fmul(p, reduce(b))
        assume(u and v and u != v)
        assert curve_cmp(psi(u), psi(v)) is curve_cmp(u, v).reverse()
        assert curve_cmp(FWord.identity(), psi(u)) is Cmp.LESS


class TestCurveOrderLaws:
    def test_strict_total_order_on_sample(self, rng):
        words = [random_fword(rng) for _ in range(120)]
        for a, b in itertools.combinations(words, 2):
            forward, backward = curve_cmp(a, b), curve_cmp(b, a)
            if a == b:
                assert forward is Cmp.EQUAL and backward is Cmp.EQUAL
            else:
                assert forward is not Cmp.EQUAL
                assert backward is forward.reverse()

    def test_transitivity_sampled(self, rng):
        words = [random_fword(rng) for _ in range(80)]
        for _ in range(4000):
            a, b, c = (rng.choice(words) for _ in range(3))
            if curve_cmp(a, b) is Cmp.LESS and curve_cmp(b, c) is Cmp.LESS:
                assert curve_cmp(a, c) is Cmp.LESS

    def test_braid_invariance(self, rng):
        for _ in range(300):
            b = random_braid(rng)
            u, v = random_fword(rng), random_fword(rng)
            assert curve_cmp(u, v) is curve_cmp(apply_word(b, u), apply_word(b, v))

    def test_embedding_monotonicity(self, rng):
        # Comparison never inspects an ambient rank (vacuous by
        # construction); the substantive regression is shift-equivariance,
        # the index-raising embedding of the same fact.
        for _ in range(200):
            u, v = random_fword(rng, max_index=4), random_fword(rng, max_index=4)
            for k in (1, 3):
                assert curve_cmp(u.shift(k), v.shift(k)) is curve_cmp(u, v)


def reference_parse_fword(text: str) -> FWord:
    """The per-token loop ``parse_fword`` replaced: FLetter pairs, then ``reduce``."""
    letters = []
    pos = 0
    for token in text.split():
        offset = text.index(token, pos)
        pos = offset + len(token)
        body = token
        sign = 1
        if body.endswith("^-1"):
            sign = -1
            body = body[:-3]
        digits = body[1:]
        if not body.startswith("e") or not (digits.isascii() and digits.isdigit()):
            raise FWordParseError("expected e<digits>[^-1]", offset, token)
        try:
            index = int(digits)
        except ValueError:
            raise FWordParseError("generator index has too many digits", offset, token)
        if index < 1:
            raise FWordParseError("generator index must be >= 1", offset, token)
        letters.append(FLetter(index, sign))
    return reduce(letters)


# Free-group word text: tokens, well formed or built from grammar pieces, with
# runs of whitespace between them; well-formed neighbours often cancel.
F_PIECES = ["e", "E", "s", "0", "1", "9", "10", "^-1", "^", "-1", "(", "\u00b2", "\u0663"]
F_TOKENS = st.one_of(
    st.builds(str.format, st.sampled_from(["e{}", "e{}^-1"]), st.integers(1, 4)),
    st.builds(str.format, st.sampled_from(["e{}", "e{}^-1"]), st.integers(1, 4)),
    st.lists(st.sampled_from(F_PIECES), min_size=1, max_size=4).map("".join),
)
F_GAPS = st.lists(st.sampled_from([" ", "\t", "\n", "\xa0", "\u3000"]), max_size=3).map("".join)
F_TEXTS = st.builds(
    lambda parts, end: "".join(gap + token for gap, token in parts) + end,
    st.lists(st.tuples(F_GAPS, F_TOKENS), max_size=8),
    F_GAPS,
)
TOO_LONG = "e" + "1" * (sys.get_int_max_str_digits() + 1)
TOO_LONG_ZERO = "e" + "0" * (sys.get_int_max_str_digits() + 1)  # digits first, then >= 1


class TestParseAgainstReference:
    @given(F_TEXTS)
    @example(f"e1 {TOO_LONG} e0")
    @example(f"e2^-1 e0 {TOO_LONG}")
    @example(f"e1 {TOO_LONG_ZERO}^-1")
    def test_matches_token_loop(self, text):
        try:
            expected = reference_parse_fword(text)
        except FWordParseError as exc:
            with pytest.raises(FWordParseError) as info:
                parse_fword(text)
            assert (str(info.value), info.value.offset, info.value.token) == (
                str(exc), exc.offset, exc.token
            )
        else:
            assert parse_fword(text) == expected


class TestFWordGrammar:
    def test_round_trip(self):
        assert str(fw("e1 e2^-1")) == "e1 e2^-1"

    def test_empty(self):
        assert fw("") == FWord.identity()

    @pytest.mark.parametrize("bad", ["x1", "e0", "e", "e1^1"])
    def test_rejects(self, bad):
        with pytest.raises(FWordParseError):
            parse_fword(bad)

    def test_offset_reported(self):
        with pytest.raises(FWordParseError) as info:
            parse_fword("e1 f2")
        assert info.value.offset == 3
        assert info.value.token == "f2"

    def test_index_too_long_for_int_is_parse_error(self):
        token = "e" + "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(FWordParseError) as info:
            parse_fword(f"e1 {token}")
        assert info.value.offset == 3 and info.value.token == token

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff11"])
    def test_non_ascii_digits_rejected(self, digit):
        # 'e\u00b2' made int() raise a bare ValueError; 'e\u0663' read as e3.
        for token in (f"e{digit}", f"e1{digit}^-1"):
            with pytest.raises(FWordParseError) as info:
                parse_fword(f"e1 {token}")
            assert info.value.offset == 3
            assert info.value.token == token

    @pytest.mark.parametrize("parse, valid, bad", [
        (parse_fword, ["", "e1 e2^-1", "\u3000e3\ne3^-1 e1\t"], "e1 e2 f2"),
        (parse_rword, ["", "s1 x2 s3^-1", "\u3000x1\ns2^-1 x1\t"], "s1 x2 x3^-1"),
    ])
    def test_only_a_failing_token_is_located(self, monkeypatch, parse, valid, bad):
        expected = [parse(text) for text in valid]
        with pytest.raises(ParseError) as info:
            parse(bad)
        monkeypatch.setattr(freegroup, "_offset", no_offset)
        assert [parse(text) for text in valid] == expected
        with pytest.raises(OffsetRan):
            parse(bad)
        assert (info.value.offset, info.value.token) == (6, bad.split()[2])

    def test_grammar_errors_share_one_base(self):
        for error in (FWordParseError, RWordParseError, TermParseError):
            assert issubclass(error, ParseError) and "__init__" not in vars(error)
        exc = TermParseError("expected ')'", 6, "")
        assert isinstance(exc, ValueError)
        assert str(exc) == "expected ')' (offset 6, token '')"
        assert (exc.offset, exc.token) == (6, "")
