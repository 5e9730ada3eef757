import pickle
import sys

import pytest
from hypothesis import given, strategies as st

from shrinkbraid import freegroup, ldops
from shrinkbraid import (
    BElement,
    Cmp,
    LEAF,
    RWord,
    XLetterPresentError,
    b_circ,
    b_dot,
    circ,
    dot,
    enumerate_terms,
    eval_term,
    eval_term_b,
    laver_cmp,
    ld_circ,
    ld_dot,
    morphism_eq,
    parse_rword,
    parse_term,
    shift,
    shift_vector,
    sigma,
    sigma_inv,
    x,
)
from shrinkbraid.freegroup import BudgetError
from shrinkbraid.ldops import (
    LDTerm,
    RealizationBudgetError,
    TermDepthError,
    TermParseError,
    sigma_on_braids,
)
from shrinkbraid.words import braid_inverse, free_cancel, sx_decompose
from shrinkbraid.xmonoid import XWord, x_canonicalize

from conftest import (
    OffsetRan,
    chain_circ,
    chain_dot,
    children,
    gen_braid_inverse,
    gen_free_cancel,
    gen_shift,
    no_offset,
    random_braid,
    recursive_parse_term,
)


E = RWord.identity()


def random_term(rng, depth: int) -> LDTerm:
    if depth == 0 or rng.random() < 0.25:
        return LEAF
    op = dot if rng.random() < 0.5 else circ
    return op(random_term(rng, depth - 1), random_term(rng, depth - 1))


def rewriting_b_dot(a: BElement, c: BElement) -> BElement:
    """The oracle for ``b_dot``: build the displayed word, then rewrite.

    a sh^n(c x_1^{m-1}) s_n ... s_1 sh(a^-1) has its x letters pushed to the
    tail by ``sx_decompose``; the tail must canonicalize to a power of x_1.
    """
    n = a.n
    word = (
        a.braid
        * shift(c.realize(), n)
        * RWord(sigma(i) for i in range(n, 0, -1))
        * shift(braid_inverse(a.braid), 1)
    )
    braid_part, x_part = sx_decompose(word)
    canon = x_canonicalize(XWord.from_rword(x_part))
    assert all(i == 1 for i in canon.indices), f"dot left the braid-power family: {canon}"
    return BElement(free_cancel(braid_part), len(canon) + 1)


def rewriting_eval(t: LDTerm) -> BElement:
    op, left, right = children(t)
    if op is None:
        return BElement(E, 1)
    lhs, rhs = rewriting_eval(left), rewriting_eval(right)
    return rewriting_b_dot(lhs, rhs) if op == "dot" else b_circ(lhs, rhs)


def exact_depth_term(rng, depth: int) -> LDTerm:
    """A term of exactly this depth: one child one level down, the other lower."""
    if depth == 0:
        return LEAF
    deep = exact_depth_term(rng, depth - 1)
    other = exact_depth_term(rng, rng.randint(0, depth - 1))
    op = dot if rng.random() < 0.5 else circ
    return op(deep, other) if rng.random() < 0.5 else op(other, deep)


class TestClosedFormDot:
    """``b_dot`` gives the very word the rewriting oracle gives."""

    def test_every_term_of_depth_three(self):
        for t in enumerate_terms(3):
            assert eval_term_b(t) == rewriting_eval(t), str(t)

    def test_random_terms_of_depth_four_to_eight(self, rng):
        for _ in range(200):
            t = exact_depth_term(rng, rng.randint(4, 8))
            assert eval_term_b(t) == rewriting_eval(t), str(t)

    def test_random_elements(self, rng):
        for _ in range(100):
            a = BElement(random_braid(rng, max_len=4), rng.randint(1, 4))
            c = BElement(random_braid(rng, max_len=4), rng.randint(1, 4))
            assert b_dot(a, c) == rewriting_b_dot(a, c)

    def test_uncancelled_elements(self, rng):
        # Circle products are not free-cancelled, so the dot must also
        # cancel inside its left factor.
        s2_s1_inv = b_circ(BElement(parse_rword("s2"), 1), BElement(parse_rword("s1^-1"), 1))
        assert s2_s1_inv.braid == parse_rword("s2 s2^-1")
        assert b_dot(s2_s1_inv, BElement(E, 1)) == rewriting_b_dot(s2_s1_inv, BElement(E, 1))
        for _ in range(100):
            letters = list(random_braid(rng, max_len=4).letters)
            i = rng.randint(1, 5)
            letters[rng.randint(0, len(letters)):0] = [sigma(i), sigma_inv(i)]
            a = BElement(RWord(letters), rng.randint(1, 4))
            c = BElement(random_braid(rng, max_len=4), rng.randint(1, 4))
            assert b_dot(a, c) == rewriting_b_dot(a, c)
            assert b_dot(c, a) == rewriting_b_dot(c, a)


class TestWordFormulas:
    def test_dot_of_identities(self):
        assert ld_dot(E, E) == parse_rword("s1")

    def test_dot_general(self):
        assert ld_dot(parse_rword("s1"), E) == parse_rword("s1 s1 s2^-1")

    def test_dot_by_substitution_oracle(self, rng):
        from shrinkbraid import braid_inverse

        for _ in range(30):
            a, b = random_braid(rng, max_len=4), random_braid(rng, max_len=4)
            expected = a * shift(b, 1) * RWord([sigma(1)]) * shift(braid_inverse(a), 1)
            assert ld_dot(a, b) == expected

    def test_circ_of_identities(self):
        assert ld_circ(E, E) == parse_rword("x1")

    def test_circ_general(self):
        assert ld_circ(parse_rword("s2"), parse_rword("s1")) == parse_rword("s2 s2 x1")

    def test_reject_x_letters(self):
        with pytest.raises(XLetterPresentError):
            ld_dot(parse_rword("x1"), E)
        with pytest.raises(XLetterPresentError):
            ld_circ(E, parse_rword("x1"))

    def test_ld_law_instance_at_identity(self):
        lhs = ld_dot(E, ld_dot(E, E))
        rhs = ld_dot(ld_dot(E, E), ld_dot(E, E))
        assert morphism_eq(lhs, rhs)
        assert morphism_eq(lhs, parse_rword("s2 s1"))

    def test_monoid_law_instance_at_identity(self):
        assert morphism_eq(ld_circ(ld_dot(E, E), E), ld_circ(E, E))

    def test_circ_associativity_at_identity(self):
        nested_left = b_circ(b_circ(BElement(E, 1), BElement(E, 1)), BElement(E, 1))
        nested_right = b_circ(BElement(E, 1), b_circ(BElement(E, 1), BElement(E, 1)))
        assert nested_left == nested_right == BElement(E, 3)
        # e o (e o e) realizes as sh(x1) x1 = x2 x1 = x1 x1 by the pants relation.
        literal = E * shift(parse_rword("x1"), 1) * parse_rword("x1")
        assert morphism_eq(literal, nested_right.realize())


class TestBElement:
    def test_power_constraints(self):
        with pytest.raises(ValueError):
            BElement(E, 0)
        with pytest.raises(XLetterPresentError):
            BElement(parse_rword("x1"), 1)

    def test_realize(self):
        assert BElement(parse_rword("s1"), 3).realize() == parse_rword("s1 x1 x1")

    def test_value_semantics(self):
        a = BElement(parse_rword("s1"), 3)
        b = BElement(parse_rword("s1"), 3)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != BElement(parse_rword("s1"), 2) and a != BElement(E, 3)
        assert a != (parse_rword("s1"), 3)
        assert repr(a) == "BElement(braid=RWord('s1'), n=3)"
        assert pickle.loads(pickle.dumps(a)) == a

    def test_fields_are_read_only(self):
        a = BElement(parse_rword("s1"), 3)
        with pytest.raises(AttributeError):
            a.n = 0
        with pytest.raises(AttributeError):
            a.braid = parse_rword("x1")
        with pytest.raises(AttributeError):
            del a.n
        with pytest.raises(AttributeError):
            a.extra = 1
        assert (a.braid, a.n) == (parse_rword("s1"), 3)

    def test_b_circ_examples(self):
        assert b_circ(BElement(E, 1), BElement(E, 1)) == BElement(E, 2)
        assert b_circ(BElement(E, 2), BElement(E, 1)) == BElement(E, 3)

    def test_b_dot_example(self):
        result = b_dot(BElement(E, 2), BElement(E, 1))
        assert result.n == 1
        assert morphism_eq(result.braid, parse_rword("s2 s1"))

    def test_b_dot_on_braids_matches_ld_dot(self, rng):
        for _ in range(25):
            a, b = random_braid(rng, max_len=4), random_braid(rng, max_len=4)
            result = b_dot(BElement.from_braid(a), BElement.from_braid(b))
            assert result.n == 1
            assert morphism_eq(result.braid, ld_dot(a, b))

    def test_b_circ_matches_displayed_formula(self, rng):
        for _ in range(25):
            a = BElement(random_braid(rng, max_len=3), rng.randint(1, 3))
            c = BElement(random_braid(rng, max_len=3), rng.randint(1, 3))
            literal = a.braid * shift(c.realize(), a.n) * RWord((x(1),) * a.n)
            assert morphism_eq(b_circ(a, c).realize(), literal)

    def test_b_dot_matches_displayed_formula(self, rng):
        from shrinkbraid import braid_inverse

        for _ in range(25):
            a = BElement(random_braid(rng, max_len=3), rng.randint(1, 3))
            c = BElement(random_braid(rng, max_len=3), rng.randint(1, 3))
            n = a.n
            literal = (
                a.braid
                * shift(c.realize(), n)
                * RWord(sigma(i) for i in range(n, 0, -1))
                * shift(braid_inverse(a.braid), 1)
            )
            assert morphism_eq(b_dot(a, c).realize(), literal)


class TestEvalTerm:
    def test_leaf(self):
        assert eval_term(LEAF) == E

    def test_dot_leaf(self):
        assert eval_term(dot(LEAF, LEAF)) == parse_rword("s1")

    def test_circ_leaf(self):
        assert eval_term(circ(LEAF, LEAF)) == parse_rword("x1")

    def test_circ_power_counts_leaves(self, rng):
        for _ in range(20):
            t = random_term(rng, 3)
            element = eval_term_b(t)
            assert element.realize().x_count() == element.n - 1

    def test_equal_elements_share_circ_length(self, rng):
        # Power well-definedness: LD-monoid-law rewrites preserve the
        # x1 exponent of the realization.
        for _ in range(40):
            a, b = random_term(rng, 2), random_term(rng, 2)
            lhs = eval_term_b(circ(dot(a, b), a))
            rhs = eval_term_b(circ(a, b))
            assert morphism_eq(lhs.realize(), rhs.realize())
            assert lhs.n == rhs.n

    def test_deep_term_needs_no_recursion(self):
        t = LEAF
        for _ in range(5000):
            t = circ(LEAF, t)
        assert eval_term_b(t) == BElement(E, 5001)

    def test_deep_term_depth_and_text_need_no_recursion(self):
        t = LEAF
        for _ in range(5000):
            t = circ(LEAF, t)
        assert t.depth() == 5000
        assert str(t) == "(j o " * 5000 + "j" + ")" * 5000

    def test_deep_terms_hash_and_compare_without_recursion(self):
        t, u = LEAF, LEAF
        for _ in range(5000):
            t, u = circ(LEAF, t), circ(LEAF, u)
        assert t is not u
        assert t == u and hash(t) == hash(u)
        assert t != circ(LEAF, u)

    def test_deep_term_repr_needs_no_recursion(self):
        t = LEAF
        for _ in range(5000):
            t = circ(LEAF, t)
        assert repr(t) == f"LDTerm({str(t)!r})"
        assert repr(dot(LEAF, LEAF)) == "LDTerm('(j . j)')"


def _letter(g: int):
    return sigma(g) if g > 0 else sigma_inv(-g)


# Signed braid words in the kernel's encoding, built from single letters and
# adjacent cancelling pairs g, -g so that cancellation has work to do.
signed_letters = st.integers(1, 6).flatmap(lambda i: st.sampled_from((i, -i)))
chunks = st.one_of(signed_letters.map(lambda g: (g,)), signed_letters.map(lambda g: (g, -g)))
encoded_words = st.lists(chunks, max_size=8).map(lambda cs: tuple(g for c in cs for g in c))


class TestIntKernel:
    """The code-tuple kernel against the reference Generator code in ``conftest``."""

    @given(encoded_words)
    def test_round_trip(self, word):
        braid = RWord(map(_letter, word))
        assert ldops._element(word, 1).braid == braid
        assert braid.codes == word

    @given(encoded_words, st.integers(0, 4))
    def test_shift(self, word, k):
        braid = RWord(map(_letter, word))
        assert tuple(ldops._shifted(word, k)) == RWord(gen_shift(braid.letters, k)).codes

    @given(encoded_words, st.integers(0, 4))
    def test_inverse(self, word, k):
        braid = RWord(map(_letter, word))
        expected = RWord(gen_shift(gen_braid_inverse(braid.letters), k)).codes
        assert tuple(ldops._inverse_shifted(word, k)) == expected

    @given(encoded_words)
    def test_cancellation(self, word):
        braid = RWord(map(_letter, word))
        assert freegroup._reduced(word) == RWord(gen_free_cancel(braid.letters)).codes

    # a is left uncancelled, as a circle product's braid is.
    @given(
        st.tuples(encoded_words, encoded_words).map(lambda p: p[0] + p[1]),
        st.integers(1, 5),
        encoded_words,
        st.integers(1, 5),
    )
    def test_kernels_match_the_generator_chain_reference(self, a, n, c, m):
        assert ldops._dot((a, n), (c, m)) == chain_dot(a, n, c, m)
        assert ldops._circ((a, n), (c, m)) == chain_circ(a, n, c, m)

    # The kernels build nothing for an empty operand, so each side is drawn
    # empty in turn, and both, as at the leaf ((), 1).
    @given(
        st.sampled_from(["left", "right", "both"]),
        encoded_words,
        st.integers(1, 5),
        encoded_words,
        st.integers(1, 5),
    )
    def test_kernels_with_an_empty_operand(self, empty, a, n, c, m):
        a = () if empty != "right" else a
        c = () if empty != "left" else c
        assert ldops._dot((a, n), (c, m)) == chain_dot(a, n, c, m)
        assert ldops._circ((a, n), (c, m)) == chain_circ(a, n, c, m)

    def test_empty_operands_are_not_shifted_or_inverted(self, monkeypatch):
        def no_letters(*args):
            raise AssertionError("an empty word was shifted or inverted")

        for name in ("_shifted", "_inverse_shifted"):
            monkeypatch.setattr(ldops, name, no_letters)
        assert ldops._dot(((), 1), ((), 1)) == ((1,), 1)
        assert ldops._dot(((), 2), ((), 2)) == ((2, 3, 1, 2), 2)
        assert ldops._circ(((1, -2), 1), ((), 3)) == ((1, -2), 4)


def terms_to_depth(depth: int):
    """Terms of depth at most ``depth``, built bottom up by dot and circ."""
    if depth == 0:
        return st.just(LEAF)
    inner = terms_to_depth(depth - 1)
    return st.one_of(st.just(LEAF), st.builds(dot, inner, inner), st.builds(circ, inner, inner))


@given(terms_to_depth(6))
def test_eval_term_realizes_what_eval_term_b_gives(t):
    assert eval_term(t) == eval_term_b(t).realize()


def refuse_letters(monkeypatch):
    """Make the dot kernel's letter builders raise, so a passing check is seen.

    W's runs come from ``range``, then ``_inverse_shifted`` and ``_reduced``
    build the rest; the dots below have empty a and c, so no other letter
    exists.  The circle kernel calls none of them.
    """

    def no_letters(*args):
        raise AssertionError("a letter was built")

    monkeypatch.setattr(ldops, "range", no_letters, raising=False)
    for name in ("_inverse_shifted", "_reduced"):
        monkeypatch.setattr(ldops, name, no_letters)


class TestRealizationBudget:
    @staticmethod
    def left_nested(depth: int) -> LDTerm:
        t = LEAF
        for _ in range(depth):
            t = dot(t, LEAF)
        return t

    def test_budget_bounds_every_subterm(self, monkeypatch):
        # A left-nested dot term of depth d realizes 2^d - 1 letters.
        monkeypatch.setattr(ldops, "MAX_REALIZED_LETTERS", 63)
        assert len(eval_term(self.left_nested(6))) == 63
        with pytest.raises(RealizationBudgetError):
            eval_term(self.left_nested(7))
        with pytest.raises(RealizationBudgetError):
            eval_term(circ(self.left_nested(6), self.left_nested(6)))

    def test_budget_is_a_value_error(self):
        assert issubclass(RealizationBudgetError, ValueError)
        assert ldops.MAX_REALIZED_LETTERS == 1 << 16

    def test_dot_is_refused_before_its_word_is_built(self, monkeypatch):
        # T_{k+1} = (T_k o T_k) has power 2^k and no braid letters, so the
        # dot (T_k . T_k) has a middle factor W of 4^k positive letters.
        t = LEAF
        for _ in range(12):
            t = circ(t, t)
        assert eval_term_b(t).n == 1 << 12

        refuse_letters(monkeypatch)
        with pytest.raises(RealizationBudgetError) as info:
            eval_term_b(dot(t, t))
        least = (1 << 24) + (1 << 12) - 1
        assert str(info.value) == (
            f"realized word of at least {least} letters exceeds the budget of {1 << 16}"
        )

    def test_small_budget_refuses_the_dot_before_its_word_is_built(self, monkeypatch):
        monkeypatch.setattr(ldops, "MAX_REALIZED_LETTERS", 2)
        refuse_letters(monkeypatch)
        two = circ(LEAF, LEAF)  # x_1: power 2, no braid letters
        with pytest.raises(RealizationBudgetError) as info:
            eval_term_b(dot(two, two))  # n*m + m - 1 = 5 letters at least
        assert str(info.value) == "realized word of at least 5 letters exceeds the budget of 2"

    def test_public_products_are_held_to_the_budget(self, monkeypatch):
        # n = m = 300: W alone has 90,000 letters.
        big = BElement(RWord(), 300)
        refuse_letters(monkeypatch)
        with pytest.raises(RealizationBudgetError) as info:
            b_dot(big, big)
        assert str(info.value) == (
            f"realized word of at least {90000 + 299} letters exceeds the budget of {1 << 16}"
        )
        with pytest.raises(RealizationBudgetError) as info:
            b_circ(BElement(RWord(), 1 << 16), BElement(RWord(), 2))  # x_1^(2^16 + 1)
        assert str(info.value) == (
            f"realized word of {(1 << 16) + 1} letters exceeds the budget of {1 << 16}"
        )

    def test_exact_message_where_the_bound_passes(self, monkeypatch):
        monkeypatch.setattr(ldops, "MAX_REALIZED_LETTERS", 2)
        with pytest.raises(RealizationBudgetError) as info:
            eval_term(dot(dot(LEAF, LEAF), LEAF))
        assert str(info.value) == "realized word of 3 letters exceeds the budget of 2"
        with pytest.raises(RealizationBudgetError) as info:
            eval_term(circ(dot(LEAF, LEAF), circ(LEAF, LEAF)))  # s1 x1 x1
        assert str(info.value) == "realized word of 3 letters exceeds the budget of 2"


class TestBudgetEdges:
    """Exactly the budget passes and one letter less raises, for the kernels
    with an empty operand: the dot's bound before its word is built is then
    exact only when c is empty too."""

    @pytest.mark.parametrize("c, n, m", [((1, -2), 2, 3), ((), 2, 3), ((3,), 1, 1)])
    def test_dot_with_an_empty_left_operand(self, monkeypatch, c, n, m):
        word, power = chain_dot((), n, c, m)
        size = len(word) + m - 1
        assert size == len(c) + n * m + m - 1
        monkeypatch.setattr(ldops, "MAX_REALIZED_LETTERS", size)
        assert ldops._dot(((), n), (c, m)) == (word, power)
        monkeypatch.setattr(ldops, "MAX_REALIZED_LETTERS", size - 1)
        with pytest.raises(RealizationBudgetError) as info:
            ldops._dot(((), n), (c, m))
        at_least = "" if c else "at least "
        assert str(info.value) == (
            f"realized word of {at_least}{size} letters exceeds the budget of {size - 1}"
        )

    @pytest.mark.parametrize("a, n, m", [((1, -2), 1, 3), ((2,), 4, 1), ((), 1, 1)])
    def test_circ_with_an_empty_right_operand(self, monkeypatch, a, n, m):
        size = len(a) + n + m - 1
        monkeypatch.setattr(ldops, "MAX_REALIZED_LETTERS", size)
        assert ldops._circ((a, n), ((), m)) == (a, n + m)
        monkeypatch.setattr(ldops, "MAX_REALIZED_LETTERS", size - 1)
        with pytest.raises(RealizationBudgetError) as info:
            ldops._circ((a, n), ((), m))
        assert str(info.value) == f"realized word of {size} letters exceeds the budget of {size - 1}"


class TestAlgebraicLaws:
    def test_ld_law(self, rng):
        for _ in range(40):
            a, b, c = (eval_term_b(random_term(rng, 3)) for _ in range(3))
            lhs = b_dot(a, b_dot(b, c))
            rhs = b_dot(b_dot(a, b), b_dot(a, c))
            assert morphism_eq(lhs.realize(), rhs.realize())

    def test_monoid_laws(self, rng):
        for _ in range(40):
            j, g, h = (eval_term_b(random_term(rng, 3)) for _ in range(3))
            pairs = [
                (b_dot(j, b_circ(g, h)), b_circ(b_dot(j, g), b_dot(j, h))),
                (b_circ(b_dot(j, h), j), b_circ(j, h)),
                (b_dot(j, b_dot(h, g)), b_dot(b_circ(j, h), g)),
            ]
            for lhs, rhs in pairs:
                assert morphism_eq(lhs.realize(), rhs.realize())

    def test_circ_associative(self, rng):
        for _ in range(40):
            a, b, c = (eval_term_b(random_term(rng, 3)) for _ in range(3))
            lhs = b_circ(a, b_circ(b, c))
            rhs = b_circ(b_circ(a, b), c)
            assert morphism_eq(lhs.realize(), rhs.realize())


class TestLaverOrder:
    def test_dot_ascends(self):
        assert laver_cmp(LEAF, dot(LEAF, LEAF)) is Cmp.LESS

    def test_circ_descends(self):
        # The representation order extends Dehornoy, which forces circle
        # products below their left factor; see the ldops module note.
        assert laver_cmp(LEAF, circ(LEAF, LEAF)) is Cmp.GREATER

    def test_reflexive(self):
        t = dot(circ(LEAF, LEAF), LEAF)
        assert laver_cmp(t, t) is Cmp.EQUAL

    def test_monotonicity(self, rng):
        for _ in range(60):
            a, b = random_term(rng, 2), random_term(rng, 2)
            assert laver_cmp(a, dot(a, b)) is Cmp.LESS
            assert laver_cmp(a, circ(a, b)) is Cmp.GREATER

    def test_linear_on_depth_two(self):
        terms = enumerate_terms(2)
        for s in terms:
            for t in terms:
                forward = laver_cmp(s, t)
                assert laver_cmp(t, s) is forward.reverse()

    def test_equal_iff_same_element(self, rng):
        for _ in range(30):
            s, t = random_term(rng, 2), random_term(rng, 2)
            same = morphism_eq(eval_term(s), eval_term(t))
            assert (laver_cmp(s, t) is Cmp.EQUAL) == same


class TestShiftVector:
    def test_examples(self):
        assert shift_vector([E, E]) == E
        assert shift_vector([parse_rword("s1"), parse_rword("s1")]) == parse_rword("s1 s2")

    def test_shift_lemma(self, rng):
        # sh(g(a)) = sh(a) g for positive braid generators acting on
        # braid sequences.
        for _ in range(40):
            n = rng.randint(2, 4)
            braids = tuple(random_braid(rng, max_len=3) for _ in range(n))
            i = rng.randint(1, n - 1)
            lhs = shift_vector(sigma_on_braids(i, braids))
            rhs = shift_vector(braids) * RWord([sigma(i)])
            assert morphism_eq(lhs, rhs)

    def test_identity_instance(self):
        assert morphism_eq(
            shift_vector(sigma_on_braids(1, (E, E))), shift_vector((E, E)) * parse_rword("s1")
        )

    def test_sigma_position_validated(self):
        with pytest.raises(IndexError):
            sigma_on_braids(2, (E, E))


TERM_TEXTS = st.recursive(
    st.just("j"),
    lambda inner: st.tuples(inner, st.sampled_from(".o"), inner).map(
        lambda p: f"({p[0]} {p[1]} {p[2]})"
    ),
    max_leaves=6,
)
# Separators beyond ASCII whitespace, on which str.split and the reference
# parser's regex \s must agree for parse_term to match the recursive parser.
UNICODE_SPACES = ["\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
TOKEN_SOUP = st.lists(
    st.tuples(
        st.sampled_from(["j", "(", ")", ".", "o", "k", "jo", "*", "(j", "\u0135", "j\u0135"]),
        st.sampled_from(["", " ", "\t", "\r\n ", *UNICODE_SPACES]),
    ),
    max_size=14,
).map(lambda pairs: "".join(token + sep for token, sep in pairs))


def spliced(text, k, drop, insert):
    """``text`` with ``drop`` characters at position k replaced by ``insert``."""
    k %= len(text) + 1
    return text[:k] + insert + text[k + drop :]


SPOILED_TERMS = st.builds(
    spliced,
    TERM_TEXTS,
    st.integers(0, 40),
    st.integers(0, 1),
    st.sampled_from(["", " j", "(", ")", ".", " o ", "x", " ", "\u0135", *UNICODE_SPACES]),
)


BUILT_TERMS = st.recursive(
    st.just(LEAF),
    lambda inner: st.builds(dot, inner, inner) | st.builds(circ, inner, inner),
    max_leaves=8,
)


def parse_outcome(parse, text):
    """The parsed term's text, or the message, offset and token of the error."""
    try:
        return str(parse(text))
    except TermParseError as exc:
        return str(exc), exc.offset, exc.token


class TestTermGrammar:
    def test_round_trip(self):
        text = "((j . j) o (j . (j o j)))"
        assert str(parse_term(text)) == text

    def test_leaf(self):
        assert parse_term("j") == LEAF

    def test_postfix_format(self):
        assert LEAF.postfix == ("j",)
        assert parse_term("((j . j) o j)").postfix == ("j", "j", ".", "j", "o")
        assert circ(dot(LEAF, LEAF), LEAF).postfix == ("j", "j", ".", "j", "o")
        with pytest.raises(TypeError):
            LDTerm()

    def test_parse_builds_one_term(self, monkeypatch):
        built = []
        term = ldops._term

        def counted(postfix):
            built.append(postfix)
            return term(postfix)

        monkeypatch.setattr(ldops, "_term", counted)
        parse_term("((j . j) o (j . (j o j)))")
        assert len(built) == 1

    @given(BUILT_TERMS)
    def test_built_terms_match_their_parsed_text(self, t):
        parsed = parse_term(str(t))
        assert parsed == t and hash(parsed) == hash(t)
        assert eval_term_b(parsed) == eval_term_b(t)

    @pytest.mark.parametrize("bad", ["", "(j j)", "(j .", "(j . j) extra", "k", "(j * j)"])
    def test_rejects(self, bad):
        with pytest.raises(TermParseError):
            parse_term(bad)

    def test_error_offset_counts_tabs_and_newlines(self):
        with pytest.raises(TermParseError) as info:
            parse_term("(j\t.\n\t(j o\r\n k))")
        assert info.value.offset == 13 and info.value.token == "k"

    @given(st.one_of(TERM_TEXTS, TOKEN_SOUP, SPOILED_TERMS))
    def test_agrees_with_the_recursive_parser(self, text):
        assert parse_outcome(parse_term, text) == parse_outcome(recursive_parse_term, text)

    def test_error_offset_counts_unicode_separators(self):
        with pytest.raises(TermParseError) as info:
            parse_term("(j\u3000.\u3000k)")
        assert info.value.offset == 5 and info.value.token == "k"

    def test_late_failing_token_is_located_across_every_separator(self):
        # parse_term cuts tokens with str.split and locates a failing one by
        # searching the text; the recursive parser matches a regex.
        spaces = [chr(i) for i in range(sys.maxunicode + 1) if chr(i).isspace()]
        assert set(UNICODE_SPACES) < set(spaces)
        for s in spaces:
            text = f"{s}(j{s}.{s}(j{s}o{s}(j)){s}\u0135{s}"
            outcome = parse_outcome(parse_term, text)
            assert outcome[2] == ")" and outcome == parse_outcome(recursive_parse_term, text)
            text = f"(j{s}.{s}(j{s}o{s}j)){s}\u0135{s}"
            outcome = parse_outcome(parse_term, text)
            assert outcome[2] == "\u0135" and outcome == parse_outcome(recursive_parse_term, text)

    @given(TERM_TEXTS)
    def test_valid_text_is_read_without_locating_a_token(self, text):
        expected = recursive_parse_term(text)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ldops, "_offset", no_offset)
            assert parse_term(text) == expected

    def test_only_a_failing_token_is_located(self, monkeypatch):
        depth = ldops.MAX_TERM_DEPTH
        deepest = "(j . " * depth + "j" + ")" * depth
        monkeypatch.setattr(ldops, "_offset", no_offset)
        assert parse_term(deepest).depth() == depth
        with pytest.raises(OffsetRan):
            parse_term("(j * j)")
        monkeypatch.undo()
        with pytest.raises(TermParseError) as info:
            parse_term("(j * j)")
        assert (str(info.value), info.value.offset, info.value.token) == (
            parse_outcome(recursive_parse_term, "(j * j)")
        )

    def test_depth_budget(self):
        assert issubclass(TermDepthError, BudgetError)
        depth = ldops.MAX_TERM_DEPTH
        assert depth == 1000
        deepest = "(j . " * depth + "j" + ")" * depth
        assert parse_term(deepest).depth() == depth
        with pytest.raises(TermDepthError) as info:
            parse_term("(" + deepest + " o j)")
        assert str(info.value) == "term nested too deeply"

    def test_pickle_goes_through_the_text(self):
        t = LEAF
        for _ in range(1000):
            t = circ(LEAF, t)
        assert pickle.loads(pickle.dumps(t)) == t
        for _ in range(4000):
            t = circ(LEAF, t)
        data = pickle.dumps(t)  # the text of a 5,000-deep term
        with pytest.raises(TermDepthError):
            pickle.loads(data)

    def test_depth_and_text_match_recursive_definitions(self):
        def depth(t):
            op, left, right = children(t)
            return 0 if op is None else 1 + max(depth(left), depth(right))

        def text(t):
            op, left, right = children(t)
            if op is None:
                return "j"
            return f"({text(left)} {'.' if op == 'dot' else 'o'} {text(right)})"

        for t in enumerate_terms(3):
            assert t.depth() == depth(t)
            assert str(t) == text(t)
            assert parse_term(str(t)) == t

    def test_equality_is_structural(self):
        def same(s, t):
            (s_op, s_left, s_right), (t_op, t_left, t_right) = children(s), children(t)
            if s_op is None or t_op is None:
                return s_op is t_op
            return s_op == t_op and same(s_left, t_left) and same(s_right, t_right)

        terms = enumerate_terms(2)
        for s in terms:
            for t in terms:
                assert (s == t) == same(s, t)
                if s == t:
                    assert hash(s) == hash(t)

    def test_enumerate_counts(self):
        assert len(enumerate_terms(0)) == 1
        assert len(enumerate_terms(1)) == 3
        assert len(enumerate_terms(2)) == 19
        assert len(enumerate_terms(3)) == 723
