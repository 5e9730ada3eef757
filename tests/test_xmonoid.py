import pickle
import random
import time
from bisect import bisect_left

import pytest
from hypothesis import given, strategies as st

from shrinkbraid import Cmp, cmp_L, morphism_eq, xmonoid
from shrinkbraid.freegroup import BudgetError
from shrinkbraid.words import parse_rword
from shrinkbraid.xmonoid import (
    SequenceBudgetError,
    XSeq,
    XWord,
    lex_cmp,
    p_eval,
    s_of,
    seq_compose,
    sf_eval,
    x_canonicalize,
)

from conftest import padded_lex_cmp, walk_x_canonicalize


indices = st.lists(st.integers(1, 6), max_size=8)


def xw(*idx: int) -> XWord:
    return XWord(tuple(idx))


class TestCanonicalize:
    @pytest.mark.parametrize(
        "before, after",
        [((2, 1), (1, 1)), ((1, 3), (1, 3)), ((3, 1), (1, 2)), ((), ())],
    )
    def test_examples(self, before, after):
        assert x_canonicalize(XWord(before)) == XWord(after)

    @given(indices)
    def test_ascending_and_idempotent(self, idx):
        canon = x_canonicalize(XWord(tuple(idx)))
        assert canon.is_canonical()
        assert x_canonicalize(canon) == canon
        assert len(canon) == len(idx)

    @given(indices)
    def test_preserves_element(self, idx):
        word = XWord(tuple(idx))
        assert morphism_eq(word.to_rword(), x_canonicalize(word).to_rword())

    def test_uniqueness_under_random_walks(self, rng):
        # Words related by the defining relation share a canonical form,
        # whatever order the rewrites were applied in.
        for _ in range(200):
            seq = [rng.randint(1, 5) for _ in range(rng.randrange(0, 7))]
            word = XWord(tuple(seq))
            target = x_canonicalize(word)
            current = list(seq)
            for _ in range(15):
                if len(current) < 2:
                    break
                pos = rng.randrange(0, len(current) - 1)
                a, b = current[pos], current[pos + 1]
                if rng.random() < 0.5 and a > b:
                    current[pos : pos + 2] = [b, a - 1]  # x_{j+1} x_i -> x_i x_j
                elif a <= b:
                    current[pos : pos + 2] = [b + 1, a]  # x_i x_j -> x_{j+1} x_i
            assert x_canonicalize(XWord(tuple(current))) == target

    @given(st.lists(st.integers(1, 50), max_size=40))
    def test_matches_the_insertion_walk(self, idx):
        word = XWord(tuple(idx))
        assert x_canonicalize(word) == walk_x_canonicalize(word)

    @given(indices)
    def test_keys_are_the_hole_set(self, idx):
        # The search keys a_j + j, against the k where the independent
        # p_eval loop merges k and k + 1.
        word = XWord(tuple(idx))
        keys = {a + j for j, a in enumerate(x_canonicalize(word).indices)}
        top = len(idx) + max(idx, default=0) + 2
        assert keys == {k for k in range(1, top + 1) if p_eval(word, k) == p_eval(word, k + 1)}


class TestCanonicalGrowth:
    """One search per letter: 16,000 letters of each shape within a second."""

    N = 16000

    @pytest.mark.parametrize("shape", ["descending", "x1 power", "ascending"])
    def test_known_forms_in_time(self, shape):
        idx = {
            "descending": tuple(range(self.N, 0, -1)),
            "x1 power": (1,) * self.N,
            "ascending": tuple(range(1, self.N + 1)),
        }[shape]
        word = XWord(idx)
        start = time.monotonic()
        canon = x_canonicalize(word)
        assert time.monotonic() - start < 1
        if shape == "descending":
            assert canon == XWord((1,) * self.N)
            assert s_of(word) == XSeq((self.N + 1,))
        else:
            assert canon == word  # already canonical

    def test_random_word_in_time(self):
        rng = random.Random(16000)
        word = XWord(tuple(rng.randint(1, self.N) for _ in range(self.N)))
        start = time.monotonic()
        canon = x_canonicalize(word)
        assert time.monotonic() - start < 1
        assert canon.is_canonical() and len(canon) == self.N
        # p(k) = k - #{holes below k}, read from the keys, against p_eval.
        holes = [a + j for j, a in enumerate(canon.indices)]
        for k in rng.sample(range(1, 2 * self.N + 2), 40):
            assert p_eval(word, k) == k - bisect_left(holes, k)


class TestSequenceInvariant:
    @pytest.mark.parametrize(
        "idx, seq",
        [((1,), (2,)), ((), ()), ((1, 1), (3,)), ((2,), (1, 2)), ((1, 2), (2, 2))],
    )
    def test_examples(self, idx, seq):
        assert s_of(XWord(idx)) == XSeq(seq)

    @given(indices)
    def test_matches_fiber_count_oracle(self, idx):
        # Independent route: count fibers of the evaluated monotone function.
        word = XWord(tuple(idx))
        top = len(idx) + max(idx, default=0) + 2
        values = [p_eval(word, k) for k in range(1, top + 1)]
        fibers = [values.count(j) for j in range(1, max(values) + 1)] if values else []
        assert s_of(word) == XSeq(tuple(fibers))

    @given(indices)
    def test_weight_is_length(self, idx):
        assert s_of(XWord(tuple(idx))).weight() == len(idx)

    def test_weight_additive(self, rng):
        for _ in range(50):
            u = XWord(tuple(rng.randint(1, 5) for _ in range(rng.randrange(0, 6))))
            v = XWord(tuple(rng.randint(1, 5) for _ in range(rng.randrange(0, 6))))
            assert s_of(u * v).weight() == s_of(u).weight() + s_of(v).weight()

    def test_index_budget(self, monkeypatch):
        # The budget reads the canonical form: x5 x1 is x1 x4, 4 entries.
        assert issubclass(SequenceBudgetError, BudgetError)
        assert xmonoid.MAX_X_INDEX == 1 << 20
        monkeypatch.setattr(xmonoid, "MAX_X_INDEX", 4)
        assert s_of(xw(5, 1)) == XSeq((2, 1, 1, 2))
        with pytest.raises(SequenceBudgetError) as info:
            s_of(xw(1, 5))
        assert str(info.value) == "S sequence of 5 entries exceeds the budget of 4"
        with pytest.raises(SequenceBudgetError):
            lex_cmp(xw(1), xw(5))


class TestSeqCompose:
    @pytest.mark.parametrize(
        "m, n, out",
        [((2,), (2,), (3,)), ((1, 2), (2,), (3,)), ((), (), ()), ((2,), (), (2,))],
    )
    def test_examples(self, m, n, out):
        assert seq_compose(XSeq(m), XSeq(n)) == XSeq(out)

    def test_identity_both_sides(self, rng):
        for _ in range(30):
            m = XSeq(tuple(rng.randint(1, 4) for _ in range(rng.randrange(0, 5))))
            assert seq_compose(m, XSeq(())) == m
            assert seq_compose(XSeq(()), m) == m

    @given(indices, indices)
    def test_homomorphism(self, a, b):
        u, v = XWord(tuple(a)), XWord(tuple(b))
        assert s_of(u * v) == seq_compose(s_of(u), s_of(v))

    def test_left_cancellative(self, rng):
        for _ in range(300):
            m = s_of(XWord(tuple(rng.randint(1, 4) for _ in range(rng.randrange(0, 5)))))
            n1 = s_of(XWord(tuple(rng.randint(1, 4) for _ in range(rng.randrange(0, 5)))))
            n2 = s_of(XWord(tuple(rng.randint(1, 4) for _ in range(rng.randrange(0, 5)))))
            if seq_compose(m, n1) == seq_compose(m, n2):
                assert n1 == n2

    def test_associative(self, rng):
        for _ in range(100):
            seqs = [
                s_of(XWord(tuple(rng.randint(1, 4) for _ in range(rng.randrange(0, 5)))))
                for _ in range(3)
            ]
            a, b, c = seqs
            assert seq_compose(seq_compose(a, b), c) == seq_compose(a, seq_compose(b, c))

    def test_wide_block_sums_in_time(self):
        # A block of 10^8 entries is one slice of m plus the 1s past its prefix.
        start = time.monotonic()
        assert seq_compose(XSeq((2,)), XSeq((10**8,))) == XSeq((100000001,))
        assert time.monotonic() - start < 1


class TestLexCmp:
    def test_oriented_to_match_cmp_L(self):
        # Smaller S-sequence in plain lexicographic order = greater element;
        # pinned by x2 vs x1 whose first disagreeing images are e1 vs e2.
        assert lex_cmp(xw(2), xw(1)) is Cmp.GREATER
        assert lex_cmp(xw(1), xw(1, 1)) is Cmp.GREATER

    def test_equal(self):
        assert lex_cmp(xw(2, 1), xw(1, 1)) is Cmp.EQUAL  # same element of X_oo

    @given(indices, indices)
    def test_matches_the_padded_loop(self, a, b):
        c, d = XWord(tuple(a)), XWord(tuple(b))
        assert lex_cmp(c, d) is padded_lex_cmp(c, d)

    def test_agreement_with_representation_order(self, rng):
        for _ in range(300):
            c = XWord(tuple(rng.randint(1, 5) for _ in range(rng.randrange(0, 6))))
            d = XWord(tuple(rng.randint(1, 5) for _ in range(rng.randrange(0, 6))))
            assert lex_cmp(c, d) is cmp_L(c.to_rword(), d.to_rword())


class TestFunctionEvaluation:
    def test_p_examples(self):
        assert p_eval(xw(2), 5) == 4
        assert p_eval(xw(2), 2) == 2
        assert p_eval(XWord(()), 9) == 9

    def test_p_left_to_right(self):
        # x2 x1 = x1 x1 in X_oo; both evaluate identically.
        for k in range(1, 12):
            assert p_eval(xw(2, 1), k) == p_eval(xw(1, 1), k)

    def test_sf_examples(self):
        assert sf_eval(parse_rword("s1"), 1) == 2
        assert sf_eval(parse_rword("s1"), 2) == 1
        assert sf_eval(parse_rword("s1"), 3) == 3

    def test_sf_collapses_sign(self):
        for k in range(1, 8):
            assert sf_eval(parse_rword("s2"), k) == sf_eval(parse_rword("s2^-1"), k)

    def test_sf_extends_p(self, rng):
        for _ in range(50):
            word = XWord(tuple(rng.randint(1, 4) for _ in range(rng.randrange(0, 5))))
            for k in range(1, 10):
                assert sf_eval(word.to_rword(), k) == p_eval(word, k)

    def test_sf_on_mixed_words(self):
        # s1 x1 = x1 in R', hence equal functions.
        for k in range(1, 10):
            assert sf_eval(parse_rword("s1 x1"), k) == sf_eval(parse_rword("x1"), k)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            p_eval(xw(1), 0)


class TestXSeqBasics:
    def test_trailing_ones_trimmed(self):
        assert XSeq((2, 1, 1)) == XSeq((2,))
        assert str(XSeq((2, 1, 1))) == "(2)"

    def test_str_empty(self):
        assert str(XSeq(())) == "()"

    def test_entry_padding(self):
        s = XSeq((3, 2))
        assert s.entry(1) == 3 and s.entry(2) == 2 and s.entry(7) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            XSeq((0,))


@pytest.mark.parametrize("value, field, text", [
    (XWord((1, 2)), "indices", "XWord(indices=(1, 2))"),
    (XSeq((2, 1)), "prefix", "XSeq(prefix=(2,))"),
])
def test_values_are_read_only_and_pickle(value, field, text):
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, ())
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    assert repr(value) == text
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and hash(copy) == hash(value) and type(copy) is type(value)


@pytest.mark.parametrize("make, field, values", [
    (XWord, "indices", (1, 2)),
    (XSeq, "prefix", (2, 3)),
])
def test_generator_arguments_are_read_whole(make, field, values):
    assert getattr(make(v for v in values), field) == values
    assert make(iter(values)) == make(values)
    with pytest.raises(ValueError):
        make(v for v in (2, 0, 3))
