import random
import re
import time
from itertools import chain

import pytest
from hypothesis import settings, strategies as st

from shrinkbraid import Cmp, Generator, Kind, RWord, XLetterPresentError, sigma, sigma_inv, x
from shrinkbraid.freegroup import FLetter, FWord, _reduced, finv, fmul, reduce
from shrinkbraid.ldops import LEAF, LDTerm, TermParseError, _term, circ, dot
from shrinkbraid.representation import apply_word
from shrinkbraid.words import _rewrite, _rword
from shrinkbraid.xmonoid import XWord, s_of

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

SESSION_START = time.monotonic()


def pytest_collection_modifyitems(config, items):
    # Acceptance criteria run last so the wall-clock criterion sees the
    # whole suite.
    items.sort(key=lambda item: item.fspath.basename == "test_acceptance.py")


def session_elapsed() -> float:
    return time.monotonic() - SESSION_START


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)


def random_fword(rng: random.Random, max_len: int = 8, max_index: int = 6) -> FWord:
    n = rng.randrange(0, max_len + 1)
    return reduce(FLetter(rng.randint(1, max_index), rng.choice((1, -1))) for _ in range(n))


def random_braid(
    rng: random.Random, max_len: int = 6, max_index: int = 5, signed: bool = True
) -> RWord:
    letters = []
    for _ in range(rng.randrange(0, max_len + 1)):
        i = rng.randint(1, max_index)
        if signed and rng.random() < 0.5:
            letters.append(sigma_inv(i))
        else:
            letters.append(sigma(i))
    return RWord(letters)


def random_rplus(rng: random.Random, max_len: int = 6, max_index: int = 5) -> RWord:
    letters = []
    for _ in range(rng.randrange(0, max_len + 1)):
        i = rng.randint(1, max_index)
        letters.append(sigma(i) if rng.random() < 0.6 else x(i))
    return RWord(letters)


def random_sigma1_positive(rng: random.Random, max_len: int = 8, max_index: int = 5) -> RWord:
    letters = []
    for _ in range(rng.randrange(0, max_len)):
        k = rng.randint(2, max_index)
        letters.append(sigma(k) if rng.random() < 0.5 else sigma_inv(k))
    for _ in range(rng.randrange(1, 3)):
        letters.insert(rng.randrange(0, len(letters) + 1), sigma(1))
    return RWord(letters)


class OffsetRan(Exception):
    pass


def no_offset(text, tokens, k):
    """Stands in for ``freegroup._offset`` where no token may be located."""
    raise OffsetRan(tokens[k])


# --- reference code on FLetter tuples ---------------------------------------
#
# The free-group kernel as it was written before words were stored as signed
# ints: every function takes and returns tuples of FLetter pairs.  Property
# tests compare the signed-int kernel with these.

Letters = tuple[FLetter, ...]


def letter_reduce(letters) -> Letters:
    out: list[FLetter] = []
    for let in letters:
        if let.index == 0:
            continue
        if out and out[-1].index == let.index and out[-1].sign == -let.sign:
            out.pop()
        else:
            out.append(let)
    return tuple(out)


def letter_fmul(a: Letters, b: Letters) -> Letters:
    a = list(a)
    i = 0
    while a and i < len(b) and a[-1].index == b[i].index and a[-1].sign == -b[i].sign:
        a.pop()
        i += 1
    return tuple(a) + b[i:]


def letter_finv(a: Letters) -> Letters:
    return tuple(FLetter(let.index, -let.sign) for let in reversed(a))


def letter_apply_gen(g: Generator, letters: Letters) -> Letters:
    i = g.index
    if g.kind is Kind.X:
        return tuple(FLetter(let.index + 1, let.sign) if let.index >= i else let for let in letters)
    if g.kind is Kind.SIGMA:
        image = (FLetter(i - 1, 1), FLetter(i, -1), FLetter(i + 1, 1))
    else:
        image = (FLetter(i + 1, 1), FLetter(i, -1), FLetter(i - 1, 1))
    out: list[FLetter] = []
    for let in letters:
        if let.index != i:
            out.append(let)
        elif let.sign > 0:
            out.extend(image)
        else:
            out.extend(letter_finv(image))
    return letter_reduce(out)


def _letter_slot_key(entry, item) -> tuple[int, int]:
    if entry is None:
        if item is None:
            return (0, 0)
        if item.sign > 0:
            return (1, -item.index)
        return (2, item.index)
    c = entry.index
    if entry.sign > 0:
        if item is None:
            return (1, 0)
        if item.sign > 0:
            return (2, -item.index)
        return (0, item.index) if item.index > c else (3, item.index)
    if item is None:
        return (2, 0)
    if item.sign < 0:
        return (1, item.index)
    return (0, -item.index) if item.index < c else (3, -item.index)


def letter_curve_cmp(a: Letters, b: Letters) -> Cmp:
    m = 0
    n = min(len(a), len(b))
    while m < n and a[m] == b[m]:
        m += 1
    if m == len(a) and m == len(b):
        return Cmp.EQUAL
    entry = a[m - 1] if m > 0 else None
    ka = _letter_slot_key(entry, a[m] if m < len(a) else None)
    kb = _letter_slot_key(entry, b[m] if m < len(b) else None)
    return Cmp.GREATER if ka > kb else Cmp.LESS


# --- reference code on Generator letters -------------------------------------
#
# Word operations as they were written before an RWord stored letter codes:
# every function takes and returns tuples of Generator letters.  Property
# tests compare the code-based operations with these.

Gens = tuple[Generator, ...]


def gen_shift(letters: Gens, k: int) -> Gens:
    return tuple(Generator(g.kind, g.index + k) for g in letters)


def gen_braid_inverse(letters: Gens) -> Gens:
    out = []
    for g in reversed(letters):
        if g.kind is Kind.X:
            raise XLetterPresentError("x letters are not invertible in R")
        swapped = Kind.SIGMA_INV if g.kind is Kind.SIGMA else Kind.SIGMA
        out.append(Generator(swapped, g.index))
    return tuple(out)


def gen_free_cancel(letters: Gens) -> Gens:
    out: list[Generator] = []
    for g in letters:
        if out and g.kind is not Kind.X and out[-1].index == g.index and (
            (out[-1].kind is Kind.SIGMA and g.kind is Kind.SIGMA_INV)
            or (out[-1].kind is Kind.SIGMA_INV and g.kind is Kind.SIGMA)
        ):
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def gen_act(coords: dict, letters, positive: Kind) -> None:
    """Dynnikov update in place; a letter of kind ``positive`` acts as s_i."""
    get = coords.get
    for kind, i in letters:
        a, b = get(i, (0, 1))
        c, d = get(i + 1, (0, 1))
        b_pos = b if b > 0 else 0
        b_neg = b - b_pos
        d_pos = d if d > 0 else 0
        d_neg = d - d_pos
        if kind is positive:
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


def gen_quotient_coords(u: Gens, v: Gens) -> dict:
    coords: dict = {}
    gen_act(coords, reversed(v), Kind.SIGMA)
    gen_act(coords, u, Kind.SIGMA_INV)
    return {k: pair for k, pair in coords.items() if pair != (0, 1)}


# --- reference code: the recursive term parser ---------------------------------
#
# ``ldops.parse_term`` as it was written with one Python call per bracket,
# before it became one loop with a stack of open brackets, and with its own
# token pattern, before every grammar located a bad token the same way.  A
# property test checks that both give the same term or the same error on
# random texts.

# The token grammar: a bracket, or a run of other non-whitespace characters.
TOKEN = re.compile(r"[()]|[^\s()]+")


def recursive_parse_term(text: str) -> LDTerm:
    tokens = [(m.group(), m.start()) for m in TOKEN.finditer(text)]
    pos = 0

    def expect_term():
        nonlocal pos
        if pos >= len(tokens):
            raise TermParseError("unexpected end of input", len(text), "")
        token, offset = tokens[pos]
        pos += 1
        if token == "j":
            return LEAF
        if token != "(":
            raise TermParseError("expected 'j' or '('", offset, token)
        left = expect_term()
        if pos >= len(tokens):
            raise TermParseError("unexpected end of input", len(text), "")
        op_token, op_offset = tokens[pos]
        pos += 1
        if op_token not in (".", "o"):
            raise TermParseError("expected '.' or 'o'", op_offset, op_token)
        right = expect_term()
        if pos >= len(tokens) or tokens[pos][0] != ")":
            offset = tokens[pos][1] if pos < len(tokens) else len(text)
            token = tokens[pos][0] if pos < len(tokens) else ""
            raise TermParseError("expected ')'", offset, token)
        pos += 1
        return (dot if op_token == "." else circ)(left, right)

    term = expect_term()
    if pos != len(tokens):
        token, offset = tokens[pos]
        raise TermParseError("trailing input after term", offset, token)
    return term


# --- reference code: the generator-chain dot and circle kernels ----------------
#
# ``ldops._dot`` and ``_circ`` as they were written before they built one list
# each: the shift helpers are generators and the dot chains them with a
# generator of W's letters into one cancellation pass.  A property test checks
# that both kernels give the same code tuples and powers.


def chain_shifted(codes, k: int):
    return ((c[0] + k,) if type(c) is tuple else c + k if c > 0 else c - k for c in codes)


def chain_inverse_shifted(codes, k: int):
    return (-c - k if c > 0 else k - c for c in reversed(codes))


def chain_dot(a, n: int, c, m: int):
    w = (i for k in range(n, 0, -1) for i in range(k, k + m))
    return _reduced(chain(a, chain_shifted(c, n), w, chain_inverse_shifted(a, m))), m


def chain_circ(a, n: int, c, m: int):
    return (*a, *chain_shifted(c, n)), n + m


# --- reference code: a term's tree, read off its postfix tokens ----------------


def children(t: LDTerm) -> tuple:
    """(op, left, right) of a term: op is "dot" or "circ", or all None for the leaf."""
    postfix = t.postfix
    if postfix == ("j",):
        return None, None, None
    # Scan back from the operator for the shortest suffix that is a whole term.
    start, missing = len(postfix) - 1, 1
    while missing:
        start -= 1
        missing += -1 if postfix[start] == "j" else 1
    op = "dot" if postfix[-1] == "." else "circ"
    return op, _term(postfix[:start]), _term(postfix[start:-1])


# --- reference code: the splice loop of sx_decompose ---------------------------
#
# ``words.sx_decompose`` as it was written before it rebuilt its braid part:
# one list of codes, in which each x letter is spliced past the sigma letter
# to its right, scanning right to left.  It has no step budget, and it takes
# each step from the rows of ``words._RELATIONS``, not from the closed rule.


def table_x_past_sigma(xc: tuple[int], s: int) -> tuple:
    """x_a s_b, s_b of either sign, rewritten by the one row of (3), (4) or (5) that reads it.

    ``_rewrite`` reads the rows; s_b^-1 is read as s_b and gives its sign
    to the sigma letters.
    """
    for rule in (3, 4, 5):
        codes = _rewrite((xc, abs(s)), 0, rule, "L2R")
        if codes is not None:
            return tuple([c if type(c) is tuple or s > 0 else -c for c in codes])
    raise AssertionError(f"no row reads x{xc[0]} s{s}")


def splice_sx_decompose(w: RWord) -> tuple[RWord, RWord]:
    codes = list(w.codes)
    i = len(codes) - 2
    while i >= 0:
        if i + 1 < len(codes) and type(codes[i]) is tuple and type(codes[i + 1]) is int:
            replacement = table_x_past_sigma(codes[i], codes[i + 1])
            codes[i : i + 2] = replacement
            i += len(replacement) - 1  # keep following the moved x letter
        else:
            i -= 1
    split = len(codes) - w.xs
    return _rword(tuple(codes[:split]), 0), _rword(tuple(codes[split:]), w.xs)


# --- reference code: lex_cmp on padded sequences --------------------------------
#
# ``xmonoid.lex_cmp`` as it was written before it compared trimmed prefixes
# as tuples: entry by entry, the shorter sequence padded with 1s.


def padded_lex_cmp(c, d) -> Cmp:
    sc, sd = s_of(c), s_of(d)
    if sc == sd:
        return Cmp.EQUAL
    for k in range(1, max(len(sc.prefix), len(sd.prefix)) + 1):
        a, b = sc.entry(k), sd.entry(k)
        if a != b:
            return Cmp.GREATER if a < b else Cmp.LESS
    return Cmp.EQUAL


# --- reference code: the insertion walk of x_canonicalize -----------------------
#
# ``xmonoid.x_canonicalize`` as it was written before it searched for each
# stop point: a new letter a walks right past seq[k], one position at a time,
# while a - k > seq[k], and is inserted as a - k where it stops.


def walk_x_canonicalize(w: XWord) -> XWord:
    seq: list[int] = []
    for a in reversed(w.indices):
        k = 0
        while k < len(seq) and a - k > seq[k]:
            k += 1
        seq.insert(k, a - k)
    return XWord(tuple(seq))


# --- strategies for the fast paths ------------------------------------------
#
# ``freegroup._mul`` returns at once when the seam letters do not cancel and
# scans a long seam at C speed; ``representation.morphism_eq`` reads two braid
# words through ``_quotient_coords``.  Their property tests compare them with
# ``_reduced`` and the image scan on the shapes these draw.

# Short reduced words over three generators, so draws also cancel by chance.
reduced_ints = st.lists(st.sampled_from((1, 2, 3, -1, -2, -3)), max_size=40).map(_reduced)


@st.composite
def seam_pairs(draw) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced int tuples (a, b) where b starts with the inverse of a's last k letters.

    k is drawn from 0 to len(a) and b goes on with a reduced tail, so the
    seam is empty, short, tens of letters long, or the whole of a; an empty
    tail makes it the whole of b.
    """
    a = draw(reduced_ints)
    k = draw(st.integers(0, len(a)))
    tail = draw(reduced_ints)
    return a, _reduced(tuple([-g for g in reversed(a[len(a) - k :])]) + tail)


def with_cancelling_pairs(w: RWord, rnd: random.Random, count: int, max_index: int = 6) -> RWord:
    """w with ``count`` pairs s_i^e s_i^-e inserted at random places, so equal to w in R."""
    codes = list(w.codes)
    for _ in range(count):
        g = rnd.randint(1, max_index) * rnd.choice((1, -1))
        p = rnd.randrange(len(codes) + 1)
        codes[p:p] = [g, -g]
    return _rword(tuple(codes), w.xs)


# --- colors through the representation ------------------------------------
#
# The identity of the ``coloring`` docstring, written with ``apply_word`` and
# the public free-group operations only: the oracle of ``color``.


def color_by_representation(w: RWord, n_top: int) -> tuple[FWord, ...]:
    """The colors of ``color(w, n_top)``, read off the free-group action.

    flip(w) inverts every braid letter and keeps the x letters.  P_k is
    apply_word(flip(w), e_k) with each e_j rewritten as t_1 ... t_j, where
    t_j is the colors' generator e_j, and P_0 = 1; the k-th color is
    P_{k-1}^-1 P_k, for each strand k left at the bottom.
    """
    flipped = _rword(tuple([c if type(c) is tuple else -c for c in w.codes]), w.xs)
    prefixes = [FWord()]
    for k in range(1, n_top - w.x_count() + 1):
        t_letters = []
        for index, sign in apply_word(flipped, FWord.generator(k)).letters:
            run = [FLetter(t, sign) for t in range(1, index + 1)]
            t_letters += run if sign > 0 else run[::-1]
        prefixes.append(reduce(t_letters))
    return tuple(fmul(finv(p), q) for p, q in zip(prefixes, prefixes[1:]))
