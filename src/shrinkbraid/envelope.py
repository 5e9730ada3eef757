"""The enveloping LD monoid over an arbitrary finite LD system.

A finite LD system is a size-n magma table satisfying left distributivity
a.(b.c) = (a.b).(a.c); the loader rejects anything else, naming a violating
triple, and raises ``TableBudgetError`` on more than ``MAX_TABLE_SIZE``
elements.  The envelope consists of nonempty sequences of table elements, with

    circle = concatenation,
    dot    = (a_1 ... a_n) . (b_1 ... b_m) = (abar.b_1, ..., abar.b_m)
             where abar.c = a_1.(a_2.( ... (a_n.c))),

taken modulo the positive-braid action

    sigma_i (a_1, ..., a_n) = (a_1, ..., a_i . a_{i+1}, a_i, ..., a_n).

Two sequences are equal in the envelope iff some positive braids take them
to a common sequence.  ``orbit_eq`` decides this in four stages:

- Invariants.  Length is preserved by every sigma_i, and so is the left
  translation c -> a_1.(a_2.( ... (a_n.c))): left distributivity gives
  (a_i.a_{i+1}).(a_i.c) = a_i.(a_{i+1}.c).  (This is also why ``env_dot``
  is well defined on orbits.)  Sequences whose lengths or translation maps
  differ are answered No without any search.  The map of (a_1, ..., a_n)
  is the rows of a_1, ..., a_n composed left to right through ``_after``,
  one ``itemgetter`` per row that the left-distributivity check builds:
  one C-level call per entry, and ``env_dot`` reads its entries off it.
- The absorbing rule.  On an *absorbing* table (a row is the identity, for
  a left identity t, the rows are distinct, and repeating sigma_1 carries
  every pair to a first entry t; the Laver tables are such) the two
  invariants are complete, so equal lengths and maps answer Yes without
  any search.  ``orbit_eq`` gives the proof.
- The cyclic rule.  On ``cyclic_table(p)`` for p in ``CYCLIC_RULE_PRIMES``
  (the table is compared entry for entry when it is built), a sequence of
  at least 3 entries is constant, and fixed by every sigma_i, or shares its
  orbit with every non-constant sequence of its length and map.  So once
  the lengths and maps agree, u != v answers Yes when neither sequence is
  constant and No otherwise, without any search.  ``orbit_eq`` gives the
  proof.
- Search.  Otherwise both orbits grow breadth first, one layer at a time,
  always on the side with the smaller frontier, and the search answers Yes
  at the first state the two sides share.  No needs both orbits closed,
  or one of them on a *rack* (every row a permutation), where orbits are
  equivalence classes.  The search runs on sequences coded as ints: entry
  a_i - 1 sits in bits [b*i, b*(i+1)), with b = max(1, (n-1).bit_length())
  for n elements and i from 0.  The table builds ``_steps`` once: for the
  code p of a pair (a, b), p + _steps[p] is the code of (a.b, a).  So
  sigma_(i+1) on a code is one shift, one mask, one lookup and one add,
  and a state is an int.  ``orbit`` and ``orbit_eq`` grow their layers
  through the one ``_grow``; ``orbit`` decodes its states once at the end,
  and ``sigma_action`` is the public single step that no search calls.

The invariants do not separate every pair on other tables (on a cyclic
table a constant sequence is fixed by every sigma_i and shares its
translation map with other sequences, some of them constant too), so a
search may have to close a whole orbit, which has up to about n^(L-1)
states for L entries from n.
Once the two searches hold more than ``MAX_ORBIT_STATES`` states together,
``orbit_eq`` raises ``OrbitBudgetError``, as ``orbit`` does past that many
states of one orbit; both say "orbit search passed N states", N the
budget.  With a finite ``depth`` it
answers Unknown when a search reached that many layers before the sides met
or the closed orbits decided.  A negative ``depth`` raises ValueError.
"""

from __future__ import annotations

from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import Container, Sequence, Union

from .freegroup import BudgetError, DomainError, _int_at_least
EnvElement = tuple[int, ...]

# States ``orbit`` may hold, and ``orbit_eq`` in its two searches together.
# The largest orbit in the benchmark's envelope workload has about 23k states.
MAX_ORBIT_STATES = 1 << 18

# Elements a table may have.  The left-distributivity check is cubic in the
# size: ``cyclic_table(256)`` took about 0.7 s (0.12 s at 150), and
# ``parse_table`` on its 234 KB text about 0.85 s, on a shared 2-core x86-64
# VM.  A 1,000-element table would take about 40 s (extrapolated).
MAX_TABLE_SIZE = 1 << 8

# The primes p for which ``orbit_eq`` decides ``cyclic_table(p)`` by the
# cyclic rule; tests/test_envelope.py checks the rule's base cases, lengths 3
# and 4, over every sequence for each of them.
CYCLIC_RULE_PRIMES = (3, 5, 7, 11, 13)


class OrbitResult(Enum):
    YES = "Yes"
    NO = "No"
    UNKNOWN = "Unknown"

    def __str__(self) -> str:
        return self.value


class NotLeftDistributiveError(DomainError):
    """The table fails a.(b.c) = (a.b).(a.c); reports one violating triple."""

    def __init__(self, a: int, b: int, c: int):
        super().__init__(
            f"not left distributive: a={a}, b={b}, c={c} gives "
            f"a.(b.c) != (a.b).(a.c)"
        )
        self.triple = (a, b, c)


class IndexOutOfRangeError(DomainError, IndexError):
    """A sigma action addressed a position outside the sequence."""


class OrbitBudgetError(BudgetError):
    """``orbit`` or ``orbit_eq`` held more than ``MAX_ORBIT_STATES`` states."""


class TableBudgetError(BudgetError):
    """A table has more than ``MAX_TABLE_SIZE`` elements."""


def _check_size(size: int) -> None:
    if size > MAX_TABLE_SIZE:
        raise TableBudgetError(f"table of {size} elements exceeds the budget of {MAX_TABLE_SIZE}")


def _check_depth(depth: Union[int, None]) -> None:
    if depth is not None:
        _int_at_least(depth, 0, "depth must be >= 0")


class LDTable:
    """A finite left-distributive magma on elements 1..size.

    Every table entry must be an ``int`` in 1..size (``True`` counts as 1
    and is stored as 1): the constructor refuses any other, a float such as
    2.0 included, with a ``ValueError`` naming it.  Every entry of a
    sequence that a method takes is held to the same rule
    (``check_element``), so no query meets a non-integer entry.
    """

    __slots__ = (
        "size", "table", "_elements", "_after", "_bits", "_steps", "_rack", "_cyclic", "_absorbing"
    )

    def __init__(self, table: Sequence[Sequence[int]]):
        self.size = len(table)
        if self.size < 1:
            raise ValueError("table must be nonempty")
        _check_size(self.size)
        rows = []
        for row in table:
            if len(row) != self.size:
                raise ValueError("table must be square")
            for entry in row:
                if not (isinstance(entry, int) and 1 <= entry <= self.size):
                    raise ValueError(f"entry {entry!r} outside 1..{self.size}")
            rows.append(tuple(map(int, row)))
        self.table = tuple(rows)
        self._elements = frozenset(self.elements())
        # a.(b.c) = (a.b).(a.c) for every c says L_a o L_b = L_{a.b} o L_a,
        # with L_a the map c -> a.c.  after[a - 1] composes a map, as a tuple,
        # with L_a: after[b - 1](row a) is L_a o L_b.  A getter of one index
        # returns a bare entry, so the one row of a 1-element table, the
        # identity, reads the whole tuple instead.
        after = [itemgetter(*[c - 1 for c in row]) if self.size > 1 else itemgetter(slice(None))
                 for row in rows]
        for a, row_a in enumerate(rows, 1):
            for b, ab in enumerate(row_a, 1):
                left = after[b - 1](row_a)
                right = after[a - 1](rows[ab - 1])
                if left != right:
                    c = next(c for c in range(self.size) if left[c] != right[c])
                    raise NotLeftDistributiveError(a, b, c + 1)
        # The search's sigma step (module docstring): for the code p of a pair
        # (a, b), p + steps[p] is the code of (a.b, a).
        bits = self._bits = max(1, (self.size - 1).bit_length())
        steps = [0] * (((self.size - 1) << bits) + self.size)
        for a in self.elements():
            for b in self.elements():
                steps[a - 1 | (b - 1) << bits] = self.dot(a, b) - a + ((a - b) << bits)
        self._steps = steps
        self._after = after
        self._rack = all(len(set(row)) == self.size for row in rows)
        self._cyclic = self.size in CYCLIC_RULE_PRIMES and self.table == _cyclic_rows(self.size)
        self._absorbing = self._absorbs()

    def dot(self, a: int, b: int) -> int:
        return self.table[a - 1][b - 1]

    def elements(self) -> range:
        return range(1, self.size + 1)

    def check_element(self, a: int) -> int:
        """``a``, if it is an ``int`` among the elements 1..size; else ValueError naming it.

        Membership in the set of elements refuses 1.5 or NaN, and the type
        test refuses 1.0 or ``Fraction(1)``, which equal 1, so no query meets
        a non-integer entry; ``True`` counts as 1, as in the constructor.
        """
        if a not in self._elements or not isinstance(a, int):
            raise ValueError(f"element {a!r} outside 1..{self.size}")
        return a

    # -- sequences ----------------------------------------------------------

    def sigma_action(self, i: int, s: EnvElement) -> EnvElement:
        """Replace positions i, i+1 by (a_i . a_{i+1}, a_i); 1-based i."""
        self._check_seq(s)
        if not 1 <= i < len(s):
            raise IndexOutOfRangeError(
                f"sigma_{i} undefined on a sequence of length {len(s)}"
            )
        return s[: i - 1] + (self.dot(s[i - 1], s[i]), s[i - 1]) + s[i + 1 :]

    def env_dot(self, u: EnvElement, v: EnvElement) -> EnvElement:
        """Left-nested products of u applied to each entry of v."""
        self._check_seq(u)
        self._check_seq(v)
        translation = self._translation(u)
        return tuple(translation[b - 1] for b in v)

    def env_circ(self, u: EnvElement, v: EnvElement) -> EnvElement:
        self._check_seq(u)
        self._check_seq(v)
        return u + v

    def orbit(self, s: EnvElement, depth: Union[int, None] = None) -> tuple[set[EnvElement], bool]:
        """Reachable set under sigma actions; (set, whether it is complete).

        Raises ``OrbitBudgetError`` once the set holds more than
        ``MAX_ORBIT_STATES`` states, and ValueError on a negative ``depth``
        or a sequence that is empty or has an entry outside 1..size.
        """
        self._check_seq(s)
        _check_depth(depth)
        bits, code = self._bits, self._code(s)
        seen, frontier, layers = {code}, [code], 0
        shifts = range(0, bits * (len(s) - 1), bits)
        while frontier and (depth is None or layers < depth):
            frontier = self._grow(frontier, seen, (), shifts, MAX_ORBIT_STATES)
            layers += 1
        low, entries = (1 << bits) - 1, range(0, bits * len(s), bits)
        states = {tuple((code >> shift & low) + 1 for shift in entries) for code in seen}
        return states, not frontier

    def orbit_eq(
        self, u: EnvElement, v: EnvElement, depth: Union[int, None] = None
    ) -> OrbitResult:
        """Whether u and v have a common image under positive braids.

        Four stages.  No when the lengths or the left-translation maps
        differ.  Otherwise Yes at once on an absorbing table.  Otherwise, on
        a table of the cyclic rule and at least 3 entries, Yes when neither
        sequence is constant and No when one is.  Otherwise a breadth-first
        search from both sides, which answers Yes at the first shared state
        and No once both orbits are closed, or once one is on a rack.
        ``depth`` caps the layers searched from each side; None searches
        until closure, and a negative ``depth`` raises ValueError.  Unknown
        occurs only under a finite ``depth``: the maps agree, no rule
        applies, and a side reached ``depth`` layers before the search
        decided.  Raises ``OrbitBudgetError`` once the two sides hold more
        than ``MAX_ORBIT_STATES`` states.

        The absorbing rule.  Let t be the left identity of an absorbing
        table (``_absorbs``).  For i = 1..L-1 in turn, apply sigma_i until
        entry i is t: sigma_i acts on entries i and i+1 as sigma_1 acts on
        a pair, so this ends, and it leaves entries 1..i-1 at t.  The result
        is (t, ..., t, z), whose translation map is L_z, as L_t = id; the
        map is an orbit invariant, and the rows are distinct, so z is the
        element whose row is the map.  Two sequences of one length with one
        map therefore reach the same (t, ..., t, z): Yes.  A Laver table A_k
        on 1..N, N = 2^k, is absorbing: N.q = q; p.q > p for p < N, so a
        pair (a, b) reaches a first entry N within N - a steps; and
        p.1 = p + 1 for p < N with N.1 = 1, so the rows are distinct.

        The rack rule.  On a rack (every row a permutation) sigma_1 is a
        bijection on pairs, as b is read back from (a.b, a) through row a,
        so each sigma_i is a bijection on the finite set of sequences of one
        length, and a power of it is its inverse.  Positive-braid orbits are
        then whole braid-group orbits, that is, equivalence classes.  The
        two sides never hold a common state while the search runs, so a
        side whose frontier is empty holds the whole class of its sequence,
        and the other sequence is not in it: No.

        The cyclic rule.  On ``cyclic_table(p)``, p an odd prime, write each
        entry e as the residue e - 1 mod p; then a.b = 2b - a and the row of
        a is x -> 2x - a, a permutation, so the table is a rack and orbits
        are classes (the rack rule).  Write u ~ v for one class.
        1. The map of (a_1, ..., a_L) is x -> 2^L x - S, with
           S = sum of 2^(i-1) a_i, so sequences of one length have one map
           exactly when they have one S.
        2. a.a = a, so every sigma_i fixes a constant sequence, whose class
           is itself.  So u != v answers No when one of them is constant.
           Two constant sequences can share a map: (a, ..., a) has
           S = (2^L - 1) a, so all p of them do when p divides 2^L - 1, as
           for p = 3 at even L and p = 7 at L = 3 and 6.
        3. P(L), for L >= 3: non-constant sequences of length L with one S
           are in one class.  P(3) and P(4) hold for every p in
           ``CYCLIC_RULE_PRIMES``, checked over all sequences by union-find
           on the sigma_i edges.  Let L >= 4, assume P(L), and let u, v be
           non-constant of length L + 1 with one S.
           a. If u_1..u_L is (a, ..., a), then u_(L+1) = b != a, and
              sigma_L makes it (a, ..., a, 2b - a), with 2b - a != a as p is
              odd.  So take u_1..u_L, and likewise v_1..v_L, non-constant.
           b. Let y = v_(L+1).  The tuples w_1..w_(L-1) whose S is that of
              u_1..u_L less 2^(L-1) y number p^(L-2), as w_1 follows from
              the rest, and at most p of them are constant.  p^(L-2) > p
              for L >= 4, so one of them is non-constant, and with w_L = y
              it has the S of u_1..u_L.  By P(L), sigma_1..sigma_(L-1)
              carry u to (w_1, ..., w_(L-1), y, u_(L+1)), and sigma_L then
              to (w_1, ..., w_(L-1), y.u_(L+1), y), whose first L entries
              are non-constant.
           c. That sequence and v share S and the last entry y, so their
              first L entries share S, which is S less 2^L y; P(L) carries
              one to the other, so u ~ v.
           At L = 3 step b can fail: p^(L-2) = p, and for p = 3 all three
           pairs w_1, w_2 can be constant.  That is why P(4) is checked as
           well as P(3).
        So with L >= 3, one length, one map and u != v, the answer is Yes
        when neither sequence is constant and No otherwise.  The primes are
        those whose base cases the tests check; other tables search.
        """
        self._check_seq(u)
        self._check_seq(v)
        _check_depth(depth)
        if len(u) != len(v):
            return OrbitResult.NO
        if u == v:
            return OrbitResult.YES
        if self._translation(u) != self._translation(v):
            return OrbitResult.NO
        if self._absorbing:
            return OrbitResult.YES
        if self._cyclic and len(u) >= 3:
            return OrbitResult.YES if len(set(u)) > 1 and len(set(v)) > 1 else OrbitResult.NO
        bits = self._bits
        shifts = range(0, bits * (len(u) - 1), bits)
        cu, cv = self._code(u), self._code(v)
        seen = ({cu}, {cv})
        frontiers = [[cu], [cv]]
        layers = [0, 0]
        while True:
            # A side with an empty frontier has closed its orbit; on a rack
            # one closed side decides (the rack rule above).
            open_sides = [k for k in (0, 1) if frontiers[k]]
            if len(open_sides) < 1 + self._rack:
                return OrbitResult.NO
            growing = [k for k in open_sides if depth is None or layers[k] < depth]
            if not growing:
                return OrbitResult.UNKNOWN
            k = min(growing, key=lambda side: len(frontiers[side]))
            room = MAX_ORBIT_STATES - len(seen[1 - k])
            frontiers[k] = self._grow(frontiers[k], seen[k], seen[1 - k], shifts, room)
            if frontiers[k] is None:
                return OrbitResult.YES
            layers[k] += 1

    def _grow(
        self, frontier: list[int], mine: set[int], other: Container[int], shifts: range, room: int
    ) -> Union[list[int], None]:
        """One breadth-first layer on codes: the images of ``frontier`` under
        each sigma_i (a shift in ``shifts``) that are not yet in ``mine``,
        added to ``mine`` as they are found.

        Returns None at the first image in ``other``; raises
        ``OrbitBudgetError`` once ``mine`` holds more than ``room`` codes.
        """
        steps, mask = self._steps, (1 << 2 * self._bits) - 1
        new = []
        for code in frontier:
            for shift in shifts:
                image = code + (steps[code >> shift & mask] << shift)
                if image in mine:
                    continue
                if image in other:
                    return None
                mine.add(image)
                new.append(image)
                if len(mine) > room:
                    raise OrbitBudgetError(f"orbit search passed {MAX_ORBIT_STATES} states")
        return new

    def _absorbs(self) -> bool:
        """Whether some row is the identity, for t, the rows are distinct, and
        repeating sigma_1, (a, b) -> (a.b, a), carries every pair to a first
        entry t.

        sigma_1 is a function on the n^2 pair codes (p -> p + _steps[p]).
        Walk k from each pair stamps k on the pairs it passes until it meets
        a first entry t or a stamped pair; every earlier walk reached t, so
        only its own stamp k, a cycle without t, fails.  Each pair is stamped
        once, so this takes O(n^2) steps; a table with no identity row, such
        as a cyclic one, stops after one scan of the rows.
        """
        identity = tuple(self.elements())
        if identity not in self.table or len(set(self.table)) < self.size:
            return False
        t_code, bits, steps = self.table.index(identity), self._bits, self._steps
        low, stamps = (1 << bits) - 1, [0] * len(steps)
        pairs = (a | b << bits for b in range(self.size) for a in range(self.size))
        for k, p in enumerate(pairs, 1):
            while not stamps[p] and p & low != t_code:
                stamps[p] = k
                p += steps[p]
            if stamps[p] == k:
                return False
        return True

    def _code(self, s: EnvElement) -> int:
        """s as one int: entry a_i - 1 in bits [bits*i, bits*(i+1)), i from 0."""
        bits, code = self._bits, 0
        for a in reversed(s):
            code = code << bits | a - 1
        return code

    def _translation(self, s: EnvElement) -> tuple[int, ...]:
        """The left-translation map of s, an orbit invariant, as a tuple: the
        rows of a_1, ..., a_n composed left to right through ``_after``."""
        after, translation = self._after, self.table[s[0] - 1]
        for a in s[1:]:
            translation = after[a - 1](translation)
        return translation

    def _check_seq(self, s: EnvElement) -> None:
        """ValueError unless s is nonempty and every entry is an element, as
        ``check_element`` reads it.

        Two C-level tests decide: the set of elements holds every entry, and
        their sum is an ``int``, which a sum of ints is and a sum with a
        float or a ``Fraction`` in it is not.  The entries are read one by
        one only to name the first that fails.
        """
        if not s:
            raise ValueError("envelope sequences are nonempty")
        if not self._elements.issuperset(s) or type(sum(s)) is not int:
            for a in s:
                self.check_element(a)


def singleton(a: int) -> EnvElement:
    """The canonical embedding of a system element."""
    return (a,)


def seq_length(s: EnvElement) -> int:
    """The canonical homomorphism to the naturals."""
    return len(s)


# -- table construction and I/O ---------------------------------------------


def one_element_table() -> LDTable:
    return LDTable(((1,),))


def _cyclic_rows(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple((2 * b - a) % n + 1 for b in range(n)) for a in range(n))


def cyclic_table(n: int) -> LDTable:
    """The cyclic system a.b = 2b - a (mod n) on 1..n."""
    return LDTable(_cyclic_rows(n))


def _ascii_int(text: str) -> int:
    """The int that ``text``, stripped, spells as -?[0-9]+ in ASCII digits.

    Raises ValueError otherwise: ``int`` alone would also read other
    scripts' digits, underscores and a plus sign.
    """
    text = text.strip()
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def parse_table(text: str) -> LDTable:
    """Line 1: size n; then n rows of n entries in 1..n (row a, column b)."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty table file")
    try:
        size = _ascii_int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the size, got {lines[0]!r}")
    _int_at_least(size, 1, f"table size must be at least 1, got {size}")
    _check_size(size)
    if len(lines) != size + 1:
        raise ValueError(f"expected {size} rows after the size line, got {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        entries = line.split()
        try:
            rows.append(tuple(_ascii_int(e) for e in entries))
        except ValueError:
            raise ValueError(f"non-integer entry in row {line!r}")
    return LDTable(rows)


def load_table(path: Union[str, Path]) -> LDTable:
    return parse_table(Path(path).read_text(encoding="utf-8"))
