import itertools
import random
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shrinkbraid import envelope
from shrinkbraid.envelope import (
    IndexOutOfRangeError,
    LDTable,
    NotLeftDistributiveError,
    OrbitBudgetError,
    OrbitResult,
    TableBudgetError,
    cyclic_table,
    one_element_table,
    parse_table,
    seq_length,
    singleton,
)


@pytest.fixture(params=[1, 3, 5], ids=["one", "cyc3", "cyc5"])
def table(request) -> LDTable:
    return one_element_table() if request.param == 1 else cyclic_table(request.param)


def random_seq(rng, table, max_len=4):
    return tuple(rng.randint(1, table.size) for _ in range(rng.randint(1, max_len)))


class TestTableValidation:
    def test_left_distributive_examples_load(self, table):
        for a in table.elements():
            for b in table.elements():
                for c in table.elements():
                    assert table.dot(a, table.dot(b, c)) == table.dot(
                        table.dot(a, b), table.dot(a, c)
                    )

    def test_rejects_non_ld_with_triple(self):
        # Addition mod 3 is not left distributive.
        rows = [[(a + b) % 3 + 1 for b in range(3)] for a in range(3)]
        with pytest.raises(NotLeftDistributiveError) as info:
            LDTable(rows)
        a, b, c = info.value.triple
        assert all(1 <= v <= 3 for v in (a, b, c))

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            LDTable([[1, 2], [3, 1]])
        with pytest.raises(ValueError):
            LDTable([[1], [1]])

    @pytest.mark.parametrize("rows, named", [
        ([[1, 1.5], [1, 2]], "1.5"),
        ([[1, 2], [1, 2.0]], "2.0"),
        ([[1, 2], [float("nan"), 2]], "nan"),
        ([[1, "2"], [1, 2]], "'2'"),
    ])
    def test_non_integer_entries_are_named(self, rows, named):
        # 1 <= 1.5 <= 2 holds; without a type test 1.5 failed later as it indexed a row.
        with pytest.raises(ValueError) as info:
            LDTable(rows)
        assert str(info.value) == f"entry {named} outside 1..2"

    def test_true_is_still_the_entry_1(self):
        t = LDTable([[True, 2], [1, 2]])
        assert t.table == ((1, 2), (1, 2)) and t.dot(1, 1) == 1


class TestSigmaAction:
    def test_formula(self):
        t = cyclic_table(5)
        a, b = 2, 4
        assert t.sigma_action(1, (a, b)) == (t.dot(a, b), a)

    def test_idempotent_element(self):
        t = one_element_table()
        assert t.sigma_action(1, (1, 1)) == (1, 1)

    def test_length_preserved(self, rng, table):
        for _ in range(30):
            seq = random_seq(rng, table)
            if len(seq) < 2:
                continue
            i = rng.randint(1, len(seq) - 1)
            assert len(table.sigma_action(i, seq)) == len(seq)

    def test_out_of_range(self):
        t = cyclic_table(3)
        with pytest.raises(IndexOutOfRangeError):
            t.sigma_action(2, (1, 2))
        with pytest.raises(IndexOutOfRangeError):
            t.sigma_action(0, (1, 2))
        with pytest.raises(ValueError, match="element 0 outside 1..3"):
            t.sigma_action(1, (0, 1))

    def test_braid_relations_pointwise(self, rng, table):
        for _ in range(60):
            seq = random_seq(rng, table, max_len=5)
            if len(seq) >= 3:
                for i in range(1, len(seq) - 1):
                    lhs = table.sigma_action(i, table.sigma_action(i + 1, table.sigma_action(i, seq)))
                    rhs = table.sigma_action(i + 1, table.sigma_action(i, table.sigma_action(i + 1, seq)))
                    assert lhs == rhs
            if len(seq) >= 4:
                lhs = table.sigma_action(1, table.sigma_action(3, seq))
                rhs = table.sigma_action(3, table.sigma_action(1, seq))
                assert lhs == rhs


class TestEnvelopeOps:
    def test_dot_of_singletons_is_table(self, table):
        for a in table.elements():
            for b in table.elements():
                assert table.env_dot(singleton(a), singleton(b)) == (table.dot(a, b),)

    def test_dot_distributes_over_entries(self):
        t = cyclic_table(5)
        assert t.env_dot((2,), (3, 4)) == (t.dot(2, 3), t.dot(2, 4))

    def test_dot_nests_left(self):
        t = cyclic_table(5)
        assert t.env_dot((2, 3), (4,)) == (t.dot(2, t.dot(3, 4)),)

    def test_circ_concatenates(self, table):
        assert table.env_circ((1,), (1,)) == (1, 1)

    def test_length_homomorphism(self, rng, table):
        for _ in range(30):
            u, v = random_seq(rng, table), random_seq(rng, table)
            assert seq_length(table.env_circ(u, v)) == seq_length(u) + seq_length(v)

    def test_sequences_validated(self):
        t = cyclic_table(3)
        with pytest.raises(ValueError):
            t.env_dot((), (1,))
        with pytest.raises(ValueError):
            t.env_circ((1,), (7,))
        with pytest.raises(ValueError, match="element 0 outside 1..3"):
            t.orbit((0, 1))
        with pytest.raises(ValueError, match="envelope sequences are nonempty"):
            t.orbit(())

    @pytest.mark.parametrize("entry", [1.5, 2.5, float("nan")])
    def test_non_integer_entries_are_named(self, entry):
        # 1 <= 1.5 <= 3 holds, so only membership in 1..3 stops 1.5 before it indexes a row.
        t = cyclic_table(3)
        message = f"element {entry} outside 1..3"
        calls = [
            lambda: t.orbit_eq((entry, 2), (1, 2)),
            lambda: t.orbit_eq((1, 2), (1, entry)),
            lambda: t.env_dot((entry,), (1,)),
            lambda: t.env_dot((1,), (2, entry)),
            lambda: t.env_circ((entry,), (1,)),
            lambda: t.orbit((entry, 1)),
            lambda: t.sigma_action(1, (1, entry)),
            lambda: t.check_element(entry),
        ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    def test_first_bad_entry_is_named(self):
        t = cyclic_table(3)
        with pytest.raises(ValueError, match=r"^element 1\.5 outside 1\.\.3$"):
            t.env_dot((1, 1.5, 0, 7), (1,))
        with pytest.raises(ValueError, match="^element 0 outside 1..3$"):
            t.orbit((2, 0, 1.5))

    @pytest.mark.parametrize("entry, named", [(1.0, "1.0"), (Fraction(1), "Fraction(1, 1)")])
    def test_numbers_equal_to_an_element_are_refused(self, entry, named):
        # 1.0 and Fraction(1) equal 1 and hash as 1, so only the type test stops them.
        t = cyclic_table(3)
        calls = [
            lambda: t.orbit_eq((entry, 2), (1, 2)),
            lambda: t.orbit_eq((1, 2), (1, entry)),
            lambda: t.orbit_eq((entry,), (1,)),
            lambda: t.env_dot((entry,), (1,)),
            lambda: t.env_dot((1,), (2, entry)),
            lambda: t.env_circ((entry,), (1,)),
            lambda: t.env_circ((1,), (entry,)),
            lambda: t.orbit((entry, 1)),
            lambda: t.sigma_action(1, (1, entry)),
            lambda: t.check_element(entry),
        ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"element {named} outside 1..3"

    def test_true_passes_every_sequence_method(self):
        t = cyclic_table(3)
        assert t.env_circ((True,), (2,)) == (True, 2)
        assert t.sigma_action(1, (True, 2)) == t.sigma_action(1, (1, 2))
        assert t.orbit_eq((True, True), (1, 1)) is OrbitResult.YES

    def test_true_is_still_the_element_1(self):
        t = cyclic_table(3)
        assert t.check_element(True) is True
        assert t.env_dot((True,), (2,)) == t.env_dot((1,), (2,))
        assert t.orbit_eq((True, 2), (1, 2)) == t.orbit_eq((1, 2), (1, 2))
        assert t.orbit((True, 2)) == t.orbit((1, 2))


class TestOrbitEquality:
    def test_one_step(self):
        t = cyclic_table(3)
        a, b = 1, 2
        assert t.orbit_eq((t.dot(a, b), a), (a, b), depth=1) is OrbitResult.YES

    def test_reflexive_at_zero_budget(self, table):
        assert table.orbit_eq((1, 1), (1, 1), depth=0) is OrbitResult.YES

    def test_length_mismatch(self, table):
        assert table.orbit_eq((1,), (1, 1)) is OrbitResult.NO

    def test_exact_no(self):
        t = cyclic_table(3)
        # Distinct singletons are never orbit equivalent (no sigma applies).
        assert t.orbit_eq((1,), (2,)) is OrbitResult.NO

    def test_invariant_separates_at_zero_depth(self):
        t = cyclic_table(3)
        u, v = (1, 2), (1, 3)
        assert t._translation(u) != t._translation(v)
        assert t.orbit_eq(u, v, depth=0) is OrbitResult.NO

    def test_negative_depth_rejected(self):
        t = cyclic_table(3)
        with pytest.raises(ValueError, match="depth must be >= 0"):
            t.orbit_eq((1, 2), (1, 2), depth=-1)
        # orbit shares the check.
        with pytest.raises(ValueError, match="depth must be >= 0"):
            t.orbit((1, 2), -1)
        assert t.orbit((1, 2), 0) == ({(1, 2)}, False)

    def test_yes_stops_at_first_shared_state(self, monkeypatch):
        # The orbit of a 12-entry sequence over C7 has about 7^11 states;
        # sigma_1 of u lies one layer away.
        monkeypatch.setattr(envelope, "MAX_ORBIT_STATES", 100)
        t = cyclic_table(7)
        u = (2, 5, 7, 7, 7, 1, 3, 1, 4, 7, 4, 4)
        assert t.orbit_eq(u, t.sigma_action(1, u)) is OrbitResult.YES

    def test_search_yes_stops_at_first_shared_state(self, monkeypatch):
        # The same over C9, which no rule decides: about 9^11 states, and
        # sigma_1 of u one layer away, so the two searches meet at once.
        monkeypatch.setattr(envelope, "MAX_ORBIT_STATES", 100)
        t = cyclic_table(9)
        u = (2, 5, 7, 7, 7, 1, 3, 1, 4, 7, 4, 4)
        assert not t._cyclic
        assert t.orbit_eq(u, t.sigma_action(1, u)) is OrbitResult.YES

    @pytest.mark.parametrize("n, u, v, states", [
        # A constant sequence over a cyclic table is fixed by every sigma_i,
        # so its side closes at once.  C3 is a rack, where that closed side
        # answers No under any budget; the orbit of v has 240 states.
        (3, (1,) * 6, (2, 2, 2, 2, 3, 3), 1 + 240),
        # C6 is no rack: only both orbits closed, of 16 and 182 states,
        # certify No, and the budget counts both sides together.
        (6, (6, 3, 6, 3, 6), (4, 4, 2, 5, 3), 16 + 182),
        # C9 is a rack that no rule decides: the search closes the constant
        # side; the orbit of v has 648 states.
        (9, (1,) * 4, (4, 5, 2, 7), 1 + 648),
    ])
    def test_state_budget(self, monkeypatch, n, u, v, states):
        t = cyclic_table(n)
        assert t._translation(u) == t._translation(v)
        monkeypatch.setattr(envelope, "MAX_ORBIT_STATES", states)
        assert t.orbit_eq(u, v) is OrbitResult.NO
        if t._rack:
            monkeypatch.setattr(envelope, "MAX_ORBIT_STATES", 1)
            assert t.orbit_eq(u, v) is OrbitResult.NO
            return
        monkeypatch.setattr(envelope, "MAX_ORBIT_STATES", states - 1)
        with pytest.raises(OrbitBudgetError):
            t.orbit_eq(u, v)

    def test_rack_one_closed_side_answers_no(self, monkeypatch):
        # The whole orbit of v over C5 passes the default budget; the
        # constant u closes after one layer, whichever side grows first.
        t = cyclic_table(5)
        u, v = (1,) * 10, (2, 5, 5, 2, 3, 5, 4, 5, 1, 5)
        assert t._rack and t._translation(u) == t._translation(v)
        monkeypatch.setattr(envelope, "MAX_ORBIT_STATES", 100)
        assert t.orbit_eq(u, v) is OrbitResult.NO
        assert t.orbit_eq(v, u) is OrbitResult.NO

    def test_rack_rule_without_the_cyclic_rule(self, monkeypatch):
        # The same over C9, which the cyclic rule does not cover, so the
        # search runs and the closed constant side decides.
        t = cyclic_table(9)
        u, v = (1,) * 10, (9, 6, 9, 1, 8, 4, 1, 3, 2, 6)
        assert t._rack and not t._cyclic and t._translation(u) == t._translation(v)
        monkeypatch.setattr(envelope, "MAX_ORBIT_STATES", 100)
        assert t.orbit_eq(u, v) is OrbitResult.NO
        assert t.orbit_eq(v, u) is OrbitResult.NO

    def test_absorbing_yes_needs_no_state(self, monkeypatch):
        # Over A3 a 12-entry pair 40 random sigma steps apart: the absorbing
        # rule answers Yes before the search holds a state past the first.
        t = laver_table(3)
        rng = random.Random(12)
        u = tuple(rng.randint(1, 8) for _ in range(12))
        v = u
        for _ in range(40):
            v = t.sigma_action(rng.randint(1, 11), v)
        assert u != v
        monkeypatch.setattr(envelope, "MAX_ORBIT_STATES", 1)
        assert t.orbit_eq(u, v) is OrbitResult.YES
        assert t.orbit_eq(u, v, depth=0) is OrbitResult.YES

    def test_cyclic_yes_needs_no_state(self, monkeypatch):
        # Over C7 a 12-entry pair 40 random sigma steps apart: the cyclic
        # rule answers Yes before the search holds a state past the first.
        t = cyclic_table(7)
        rng = random.Random(12)
        u = tuple(rng.randint(1, 7) for _ in range(12))
        v = u
        for _ in range(40):
            v = t.sigma_action(rng.randint(1, 11), v)
        assert u != v
        monkeypatch.setattr(envelope, "MAX_ORBIT_STATES", 1)
        assert t.orbit_eq(u, v) is OrbitResult.YES
        assert t.orbit_eq(u, v, depth=0) is OrbitResult.YES

    @pytest.mark.parametrize("n, u, v", [
        # (a, ..., a) has the map x -> 2^L x - (2^L - 1) a, the same for
        # every a when n divides 2^L - 1; each is fixed by every sigma_i.
        (3, (1,) * 4, (2,) * 4),
        (7, (1,) * 6, (5,) * 6),
    ])
    def test_distinct_constants_sharing_a_map_answer_no(self, monkeypatch, n, u, v):
        t = cyclic_table(n)
        assert t._cyclic and t._translation(u) == t._translation(v)
        monkeypatch.setattr(envelope, "MAX_ORBIT_STATES", 1)
        assert t.orbit_eq(u, v) is OrbitResult.NO
        assert t.orbit_eq(v, u, depth=0) is OrbitResult.NO

    def test_unknown_on_tiny_budget(self):
        # Over C9, which no rule decides, depth 0 leaves the search open.
        t = cyclic_table(9)
        u = (1, 2, 3, 4)
        v = t.sigma_action(1, t.sigma_action(2, t.sigma_action(3, u)))
        if u != v:
            assert t.orbit_eq(u, v, depth=0) is OrbitResult.UNKNOWN
        assert t.orbit_eq(u, v) is OrbitResult.YES

    def test_monoid_laws_modulo_orbits(self, rng, table):
        for _ in range(40):
            j, g, h = (random_seq(rng, table, max_len=3) for _ in range(3))
            law2 = table.orbit_eq(
                table.env_dot(j, table.env_circ(g, h)),
                table.env_circ(table.env_dot(j, g), table.env_dot(j, h)),
            )
            law3 = table.orbit_eq(
                table.env_circ(table.env_dot(j, h), j), table.env_circ(j, h)
            )
            law4 = table.orbit_eq(
                table.env_dot(j, table.env_dot(h, g)),
                table.env_dot(table.env_circ(j, h), g),
            )
            law1 = table.orbit_eq(
                table.env_dot(j, table.env_dot(g, h)),
                table.env_dot(table.env_dot(j, g), table.env_dot(j, h)),
            )
            assert {law1, law2, law3, law4} == {OrbitResult.YES}

    def test_dot_well_defined_on_orbits(self, rng, table):
        for _ in range(25):
            u = random_seq(rng, table, max_len=3)
            w = random_seq(rng, table, max_len=2)
            if len(u) < 2:
                continue
            i = rng.randint(1, len(u) - 1)
            v = table.sigma_action(i, u)
            assert table.orbit_eq(table.env_dot(u, w), table.env_dot(v, w)) is OrbitResult.YES


def laver_table(k: int) -> LDTable:
    """A_k on 1..2^k: p.1 = p + 1, 2^k a left identity, p.(q+1) = (p.q).(p+1)."""
    size = 2 ** k
    rows = [[0] * size for _ in range(size)]
    rows[size - 1] = list(range(1, size + 1))
    for p in range(size - 1, 0, -1):
        rows[p - 1][0] = p + 1
        for q in range(1, size):
            rows[p - 1][q] = rows[rows[p - 1][q - 1] - 1][p]
    return LDTable(rows)


def affine_table(n: int, t: int) -> LDTable:
    """a.b = t*b + (1 - t)*a (mod n) on 1..n; t = 2 is ``cyclic_table(n)``."""
    return LDTable([[(t * b + (1 - t) * a) % n + 1 for b in range(n)] for a in range(n)])


ORACLE_TABLES = {
    "C3": cyclic_table(3),
    "C4": cyclic_table(4),
    "C5": cyclic_table(5),
    "C7": cyclic_table(7),
    "C9": cyclic_table(9),
    # A rack of the size of C7 whose maps do not separate the orbits: no
    # rule decides it.
    "T7": affine_table(7, 3),
    "A2": laver_table(2),
    "A3": laver_table(3),
    "rack2": LDTable([[2, 1], [2, 1]]),  # a.b swaps b: every row the same
}
# The longest sequence the oracle test draws per table, 6 otherwise: a C9
# orbit of 6 entries has about 59k states.
ORACLE_MAX_LENGTH = {"C9": 5, "T7": 5}


def ld_tables(max_size):
    """Every left-distributive table on 1 to ``max_size`` elements."""
    for n in range(1, max_size + 1):
        for entries in itertools.product(range(1, n + 1), repeat=n * n):
            try:
                yield LDTable([entries[i : i + n] for i in range(0, n * n, n)])
            except NotLeftDistributiveError:
                pass


# The 234 LD tables on at most 3 elements, 9 of them absorbing.
SMALL_LD_TABLES = list(ld_tables(3))
SMALL_ABSORBING_TABLES = [table for table in SMALL_LD_TABLES if table._absorbing]


def left_identity(table) -> int:
    return table.table.index(tuple(table.elements())) + 1


def left_identity_forms(table, length):
    """Each sequence of ``length`` mapped to a (t, ..., t, z) in its orbit.

    One backward search over the sigma_i edges between all sequences of
    ``length``, from every (t, ..., t, z) at once; a sequence whose orbit
    holds none is missing.
    """
    preimages = defaultdict(list)
    for s in itertools.product(table.elements(), repeat=length):
        for i in range(1, length):
            preimages[table.sigma_action(i, s)].append(s)
    prefix = (left_identity(table),) * (length - 1)
    form = {prefix + (z,): prefix + (z,) for z in table.elements()}
    stack = list(form)
    while stack:
        s = stack.pop()
        for p in preimages[s]:
            if p not in form:
                form[p] = form[s]
                stack.append(p)
    return form


class TestAbsorbingTables:
    def test_flags(self):
        for n in range(3, 10):
            assert not cyclic_table(n)._absorbing
            assert cyclic_table(n)._rack == (n % 2 == 1)
        assert ORACLE_TABLES["rack2"]._rack and not ORACLE_TABLES["rack2"]._absorbing
        assert one_element_table()._absorbing
        for k in (1, 2, 3):
            assert laver_table(k)._absorbing
        assert not any(t._rack for t in (ORACLE_TABLES["A2"], ORACLE_TABLES["A3"]))
        assert len(SMALL_LD_TABLES) == 234 and len(SMALL_ABSORBING_TABLES) == 9

    def test_absorbing_flag_against_pair_orbits(self):
        # The definition read off each pair's whole sigma_1 orbit.
        for table in SMALL_LD_TABLES:
            identity = tuple(table.elements())
            expected = (
                identity in table.table
                and len(set(table.table)) == table.size
                and all(
                    any(p[0] == left_identity(table) for p in table.orbit((a, b))[0])
                    for a in table.elements()
                    for b in table.elements()
                )
            )
            assert table._absorbing == expected

    @pytest.mark.parametrize("table, max_length", [
        pytest.param(laver_table(2), 5, id="A2"),
        pytest.param(laver_table(3), 4, id="A3"),
        *(pytest.param(table, 4, id=f"small{k}") for k, table in enumerate(SMALL_ABSORBING_TABLES)),
    ])
    def test_every_orbit_holds_its_left_identity_form(self, table, max_length):
        # The lemma behind the absorbing rule: the orbit of s holds
        # (t, ..., t, z), with z the element whose row is the map of s.
        prefix = (left_identity(table),)
        for length in range(1, max_length + 1):
            form = left_identity_forms(table, length)
            for s in itertools.product(table.elements(), repeat=length):
                z = table.table.index(table._translation(s)) + 1
                assert form.get(s) == prefix * (length - 1) + (z,)


def sigma_classes(table, length):
    """The class of each sequence of ``length`` under the sigma_i edges, by
    union-find; on a rack the classes are the orbits (the rack rule)."""
    sequences = list(itertools.product(table.elements(), repeat=length))
    parent = {s: s for s in sequences}

    def root(s):
        while parent[s] != s:
            parent[s] = s = parent[parent[s]]
        return s

    for s in sequences:
        for i in range(1, length):
            parent[root(s)] = root(table.sigma_action(i, s))
    return {s: root(s) for s in sequences}


class TestCyclicRule:
    def test_flags(self):
        for n in range(1, 18):
            assert cyclic_table(n)._cyclic == (n in envelope.CYCLIC_RULE_PRIMES)
        assert envelope.CYCLIC_RULE_PRIMES == (3, 5, 7, 11, 13)
        assert cyclic_table(7).table == affine_table(7, 2).table
        assert not affine_table(7, 3)._cyclic and affine_table(7, 3)._rack
        assert not any(t._cyclic for t in SMALL_ABSORBING_TABLES)

    def test_two_entries_are_searched(self):
        # The rule starts at 3 entries: over C11 these two pairs share a map
        # and are not constant, yet their orbits, of 5 states each, differ.
        t = cyclic_table(11)
        u, v = (4, 6), (1, 2)
        assert t._translation(u) == t._translation(v)
        assert len(t.orbit(u)[0]) == len(t.orbit(v)[0]) == 5
        assert t.orbit_eq(u, v) is OrbitResult.NO
        assert t.orbit_eq(u, (5, 11)) is OrbitResult.YES

    @pytest.mark.parametrize("p", envelope.CYCLIC_RULE_PRIMES)
    def test_base_cases(self, p):
        # P(3) and P(4) of the proof in ``orbit_eq``: over every sequence of 3
        # and 4 entries, a constant sequence is alone in its class, and the
        # others share a class exactly when they share a map.
        table = cyclic_table(p)
        for length in (3, 4):
            classes = sigma_classes(table, length)
            rule = {
                s: ("constant", s) if len(set(s)) == 1 else ("map", table._translation(s))
                for s in classes
            }
            pairs = {(classes[s], rule[s]) for s in classes}
            assert len(pairs) == len(set(classes.values())) == len(set(rule.values()))


def decode(table, code, length):
    """The sequence whose ``LDTable._code`` is ``code``."""
    mask = (1 << table._bits) - 1
    return tuple((code >> table._bits * i & mask) + 1 for i in range(length))


# C7, T7 and C9 take 3, 3 and 4 bits an entry with sizes that are not powers
# of two.
CODED_TABLES = {**ORACLE_TABLES, "one": one_element_table()}


def sigma_closure(table, s, depth=None):
    """What ``orbit`` returns, from sigma_action: the sequences that at most
    ``depth`` layers reach from s, and whether the last layer was empty."""
    seen, frontier, layers = {s}, {s}, 0
    while frontier and (depth is None or layers < depth):
        frontier = {table.sigma_action(i, t) for t in frontier for i in range(1, len(s))} - seen
        seen |= frontier
        layers += 1
    return seen, not frontier


def translate(table, s, c):
    """a_1.(a_2.( ... (a_n.c))) for s = (a_1, ..., a_n), one entry at a time."""
    for a in reversed(s):
        c = table.dot(a, c)
    return c


@pytest.mark.parametrize("name", sorted(CODED_TABLES))
def test_coded_step_is_sigma_action(name):
    # orbit_eq applies sigma_(i+1) to a code as one add of a table entry, and
    # orbit grows the same coded layers; the map composes rows through getters.
    table = CODED_TABLES[name]
    bits, steps = table._bits, table._steps
    mask = (1 << 2 * bits) - 1
    for length in (1, 2, 3, 4):
        sequences = list(itertools.product(table.elements(), repeat=length))
        for s in sequences:
            code = table._code(s)
            assert decode(table, code, length) == s
            for i in range(length - 1):
                shift = bits * i
                image = code + (steps[code >> shift & mask] << shift)
                assert decode(table, image, length) == table.sigma_action(i + 1, s)
            expected = tuple(translate(table, s, c) for c in table.elements())
            assert table._translation(s) == expected
            assert table.env_dot(s, tuple(table.elements())) == expected
            assert table.orbit(s, 1) == sigma_closure(table, s, 1)
        # A whole orbit of 4 entries over C9 holds about 700 states: every
        # sequence of up to 3 entries, and about 50 of 4.
        step = max(1, len(sequences) // 50) if length == 4 else 1
        for s in sequences[::step]:
            assert table.orbit(s) == sigma_closure(table, s)


def test_orbit_budget(monkeypatch):
    t = cyclic_table(3)
    v = (2, 2, 2, 2, 3, 3)
    monkeypatch.setattr(envelope, "MAX_ORBIT_STATES", 240)
    states, complete = t.orbit(v)
    assert len(states) == 240 and complete
    monkeypatch.setattr(envelope, "MAX_ORBIT_STATES", 239)
    with pytest.raises(OrbitBudgetError, match="orbit search passed 239 states"):
        t.orbit(v)
    # Only sigma_4 moves v, so one layer stays under any budget.
    assert t.orbit(v, 1) == ({v, t.sigma_action(4, v)}, False)
    # A 12-entry sequence over C7 has an orbit of about 7^11 states.
    monkeypatch.setattr(envelope, "MAX_ORBIT_STATES", 100)
    with pytest.raises(OrbitBudgetError):
        cyclic_table(7).orbit((2, 5, 7, 7, 7, 1, 3, 1, 4, 7, 4, 4))


def oracle_orbit_eq(table, u, v, depth):
    """The exhaustive answer: both depth-capped orbits, then their overlap."""
    left, left_complete = table.orbit(u, depth)
    right, right_complete = table.orbit(v, depth)
    if left & right:
        return OrbitResult.YES
    if left_complete and right_complete:
        return OrbitResult.NO
    return OrbitResult.UNKNOWN


@st.composite
def orbit_queries(draw):
    name = draw(st.sampled_from(sorted(ORACLE_TABLES)))
    table = ORACLE_TABLES[name]
    length = draw(st.integers(1, ORACLE_MAX_LENGTH.get(name, 6)))
    entries = st.lists(st.integers(1, table.size), min_size=length, max_size=length)
    u = tuple(draw(entries))
    how = draw(st.sampled_from(["random", "walk", "same map"]))
    if how == "random":
        v = tuple(draw(entries))
    elif how == "walk":  # a sigma walk from u, so that Yes pairs are common
        v = u
        if length > 1:
            for i in draw(st.lists(st.integers(1, length - 1), max_size=8)):
                v = table.sigma_action(i, v)
    else:  # a first entry that gives u's map, where one does, so that the
        # pairs that only a rule or a search can tell apart are common
        rest = tuple(draw(entries))[1:]
        same = [(a, *rest) for a in table.elements()
                if table._translation((a, *rest)) == table._translation(u)]
        v = same[draw(st.integers(0, len(same) - 1))] if same else u
    if draw(st.booleans()):
        u, v = v, u
    depth = draw(st.sampled_from([None, 0, 1, 2, 3]))
    return table, u, v, depth


class TestOrbitEqAgainstOracle:
    @settings(max_examples=300)
    @given(orbit_queries())
    def test_matches_exhaustive_orbits(self, query):
        table, u, v, depth = query
        expected = oracle_orbit_eq(table, u, v, depth)
        answer = table.orbit_eq(u, v, depth)
        if answer is not expected:
            # The one allowed difference: the capped orbits cannot decide,
            # and the answer is that of the whole orbits.  The invariants, the
            # absorbing rule and the cyclic rule answer without a search,
            # and on a rack one closed side answers No.
            assert expected is OrbitResult.UNKNOWN
            assert answer is oracle_orbit_eq(table, u, v, None)


def reference_violation(rows) -> tuple[int, int, int] | None:
    """The first (a, b, c) with a.(b.c) != (a.b).(a.c), by the loop over all triples."""
    n = len(rows)
    dot = lambda a, b: rows[a - 1][b - 1]
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                if dot(a, dot(b, c)) != dot(dot(a, b), dot(a, c)):
                    return a, b, c
    return None


# Square tables of 1 to 5 elements with random entries: nearly all are not
# left distributive, and their first violating triples fall anywhere.
RANDOM_TABLES = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(1, n), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


class TestRowCheckAgainstTripleLoop:
    @given(RANDOM_TABLES)
    def test_names_the_same_first_triple(self, rows):
        expected = reference_violation(rows)
        if expected is None:
            assert LDTable(rows).table == tuple(map(tuple, rows))
        else:
            with pytest.raises(NotLeftDistributiveError) as info:
                LDTable(rows)
            assert info.value.triple == expected

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_cyclic_tables_pass_and_a_changed_entry_fails(self, n):
        rows = [list(row) for row in cyclic_table(n).table]
        assert reference_violation(rows) is None
        rows[n - 1][n - 1] = rows[n - 1][n - 1] % n + 1
        with pytest.raises(NotLeftDistributiveError) as info:
            LDTable(rows)
        assert info.value.triple == reference_violation(rows)


class TestTableBudget:
    def test_table_past_budget_raises(self, monkeypatch):
        monkeypatch.setattr(envelope, "MAX_TABLE_SIZE", 4)
        assert cyclic_table(4).size == 4
        with pytest.raises(TableBudgetError):
            cyclic_table(5)

    def test_size_line_is_checked_before_any_row(self, monkeypatch):
        monkeypatch.setattr(envelope, "MAX_TABLE_SIZE", 4)
        # Neither the rows nor their count are read: the size line decides.
        with pytest.raises(TableBudgetError) as info:
            parse_table("5\nnot a row\n")
        assert str(info.value) == "table of 5 elements exceeds the budget of 4"
        assert parse_table("3\n1 3 2\n3 2 1\n2 1 3\n").size == 3

    def test_largest_table_loads(self):
        n = envelope.MAX_TABLE_SIZE
        assert cyclic_table(n).size == n
        with pytest.raises(TableBudgetError):
            parse_table(f"{n + 1}\n")


class TestTableFormat:
    def test_parse_round_trip(self):
        t = parse_table("3\n1 3 2\n3 2 1\n2 1 3\n")
        assert t.table == cyclic_table(3).table

    @pytest.mark.parametrize(
        "text",
        ["", "x\n", "2\n1 2\n", "1\n1 2\n", "2\n1 2\na b\n"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_table(text)

    def test_rejects_non_ld_file(self):
        text = "3\n" + "\n".join(
            " ".join(str((a + b) % 3 + 1) for b in range(3)) for a in range(3)
        )
        with pytest.raises(NotLeftDistributiveError):
            parse_table(text)
