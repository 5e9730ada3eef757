import io
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from shrinkbraid import coloring, envelope, ldops, representation, words, xmonoid
from shrinkbraid.cli import _CMP_TEXT, run
from shrinkbraid.coloring import InvalidStrandIndexError, RankMismatchError, StrandBudgetError
from shrinkbraid.envelope import (
    IndexOutOfRangeError, NotLeftDistributiveError, OrbitBudgetError, TableBudgetError, cyclic_table
)
from shrinkbraid.freegroup import BudgetError, DomainError
from shrinkbraid.ldops import LEAF, RealizationBudgetError, TermDepthError, eval_term, parse_term
from shrinkbraid.representation import ImageBudgetError
from shrinkbraid.words import RewriteBudgetError, XLetterPresentError
from shrinkbraid.xmonoid import SequenceBudgetError


@pytest.fixture
def capout(capsys):
    def invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestEq:
    def test_braid_relation(self, capout):
        code, out, _ = capout("eq", "s1 s2 s1", "s2 s1 s2")
        assert code == 0 and out == "true\n"

    def test_unequal(self, capout):
        code, out, _ = capout("eq", "s1", "x1")
        assert code == 0 and out == "false\n"

    def test_pants_relation(self, capout):
        code, out, _ = capout("eq", "s1 x1", "x1")
        assert code == 0 and out == "true\n"


def left_nested(depth: int) -> str:
    return "(" * depth + "j" + " . j)" * depth


@pytest.fixture
def no_oracle(monkeypatch):
    """Fail any call of the free-group oracle: braids take the fast path."""
    def fail(*args):
        raise AssertionError("free-group oracle called on braid words")

    monkeypatch.setattr(representation, "_images_cmp", fail)


class TestBraidFastPath:
    def test_eq_at_large_index(self, capout, no_oracle):
        code, out, _ = capout("eq", "s100000", "s100000")
        assert code == 0 and out == "true\n"

    def test_cmp_at_large_index(self, capout, no_oracle):
        code, out, _ = capout("cmp", "s100000", "s100000 s100000")
        assert code == 0 and out == "LT\n"

    def test_cmp_at_huge_index_stays_sparse(self, capout, no_oracle):
        code, out, _ = capout("cmp", "s100000000", "s1")
        assert code == 0 and out == "LT\n"

    def test_laver_depth_eight(self, capout, no_oracle):
        code, out, _ = capout("laver", left_nested(8), "j")
        assert code == 0 and out == "GT\n"

    def test_laver_depth_six_matches_oracle(self, capout):
        code, out, _ = capout("laver", left_nested(6), "j")
        realized = eval_term(parse_term(left_nested(6)))
        expected = representation._images_cmp(realized, eval_term(LEAF))
        assert code == 0 and out == _CMP_TEXT[expected] + "\n"


class TestXPowerFastPath:
    """Realized terms are braids times a power of x_1: no image scan either."""

    a = f"({left_nested(5)} o j)"
    b = f"(j o {left_nested(5)})"
    c = "(j o j)"

    @staticmethod
    def realized(term: str) -> str:
        return str(eval_term(parse_term(term)))

    def test_ld_law_at_depth_eight(self, capout, no_oracle):
        a, b, c = self.a, self.b, self.c
        lhs = self.realized(f"({a} . ({b} . {c}))")
        rhs = self.realized(f"(({a} . {b}) . ({a} . {c}))")
        assert "x1" in lhs and "x1" in rhs
        code, out, _ = capout("eq", lhs, rhs)
        assert code == 0 and out == "true\n"

    def test_unequal_at_depth_eight(self, capout, no_oracle):
        a, b, c = self.a, self.b, self.c
        lhs = self.realized(f"({a} . ({b} . {c}))")
        rhs = self.realized(f"({b} . ({a} . {c}))")
        code, out, _ = capout("eq", lhs, rhs)
        assert code == 0 and out == "false\n"


class TestCmp:
    def test_dehornoy_positive(self, capout):
        code, out, _ = capout("cmp", "", "s1")
        assert code == 0 and out == "LT\n"

    def test_equal(self, capout):
        code, out, _ = capout("cmp", "x2 x1", "x1 x1")
        assert code == 0 and out == "EQ\n"

    def test_greater(self, capout):
        code, out, _ = capout("cmp", "s1", "")
        assert code == 0 and out == "GT\n"


class TestSxCanonAct:
    def test_sx(self, capout):
        code, out, _ = capout("sx", "x2 s1")
        assert code == 0 and out == "s1 s2 | x1\n"

    def test_canon(self, capout):
        code, out, _ = capout("canon", "x2 x1")
        assert code == 0 and out == "x1 x1 | S=(3)\n"

    def test_canon_canonicalizes_once(self, capout, monkeypatch):
        calls = []
        canonicalize = xmonoid.x_canonicalize

        def counted(w):
            calls.append(w)
            return canonicalize(w)

        monkeypatch.setattr(xmonoid, "x_canonicalize", counted)
        monkeypatch.setattr("shrinkbraid.cli.x_canonicalize", counted)
        code, out, _ = capout("canon", "x5 x1 x3")
        assert code == 0 and out == "x1 x3 x3 | S=(2,1,3)\n"
        assert len(calls) == 1

    def test_canon_rejects_sigma(self, capout):
        code, _, err = capout("canon", "s1")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("text, offset, token", [
        ("x1 x2 s1", 6, "s1"),
        ("x1\u3000s2^-1 x1 s3", 3, "s2^-1"),
        ("s1", 0, "s1"),
    ])
    def test_canon_error_points_at_first_sigma(self, capout, text, offset, token):
        code, out, err = capout("canon", text)
        assert code == 1 and out == ""
        expected = f"expected a word in x letters only (offset {offset}, token {token!r})"
        assert err == f"error: {expected}\n"

    def test_canon_index_budget_is_domain_error(self, capout):
        # The S sequence would hold one entry per index up to 10^8.
        start = time.monotonic()
        code, out, err = capout("canon", "x100000000")
        assert time.monotonic() - start < 1
        assert code == 2 and out == ""
        assert err == f"error: S sequence of 100000000 entries exceeds the budget of {1 << 20}\n"

    def test_sx_step_budget_bounds_the_time(self, capout):
        # Unbounded, this one takes 62,625,000 rewrite steps.
        start = time.monotonic()
        code, out, err = capout("sx", " ".join(["x1"] * 500 + ["s1"] * 500))
        assert time.monotonic() - start < 2
        assert code == 2 and out == ""
        assert err.startswith("error: decomposition of at least ")
        assert err.endswith(f" rewrite steps exceeds the budget of {1 << 20}\n")

    def test_act(self, capout):
        code, out, _ = capout("act", "s1", "e1")
        assert code == 0 and out == "e1^-1 e2\n"

    def test_act_identity(self, capout):
        code, out, _ = capout("act", "", "e1 e2")
        assert code == 0 and out == "e1 e2\n"

    def test_act_image_budget_is_domain_error(self, capout, monkeypatch):
        monkeypatch.setattr(representation, "MAX_IMAGE_LETTERS", 64)
        code, out, err = capout("act", "s1 s2^-1 " * 6, "e1")
        assert code == 2 and out == ""
        assert err.startswith("error: free-group image of ")
        assert err.endswith(" letters exceeds the budget of 64\n")


class TestLdLaver:
    def test_ld(self, capout):
        code, out, _ = capout("ld", "(j . j)")
        assert code == 0 and out == "s1\n"

    def test_laver(self, capout):
        code, out, _ = capout("laver", "j", "(j . j)")
        assert code == 0 and out == "LT\n"

    def test_bad_term(self, capout):
        code, _, err = capout("ld", "(j .")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("command, rest", [("ld", ()), ("laver", ("j",))])
    def test_deep_term_is_domain_error(self, capout, command, rest):
        deep = "(" * 2000 + "j" + " . j)" * 2000
        code, out, err = capout(command, deep, *rest)
        assert code == 2 and out == ""
        assert err == "error: term nested too deeply\n"

    def test_realization_budget_is_domain_error(self, capout):
        code, out, err = capout("ld", left_nested(300))
        assert code == 2 and out == ""
        assert err.startswith("error: realized word of ") and err.count("\n") == 1

    def test_dot_budget_is_checked_before_the_work(self, capout):
        # T_{k+1} = (T_k o T_k) has power 2^k; the dot (T_k . T_k) would
        # first build a middle factor of 4^k letters.
        term = "j"
        for _ in range(12):
            term = f"({term} o {term})"
        start = time.monotonic()
        code, out, err = capout("ld", f"({term} . {term})")
        assert time.monotonic() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error: realized word of at least ") and err.count("\n") == 1

    def test_image_budget_is_domain_error(self, capout):
        # The x-word scan on the circled depth-6 term ran without bound.
        start = time.monotonic()
        code, out, err = capout("laver", "(((((((j . j) . j) . j) . j) . j) . j) o j)", "j")
        assert time.monotonic() - start < 5
        assert code == 2 and out == ""
        assert err.startswith("error: free-group image of ") and err.count("\n") == 1


    def test_scan_budget_is_domain_error(self, capout, monkeypatch):
        # The scan of this pair images 28 letters in all.
        monkeypatch.setattr(representation, "MAX_SCAN_LETTERS", 27)
        code, out, err = capout("cmp", "s1 s2^-1 s1 s2^-1 x1", "x1")
        assert code == 2 and out == ""
        assert err == "error: free-group images of more than 27 letters in all exceed the budget\n"


class TestColor:
    def test_crossing(self, capout):
        code, out, _ = capout("color", "2", "s1")
        assert code == 0 and out == "e1 -> e1 e2 e1^-1\ne2 -> e1\n"

    def test_merge(self, capout):
        code, out, _ = capout("color", "2", "x1")
        assert code == 0 and out == "e1 -> e1 e2\n"

    def test_strand_error_is_domain(self, capout):
        code, _, err = capout("color", "2", "s3")
        assert code == 2 and "error" in err

    def test_color_budget_is_domain_error(self, capout, monkeypatch):
        monkeypatch.setattr(representation, "MAX_IMAGE_LETTERS", 1000)
        code, out, err = capout("color", "3", " ".join(["s1 s2^-1"] * 8))
        assert code == 2 and out == ""
        assert err.startswith("error: color of ")
        assert err.endswith(" letters exceeds the budget of 1000\n")

    def test_color_budget_bounds_the_time(self, capout):
        # Colors grow about 2.6 times per letter pair; unbounded, this one
        # would need about 2 * 10^9 letters.
        start = time.monotonic()
        code, out, err = capout("color", "3", " ".join(["s1 s2^-1"] * 18))
        assert time.monotonic() - start < 2
        assert code == 2 and out == "" and err.startswith("error: color of ")

    def test_total_budget_bounds_cancelling_pairs(self, capout):
        # Each s1 s1^-1 builds about 786k color letters and gives the colors
        # back; no color passes its own budget, so without the total budget
        # this ran for about 10 s.
        word = " ".join(["s1 s2^-1"] * 13 + ["s1 s1^-1"] * 500)
        start = time.monotonic()
        code, out, err = capout("color", "3", word)
        assert time.monotonic() - start < 2
        assert code == 2 and out == ""
        assert err == f"error: free-group images of more than {1 << 25} letters in all exceed the budget\n"

    def test_strand_budget_is_domain_error(self, capout):
        code, out, err = capout("color", "3000000", "s1")
        assert code == 2 and out == ""
        assert err == f"error: 3000000 strands exceed the budget of {coloring.MAX_STRANDS}\n"

    @pytest.mark.parametrize("strands", ["\u0661", "1_0", "+2"])
    def test_strand_digits_are_ascii(self, capout, strands):
        # int() alone reads Arabic-Indic digits, underscores and a plus sign.
        code, out, err = capout("color", strands, "s1")
        assert code == 1 and out == ""
        assert err.startswith("usage: ") and "argument strands: not an ASCII integer: " in err
        assert "_ascii_int" not in err


class TestEnv:
    @pytest.fixture
    def table_file(self, tmp_path):
        path = tmp_path / "cyc3.txt"
        path.write_text("3\n1 3 2\n3 2 1\n2 1 3\n", encoding="utf-8")
        return str(path)

    def test_dot(self, capout, table_file):
        code, out, _ = capout("env", table_file, "1", "2,3", "--op", "dot")
        assert code == 0 and out == "3,2\n"

    def test_circ(self, capout, table_file):
        code, out, _ = capout("env", table_file, "1,2", "3", "--op", "circ")
        assert code == 0 and out == "1,2,3\n"

    def test_eq(self, capout, table_file):
        code, out, _ = capout("env", table_file, "3,1", "1,2", "--op", "eq")
        assert code == 0 and out == "Yes\n"

    def test_eq_no(self, capout, table_file):
        code, out, _ = capout("env", table_file, "1", "1,1", "--op", "eq")
        assert code == 0 and out == "No\n"

    def test_eq_separated_by_invariant(self, capout, tmp_path):
        # Over C7 the orbit of a 12-entry sequence has about 7^11 states; the
        # translation maps differ, so no search runs.
        path = tmp_path / "cyc7.txt"
        rows = [" ".join(str((2 * b - a) % 7 + 1) for b in range(7)) for a in range(7)]
        path.write_text("7\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = capout(
            "env", str(path), "1,2,3,4,5,6,7,1,2,3,4,5", "1,2,3,4,5,6,7,1,2,3,4,6",
            "--op", "eq",
        )
        assert code == 0 and out == "No\n"

    def test_eq_state_budget_is_domain_error(self, capout, table_file, tmp_path, monkeypatch):
        # 1,1,1,1,1,1 is fixed by every sigma_i and shares its translation
        # map with 2,2,2,2,3,3, whose orbit has 240 states.  C3 is a rack, so
        # the closed side of the constant sequence answers No under any
        # budget.  C6 is not: 6,3,6,3,6 and 4,4,2,5,3 share a map, and only
        # their closed orbits, of 16 and 182 states, answer No.
        rack_args = ("env", table_file, "1,1,1,1,1,1", "2,2,2,2,3,3", "--op", "eq")
        path = tmp_path / "cyc6.txt"
        rows = [" ".join(str((2 * b - a) % 6 + 1) for b in range(6)) for a in range(6)]
        path.write_text("6\n" + "\n".join(rows) + "\n", encoding="utf-8")
        args = ("env", str(path), "6,3,6,3,6", "4,4,2,5,3", "--op", "eq")
        assert capout(*rack_args)[:2] == (0, "No\n")
        assert capout(*args)[:2] == (0, "No\n")
        monkeypatch.setattr(envelope, "MAX_ORBIT_STATES", 100)
        assert capout(*rack_args)[:2] == (0, "No\n")
        code, out, err = capout(*args)
        assert code == 2 and out == ""
        assert err.startswith("error: orbit search passed 100 states")

    @pytest.mark.parametrize("depth", ["\u0663", "1_0", "+3"])
    def test_depth_digits_are_ascii(self, capout, table_file, depth):
        code, out, err = capout("env", table_file, "1,2", "1,2", "--op", "eq", "--depth", depth)
        assert code == 1 and out == ""
        assert err.startswith("usage: ") and "argument --depth: not an ASCII integer: " in err
        assert "_ascii_int" not in err

    def test_negative_depth_is_usage_error(self, capout, table_file):
        code, out, err = capout("env", table_file, "1,2", "1,2", "--op", "eq", "--depth", "-1")
        assert code == 1 and out == ""
        assert err == "error: depth must be >= 0\n"

    def test_non_ld_table_is_domain_error(self, capout, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "3\n2 3 1\n3 1 2\n1 2 3\n", encoding="utf-8"
        )  # addition table, not LD
        code, _, err = capout("env", str(path), "1", "1", "--op", "dot")
        assert code == 2 and "not left distributive" in err

    def test_missing_file_is_usage_error(self, capout):
        code, _, err = capout("env", "/nonexistent/t.txt", "1", "1", "--op", "dot")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("seq", ["\u0661,\u0662", "1_0", "+1", "1,\u00b2", "1.0"])
    def test_sequence_digits_are_ascii(self, capout, table_file, seq):
        # int() alone reads Arabic-Indic digits, underscores and a plus sign.
        code, out, err = capout("env", table_file, seq, "1", "--op", "circ")
        assert code == 1 and out == ""
        assert err == f"error: sequence must be comma-separated integers, got {seq!r}\n"

    def test_sequence_parts_may_be_spaced(self, capout, table_file):
        code, out, _ = capout("env", table_file, " 1 , 2 ,", "3", "--op", "circ")
        assert code == 0 and out == "1,2,3\n"

    def test_negative_entry_is_out_of_range(self, capout, table_file):
        code, out, err = capout("env", table_file, "-1", "1", "--op", "circ")
        assert code == 1 and out == ""
        assert err == "error: element -1 outside 1..3\n"

    def test_empty_sequence_is_usage_error(self, capout, table_file):
        # The table's own sequence check rejects it, as it does in the library.
        code, out, err = capout("env", table_file, "", "1,2", "--op", "dot")
        assert code == 1 and out == ""
        assert err == "error: envelope sequences are nonempty\n"

    @pytest.mark.parametrize("size", ["-3", "0"])
    def test_table_size_below_one_is_usage_error(self, capout, tmp_path, size):
        path = tmp_path / "t.txt"
        path.write_text(f"{size}\n", encoding="utf-8")
        code, out, err = capout("env", str(path), "1", "1", "--op", "dot")
        assert code == 1 and out == ""
        assert err == f"error: table size must be at least 1, got {size}\n"

    @pytest.mark.parametrize("text, message", [
        ("\u0663\n1 3 2\n3 2 1\n2 1 3\n", "error: first line must be the size, got '\u0663'\n"),
        ("3_0\n1 3 2\n3 2 1\n2 1 3\n", "error: first line must be the size, got '3_0'\n"),
        ("3\n1 3 2\n3 2 1\n2 1 \u0663\n", "error: non-integer entry in row '2 1 \u0663'\n"),
        ("3\n1 3 2\n3 2 1\n2 1 +3\n", "error: non-integer entry in row '2 1 +3'\n"),
    ])
    def test_table_digits_are_ascii(self, capout, tmp_path, text, message):
        path = tmp_path / "t.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = capout("env", str(path), "1", "1", "--op", "dot")
        assert code == 1 and out == ""
        assert err == message


# C9, a rack that no rule of orbit_eq decides: the budget row's two
# sequences, three sigma steps apart with one map, need a search.
C9_TEXT = "9\n" + "".join(" ".join(map(str, row)) + "\n" for row in cyclic_table(9).table)


@pytest.mark.parametrize("error, module, name, argv", [
    (RealizationBudgetError, ldops, "MAX_REALIZED_LETTERS", ["ld", "((j . j) . j)"]),
    (TermDepthError, ldops, "MAX_TERM_DEPTH", ["ld", "(((j . j) . j) . j)"]),
    (ImageBudgetError, representation, "MAX_IMAGE_LETTERS", ["act", "s1 s1", "e1"]),
    (StrandBudgetError, coloring, "MAX_STRANDS", ["color", "3", "s1"]),
    (OrbitBudgetError, envelope, "MAX_ORBIT_STATES", ["env", "1,2,3,4", "6,1,2,3", "--op", "eq"]),
    (SequenceBudgetError, xmonoid, "MAX_X_INDEX", ["canon", "x3"]),
    (TableBudgetError, envelope, "MAX_TABLE_SIZE", ["env", "1", "1", "--op", "dot"]),
    (RewriteBudgetError, words, "MAX_REWRITE_STEPS", ["sx", "x1 s1 s2 s3"]),
])
def test_budget_errors_share_one_base_and_exit_2(
    capout, monkeypatch, tmp_path, error, module, name, argv
):
    assert issubclass(error, BudgetError) and issubclass(error, ValueError)
    monkeypatch.setattr(module, name, 2)
    if argv[0] == "env":
        table = tmp_path / "cyc9.txt"
        table.write_text(C9_TEXT, encoding="utf-8")
        argv = ["env", str(table), *argv[1:]]
    code, out, err = capout(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


SCAN_PAST_BUDGET = "error: image scan over 100000000 indices exceeds the budget of 1048576 letters\n"


@pytest.mark.parametrize("command, expected", [
    ("eq", (0, "true\n", "")),  # coordinates: no index is scanned
    ("cmp", (2, "", SCAN_PAST_BUDGET)),
], ids=["eq", "cmp"])
def test_image_scan_past_budget_exits_2_before_it_starts(capout, monkeypatch, command, expected):
    # One image letter per index and word: 10^8 indices cannot fit the budget.
    monkeypatch.setattr(representation, "apply_word", None)
    assert capout(command, "x99999999", "x99999999") == expected


def test_domain_errors_share_one_base():
    for error in (
        BudgetError,
        XLetterPresentError,
        NotLeftDistributiveError,
        InvalidStrandIndexError,
        RankMismatchError,
        IndexOutOfRangeError,
    ):
        assert issubclass(error, DomainError) and issubclass(error, ValueError)
    assert issubclass(IndexOutOfRangeError, IndexError)


@pytest.mark.parametrize("argv", [
    ["color", "2", "s3"],
    ["env", "1", "1", "--op", "dot"],
    ["ld", "((j . j) . j)"],
    ["laver", "((j . j) . j)", "j"],
])
def test_domain_errors_exit_2(capout, monkeypatch, tmp_path, argv):
    monkeypatch.setattr(ldops, "MAX_REALIZED_LETTERS", 2)
    if argv[0] == "env":
        table = tmp_path / "add3.txt"
        table.write_text("3\n2 3 1\n3 1 2\n1 2 3\n", encoding="utf-8")  # not LD
        argv = ["env", str(table), *argv[1:]]
    code, out, err = capout(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class TestErrors:
    def test_parse_error_reports_offset(self, capout):
        code, _, err = capout("eq", "s1 x2^-1", "")
        assert code == 1
        assert "offset 3" in err and "x2^-1" in err

    @pytest.mark.parametrize("command", ["eq", "cmp"])
    def test_non_ascii_digit_is_parse_error(self, capout, command):
        code, out, err = capout(command, "s\u00b2", "s1")
        assert code == 1 and out == ""
        assert err.startswith("error: expected s<digits>") and "offset 0" in err

    def test_non_ascii_digit_in_free_word_is_parse_error(self, capout):
        code, _, err = capout("act", "s1", "e1 e\u0663")
        assert code == 1 and "offset 3" in err

    def test_x_where_braid_required_not_applicable_to_cmp(self, capout):
        # cmp accepts arbitrary R words including x letters
        code, out, _ = capout("cmp", "x1", "x1")
        assert code == 0 and out == "EQ\n"

    def test_usage_error(self, capout):
        code, _, _ = capout("nonsense")
        assert code == 1


class TestDeterminism:
    def test_byte_stable(self, capout):
        first = capout("cmp", "s1 s2", "s2 s1")
        second = capout("cmp", "s1 s2", "s2 s1")
        assert first == second

    def test_round_trip_printing(self, capout):
        code, out, _ = capout("sx", "s1   x2")
        assert code == 0 and out == "s1 | x2\n"


def test_python_m_runs_from_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "shrinkbraid", "cmp", "", "s1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0 and done.stdout == "LT\n" and done.stderr == ""


# --- fuzzing the front end -------------------------------------------------
# Tiny inputs only (words of at most 4 letters, terms of depth at most 3, at
# most 8 strands), so that no exponential path is reached.

SPACES = st.sampled_from([" ", "\t", "\n", "\u3000", "\xa0"])
ODD_DIGITS = ["\u00b2", "\u0663", "\uff11"]
GARBAGE = ["s", "x1^-1", "s0", "e1", "^-1", "j", "(", ")", ".", "o", "*", ",", "-"]
WORD_TOKENS = st.one_of(
    st.builds(str.format, st.sampled_from(["s{}", "s{}^-1", "x{}"]), st.integers(1, 9)),
    st.sampled_from(GARBAGE + [f"s{d}" for d in ODD_DIGITS] + [f"x1{d}" for d in ODD_DIGITS]),
)
FWORD_TOKENS = st.one_of(
    st.builds(str.format, st.sampled_from(["e{}", "e{}^-1"]), st.integers(0, 9)),
    st.sampled_from(GARBAGE + [f"e{d}" for d in ODD_DIGITS]),
)


def texts(tokens):
    return st.lists(st.tuples(SPACES, tokens), max_size=4).map(
        lambda parts: "".join(space + token for space, token in parts)
    )


def terms(depth):
    if depth == 0:
        return st.just("j")
    sub = terms(depth - 1)
    inner = st.builds("({} {} {})".format, sub, st.sampled_from([".", "o", "*"]), sub)
    return st.one_of(st.just("j"), inner)


TERMS = st.one_of(
    terms(3),
    terms(3).flatmap(lambda t: st.integers(0, len(t)).map(lambda k: t[:k] + t[k + 1 :])),
    texts(WORD_TOKENS),
)
SEQUENCES = st.one_of(
    st.lists(st.integers(0, 4), max_size=4).map(lambda seq: ",".join(map(str, seq))),
    st.sampled_from(["1,,2", "a", " ", "\u0663", "1.5"]),
)
STRANDS = st.one_of(st.integers(-1, 8).map(str), st.sampled_from(["\u0663", "x", ""]))
WORDS, FWORDS = texts(WORD_TOKENS), texts(FWORD_TOKENS)
# Commands whose every argument is a word or a term: exit 1 means a parse error.
PARSE_ONLY = {"eq", "cmp", "sx", "canon", "act", "ld", "laver"}


@pytest.fixture(scope="module")
def fuzz_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "cyc3.txt"
    path.write_text("3\n1 3 2\n3 2 1\n2 1 3\n", encoding="utf-8")
    return str(path)


def argvs(table):
    env = st.builds(
        lambda path, u, v, op, depth: ["env", path, u, v, "--op", op, *depth],
        st.sampled_from([table, table + ".missing"]),
        SEQUENCES,
        SEQUENCES,
        st.sampled_from(["dot", "circ", "eq", "pow"]),
        st.one_of(st.just([]), st.integers(-1, 3).map(lambda d: ["--depth", str(d)])),
    )
    commands = st.one_of(
        st.tuples(st.sampled_from(["eq", "cmp"]), WORDS, WORDS),
        st.tuples(st.sampled_from(["sx", "canon"]), WORDS),
        st.tuples(st.just("act"), WORDS, FWORDS),
        st.tuples(st.just("ld"), TERMS),
        st.tuples(st.just("laver"), TERMS, TERMS),
        st.tuples(st.just("color"), STRANDS, WORDS),
        env,
        st.lists(st.one_of(WORDS, st.sampled_from(["eq", "--op", "-x"])), max_size=3),
    )
    extra = st.one_of(st.just([]), st.just([]), st.just([]), WORDS.map(lambda w: [w]))
    return st.builds(lambda argv, more: [*argv, *more], commands, extra)


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestFuzz:
    def test_any_argv_ends_in_an_exit_code(self, fuzz_table):
        @settings(max_examples=300, deadline=5000)
        @given(argvs(fuzz_table))
        def check(argv):
            code, _, err = run_quietly(argv)
            assert code in (0, 1, 2)
            if code and not err.startswith("usage:"):  # argparse prints its usage block
                assert err.startswith("error: ") and err.count("\n") == 1
                if code == 1 and argv[0] in PARSE_ONLY:
                    assert "offset" in err

        check()
