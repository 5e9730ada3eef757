"""Replay a checked-in corpus of command-line answers byte for byte.

``data/cli_corpus.jsonl`` holds one JSON object per line: an argv for
``cli.run`` and the exit code, stdout and stderr it gave when recorded.  The
argvs are drawn from a seeded generator over the word, term and strand
commands, error inputs included (bad tokens, x letters where only x letters
or only braids are read, strand indices past the strand count, budgets).
The ``env`` lines follow from a random stream of their own, so the lines
before them do not move.  They read the table files next to the corpus
(cyclic, Laver, not left-distributive, malformed, over the size budget, and
one that does not exist) through paths relative to ``data/``, the working
directory of the replay.  Inputs stay small, so no exponential path is
reached and the replay is fast.

Regenerate the file, after a deliberate change of output, with

    PYTHONPATH=src python tests/test_cli_corpus.py --record
"""

import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from shrinkbraid.cli import run
from shrinkbraid.envelope import load_table

CORPUS = Path(__file__).resolve().parent / "data" / "cli_corpus.jsonl"
SEED = 20181
ENV_SEED = 97401
BAD_TOKENS = ["s0", "x0", "s", "x", "x1^-1", "e1", "y2", "s1^-2", "s²", "s٣", "s00", "^-1"]
BAD_FTOKENS = ["e0", "s1", "e", "e1^-2", "e٣", "E1"]


def _letter(rng, sigma_only=False, x_only=False, top=5):
    i = rng.randint(1, top)
    if x_only or (not sigma_only and rng.random() < 0.3):
        return f"x{i}"
    return f"s{i}" if rng.random() < 0.5 else f"s{i}^-1"


def _word(rng, max_len, **kw):
    """Space-joined letters, with the occasional doubled or odd separator."""
    letters = [_letter(rng, **kw) for _ in range(rng.randint(0, max_len))]
    return rng.choice([" ", " ", " ", "  ", "\t"]).join(letters)


def _spoiled(rng, word, bad=BAD_TOKENS):
    """``word`` with one bad token inserted at a random position."""
    tokens = word.split()
    tokens.insert(rng.randint(0, len(tokens)), rng.choice(bad))
    return " ".join(tokens)


def _term(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return "j"
    op = rng.choice([".", ".", "o"])
    return f"({_term(rng, depth - 1)} {op} {_term(rng, depth - 1)})"


def _bad_term(rng):
    text = _term(rng, 3)
    k = rng.randrange(len(text))
    return rng.choice([text[:k] + text[k + 1 :], text[:k] + "*" + text[k:], text + " j"])


def _fword(rng, max_len=4):
    return " ".join(
        f"e{rng.randint(1, 5)}" + rng.choice(["", "^-1"]) for _ in range(rng.randint(0, max_len))
    )


def _braid_pair(rng):
    if rng.random() < 0.8:
        return _word(rng, 10, sigma_only=True), _word(rng, 10, sigma_only=True)
    return _word(rng, 4, top=4), _word(rng, 4, top=4)


def _eq_or_cmp(rng, command):
    u, v = _braid_pair(rng)
    roll = rng.random()
    if roll < 0.1:
        u = _spoiled(rng, u)
    elif roll < 0.15:
        v = f"s{rng.randint(1, 5) * 100000000}"
    return [command, u, v]


def _sx(rng):
    w = _word(rng, 8)
    return ["sx", _spoiled(rng, w) if rng.random() < 0.1 else w]


def _canon(rng):
    roll = rng.random()
    if roll < 0.6:
        return ["canon", _word(rng, 6, x_only=True, top=6)]
    if roll < 0.85:  # sigma letters among x letters
        tokens = _word(rng, 5, x_only=True).split()
        tokens.insert(rng.randint(0, len(tokens)), _letter(rng, sigma_only=True))
        return ["canon", rng.choice([" ", "  ", "\t"]).join(tokens)]
    return ["canon", _spoiled(rng, _word(rng, 4, x_only=True))]


def _act(rng):
    w, f = _word(rng, 4, top=4), _fword(rng)
    roll = rng.random()
    if roll < 0.1:
        f = _spoiled(rng, f, BAD_FTOKENS)
    elif roll < 0.2:
        w = _spoiled(rng, w)
    return ["act", w, f]


def _ld(rng):
    roll = rng.random()
    if roll < 0.85:
        return ["ld", _term(rng, 4)]
    if roll < 0.99:
        return ["ld", _bad_term(rng)]
    return ["ld", "(" * 17 + "j" + " . j)" * 17]  # over the realization budget


def _laver(rng):
    if rng.random() < 0.9:
        return ["laver", _term(rng, 3), _term(rng, 3)]
    return ["laver", _term(rng, 2), _bad_term(rng)]


def _color(rng):
    strands = rng.randint(1, 6)
    w = _word(rng, 6, top=strands + 1)  # strand index past the count now and then
    roll = rng.random()
    if roll < 0.08:
        w = _spoiled(rng, w)
    elif roll < 0.12:
        strands = rng.choice([0, -1, 3000000])
    return ["color", str(strands), w]


MAKERS = {
    "eq": lambda rng: _eq_or_cmp(rng, "eq"),
    "cmp": lambda rng: _eq_or_cmp(rng, "cmp"),
    "sx": _sx,
    "canon": _canon,
    "act": _act,
    "ld": _ld,
    "laver": _laver,
    "color": _color,
}
PER_COMMAND = 125

# table file -> (its size, the longest sequence drawn over it: searches stay small)
ENV_TABLES = {"c3.txt": (3, 5), "a2.txt": (4, 5), "c4.txt": (4, 4), "c9.txt": (9, 4)}
BAD_TABLES = ["not_ld.txt", "bad_row.txt", "too_big.txt", "missing.txt"]


def _env_text(rng, seq, size):
    """``seq`` comma-joined, now and then spoiled by a bad or out-of-range entry."""
    entries = [str(a) for a in seq]
    roll = rng.random()
    if roll < 0.05:
        return rng.choice(["", " , ", ","])
    if roll < 0.1:
        entries.insert(rng.randint(0, len(entries)), rng.choice(["a", "1.5", "+1", "٣"]))
    elif roll < 0.15:  # not first: a leading "-" would read as an option
        entries.insert(rng.randint(1, len(entries)), str(rng.choice([0, size + 1, -1])))
    return rng.choice([",", ",", ", ", " ,"]).join(entries)


def _env(rng):
    op = rng.choice(["dot", "circ", "eq", "eq"])
    table = rng.choice(list(ENV_TABLES)) if rng.random() < 0.9 else rng.choice(BAD_TABLES)
    size, max_len = ENV_TABLES.get(table, (2, 3))
    u, v = ([rng.randint(1, size) for _ in range(rng.randint(1, max_len))] for _ in range(2))
    if op == "eq" and table in ENV_TABLES and len(u) > 1 and rng.random() < 0.5:
        v = tuple(u)  # a few sigma steps away: same orbit
        sigma = load_table(CORPUS.parent / table).sigma_action
        for _ in range(rng.randint(1, 3)):
            v = sigma(rng.randint(1, len(u) - 1), v)
    options = ["--op", op]
    if op == "eq" and rng.random() < 0.5:
        options += ["--depth", str(rng.randint(0, 4))]
    operands = [table, _env_text(rng, u, size), _env_text(rng, v, size)]
    return ["env", *options, *operands] if rng.random() < 0.3 else ["env", *operands, *options]


ENV_LINES = 125


def argvs():
    rng = random.Random(SEED)
    env_rng = random.Random(ENV_SEED)
    return [maker(rng) for maker in MAKERS.values() for _ in range(PER_COMMAND)] + [
        _env(env_rng) for _ in range(ENV_LINES)
    ]


def answer(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record():
    os.chdir(CORPUS.parent)
    with CORPUS.open("w", encoding="utf-8", newline="\n") as f:
        for argv in argvs():
            f.write(json.dumps(answer(argv)) + "\n")


def test_corpus_replays_byte_for_byte(monkeypatch):
    lines = CORPUS.read_text(encoding="utf-8").splitlines()
    assert len(lines) >= 1000 + ENV_LINES
    monkeypatch.chdir(CORPUS.parent)
    for line in lines:
        assert json.dumps(answer(json.loads(line)["argv"])) == line


def test_corpus_covers_every_command_and_exit_code():
    entries = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]
    assert {e["argv"][0] for e in entries} == {*MAKERS, "env"}
    assert {e["code"] for e in entries} == {0, 1, 2}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_cli_corpus.py --record")
    record()
