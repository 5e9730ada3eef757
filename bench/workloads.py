"""Seeded known-answer query workloads.

A workload is an endless sequence of rounds.  A round holds one query of
every (kind, size class) pair of the workload, in a shuffled order, so any
run that completes whole rounds has exactly the designed mix.  Each query is
text, as the command line takes it; the timed call parses it and calls the
public library API through its module attributes, so that the tracer's
rebound names are the ones called.

The expected answers are derived here from theorems, never by calling the
function under test or ``apply_relation``:

- Equal braid pairs are rewritten with relations (6)/(7) (and their inverse
  forms), inserted cancelling pairs and inserted (6) relators.
- For a sigma_k-positive q, u < u q: the order is left invariant and every
  sigma-positive braid sits above the identity (Dehornoy's property).
- Inserting one letter changes the exponent sum, a homomorphism to Z, so
  such a pair is never equal.
- Coloring is a homomorphism and keeps the product of the strand colors, so
  equal braids color identically and the colors multiply to e1 ... e5.
- A term t realizes as braid x_1^(n(t) - 1), with n(leaf) = 1,
  n(a.c) = n(c) and n(a o c) = n(a) + n(c).  The LD law, circle
  associativity and a < a.b hold in the free LD monoid.
- Orbit YES pairs (u, v) have v reached from u by a sigma-walk, so v lies
  in the orbit of u (rarely the walk returns to u itself).  Orbit NO pairs have
  different left-translation maps c -> a_1.(...(a_n.c)), which the sigma
  action preserves by left distributivity.  env_dot is that same map applied
  to each entry of the right sequence.
"""

import random
from collections import namedtuple

from state import TABLES, table_rows

STRANDS = 5
BRAID_LENGTHS = (8, 16, 24, 32)
# Colorings stop at length 24: at 32 one coloring in a thousand needs over
# 10 MB, so a run's peak memory hung on whether its seed drew one.
COLOR_LENGTHS = (8, 16, 24)
TERM_DEPTHS = (6, 7, 8)
SUBTERM_POOL = 16  # depth-3 terms in the pool
# Longest sequence per table.  Longer cyclic orbits reach 78k-820k states;
# A3 orbits at length 7 have a tail to 195k states that one draw can hit.
ENV_MAX_LENGTH = {"C3": 8, "C5": 7, "C7": 6, "A2": 8, "A3": 6}
ENV_MIN_LENGTH = 5
ENV_DOTS_PER_ROUND = 4

Query = namedtuple("Query", "kind size call args expected check")


# --- timed calls: parse the text, then call the library -------------------


def call_cmp(sb, state, a, b):
    parse = sb.words.parse_rword
    return sb.representation.cmp_L(parse(a), parse(b))


def call_eq(sb, state, a, b):
    parse = sb.words.parse_rword
    return sb.representation.morphism_eq(parse(a), parse(b))


def call_color(sb, state, a, b):
    parse = sb.words.parse_rword
    color = sb.coloring.color
    return color(parse(a), STRANDS), color(parse(b), STRANDS)


def call_eval(sb, state, text):
    ld = sb.ldops
    return ld.eval_term(ld.parse_term(text))


def call_term_eq(sb, state, s, t):
    ld = sb.ldops
    return sb.representation.morphism_eq(
        ld.eval_term(ld.parse_term(s)), ld.eval_term(ld.parse_term(t))
    )


def call_laver(sb, state, s, t):
    ld = sb.ldops
    return ld.laver_cmp(ld.parse_term(s), ld.parse_term(t))


def _parse_seq(text):
    return tuple(int(part) for part in text.split(","))


def call_orbit_eq(sb, state, table, u, v):
    return state[table].orbit_eq(_parse_seq(u), _parse_seq(v))


def call_env_dot(sb, state, table, u, v):
    return state[table].env_dot(_parse_seq(u), _parse_seq(v))


# --- answer checks, outside the timed call ---------------------------------


def check_name(result, expected):
    return result.name == expected


def check_bool(result, expected):
    return result is expected


def check_tuple(result, expected):
    return tuple(result) == expected


def check_x_count(result, expected):
    return sum(1 for g in result.letters if g.kind.value == "x") == expected


def _free_product(words):
    out = []
    for word in words:
        for letter in word.letters:
            if out and out[-1] == (letter.index, -letter.sign):
                out.pop()
            else:
                out.append((letter.index, letter.sign))
    return tuple(out)


def check_color(result, expected):
    first, second = result
    return (
        first == second
        and first.source_rank == STRANDS
        and _free_product(first.images) == expected
    )


# --- braid_queries ---------------------------------------------------------

_BRAID_LETTERS = tuple(range(1, STRANDS)) + tuple(-i for i in range(1, STRANDS))
_COLOR_PRODUCT = tuple((k, 1) for k in range(1, STRANDS + 1))


def _braid_text(letters):
    return " ".join(f"s{a}" if a > 0 else f"s{-a}^-1" for a in letters)


def _random_braid(rng, length):
    return [rng.choice(_BRAID_LETTERS) for _ in range(length)]


def _rewrite_sites(w):
    sites = []
    for p in range(len(w) - 1):
        a, b = abs(w[p]), abs(w[p + 1])
        if abs(a - b) >= 2:
            sites.append((p, 7))
        elif (
            abs(a - b) == 1
            and p + 2 < len(w)
            and w[p + 2] == w[p]
            and (w[p] > 0) == (w[p + 1] > 0)
        ):
            sites.append((p, 6))
    return sites


def _disguise(rng, letters):
    """An equal braid word reached by one rewrite step per four letters."""
    w = list(letters)
    for _ in range(max(2, len(w) // 4)):
        r = rng.random()
        sites = _rewrite_sites(w) if r >= 0.2 else []
        if sites:
            p, relation = rng.choice(sites)
            if relation == 7:  # s_i s_j = s_j s_i, |i - j| >= 2, any signs
                w[p], w[p + 1] = w[p + 1], w[p]
            else:  # s_i s_j s_i = s_j s_i s_j, |i - j| = 1, equal signs
                w[p : p + 3] = [w[p + 1], w[p], w[p + 1]]
            continue
        p = rng.randint(0, len(w))
        if r < 0.05:  # (s_i s_i+1 s_i)(s_i+1 s_i s_i+1)^-1 = e, either sign
            i = rng.randint(1, STRANDS - 2)
            e = rng.choice((1, -1))
            w[p:p] = [e * i, e * (i + 1), e * i, -e * (i + 1), -e * i, -e * (i + 1)]
        else:
            g = rng.choice(_BRAID_LETTERS)
            w[p:p] = [g, -g]
    return w


def _sigma_positive(rng, length=4):
    """A sigma_k-positive word, k in 1..3: sigma_k and no sigma_k^-1 or lower."""
    k = rng.randint(1, 3)
    allowed = (k,) + tuple(s * j for j in range(k + 1, STRANDS) for s in (1, -1))
    q = [rng.choice(allowed) for _ in range(length)]
    q[rng.randrange(length)] = k
    return q


def braid_round(rng, pool):
    out = []
    for length in BRAID_LENGTHS:
        size = f"len{length}"
        u = _random_braid(rng, length)
        uq = _disguise(rng, u + _sigma_positive(rng))
        out.append(Query("cmp_lt", size, call_cmp, (_braid_text(u), _braid_text(uq)), "LESS", check_name))
        u = _random_braid(rng, length)
        uq = _disguise(rng, u + _sigma_positive(rng))
        out.append(Query("cmp_gt", size, call_cmp, (_braid_text(uq), _braid_text(u)), "GREATER", check_name))
        w = _random_braid(rng, length)
        pair = (_braid_text(_disguise(rng, w)), _braid_text(_disguise(rng, w)))
        out.append(Query("eq_yes", size, call_eq, pair, True, check_bool))
        w = _random_braid(rng, length)
        w1 = list(w)
        w1.insert(rng.randint(0, length), rng.choice(_BRAID_LETTERS))
        pair = (_braid_text(_disguise(rng, w)), _braid_text(_disguise(rng, w1)))
        out.append(Query("eq_no", size, call_eq, pair, False, check_bool))
        if length in COLOR_LENGTHS:
            w = _random_braid(rng, length)
            pair = (_braid_text(_disguise(rng, w)), _braid_text(_disguise(rng, w)))
            out.append(Query("color_eq", size, call_color, pair, _COLOR_PRODUCT, check_color))
    return out


# --- ld_terms ----------------------------------------------------------------
# A term is "j" or (op, left, right) with op "." (dot) or "o" (circle).


def _term_text(t):
    return "j" if t == "j" else f"({_term_text(t[1])} {t[0]} {_term_text(t[2])})"


def _depth(t):
    return 0 if t == "j" else 1 + max(_depth(t[1]), _depth(t[2]))


def _n(t):
    if t == "j":
        return 1
    return _n(t[2]) if t[0] == "." else _n(t[1]) + _n(t[2])


def _random_term(rng, depth):
    """A term of exactly this depth: one child one level down, the other lower."""
    if depth == 0:
        return "j"
    deep = _random_term(rng, depth - 1)
    other = _random_term(rng, rng.randint(0, depth - 1))
    op = rng.choice(".o")
    return (op, deep, other) if rng.random() < 0.5 else (op, other, deep)


def _wrapped_term(rng, pool, depth):
    """A term of exactly this depth built from pool subterms, so they repeat.

    Pool subterms are no deeper than 3 < depth, so once t is 3 deep each
    wrap adds exactly one level and the loop cannot overshoot.
    """
    t = rng.choice(pool)
    while _depth(t) < depth:
        p = rng.choice(pool)
        op = rng.choice(".o")
        t = (op, t, p) if rng.random() < 0.5 else (op, p, t)
    return t


def term_pool():
    """The subterms every term query is built from, the same for every seed.

    All 16 terms of depth 2 and 16 fixed random terms of depth 3: a pool
    drawn per seed would make the cost of a run depend on a few draws.
    """
    small = ["j", (".", "j", "j"), ("o", "j", "j")]
    depth2 = [(op, a, b) for op in ".o" for a in small for b in small if (a, b) != ("j", "j")]
    fixed = random.Random("ld_terms pool")
    return depth2 + [_random_term(fixed, 3) for _ in range(SUBTERM_POOL)]


def term_round(rng, pool):
    out = []
    for depth in TERM_DEPTHS:
        t = _wrapped_term(rng, pool, depth)
        out.append(Query("eval", f"depth{depth}", call_eval, (_term_text(t),), _n(t) - 1, check_x_count))
    a, b, c = (rng.choice(pool) for _ in range(3))
    lhs = (".", a, (".", b, c))
    rhs = (".", (".", a, b), (".", a, c))
    out.append(Query("ld_law", "sub", call_term_eq, (_term_text(lhs), _term_text(rhs)), True, check_bool))
    a, b, c = (rng.choice(pool) for _ in range(3))
    lhs = ("o", ("o", a, b), c)
    rhs = ("o", a, ("o", b, c))
    out.append(Query("circ_assoc", "sub", call_term_eq, (_term_text(lhs), _term_text(rhs)), True, check_bool))
    a, b = rng.choice(pool), rng.choice(pool)
    out.append(Query("laver_lt", "sub", call_laver, (_term_text(a), _term_text((".", a, b))), "LESS", check_name))
    return out


# --- envelope_orbit ------------------------------------------------------------


def _seq_text(s):
    return ",".join(str(a) for a in s)


def _act(rows, s, i):
    """sigma_(i+1): positions i, i+1 become (a_i . a_i+1, a_i); 0-based i."""
    return s[:i] + (rows[s[i] - 1][s[i + 1] - 1], s[i]) + s[i + 2 :]


def _walk(rng, rows, s, steps):
    for _ in range(steps):
        s = _act(rows, s, rng.randrange(len(s) - 1))
    return s


def _translate(rows, s, c):
    for a in reversed(s):
        c = rows[a - 1][c - 1]
    return c


def _translation_map(rows, s):
    return tuple(_translate(rows, s, c) for c in range(1, len(rows) + 1))


def _random_seq(rng, rows, length):
    return tuple(rng.randint(1, len(rows)) for _ in range(length))


def envelope_pool():
    return {name: table_rows(name) for name in TABLES}


def envelope_round(rng, rows_by_table):
    out = []
    for name, rows in rows_by_table.items():
        for length in range(ENV_MIN_LENGTH, ENV_MAX_LENGTH[name] + 1):
            size = f"len{length}"
            u = _random_seq(rng, rows, length)
            v = _walk(rng, rows, u, rng.randint(1, 2 * length))
            out.append(Query("orbit_yes", size, call_orbit_eq, (name, _seq_text(u), _seq_text(v)), "YES", check_name))
            for _ in range(1000):
                u = _random_seq(rng, rows, length)
                v = _random_seq(rng, rows, length)
                if _translation_map(rows, u) != _translation_map(rows, v):
                    break
            else:
                raise RuntimeError(f"no certified NO pair for {name} at length {length}")
            out.append(Query("orbit_no", size, call_orbit_eq, (name, _seq_text(u), _seq_text(v)), "NO", check_name))
    for _ in range(ENV_DOTS_PER_ROUND):
        name = rng.choice(sorted(rows_by_table))
        rows = rows_by_table[name]
        u = _random_seq(rng, rows, rng.randint(1, ENV_MAX_LENGTH[name]))
        v = _random_seq(rng, rows, rng.randint(1, ENV_MAX_LENGTH[name]))
        expected = tuple(_translate(rows, u, c) for c in v)
        out.append(Query("env_dot", f"len{len(u)}", call_env_dot, (name, _seq_text(u), _seq_text(v)), expected, check_tuple))
    return out


WORKLOADS = {
    "braid_queries": (lambda: None, braid_round),
    "ld_terms": (term_pool, term_round),
    "envelope_orbit": (envelope_pool, envelope_round),
}


def rounds(workload, seed):
    """Endless shuffled rounds of a workload; the same seed, the same rounds."""
    make_pool, make_round = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    pool = make_pool()
    while True:
        batch = make_round(rng, pool)
        rng.shuffle(batch)
        yield batch
