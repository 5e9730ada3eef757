"""The finite LD tables of the envelope workload and the program-side state.

This module imports nothing, so that ``probe.py`` can load it before it
starts its clock and time the library alone.
"""

# Table name -> (family, parameter).  Cyclic tables: a.b = 2b - a (mod n).
# Laver tables: A_k on 1..2^k.
TABLES = {
    "C3": ("cyclic", 3),
    "C5": ("cyclic", 5),
    "C7": ("cyclic", 7),
    "A2": ("laver", 2),
    "A3": ("laver", 3),
}


def cyclic_rows(n):
    """Rows of the cyclic system on 1..n: row a, column b holds 2b - a mod n."""
    return [[(2 * b - a) % n + 1 for b in range(n)] for a in range(n)]


def laver_rows(k):
    """Rows of the Laver table A_k, from the standard recursion.

    p*1 = p + 1 for p < 2^k, 2^k is a left identity, and
    p*(q + 1) = (p*q)*(p + 1).  Since p*q > p for p < 2^k, filling the rows
    from the top element down only reads rows already filled.
    """
    size = 2 ** k
    rows = [[0] * size for _ in range(size)]
    rows[size - 1] = list(range(1, size + 1))
    for p in range(size - 1, 0, -1):
        row = rows[p - 1]
        row[0] = p + 1
        for q in range(1, size):
            row[q] = rows[row[q - 1] - 1][p]
    return rows


def table_rows(name):
    family, parameter = TABLES[name]
    return cyclic_rows(parameter) if family == "cyclic" else laver_rows(parameter)


def build_state(sb, workload):
    """Build what a workload needs from the library before its first query.

    Cyclic tables come from the library's own constructor; Laver tables are
    passed through the ``LDTable`` constructor, which checks left
    distributivity.  The braid and term workloads need no state.
    """
    if workload != "envelope_orbit":
        return {}
    env = sb.envelope
    state = {}
    for name, (family, parameter) in TABLES.items():
        if family == "cyclic":
            state[name] = env.cyclic_table(parameter)
        else:
            state[name] = env.LDTable(laver_rows(parameter))
    return state
