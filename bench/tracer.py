"""Per-layer tracing from outside the library.

``Tracer.install`` wraps the public functions listed in ``LAYERS`` and
rebinds every name that refers to them in every shrinkbraid module (for
example ``representation.reduce`` and ``ldops.cmp_L``); methods of
``LDTable`` are rebound on the class.  ``uninstall`` restores the originals.
Nothing under src/ changes.

Each wrapped call pushes a frame.  When it returns, its self time is its
duration minus the time its wrapped children covered, and its duration is
added to its parent's child coverage.  Calls of the functions in ``HOT`` are
aggregated per query; every other call is kept in memory as a span
(id, name, start, end, parent id, query id) and written out at the end.
Inclusive busy time counts only the outermost frame of each name, so
recursion is not counted twice; a module's busy time is that of its
outermost spans.
"""

import json
import time
from collections import defaultdict

from workloads import BRAID_LENGTHS, ENV_MAX_LENGTH, ENV_MIN_LENGTH, TERM_DEPTHS

LAYERS = {
    "freegroup": ("reduce", "fmul", "curve_cmp"),
    "representation": ("apply_gen", "apply_word", "cmp_L", "morphism_eq"),
    "words": ("parse_rword", "sx_decompose", "free_cancel", "shift"),
    "xmonoid": ("x_canonicalize",),
    "ldops": ("parse_term", "eval_term", "b_dot", "b_circ", "laver_cmp"),
    "coloring": ("color",),
    "envelope": ("orbit_eq", "orbit", "sigma_action", "env_dot"),  # LDTable methods
}
KEYS = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)

HOT = frozenset((
    "freegroup.reduce",
    "freegroup.fmul",
    "representation.apply_gen",
    "words.shift",
    "words.free_cancel",
    "words.sx_decompose",
    "xmonoid.x_canonicalize",
    "ldops.b_dot",
    "ldops.b_circ",
    "envelope.sigma_action",
))

_COMPARATORS = ("representation.cmp_L", "representation.morphism_eq")

# Frame fields.
_KEY, _CHILD, _SPAN, _FLAG, _MODULE = range(5)


def _enclosing(stack, keys):
    for frame in reversed(stack):
        if frame[_KEY] in keys:
            return frame
    return None


# --- observers: counts taken at the layer boundary -------------------------


def _observe_reduce(tracer, frame, args, result):
    letters = args[0]
    if hasattr(letters, "__len__"):
        tracer.counts["reduce.letters_in"] += len(letters)
        tracer.counts["reduce.letters_out"] += len(result)


def _observe_apply_gen(tracer, frame, args, result):
    n = len(result)
    tracer.counts["image_letters"] += n
    if n > tracer.counts["peak_image_len"]:
        tracer.counts["peak_image_len"] = n


def _observe_apply_word(tracer, frame, args, result):
    comparator = _enclosing(tracer.stack, _COMPARATORS)
    if comparator is not None:
        comparator[_FLAG] += 1


def _observe_eval_term(tracer, frame, args, result):
    tracer.counts["realized_letters"] += len(result)


def _observe_orbit(tracer, frame, args, result):
    states = len(result[0])
    tracer.counts["orbit.states"] += states
    stats = tracer.stats
    stats["orbit.states"] = stats.get("orbit.states", 0) + states
    search = _enclosing(tracer.stack, ("envelope.orbit_eq",))
    if search is not None:
        search[_FLAG] = 1


def _observe_orbit_eq(tracer, frame, args, result):
    tracer.counts["orbit_eq.searched"] += frame[_FLAG]


def _observe_comparator(tracer, frame, args, result):
    tracer.counts[f"{frame[_KEY]}.apply_words"] += frame[_FLAG]


OBSERVERS = {
    "freegroup.reduce": _observe_reduce,
    "representation.apply_gen": _observe_apply_gen,
    "representation.apply_word": _observe_apply_word,
    "representation.cmp_L": _observe_comparator,
    "representation.morphism_eq": _observe_comparator,
    "ldops.eval_term": _observe_eval_term,
    "envelope.orbit": _observe_orbit,
    "envelope.orbit_eq": _observe_orbit_eq,
}


class Tracer:
    def __init__(self, sb):
        self.sb = sb
        self.stack = []
        self.spans = []
        # query id -> {key: [calls, busy_s, self_s], module: busy_s,
        # "orbit.states": states}
        self.per_query = {}
        self.query_sizes = {}  # query id -> size class
        self.counts = defaultdict(float)
        self.stats = None  # the current query's entry of per_query
        self._query = None
        self._next_span = 0
        self._rebound = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [self.sb] + [getattr(self.sb, module) for module in LAYERS]
        for module, names in LAYERS.items():
            for name in names:
                key = f"{module}.{name}"
                if module == "envelope":
                    cls = self.sb.envelope.LDTable
                    original = cls.__dict__[name]
                    self._rebind(cls, name, original, self._wrap(original, key, module))
                    continue
                original = getattr(getattr(self.sb, module), name)
                wrapper = self._wrap(original, key, module)
                for namespace in modules:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._rebind(namespace, attr, original, wrapper)

    def uninstall(self):
        for namespace, attr, original in reversed(self._rebound):
            setattr(namespace, attr, original)
        self._rebound = []

    def _rebind(self, namespace, attr, original, wrapper):
        setattr(namespace, attr, wrapper)
        self._rebound.append((namespace, attr, original))

    def _wrap(self, fn, key, module):
        stack = self.stack
        perf = time.perf_counter
        observe = OBSERVERS.get(key)

        if key in HOT:
            # Hot functions never nest inside themselves and make no span,
            # so they skip the outermost checks and the span bookkeeping.
            def wrapper(*args, **kwargs):
                frame = [key, 0.0, None, 0, module]
                stack.append(frame)
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = perf() - start
                    stack.pop()
                    if stack:
                        stack[-1][_CHILD] += duration
                    entry = self.stats.get(key)
                    if entry is None:
                        entry = self.stats[key] = [0, 0.0, 0.0]
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[_CHILD]
                if observe is not None:
                    observe(self, frame, args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                self._next_span += 1
                frame = [key, 0.0, self._next_span, 0, module]
                stack.append(frame)
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf()
                    stack.pop()
                    self._close(frame, start, end)
                if observe is not None:
                    observe(self, frame, args, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, frame, start, end):
        duration = end - start
        stack = self.stack
        if stack:
            stack[-1][_CHILD] += duration
        key = frame[_KEY]
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[2] += duration - frame[_CHILD]
        if not any(f[_KEY] == key for f in stack):
            entry[1] += duration
        module = frame[_MODULE]
        if not any(f[_MODULE] == module and f[_SPAN] is not None for f in stack):
            self.stats[module] = self.stats.get(module, 0.0) + duration
        parent = next((f[_SPAN] for f in reversed(stack) if f[_SPAN] is not None), None)
        self.spans.append((frame[_SPAN], key, start, end, parent, self._query))

    # -- queries --------------------------------------------------------------

    def begin_query(self, query_id, size):
        self._query = query_id
        self.stats = self.per_query[query_id] = {}
        self.query_sizes[query_id] = size

    def end_query(self):
        # A query stopped by the time cap unwinds through the wrappers'
        # finally clauses; only a signal landing between a wrapper's push
        # and its try block can leave a frame behind.
        del self.stack[:]

    # -- results --------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics, each a mean per traced query unless named a ratio."""
        n = max(1, len(self.per_query))
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for stats in self.per_query.values():
            for key in KEYS:
                entry = stats.get(key)
                if entry is not None:
                    total = totals[key]
                    for i in range(3):
                        total[i] += entry[i]
        out = {}
        for key in KEYS:
            calls, busy, self_time = totals[key]
            out[f"{key}.calls"] = (calls / n, "calls/query")
            out[f"{key}.busy_s"] = (busy / n, "s/query")
            out[f"{key}.self_s"] = (self_time / n, "s/query")
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        out["freegroup.reduce.kept_frac"] = (ratio(c["reduce.letters_out"], c["reduce.letters_in"]), "ratio")
        out["representation.image_letters"] = (c["image_letters"] / n, "letters/query")
        out["representation.peak_image_len"] = (c["peak_image_len"], "letters")
        for key in _COMPARATORS:
            # Each scanned index applies both words once.
            scanned = c[f"{key}.apply_words"] / 2
            out[f"{key}.indices_scanned"] = (ratio(scanned, totals[key][0]), "indices/call")
        out["ldops.realized_letters"] = (ratio(c["realized_letters"], totals["ldops.eval_term"][0]), "letters/term")
        out["envelope.orbit.states"] = (ratio(c["orbit.states"], totals["envelope.orbit"][0]), "states/call")
        out["envelope.orbit.new_state_frac"] = (
            ratio(c["orbit.states"], totals["envelope.sigma_action"][0]), "ratio")
        out["envelope.orbit_eq.searched_frac"] = (
            ratio(c["orbit_eq.searched"], totals["envelope.orbit_eq"][0]), "ratio")
        out.update(self._growth())
        return out

    def _growth(self):
        """Cost by size class: the curves a flatter algorithm should bend."""
        by_size = defaultdict(list)
        for query_id, stats in self.per_query.items():
            by_size[self.query_sizes[query_id]].append(stats)

        def mean(values):
            return sum(values) / len(values) if values else 0.0

        out = {}
        for length in BRAID_LENGTHS:
            group = by_size.get(f"len{length}", [])
            out[f"representation.busy_s.len{length}"] = (
                mean([s.get("representation", 0.0) for s in group]), "s/query")
        for depth in TERM_DEPTHS:
            group = by_size.get(f"depth{depth}", [])
            out[f"ldops.eval_term.busy_s.depth{depth}"] = (
                mean([s.get("ldops.eval_term", (0, 0.0, 0.0))[1] for s in group]), "s/query")
        for length in range(ENV_MIN_LENGTH, max(ENV_MAX_LENGTH.values()) + 1):
            group = by_size.get(f"len{length}", [])
            states = sum(s.get("orbit.states", 0) for s in group)
            calls = sum(s.get("envelope.orbit", (0, 0.0, 0.0))[0] for s in group)
            out[f"envelope.orbit.states.len{length}"] = (states / calls if calls else 0.0, "states/call")
        return out

    def write(self, path):
        """Write the spans and the per-query aggregates as JSON lines."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "query"]}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
            for query_id, stats in self.per_query.items():
                f.write(json.dumps({"query": query_id, "aggregate": stats}) + "\n")
