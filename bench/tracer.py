"""Per-layer tracing from outside the package.

The tracer replaces each traced function at every binding its callers go
through: the defining module, every ``normaltori`` module that imported it
by name, and the package namespace.  Methods are replaced on their class.
Each layer is traced in one of three modes:

* ``span``  - a span record (id, parent, op, name, start, end) plus call
  count and self time (duration minus the time of traced children);
* ``timed`` - call count and self time, no span record; for leaf functions
  called too often for a span record per call;
* ``count`` - call count only; for the hottest helpers, where even two
  clock reads per call would distort the run.

A layer the program no longer has (a later change deleted or renamed it)
is reported absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN, TIMED, COUNT = "span", "timed", "count"

# (layer name, defining module, attribute or Class.method, mode)
LAYERS = [
    ("graphs.validate_graph", "normaltori.graphs", "validate_graph", SPAN),
    ("graphs.half_edges_at", "normaltori.graphs", "SphereGraph.half_edges_at", COUNT),
    ("position.validate_position", "normaltori.position", "validate_position", SPAN),
    ("position.side_of_region", "normaltori.position", "side_of_region", TIMED),
    ("position.circle_slots", "normaltori.position", "TorusPosition.circle_slots", COUNT),
    ("position.clone", "normaltori.position", "TorusPosition.clone", SPAN),
    ("moves.find_moves", "normaltori.moves", "find_moves", SPAN),
    ("moves.apply_move", "normaltori.moves", "apply_move", SPAN),
    ("moves.normalize", "normaltori.moves", "normalize", SPAN),
    ("normal_graph.to_normal_torus", "normaltori.normal_graph", "to_normal_torus", SPAN),
    ("normal_graph.decorate", "normaltori.normal_graph", "decorate", SPAN),
    ("normal_graph.canonicalize", "normaltori.normal_graph", "canonicalize", SPAN),
    ("normal_graph.equivalent", "normaltori.normal_graph", "equivalent", SPAN),
    ("normal_graph.axis_word", "normaltori.normal_graph", "axis_word", SPAN),
    ("oracle.random_normal_torus", "normaltori.oracle", "random_normal_torus", SPAN),
    ("oracle.perturb", "normaltori.oracle", "perturb", SPAN),
    ("oracle.confluence_search", "normaltori.oracle", "confluence_search", SPAN),
    ("serialize.load_any", "normaltori.serialize", "load_any", SPAN),
    ("serialize.dumps", "normaltori.serialize", "dumps", SPAN),
    ("cli.main", "normaltori.cli", "main", SPAN),
]

# Calls of an inner layer made while an outer layer is open, as named counts.
NESTED = {
    "moves.apply_move": ("oracle.confluence_search", "oracle.confluence.states_generated"),
    "position.validate_position": ("oracle.perturb", "oracle.perturb.validations"),
}


def _perturb_inverse_moves(args, kwargs, result):
    return kwargs["k"] if "k" in kwargs else args[2]


# Work counts read off a layer's arguments or result when it returns.
RESULT_COUNTS = {
    "moves.normalize": ("moves.trace_len", lambda a, kw, r: len(r.trace)),
    "oracle.confluence_search": ("oracle.confluence.states_explored", lambda a, kw, r: r.explored),
    "oracle.perturb": ("oracle.perturb.inverse_moves", _perturb_inverse_moves),
    "serialize.load_any": ("serialize.bytes_in", lambda a, kw, r: len(a[0].encode("utf-8"))),
    "serialize.dumps": ("serialize.bytes_out", lambda a, kw, r: len(r.encode("utf-8"))),
}


class Tracer:
    """Spans and counts of one traced phase, kept in memory."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, child seconds]
        self.op = 0
        self.absent: list[str] = []
        self._patches: list[tuple] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer at every binding; absent layers are noted."""
        self.absent = []
        for name, module_name, attr, mode in LAYERS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(method) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, mode, original)
            if owner_name:
                self._patch(owner, method, original, wrapper)
                continue
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, mode, fn):
        calls = self.calls
        if mode == COUNT:
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        self_s, stack = self.self_s, self.stack
        if mode == TIMED:
            def timed(*args, **kwargs):
                calls[name] += 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    self_s[name] += dt
                    if stack:
                        stack[-1][1] += dt
            return timed

        counts, active, spans = self.counts, self.active, self.spans
        nested = NESTED.get(name)
        result_count = RESULT_COUNTS.get(name)

        def spanned(*args, **kwargs):
            calls[name] += 1
            if nested is not None and active[nested[0]]:
                counts[nested[1]] += 1
            span_id = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)  # reserve the id; filled in on exit
            frame = [span_id, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[name] -= 1
                stack.pop()
                dt = t1 - t0
                self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                spans[span_id] = (span_id, parent, self.op, name, t0, t1)
            if result_count is not None:
                counts[result_count[0]] += result_count[1](args, kwargs, result)
            return result
        return spanned


def _package_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "normaltori" or key.startswith("normaltori."))
    ]


def layer_metrics(tr: Tracer, prefix: str = "") -> dict[str, tuple[float, str]]:
    """Named per-layer metrics of one traced phase: (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for name, _, _, mode in LAYERS:
        out[f"{prefix}{name}.calls"] = (tr.calls[name], "count")
        if mode != COUNT:
            out[f"{prefix}{name}.self_s"] = (tr.self_s[name], "s")
    for key in sorted({key for key, _ in RESULT_COUNTS.values()} | {key for _, key in NESTED.values()}):
        unit = "B" if key.startswith("serialize.bytes") else "count"
        out[f"{prefix}{key}"] = (tr.counts[key], unit)
    searches = tr.calls["oracle.confluence_search"]
    popped = tr.counts["oracle.confluence.states_generated"] + searches
    explored = tr.counts["oracle.confluence.states_explored"]
    out[f"{prefix}oracle.confluence.dedup_ratio"] = ((popped - explored) / popped if popped else 0.0, "ratio")
    inverse = tr.counts["oracle.perturb.inverse_moves"]
    validations = tr.counts["oracle.perturb.validations"]
    out[f"{prefix}oracle.perturb.validations_per_inverse_move"] = (
        validations / inverse if inverse else 0.0,
        "ratio",
    )
    return out
