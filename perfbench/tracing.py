"""Spans around calls into nmlogic's modules, installed from outside.

The traced run wraps the public functions of each module (the layers are
the modules: ``formula``, ``chain``, ``free_algebra``, ``valuations``,
``filters``, ``models`` and ``cli``) wherever the package binds them,
including names that other modules import directly, such as the
``eval_chain`` bound in ``free_algebra`` and ``models`` or the ``build``
bound in ``cli``.  Spans are recorded only inside an op, kept in memory
and written out when the run ends.  A layer's self time is its spans'
duration minus the time covered by their child spans, so the self times
of one op add up to the op's span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import weakref
from collections import Counter

from nmlogic import free_algebra as fa
from nmlogic.formula import subformulas

# Per-layer metrics in report order, with their units.  A name ending in
# ``.calls`` or ``.self_s`` is read off the spans of that name; the rest
# are counters.  ``op.self_s`` is op time spent outside every layer span.
LAYER_METRICS = (
    ("formula.parse.calls", "count"),
    ("formula.parse.self_s", "s"),
    ("formula.nodes", "count"),
    ("chain.eval_chain.calls", "count"),
    ("chain.eval_chain.self_s", "s"),
    ("chain.node_evals", "count"),
    ("chain.eval_standard.self_s", "s"),
    ("free_algebra.build.calls", "count"),
    ("free_algebra.build.self_s", "s"),
    ("free_algebra.build.elements", "count"),
    ("free_algebra.truth_vector.self_s", "s"),
    ("free_algebra.annotate.self_s", "s"),
    ("free_algebra.element_of.self_s", "s"),
    ("free_algebra.export.self_s", "s"),
    ("free_algebra.from_export.self_s", "s"),
    ("valuations.weights.calls", "count"),
    ("valuations.weights.self_s", "s"),
    ("valuations.evaluate.self_s", "s"),
    ("filters.forest.self_s", "s"),
    ("filters.quotient_by_maximal.calls", "count"),
    ("filters.quotient_by_maximal.self_s", "s"),
    ("models.count_models.calls", "count"),
    ("models.count_models.self_s", "s"),
    ("models.assignments", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("op.self_s", "s"),
    ("trace.rate_ratio", "ratio"),
)

# Lazily computed order structure: the first access on an algebra is the
# annotation cost, later accesses are cache reads and are not spanned.
_ANNOTATIONS = (
    "leq_matrix", "cover_matrix", "heights",
    "join_irreducible_ids", "idempotent_ids", "minimal_idempotent_ji_ids",
)


def _node_counter(tracer: "Tracer"):
    def count(args, kwargs, outcome):
        tracer.counts["chain.node_evals"] += tracer.nodes(args[0] if args else kwargs["f"])
    return count


def _element_counter(tracer: "Tracer"):
    def count(args, kwargs, outcome):
        if isinstance(outcome, fa.FreeAlgebra):
            tracer.counts["free_algebra.build.elements"] += outcome.size
        elif isinstance(outcome, fa.ElementCapExceeded):
            tracer.counts["free_algebra.build.elements"] += outcome.cap
    return count


def _assignment_counter(tracer: "Tracer"):
    def count(args, kwargs, outcome):
        _, n, space = (list(args) + [kwargs.get("n"), kwargs.get("space")])[:3]
        tracer.counts["models.assignments"] += space.value ** n
    return count


# (module, function, span name, counter factory)
_FUNCTIONS = (
    ("nmlogic.formula", "parse", "formula.parse", None),
    ("nmlogic.chain", "eval_chain", "chain.eval_chain", _node_counter),
    ("nmlogic.chain", "eval_standard", "chain.eval_standard", None),
    ("nmlogic.free_algebra", "build", "free_algebra.build", _element_counter),
    ("nmlogic.free_algebra", "truth_vector", "free_algebra.truth_vector", None),
    ("nmlogic.valuations", "weights", "valuations.weights", None),
    ("nmlogic.valuations", "evaluate", "valuations.evaluate", None),
    ("nmlogic.filters", "forest", "filters.forest", None),
    ("nmlogic.filters", "quotient_by_maximal", "filters.quotient_by_maximal", None),
    ("nmlogic.models", "count_models", "models.count_models", _assignment_counter),
    ("nmlogic.cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory spans (name, start, end, parent index, op id) and counters."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None
        self._restore: list[tuple[object, str, object]] = []
        self._nodes: dict[int, tuple[object, int]] = {}

    def nodes(self, f) -> int:
        """Distinct nodes of ``f``, cached by identity while ``f`` is held."""
        entry = self._nodes.get(id(f))
        if entry is None:
            entry = self._nodes[id(f)] = (f, sum(1 for _ in subformulas(f)))
        return entry[1]

    def wrap(self, fn, name: str, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            stack.append(index)
            outcome = None
            start = clock()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as err:
                outcome = err
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1], self._op)
                if counter is not None:
                    counter(args, kwargs, outcome)

        return traced

    @contextlib.contextmanager
    def op(self, op_id):
        """The root span of one op; layer spans are recorded only inside it."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._op = op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = ("op", start, end, -1, op_id)
            self._op = None

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function, method and annotation; undo on exit."""
        modules = [m for key, m in sys.modules.items() if key == "nmlogic" or key.startswith("nmlogic.")]
        try:
            for module_name, attr, name, factory in _FUNCTIONS:
                original = getattr(sys.modules[module_name], attr)
                wrapped = self.wrap(original, name, factory(self) if factory else None)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapped)
            cls = fa.FreeAlgebra
            for attr in ("element_of", "export"):
                self._patch(cls, attr, self.wrap(cls.__dict__[attr], f"free_algebra.{attr}"))
            from_export = cls.__dict__["from_export"].__func__
            self._patch(cls, "from_export",
                        classmethod(self.wrap(from_export, "free_algebra.from_export")))
            for attr in _ANNOTATIONS:
                self._patch(cls, attr, property(self._first_access(cls.__dict__[attr].fget)))
            yield self
        finally:
            while self._restore:
                owner, attr, value = self._restore.pop()
                setattr(owner, attr, value)

    def _first_access(self, fget):
        traced = self.wrap(fget, "free_algebra.annotate")
        seen: weakref.WeakSet = weakref.WeakSet()

        def first(algebra):
            if algebra in seen:
                return fget(algebra)
            seen.add(algebra)
            return traced(algebra)

        return first

    def self_times(self) -> tuple[Counter, Counter]:
        """Call counts and self seconds per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, self_s = Counter(), Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += end - start - child
        return calls, self_s

    def op_total(self) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans if name == "op")

    def layer_metrics(self, rate_ratio: float) -> dict[str, float]:
        calls, self_s = self.self_times()
        values = {}
        for metric, _ in LAYER_METRICS:
            if metric.endswith(".calls"):
                values[metric] = calls[metric[: -len(".calls")]]
            elif metric.endswith(".self_s"):
                values[metric] = self_s[metric[: -len(".self_s")]]
            else:
                values[metric] = self.counts[metric]
        values["trace.rate_ratio"] = rate_ratio
        return values

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
