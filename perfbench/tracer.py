"""In-memory span tracer that instruments qmac from outside the package.

Each traced public function is replaced, in every ``qmac`` module that holds
a reference to it, by a wrapper that records a span: name, start, end, the
span that called it and the workload operation it belongs to.  Nothing in
``src/`` is edited; :meth:`Tracer.install` undoes every rebinding on exit.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float = 0.0
    attrs: dict | None = None


def _trials_of(fn):
    sig = inspect.signature(fn)

    def attrs(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"trials": bound.arguments["trials"]}

    return attrs


# (module, public name) pairs that get a span.  ``TaggingUnitary`` is traced
# through its ``__init__``.  The value builds extra per-span attributes from
# (args, kwargs, result); the factory receives the original function.
TARGETS = {
    ("linalg", "tensor"): None,
    ("linalg", "partial_trace"): None,
    ("linalg", "haar_random_unitary"): None,
    ("linalg", "matrix_to_json"): None,
    ("protocol", "TaggingUnitary"): None,
    ("protocol", "simulate_honest_batch"): None,
    ("adversary", "no_message_optimal"): None,
    ("adversary", "perfect_message_attack"): (
        lambda fn: lambda a, k, r: {"found": r is not None}
    ),
    ("adversary", "best_message_attack"): (
        lambda fn: lambda a, k, r: {"evals": r.iterations, "pf": r.probability}
    ),
    ("adversary", "key_distinguishability"): None,
    ("adversary", "key_reuse_feasibility"): None,
    ("adversary", "no_message_attack_sim"): None,
    ("adversary", "message_attack_sim"): None,
    ("adversary", "simulate_key_reuse"): _trials_of,
    ("adversary", "reuse_forgery_probability"): None,
    ("conditions", "validate"): None,
    ("designer", "security_score"): lambda fn: lambda a, k, r: {"secure": r.secure},
    ("designer", "optimize"): None,
    ("cli", "main"): None,
}

SPAN_NAMES = [f"{mod}.{name}" for mod, name in TARGETS]


class Tracer:
    """Collects spans while :attr:`op` is set; passes calls through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = Span(
                id=len(self.spans),
                name=name,
                parent=self._stack[-1] if self._stack else None,
                op=self.op,
                start=0.0,
            )
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def recording(self, op: int):
        """Attribute spans opened inside the block to workload operation ``op``."""
        self.op = op
        try:
            yield
        finally:
            self.op = None

    @contextlib.contextmanager
    def install(self):
        """Rebind every traced name in every loaded qmac module."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "qmac" or n.startswith("qmac."))
        ]
        undo = []
        try:
            for (mod, name), factory in TARGETS.items():
                owner = sys.modules[f"qmac.{mod}"]
                original = getattr(owner, name)
                span_name = f"{mod}.{name}"
                if inspect.isclass(original):
                    init = original.__init__
                    original.__init__ = self.wrap(span_name, init)
                    undo.append((original, "__init__", init))
                    continue
                attrs = factory(original) if factory else None
                wrapper = self.wrap(span_name, original, attrs)
                for m in modules:
                    if getattr(m, name, None) is original:
                        setattr(m, name, wrapper)
                        undo.append((m, name, original))
            yield self
        finally:
            for obj, name, original in reversed(undo):
                setattr(obj, name, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
                    "start": s.start, "end": s.end, "attrs": s.attrs,
                }) + "\n")


def covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(children[s.id], s.start, s.end)
        for s in spans
    }


def aggregate(spans, scale=None) -> dict[str, dict]:
    """Per span name: calls, total self seconds and summed attributes.

    ``scale[op]``, when given, multiplies the self time of op's spans.
    """
    selfs = self_times(spans)
    out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
    for s in spans:
        entry = out.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[s.id] * (scale[s.op] if scale else 1.0)
        for key, value in (s.attrs or {}).items():
            entry[key] = entry.get(key, 0) + value
    return out


def parent_counts(spans, child: str, parent: str) -> int:
    """Number of ``child`` spans whose direct caller is a ``parent`` span."""
    names = {s.id: s.name for s in spans}
    return sum(
        1 for s in spans
        if s.name == child and s.parent is not None and names[s.parent] == parent
    )
