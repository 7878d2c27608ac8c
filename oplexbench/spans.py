"""Span tracing of the oplex layers from outside the program.

A traced call patches every public function of each layer module with a
wrapper that records a span: name, start, end, parent span and whether the
call raised. The wrapper replaces the function in every oplex module that
binds it, so calls across modules (harness -> merged -> spectral) and within
one module both go through it. The patches are removed when the call ends,
so untraced calls run the unmodified program.

A layer's self time is the duration of its spans minus the time their child
spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from typing import Any, Callable

LAYERS = ("netcore", "stochastic", "spectral", "merged", "switching", "perturb", "simlab", "harness", "verify")

# Called once per simulated step; a span each would make the tracing cost
# larger than the simulation it measures. Their time stays in the caller.
PER_STEP = {"stochastic.pi_norm", "stochastic.max_norm", "switching.schedule_matrix"}

# Work counts taken from a call's arguments or result, keyed by span name.
WORK: dict[str, Callable[[tuple, Any], dict[str, float]]] = {
    "spectral.eig_moduli_nonsymmetric": lambda args, out: {"n3": float(args[0].n) ** 3},
    "simlab.simulate": lambda args, out: {
        "steps": float(out.steps),
        "states_bytes": float(out.states.nbytes if out.states is not None else 0),
    },
}


class Span:
    __slots__ = ("span_id", "parent", "name", "start", "end", "error", "work", "child_time")

    def __init__(self, span_id: int, parent: int, name: str, start: float):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.error = False
        self.work: dict[str, float] | None = None
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records the spans of traced calls; each call gets its own list."""

    def __init__(self) -> None:
        self.calls: list[list[Span]] = []
        self._stack: list[Span] = []
        self._patches = self._build_patches()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.calls[-1]
            parent = self._stack[-1] if self._stack else None
            span = Span(len(spans), parent.span_id if parent else -1, name, time.perf_counter())
            spans.append(span)
            self._stack.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
            if work is not None:
                span.work = work(args, out)
            return out

        return wrapper

    def _build_patches(self) -> list[tuple[Any, str, Callable, Callable]]:
        """(module, attribute, original, wrapper) for every binding of a layer function."""
        modules = [importlib.import_module(f"oplex.{layer}") for layer in LAYERS]
        modules += [importlib.import_module(m) for m in ("oplex", "oplex.cli", "oplex.fixtures")]
        wrappers: dict[int, Callable] = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in PER_STEP
                ):
                    wrappers[id(obj)] = self._wrap(name, obj)
        patches = []
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    patches.append((module, attr, obj, wrappers[id(obj)]))
        return patches

    @contextlib.contextmanager
    def traced(self):
        """Run the body with every layer function wrapped, as one new call."""
        self.calls.append([])
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
            self._stack.clear()


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-function and per-layer totals of one traced call.

    Keys: `<fn>.self`, `<fn>.incl`, `<fn>.calls`, `<fn>.<work>`,
    `<layer>.self`, `<layer>.errors`, and `top` (sum of root spans).
    """
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        layer = span.name.split(".", 1)[0]
        out[f"{span.name}.self"] += span.self_time
        out[f"{span.name}.incl"] += span.duration
        out[f"{span.name}.calls"] += 1
        out[f"{layer}.self"] += span.self_time
        out[f"{layer}.errors"] += span.error
        if span.parent < 0:
            out["top"] += span.duration
        for key, value in (span.work or {}).items():
            out[f"{span.name}.{key}"] += value
    return out


def dump(calls: list[list[Span]], path) -> None:
    """Write every span as one JSON line: call, id, parent, name, start, end, error, work."""
    with open(path, "w") as fh:
        for call_index, spans in enumerate(calls):
            for s in spans:
                fh.write(
                    json.dumps(
                        [call_index, s.span_id, s.parent, s.name, s.start, s.end, s.error, s.work]
                    )
                    + "\n"
                )
