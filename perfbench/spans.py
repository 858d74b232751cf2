"""Outside-in span recorder for the traced benchmark run.

The recorder swaps module attributes of `shelterplan` for timing wrappers
while a traced call runs, so it sees each call one module makes into
another without any hook inside the program. Spans (name, start, end,
parent) stay in memory; `write` stores them once, at the end of the run.
A wrapped attribute that no longer exists is reported as missing rather
than failing the run.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator

# (module, attribute) pairs wrapped in a traced call: the public functions
# each module calls across a module boundary.
LAYERS = (
    ("shelterplan.study", "ga_solve"),
    ("shelterplan.study", "clearance_time"),
    ("shelterplan.study", "shortest_path_tree"),
    ("shelterplan.ga", "evaluate_individual"),
    ("shelterplan.ga", "solve_lower_level"),
    ("shelterplan.ga", "constraint_violations"),
    ("shelterplan.ga", "total_evacuation_time"),
    ("shelterplan.ga", "validate_network"),
    ("shelterplan.enumeration", "evaluate_individual"),
)


def span_name(module: str, attribute: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attribute}"


LAYER_NAMES = tuple(span_name(m, a) for m, a in LAYERS)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def solve_attrs(args: tuple, kwargs: dict, result) -> dict:
    """What a lower-level span keeps of its result: counts, never flows."""
    config = kwargs.get("config", args[4] if len(args) > 4 else None)
    cap = getattr(config, "max_iterations", None)
    return {
        "iterations": result.iterations,
        "converged": result.converged,
        # the solver tests its gap before the cap, so a solve that converges
        # on the last allowed update is not capped
        "capped": not result.converged and cap is not None and result.iterations >= cap,
    }


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        keeps_attrs = name.endswith(".solve_lower_level")

        def traced(*args, **kwargs):
            with self.span(name) as index:
                result = fn(*args, **kwargs)
            if keeps_attrs:
                self.spans[index].attrs = solve_attrs(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """A span around the benchmark's own code; yields the span's index."""
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield index
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Swap every layer in LAYERS for its wrapper; restore on exit."""
        originals: list[tuple[object, str, Callable]] = []
        self.missing = []
        for module_name, attribute in LAYERS:
            name = span_name(module_name, attribute)
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attribute)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            originals.append((module, attribute, fn))
            setattr(module, attribute, self.wrap(name, fn))
        try:
            yield
        finally:
            for module, attribute, fn in originals:
                setattr(module, attribute, fn)

    def subtree(self, root: int) -> list[int]:
        """Indices of `root` and every span below it (spans are in start order)."""
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].parent in inside:
                inside.add(i)
        return sorted(inside)

    def self_times(self, indices: list[int]) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child_time = {i: 0.0 for i in indices}
        for i in indices:
            parent = self.spans[i].parent
            if parent in child_time:
                child_time[parent] += self.spans[i].duration
        totals: dict[str, float] = {}
        for i in indices:
            span = self.spans[i]
            totals[span.name] = totals.get(span.name, 0.0) + span.duration - child_time[i]
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"missing_layers": self.missing, "spans": [asdict(s) for s in self.spans]}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc) + "\n")
        tmp.replace(path)

