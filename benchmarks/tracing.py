"""Span tracing of hmmdiv's layers from outside the package.

A `Tracer` replaces each probed function at the module attribute its caller
looks up (for example `hmmdiv.cli.build_kernel`, not
`hmmdiv.fredholm.build_kernel`), records one span per call (name, start,
end, parent) in memory, and puts the original functions back on exit.
Spans made in worker threads with no traced caller of their own get the
tracer's root span as parent.

A span's self time is its duration minus the part of it that its child
spans cover; `layer_metrics` sums self times and counts per layer.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    split: str | None = None


@dataclass(frozen=True)
class Probe:
    """One traced function: `module.attr`, recorded under `name`.

    `counts(args, result)` returns work counts summed into
    `<name>.<key>`; `split(args)` returns a label L, or None, and the self
    time of labelled calls is also summed into `<name>.<L>_s`.
    """

    module: object
    attr: str
    name: str
    counts: Callable | None = None
    split: Callable | None = None


def hmmdiv_probes() -> list[Probe]:
    """The layer boundaries of one `hmmdiv.cli.run_cases` call."""
    from hmmdiv import cli, montecarlo

    return [
        Probe(cli, "build_kernel", "fredholm.build_kernel",
              # psi2 != 0 in the filter model selects the root-cascade Q
              split=lambda args: "cascade" if getattr(args[1], "psi2", 0.0) != 0 else None),
        Probe(cli, "solve_invariant", "fredholm.solve_invariant",
              counts=lambda args, res: {"iterations": res.iterations}),
        Probe(cli, "j_alpha", "fredholm.j_alpha"),
        Probe(cli, "j_log", "fredholm.j_log"),
        Probe(cli, "replication_log_ratios", "montecarlo.replication_log_ratios"),
        Probe(cli, "estimate_from_log_ratios", "montecarlo.estimate_from_log_ratios"),
        Probe(montecarlo, "batch_log_normalizers", "forward.batch_log_normalizers",
              counts=lambda args, res: {"path_steps": int(res.size)}),
    ]


class Tracer:
    """Context manager that installs the probes on entry and restores the
    original attributes on exit, also when the traced code raises."""

    def __init__(self, probes: list[Probe]):
        self.probes = probes
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._root: int | None = None
        self._originals: list[tuple[Probe, object]] = []

    def __enter__(self) -> Tracer:
        for probe in self.probes:
            original = getattr(probe.module, probe.attr)
            self._originals.append((probe, original))
            setattr(probe.module, probe.attr, self._wrap(probe, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._originals:
            probe, original = self._originals.pop()
            setattr(probe.module, probe.attr, original)

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span = Span(self._next_id, name, stack[-1] if stack else self._root,
                        time.perf_counter())
            self._next_id += 1
        stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def root(self, name: str):
        """Span around the traced call itself; parent of every span that
        has no traced caller in its own thread."""
        span = self._open(name)
        self._root = span.id
        try:
            yield span
        finally:
            self._close(span)
            self._root = None

    def _wrap(self, probe: Probe, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(probe.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if probe.counts is not None:
                span.counts = probe.counts(args, result)
            if probe.split is not None:
                span.split = probe.split(args)
            return result

        return traced


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(s.start, s.end, children[s.id])
        for s in spans
    }


def layer_metrics(spans: list[Span], probes: list[Probe]) -> dict[str, float]:
    """`<name>.calls`, `<name>.self_s`, summed counts and split times for
    every probe (zero when it made no calls), plus `<root>.self_s` for each
    root span name."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for probe in probes:
        out[f"{probe.name}.calls"] = 0
        out[f"{probe.name}.self_s"] = 0.0
    probed = {p.name for p in probes}
    for s in spans:
        if s.name not in probed:
            out[f"{s.name}.self_s"] = out.get(f"{s.name}.self_s", 0.0) + own[s.id]
            continue
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += own[s.id]
        for key, value in s.counts.items():
            out[f"{s.name}.{key}"] = out.get(f"{s.name}.{key}", 0) + value
        if s.split is not None:
            key = f"{s.name}.{s.split}_s"
            out[key] = out.get(key, 0.0) + own[s.id]
    return out
