"""In-memory spans recorded around calls into the momentdist layers.

A span is a named interval with the span that caused it, the traced pass it
belongs to, and work counts attached at the layer boundary. Spans stay in
memory while the benchmark measures and are written out once at the end.
The layer of a span is the part of its name before the first dot, which is
the name of the ``momentdist`` module whose function the span wraps.

Spans marked ``extra`` re-measure work the pipeline also does elsewhere (for
example a direct ``Graph.from_edges`` call on edges the parser already turned
into a graph). They give a layer its own time and are left out of the
pipeline total that ``cli.self_s`` is derived from.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from collections import defaultdict


class Tracer:
    """Records nested spans of one thread; children run inside their parent."""

    def __init__(self):
        self.spans: list[dict] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str, extra: bool = False, **counts):
        """Time the body; yields the span's counts dict for the caller to fill."""
        rec = {
            "id": next(self._ids),
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "name": name,
            "extra": extra,
            "counts": dict(counts),
        }
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def wrap(self, name: str, counts=None, extra: bool = False):
        """Wrapper factory for :func:`patched`: spans every call of a function.

        ``counts(args, kwargs, result)`` returns the work counts of one call;
        it runs after the span has ended, so it is not timed.
        """

        def make(fn):
            def traced(*args, **kwargs):
                with self.span(name, extra=extra) as rec_counts:
                    out = fn(*args, **kwargs)
                if counts is not None:
                    rec_counts.update(counts(args, kwargs, out))
                return out

            return traced

        return make

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(rec) + "\n")


def capture(store: list):
    """Wrapper factory for :func:`patched`: keeps each call's args and result."""

    def make(fn):
        def captured(*args, **kwargs):
            out = fn(*args, **kwargs)
            store.append((args, kwargs, out))
            return out

        return captured

    return make


@contextlib.contextmanager
def patched(*replacements):
    """Temporarily replace module attributes: ``(module, attr, make_wrapper)``.

    The package calls its own layers through module-level names, so wrapping
    those names observes the calls without changing the package's source.
    """
    saved = []
    try:
        for module, attr, make in replacements:
            orig = getattr(module, attr)
            saved.append((module, attr, orig))
            setattr(module, attr, make(orig))
        yield
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Spans come from one thread and children run one after another inside
    their parent, so the covered time is the sum of the children's durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration(s)
    return {s["id"]: duration(s) - covered[s["id"]] for s in spans}


def layer_of(span: dict) -> str:
    return span["name"].split(".", 1)[0]
