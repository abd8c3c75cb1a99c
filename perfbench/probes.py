"""Span recording by wrapping gridcity's callables from outside the program.

A probe replaces a module or class attribute with a wrapper that records one
span per call: the span's name, start, end and parent span.  The program keeps
calling through the attribute, so nothing under ``src/`` changes.  Spans are
strictly nested because the engine is single-threaded, so a span's self time
is its duration minus the durations of its direct children.

Spans live in flat arrays (26 bytes each) so that a traced sweep of a
million calls fits in memory.  A pool worker forked after the probes were
installed inherits them; it appends its spans to a spool file whenever one of
its root spans ends, and the owning process merges the spool files afterwards.
"""
from __future__ import annotations

import importlib
import json
import os
from array import array
from pathlib import Path
from time import perf_counter


class Tracer:
    """Records spans for the attributes it wraps; undone by ``uninstall``."""

    def __init__(self, spool_dir: Path):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.calls: dict[int, list] = {}  # name id -> [(span, observation)]
        self._stack: list[int] = []
        self._undo: list = []
        self._owner = os.getpid()
        self._spool = spool_dir
        os.register_at_fork(after_in_child=self._drop_spans)

    def wrap(self, module: str, attr: str, name: str, observe=None) -> bool:
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``).

        ``observe(args, kwargs, result)``, when given, runs after each call's
        span has ended and its return value is kept with the span index.
        Returns False when the attribute is missing.
        """
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            return False
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        kept = self.calls.setdefault(name_id, []) if observe is not None else None
        stack, starts, ends, parents, name_of = (
            self._stack, self.start, self.end, self.parent, self.name_of
        )

        def wrapper(*args, **kwargs):
            span = len(starts)
            name_of.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                stack.pop()
            if kept is not None:
                kept.append((span, observe(args, kwargs, result)))
            if not stack and os.getpid() != self._owner:
                self._flush()
            return result

        wrapper.__wrapped__ = original
        setattr(owner, leaf, wrapper)
        self._undo.append((owner, leaf, original))
        return True

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    def _flush(self) -> None:
        """Append this forked worker's spans to its spool file and drop them."""
        record = {
            "names": [self.names[i] for i in self.name_of],
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
        }
        with open(self._spool / f"spans-{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self._drop_spans()

    def _drop_spans(self) -> None:
        for arr in (self.name_of, self.start, self.end, self.parent):
            del arr[:]

    def merge_spool(self) -> None:
        """Append the spans that forked workers wrote to the spool directory."""
        for path in sorted(self._spool.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                base = len(self.start)
                for name, start, end, parent in zip(
                    record["names"], record["start"], record["end"], record["parent"]
                ):
                    name_id = self._name_ids.setdefault(name, len(self.names))
                    if name_id == len(self.names):
                        self.names.append(name)
                    self.name_of.append(name_id)
                    self.start.append(start)
                    self.end.append(end)
                    self.parent.append(parent + base if parent >= 0 else -1)

    # -- queries -------------------------------------------------------------

    def by_name(self) -> dict[str, list[int]]:
        """Span indices grouped by span name, in call order."""
        groups: dict[str, list[int]] = {name: [] for name in self.names}
        names = self.names
        for i, n in enumerate(self.name_of):
            groups[names[n]].append(i)
        return groups

    def kept_calls(self, name: str) -> list:
        name_id = self._name_ids.get(name)
        return self.calls.get(name_id, []) if name_id is not None else []

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        start, end = self.start, self.end
        own = [e - s for s, e in zip(start, end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def ancestor_named(self, span: int, name: str) -> int:
        """Nearest enclosing span called ``name``, or -1."""
        name_id = self._name_ids.get(name, -1)
        p = self.parent[span]
        while p >= 0 and self.name_of[p] != name_id:
            p = self.parent[p]
        return p
