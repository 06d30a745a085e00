"""Spans recorded from outside the program, by wrapping module attributes.

A span is (name, start, end, parent). A layer's self time is its span's
duration minus the time its child spans cover. Calls made hundreds of
thousands of times per operation (the reliability kernel) are wrapped as
*leaves*: they keep a call count and total time per parent span instead of
one record each, and their time still counts as the parent's child time.
Spans stay in memory until ``write`` puts them out as JSON lines.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter

# fields of a span record
ID, NAME, PARENT, ROOT, START, END, CHILD = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.leaves: dict[tuple[str, int], list] = {}  # (name, parent id) -> [calls, seconds]
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        record = [
            span_id,
            name,
            parent[ID] if parent else None,
            parent[ROOT] if parent else span_id,
            perf_counter(),
            None,
            0.0,
        ]
        self.spans.append(record)
        self._stack.append(record)
        return record

    def _exit(self, record: list) -> None:
        record[END] = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1][CHILD] += record[END] - record[START]

    @contextmanager
    def span(self, name: str):
        record = self._enter(name)
        try:
            yield record
        finally:
            self._exit(record)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            record = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(record)

        return traced

    def _wrap_leaf(self, name: str, fn):
        stack, leaves = self._stack, self.leaves

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                if stack:
                    parent = stack[-1]
                    parent[CHILD] += elapsed
                    entry = leaves.get((name, parent[ID]))
                    if entry is None:
                        leaves[(name, parent[ID])] = [1, elapsed]
                    else:
                        entry[0] += 1
                        entry[1] += elapsed

        return traced

    def install(self, targets) -> None:
        """Wrap each ``(span name, module, attribute, leaf)`` target.

        A module or attribute that does not exist is recorded in ``absent``
        and skipped, so the benchmark outlives refactors of the program.
        """
        for name, module_name, attribute, leaf in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attribute, None)
            if fn is None:
                where = f"{module_name}.{attribute}"
                if where not in self.absent:
                    self.absent.append(where)
                continue
            wrapper = (self._wrap_leaf if leaf else self._wrap)(name, fn)
            setattr(module, attribute, wrapper)
            self._installed.append((module, attribute, fn))

    def uninstall(self) -> None:
        while self._installed:
            module, attribute, fn = self._installed.pop()
            setattr(module, attribute, fn)

    def self_time(self, record: list) -> float:
        return record[END] - record[START] - record[CHILD]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": record[ID],
                            "name": record[NAME],
                            "parent": record[PARENT],
                            "start": record[START],
                            "end": record[END],
                            "self": self.self_time(record),
                        }
                    )
                    + "\n"
                )
            for (name, parent), (calls, seconds) in self.leaves.items():
                handle.write(
                    json.dumps({"leaf": name, "parent": parent, "calls": calls, "seconds": seconds})
                    + "\n"
                )
