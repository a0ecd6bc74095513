"""The benchmark's own span recorder.

Spans are recorded from ``bench/`` around the calls into each layer
(name, start, end, parent, op id), kept in memory, and written out once
when the child exits.  Spans inside the program are a later change.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = -1

    def next_op(self) -> int:
        """Start a new op: spans opened from now on share its id."""
        self.op += 1
        return self.op

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[dict]:
        """The finished spans called ``name``."""
        return [
            s for s in self.spans if s["name"] == name and s["end"] is not None
        ]

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "spans": self.spans}, fh)
