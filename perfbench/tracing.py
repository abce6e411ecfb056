"""In-memory spans around the calls the benchmark makes into each layer.

A span is ``[id, parent id, name, start ns, end ns, attrs]``. Spans are
kept in a list and written out once, when the benchmark ends. The
tracer wraps public functions where another layer looks them up (for
example ``ttbounce.evaluate.predict``), so an ordinary ``cli.main`` call
yields nested spans. Nothing is wrapped while tracing is off, so the
untraced run executes the program unchanged.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else -1, name, time.perf_counter_ns(), 0, attrs]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield attrs
        finally:
            rec[4] = time.perf_counter_ns()
            self._stack.pop()

    def add(self, name: str, start_ns: int, end_ns: int, **attrs) -> None:
        """Record a leaf span timed by the caller."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([len(self.spans), parent, name, start_ns, end_ns, attrs])

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Replace ``module.attr`` by a spanning wrapper until ``unwrap_all``.

        ``describe(args, kwargs, result)`` returns attributes for the span.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
            if describe is not None:
                attrs.update(describe(args, kwargs, result))
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def unwrap_all(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # --- Queries --------------------------------------------------------------

    def select(self, name: str, since: int = 0, parent: str | None = None, **match) -> list[list]:
        """Spans named ``name`` from ``since`` on whose attributes include
        ``match``, and, given ``parent``, whose parent span has that name."""
        spans = self.spans
        return [
            s
            for s in spans[since:]
            if s[2] == name
            and (parent is None or (s[1] >= 0 and spans[s[1]][2] == parent))
            and all(s[5].get(k) == v for k, v in match.items())
        ]

    def children(self, span: list) -> list[list]:
        # Spans are stored in start order, so children follow their parent
        # and end before the first span that starts after it.
        sid, end = span[0], span[4]
        out = []
        for j in range(sid + 1, len(self.spans)):
            s = self.spans[j]
            if s[3] > end:
                break
            if s[1] == sid:
                out.append(s)
        return out

    def root(self, span: list) -> list:
        while span[1] >= 0:
            span = self.spans[span[1]]
        return span

    def self_ns(self, span: list) -> int:
        """Duration minus the time its direct children cover."""
        return (span[4] - span[3]) - sum(c[4] - c[3] for c in self.children(span))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name, "start_ns": t0, "end_ns": t1, **attrs}
                    )
                    + "\n"
                )


def duration_ns(span: list) -> int:
    return span[4] - span[3]

