"""In-memory spans around calls into the program's public functions.

A span is [id, parent id, name, start, end].  Spans are kept in a list and
written out once, when the run ends.  A layer's self time is the duration
of its spans minus the part of each interval that child spans cover.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def begin(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1][0] if self._stack else None, name, perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[4] = perf_counter()
        popped = self._stack.pop()
        if popped is not rec:
            raise RuntimeError(f"span {rec[2]} closed out of order")

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(rec)
        return traced

    def self_times(self) -> dict:
        """Span id -> duration minus the union of its children's intervals."""
        children = {}
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, _, _, start, end in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[sid] = (end - start) - covered
        return out

    def busy_by_layer(self) -> dict:
        """Self time summed per layer, the layer being the name's first component."""
        busy = {}
        for sid, self_s in self.self_times().items():
            layer = self.spans[sid][2].split(".", 1)[0]
            busy[layer] = busy.get(layer, 0.0) + self_s
        return busy

    def durations(self, name: str) -> list:
        return [end - start for _, _, n, start, end in self.spans if n == name]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([{"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                       for sid, parent, name, start, end in self.spans], handle)
            handle.write("\n")


class Api:
    """The public surface jobs call: epiresolve's exports plus cli.main.

    With a tracer, every function fetched through it records a span named
    <layer>.<function>, the layer being the defining module.
    """

    def __init__(self, package, cli_main, tracer=None):
        self._package = package
        self._cli_main = cli_main
        self._tracer = tracer

    def __getattr__(self, name):
        target = self._cli_main if name == "main" else getattr(self._package, name)
        if self._tracer is not None and callable(target) and not isinstance(target, type):
            layer = target.__module__.rsplit(".", 1)[-1]
            target = self._tracer.wrap(target, f"{layer}.{name}")
        setattr(self, name, target)
        return target
