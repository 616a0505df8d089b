"""In-memory spans around the benchmark's calls into ``popgraph``.

A span records its name, start and end (``time.perf_counter`` seconds), the
index of the span that encloses it, and the id of the step it belongs to;
nested spans inherit the step id of their parent. Spans stay in memory until
``write_jsonl`` at the end of a run. The untraced run uses ``NULL_TRACER``,
whose spans record nothing.
"""

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # dicts: name, start, end, parent (index or None), step
        self._open = []

    @contextmanager
    def span(self, name: str, step=None):
        parent = self._open[-1] if self._open else None
        if step is None and parent is not None:
            step = self.spans[parent]["step"]
        record = {"name": name, "start": perf_counter(), "end": None,
                  "parent": parent, "step": step}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def self_times(self):
        """Per span: its duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, covered)]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (span, own) in enumerate(zip(self.spans, self.self_times())):
                fh.write(json.dumps({"id": index, **span, "self": own}) + "\n")


class NullTracer:
    """Tracing off: every span is the same do-nothing context."""

    _span = nullcontext()

    def span(self, name: str, step=None):
        return self._span


NULL_TRACER = NullTracer()
