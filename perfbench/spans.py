"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark around its own calls into pfadft's
public functions; the package itself carries no tracing. Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import os
import time

from metrics import median, self_times


class Tracer:
    """Collects (layer, n, batch, start, end, parent, call id) spans."""

    def __init__(self):
        self.spans = []
        self.call_id = 0
        self._t0 = time.perf_counter()

    def new_call(self) -> int:
        self.call_id += 1
        return self.call_id

    def begin(self, layer, n=None, batch=None, parent=None, variant=None) -> int:
        self.spans.append({"id": len(self.spans), "layer": layer, "n": n, "batch": batch,
                           "variant": variant, "start": time.perf_counter() - self._t0,
                           "end": None, "parent": parent, "call_id": self.call_id})
        return len(self.spans) - 1

    def end(self, span_id: int):
        self.spans[span_id]["end"] = time.perf_counter() - self._t0

    def run(self, layer, fn, *args, **span):
        """Call ``fn(*args)`` inside a span; returns (result, span id)."""
        sid = self.begin(layer, **span)
        result = fn(*args)
        self.end(sid)
        return result, sid

    def duration(self, span_id: int) -> float:
        s = self.spans[span_id]
        return s["end"] - s["start"]

    def select(self, layer, variant=None):
        return [s for s in self.spans
                if s["layer"] == layer and (variant is None or s["variant"] == variant)]

    def durations(self, layer, variant=None):
        """Durations in seconds of the spans of one layer."""
        return [s["end"] - s["start"] for s in self.select(layer, variant)]

    def self_seconds(self, layer):
        own = self_times(self.spans)
        return [own[s["id"]] for s in self.select(layer)]

    def self_ms_by_layer(self) -> dict:
        own = self_times(self.spans)
        by_layer = {}
        for s in self.spans:
            by_layer.setdefault(s["layer"], []).append(own[s["id"]])
        return {layer: 1e3 * median(v) for layer, v in sorted(by_layer.items())}

    def write(self, path, record):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"record": record, "self_ms_median_by_layer": self.self_ms_by_layer(),
                       "spans": self.spans}, fh)
