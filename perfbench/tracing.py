"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (name, start, end, parent, pass id). The layer is the part of
the name before the first dot (``exec_sim.step`` -> ``exec_sim``). Spans
stay in memory until the run ends; ``write_jsonl`` then dumps them.

With tracing disabled ``span`` records nothing, so an untraced pass pays
only for one attribute test per call.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.pass_id = 0
        #: [name, start, end, parent index or -1, pass id]
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.pass_id]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield idx
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str, pass_ids: set[int] | None = None) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [
            s[2] - s[1]
            for s in self.spans
            if s[0] == name and (pass_ids is None or s[4] in pass_ids)
        ]

    def self_times_by_layer(self, pass_ids: set[int]) -> dict[str, float]:
        """Seconds each layer spent outside its child spans, per pass."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        totals: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s[4] not in pass_ids:
                continue
            layer = s[0].split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (s[2] - s[1]) - child_time[i]
        return {k: v / max(1, len(pass_ids)) for k, v in totals.items()}

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for i, (name, start, end, parent, pass_id) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": None if parent < 0 else parent, "pass": pass_id,
                }) + "\n")
