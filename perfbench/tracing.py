"""In-memory spans around voxid's layer entry points, for the traced run.

The pipeline looks each entry point below up as a module attribute at call
time, so replacing that attribute puts a span around every call the pipeline
makes through it. The benchmark adds its own spans around the calls it makes
directly (``identify``, ``train_database``, database load and save, corpus
synthesis). Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

# (module under voxid, attribute, span name).  The span name is the module
# that implements the function, which is the layer it is reported under.
ENTRY_POINTS = (
    ("audio_io", "read_wav", "audio_io.read_wav"),
    ("signal_prep", "remove_silence", "signal_prep.remove_silence"),
    ("sid_pipeline", "preprocess", "signal_prep.preprocess"),
    ("sid_pipeline", "fb_cepstra", "spectral.fb_cepstra"),
    ("sid_pipeline", "extract_acrlag", "acrlag.extract_acrlag"),
    ("sid_pipeline", "score_utterance", "sid_pipeline.score_utterance"),
    ("gmm", "lbg_init", "gmm.lbg_init"),
    ("gmm", "em_fit", "gmm.em_fit"),
    ("gmm", "utterance_score", "gmm.utterance_score"),
)


def _counts_read_wav(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _counts_remove_silence(args, result):
    return {"samples_in": len(args[0]), "samples_out": len(result)}


def _counts_preprocess(args, result):
    return {"frames_out": result.n_frames}


def _counts_fb_cepstra(args, result):
    return {"frames": result.n_frames}


def _counts_extract_acrlag(args, result):
    return {"frames_in": args[0].n_frames, "rows_out": result.n_frames}


# Work counted at the boundary where it happens, after the span has ended.
COUNTERS: dict[str, Callable] = {
    "audio_io.read_wav": _counts_read_wav,
    "signal_prep.remove_silence": _counts_remove_silence,
    "signal_prep.preprocess": _counts_preprocess,
    "spectral.fb_cepstra": _counts_fb_cepstra,
    "acrlag.extract_acrlag": _counts_extract_acrlag,
}


class Span(NamedTuple):
    op: int | None  # operation (one utterance or one enrollment) it belongs to
    span_id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    failed: bool
    counts: dict | None


class LayerTotals(NamedTuple):
    calls: int
    busy_ns: int
    self_ns: int
    failed: int
    counts: dict


class Tracer:
    """Records spans while installed; one tracer per benchmark run."""

    def __init__(self, voxid_package) -> None:
        self._package = voxid_package
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._originals: list[tuple[object, str, Callable]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span called name, child of the span now open."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        ok = False
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            counter = COUNTERS.get(name)
            counts = counter(args, result) if ok and counter else None
            self.spans.append(
                Span(self.op, span_id, parent, name, start, end, not ok, counts)
            )
        return result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry point that exists; a missing one records no calls."""
        for module_name, attr, name in ENTRY_POINTS:
            module = getattr(self._package, module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        try:
            yield self
        finally:
            while self._originals:
                module, attr, original = self._originals.pop()
                setattr(module, attr, original)

    def totals(self, ops: set[int] | None = None) -> dict[str, LayerTotals]:
        """Calls, inclusive and self time, failures and counts per span name.

        Only spans of the given operations are summed when ops is given.
        Self time is a span's duration minus the durations of its children.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end_ns - s.start_ns
        acc: dict[str, list] = {}
        for s in self.spans:
            if ops is not None and s.op not in ops:
                continue
            entry = acc.setdefault(s.name, [0, 0, 0, 0, defaultdict(int)])
            duration = s.end_ns - s.start_ns
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_ns[s.span_id]
            entry[3] += s.failed
            for key, value in (s.counts or {}).items():
                entry[4][key] += value
        return {
            name: LayerTotals(calls, busy, own, failed, dict(counts))
            for name, (calls, busy, own, failed, counts) in acc.items()
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": list(Span._fields), "spans": [list(s) for s in self.spans]}
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
