"""In-memory spans recorded around calls into succabs, for per-layer self time.

A span has a name, a start, an end and the span that was open when it
started.  Spans opened directly by the benchmark time its own calls into a
layer; ``Tracer.hooked`` additionally wraps public functions where
``succabs.tagger`` looked them up, so calls that ``train_model`` and
``tag_corpus`` make into counts, smoothing, lexicon and corpus get spans of
their own without any change to the library.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Iterator

import succabs.tagger

# (span name, attribute of succabs.tagger wrapped while tracing)
TAGGER_HOOKS = (
    ("counts.count_ngrams", "count_ngrams"),
    ("counts.build_lexicon", "build_lexicon"),
    ("counts.build_suffix_trie", "build_suffix_trie"),
    ("smoothing.build_sa", "build_sa_ngram_model"),
    ("smoothing.build_interp", "build_interpolated_ngram_model"),
    ("smoothing.build_ele", "build_ele_ngram_model"),
    ("corpus.write", "write_corpus"),
    ("lexicon.unknown_dist", "unknown_word_distribution"),
)


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1); index = position in list
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def hooked(self) -> Iterator[None]:
        """Wrap the ``TAGGER_HOOKS`` functions for the duration of the block."""
        saved = []
        for name, attr in TAGGER_HOOKS:
            fn = getattr(succabs.tagger, attr)
            saved.append((attr, fn))
            setattr(succabs.tagger, attr, self._wrap(name, fn))
        try:
            yield
        finally:
            for attr, fn in saved:
                setattr(succabs.tagger, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start) - children
        return totals

    def to_jsonable(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"id": i, "name": name, "start": start - t0, "end": end - t0,
                 "parent": None if parent < 0 else parent}
                for i, (name, start, end, parent) in enumerate(self.spans)]


def span_cost(calls: int = 20000) -> float:
    """Seconds that tracing adds to one call: a hooked no-op against a bare one.

    The tracing overhead of a run is this times the number of spans it
    recorded; timing it directly avoids comparing two whole runs, whose
    difference the machine's drift would swamp.
    """
    def noop():
        return None

    hooked = Tracer()._wrap("probe", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        hooked()
    t1 = time.perf_counter()
    for _ in range(calls):
        noop()
    t2 = time.perf_counter()
    return max(0.0, (t1 - t0) - (t2 - t1)) / calls
