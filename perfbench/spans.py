"""In-memory span tracer used by the benchmark's traced runs.

A span is opened around a call into a layer (by the benchmark's own code or
by a wrapper the benchmark installs on a public method for the length of a
traced segment).  Every span records its name, start, end and the span that
caused it; a layer's *self time* is its span's duration minus the time its
child spans cover, so the self times of all spans plus the untraced
remainder sum exactly to the traced wall time.

Spans stay in memory and are written once, at the end, as a Chrome
``trace_event`` file (open it in Perfetto or ``chrome://tracing``).

Sub-layer self time inside the engine (which no public boundary separates)
comes from ``cProfile``: :meth:`Tracer.profile` wraps a call in the
profiler and :func:`module_self_times` folds the profile into per-module
self time, charging time spent in non-package frames (NumPy, builtins) to
the package frame that called them.
"""

from __future__ import annotations

import cProfile
import functools
import json
import pstats
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_clock = time.perf_counter


class Tracer:
    """Spans, self times and counters of the traced segments of one run.

    Inactive outside :meth:`segment`: every hook then costs one attribute
    check, so the same workload code serves untraced and traced rounds.
    """

    def __init__(self, known: Optional[set] = None) -> None:
        #: Span names the run may produce; anything else is a bug in the
        #: benchmark (its time would be missing from the decomposition).
        self.known = known
        self.active = False
        #: (span id, parent id, name, start, end); parent -1 = top level.
        self.spans: List[Tuple[int, int, str, float, float]] = []
        #: Open spans: [id, name, start, seconds covered by children].
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        #: Wall seconds of every traced segment, summed.
        self.wall_s = 0.0
        self._profiler: Optional[cProfile.Profile] = None
        self._patches: List[Tuple[object, str, object]] = []

    # -- segments ------------------------------------------------------------
    @contextmanager
    def segment(self, patches: Tuple[Tuple[object, str, Callable], ...] = ()
                ) -> Iterator[None]:
        """Trace everything inside the block; install ``patches`` meanwhile.

        ``patches`` are ``(owner, attribute, make_wrapper)`` triples;
        ``make_wrapper(original)`` returns the traced replacement.
        """
        for owner, attr, make in patches:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(original))
        self.active = True
        start = _clock()
        try:
            yield
        finally:
            self.wall_s += _clock() - start
            self.active = False
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)
            if self._stack:
                raise RuntimeError(f"unclosed spans: {self._stack}")

    # -- spans ---------------------------------------------------------------
    def begin(self, name: str) -> None:
        if self.known is not None and name not in self.known:
            raise ValueError(f"span {name!r} is not a declared layer span")
        self._stack.append([len(self.spans) + len(self._stack), name,
                            _clock(), 0.0])

    def end(self) -> None:
        stop = _clock()
        span_id, name, start, covered = self._stack.pop()
        duration = stop - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - covered
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((span_id, parent, name, start, stop))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around the block while tracing; nothing otherwise."""
        if not self.active:
            yield
            return
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, name: str, amount: float = 1) -> None:
        if self.active:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrapper(self, name: str, counter: Optional[str] = None) -> Callable:
        """``make_wrapper`` for :meth:`segment`: a timing span, and one
        ``counter`` increment per call when given."""
        tracer = self

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                if counter is not None:
                    tracer.count(counter)
                tracer.begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.end()
            return traced
        return make

    # -- profiling -----------------------------------------------------------
    def profile(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` under the run's profiler while tracing."""
        if not self.active:
            return fn(*args, **kwargs)
        if self._profiler is None:
            self._profiler = cProfile.Profile()
        self._profiler.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            self._profiler.disable()

    def profile_stats(self) -> Optional[pstats.Stats]:
        if self._profiler is None:
            return None
        return pstats.Stats(self._profiler)

    # -- export --------------------------------------------------------------
    def write_chrome(self, path, metadata: Dict[str, object]) -> int:
        """Write the spans as Chrome ``trace_event`` JSON; returns the count."""
        origin = min((span[3] for span in self.spans), default=0.0)
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - origin) * 1e6, "dur": (stop - start) * 1e6,
             "args": {"id": span_id, "parent": parent}}
            for span_id, parent, name, start, stop in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "otherData": metadata}, handle)
        return len(events)


def module_self_times(stats: pstats.Stats,
                      module_of: Callable[[str], Optional[str]]
                      ) -> Dict[str, float]:
    """Profiler self time per module.

    ``module_of`` maps a code file name to a module name, or ``None`` for
    frames outside the package; those frames' self time is split over their
    callers in proportion to the time each caller spent in them, until it
    lands on a package frame (``"other"`` when it never does).
    """
    raw = stats.stats  # func -> (cc, nc, self, cumulative, callers)
    memo: Dict[tuple, Dict[str, float]] = {}

    def shares(func, depth: int = 0) -> Dict[str, float]:
        known = memo.get(func)
        if known is not None:
            return known
        module = module_of(func[0])
        if module is not None:
            result = {module: 1.0}
        else:
            callers = raw[func][4] if func in raw else {}
            total = sum(entry[2] for entry in callers.values())
            if depth > 32 or total <= 0:
                result = {"other": 1.0}
            else:
                result = {}
                for caller, entry in callers.items():
                    for name, share in shares(caller, depth + 1).items():
                        result[name] = (result.get(name, 0.0)
                                        + share * entry[2] / total)
        memo[func] = result
        return result

    totals: Dict[str, float] = {}
    for func, (_, _, self_time, _, _) in raw.items():
        for name, share in shares(func).items():
            totals[name] = totals.get(name, 0.0) + self_time * share
    return totals
