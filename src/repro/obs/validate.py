"""Chrome ``trace_event`` schema and nesting validation.

The exporter in :mod:`repro.obs.telemetry` emits the JSON-object form of
the Chrome trace format: ``{"traceEvents": [...]}`` where each event
carries a phase (``ph``), a timestamp (``ts``) and process/thread ids
(``pid``/``tid``).  This module checks such a document structurally --
required fields per phase, numeric timestamps, non-negative durations --
and semantically: within every ``(pid, tid)`` lane, complete spans must
nest (a span either contains or is disjoint from its neighbours; partial
overlap means a broken timeline).

CI round-trips every exported ``serve-million`` trace through
:func:`validate_chrome_trace`; it is also a command-line tool::

    python -m repro.obs.validate trace.json
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Tuple

from repro.obs.report import write_out

__all__ = ["ChromeTraceError", "validate_chrome_trace", "main"]

#: Phases the repro.obs exporter may emit.
KNOWN_PHASES = ("X", "i", "I", "C", "M")

#: Metadata record names accepted for phase "M".
METADATA_NAMES = ("process_name", "thread_name", "process_labels",
                  "process_sort_index", "thread_sort_index")

#: Tolerance when comparing span boundaries (timestamps are floats).
_EPSILON = 1e-9


class ChromeTraceError(ValueError):
    """Raised when a trace document violates the schema or span nesting."""

    def __init__(self, problems: List[str]) -> None:
        self.problems = list(problems)
        preview = "; ".join(self.problems[:5])
        more = len(self.problems) - 5
        if more > 0:
            preview += f"; ... and {more} more"
        super().__init__(
            f"invalid Chrome trace ({len(self.problems)} problem(s)): "
            f"{preview}")


def _check_common(event: Dict[str, Any], where: str,
                  problems: List[str]) -> bool:
    """Field checks shared by every phase; True when usable downstream."""
    usable = True
    if not isinstance(event.get("name"), str) or not event["name"]:
        problems.append(f"{where}: missing or empty 'name'")
        usable = False
    ph = event.get("ph")
    if ph not in KNOWN_PHASES:
        problems.append(f"{where}: unknown phase {ph!r}")
        usable = False
    ts = event.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
        problems.append(f"{where}: 'ts' must be a non-negative number, "
                        f"got {ts!r}")
        usable = False
    for field in ("pid", "tid"):
        value = event.get(field)
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"{where}: '{field}' must be an integer, "
                            f"got {value!r}")
            usable = False
    return usable


def _check_nesting(spans: Dict[Tuple[int, int], List[Tuple[float, float, str]]],
                   problems: List[str]) -> int:
    """Spans in each lane must nest; returns the maximum nesting depth."""
    max_depth = 0
    for (pid, tid), lane in sorted(spans.items()):
        lane.sort(key=lambda s: (s[0], -(s[1] - s[0])))
        stack: List[Tuple[float, float, str]] = []
        for start, end, name in lane:
            while stack and start >= stack[-1][1] - _EPSILON:
                stack.pop()
            if stack and end > stack[-1][1] + _EPSILON:
                parent = stack[-1]
                problems.append(
                    f"pid {pid} tid {tid}: span '{name}' "
                    f"[{start:g}, {end:g}] partially overlaps "
                    f"'{parent[2]}' [{parent[0]:g}, {parent[1]:g}]")
                continue
            stack.append((start, end, name))
            if len(stack) > max_depth:
                max_depth = len(stack)
    return max_depth


def validate_chrome_trace(payload: Any) -> Dict[str, Any]:
    """Validate a Chrome trace document; returns summary statistics.

    ``payload`` is either the JSON-object form (``{"traceEvents": [...]}``)
    or the bare JSON-array form.  Raises :class:`ChromeTraceError` listing
    every problem found; on success returns ``{"events", "phases",
    "lanes", "max_depth"}``.
    """
    problems: List[str] = []
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            raise ChromeTraceError(
                ["top-level object must carry a 'traceEvents' list"])
    elif isinstance(payload, list):
        events = payload
    else:
        raise ChromeTraceError(
            ["payload must be a trace object or an event list"])

    phases: Dict[str, int] = {}
    spans: Dict[Tuple[int, int], List[Tuple[float, float, str]]] = {}
    lanes = set()
    for index, event in enumerate(events):
        where = f"event[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        if not _check_common(event, where, problems):
            continue
        ph = event["ph"]
        phases[ph] = phases.get(ph, 0) + 1
        lanes.add((event["pid"], event["tid"]))
        if ph == "X":
            dur = event.get("dur")
            if (not isinstance(dur, (int, float)) or isinstance(dur, bool)
                    or dur < 0):
                problems.append(f"{where}: complete span needs a "
                                f"non-negative 'dur', got {dur!r}")
                continue
            spans.setdefault((event["pid"], event["tid"]), []).append(
                (float(event["ts"]), float(event["ts"]) + float(dur),
                 event["name"]))
        elif ph in ("i", "I"):
            if event.get("s", "t") not in ("t", "p", "g"):
                problems.append(f"{where}: instant scope must be one of "
                                f"t/p/g, got {event.get('s')!r}")
        elif ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"{where}: counter event needs an 'args' "
                                "object of series values")
            else:
                for key, value in args.items():
                    if (not isinstance(value, (int, float))
                            or isinstance(value, bool)):
                        problems.append(
                            f"{where}: counter series {key!r} must be "
                            f"numeric, got {value!r}")
        elif ph == "M":
            if event["name"] not in METADATA_NAMES:
                problems.append(f"{where}: unknown metadata record "
                                f"{event['name']!r}")
            args = event.get("args")
            if not isinstance(args, dict) or "name" not in args:
                problems.append(f"{where}: metadata needs args.name")

    max_depth = _check_nesting(spans, problems)
    if problems:
        raise ChromeTraceError(problems)
    return {
        "events": len(events),
        "phases": dict(sorted(phases.items())),
        "lanes": len(lanes),
        "max_depth": max_depth,
    }


def main(argv=None) -> int:
    """CLI: validate trace files, print one summary line per file."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or any(arg in ("-h", "--help") for arg in argv):
        write_out("usage: python -m repro.obs.validate TRACE.json [...]")
        return 0 if argv else 2
    status = 0
    for path in argv:
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            stats = validate_chrome_trace(payload)
        except (OSError, json.JSONDecodeError, ChromeTraceError) as exc:
            write_out(f"{path}: INVALID -- {exc}")
            status = 1
            continue
        phase_text = " ".join(f"{ph}={n}" for ph, n in
                              stats["phases"].items())
        write_out(f"{path}: ok -- {stats['events']} events across "
                  f"{stats['lanes']} lanes, max span depth "
                  f"{stats['max_depth']} ({phase_text})")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
