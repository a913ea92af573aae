"""The trace log: JSON Lines of DecisionTraces, read through one line reader."""

from __future__ import annotations

import json
from pathlib import Path

from .engine import DecisionTrace


def append_trace(log, trace: DecisionTrace) -> str:
    """Append a trace's line to an open text log and flush it, so that the
    record is with the OS before the robot acts. Returns the line."""
    line = trace.to_json()
    log.write(line + "\n")
    log.flush()
    return line


def write_traces(traces: list[DecisionTrace], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as log:
        for trace in traces:
            append_trace(log, trace)


def _read(path: str | Path):
    """The traces line by line, blank lines skipped; ValueError names an unreadable line."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    trace = DecisionTrace.from_dict(json.loads(line.decode("utf-8")))
                except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
                    raise ValueError(f"line {number}: {exc!r}") from exc
                yield trace


def read_traces(path: str | Path) -> list[DecisionTrace]:
    return list(_read(path))


def find_trace(path: str | Path, request_id: str) -> DecisionTrace | None:
    """The first trace with this request id, or None; later lines are not read."""
    return next((trace for trace in _read(path) if trace.request_id == request_id), None)
