"""Reading what a run left on disk: event streams, access logs, sizes."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator


def jsonl(path: Path) -> Iterator[dict[str, Any]]:
    """Whole JSON lines of a stream (a torn last line is skipped)."""
    try:
        with open(path) as fh:
            for line in fh:
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    continue
    except FileNotFoundError:
        return


def tree_bytes(path: Path) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(dirpath, name)).st_size
            except OSError:
                continue
    return total


def event_stats(run_dir: Path) -> dict[str, float]:
    """Event count and ``pmap`` fan-out figures of one run's stream.

    Pool efficiency's numerator is the summed ``cell_finish`` durations
    of pool-mode calls; its denominator is their ``wall_s`` times the
    worker count.
    """
    stats = {"events": 0, "pmap_calls": 0, "pmap_cells": 0,
             "pool_calls": 0, "pool_wall_s": 0.0, "pool_busy_s": 0.0,
             "pool_capacity_s": 0.0}
    cells: list[float] = []
    for event in jsonl(run_dir / "events.jsonl"):
        stats["events"] += 1
        kind = event.get("kind")
        if kind == "pmap_start":
            cells = []
        elif kind == "cell_finish":
            cells.append(float(event.get("wall", {}).get("dur_s") or 0.0))
        elif kind == "pmap_finish":
            wall = event.get("wall", {})
            stats["pmap_calls"] += 1
            stats["pmap_cells"] += int(event.get("payload", {}).get("n_cells", 0))
            if wall.get("mode") == "pool":
                wall_s = float(wall.get("wall_s") or 0.0)
                stats["pool_calls"] += 1
                stats["pool_wall_s"] += wall_s
                stats["pool_busy_s"] += sum(cells)
                stats["pool_capacity_s"] += wall_s * int(wall.get("workers") or 1)
    return stats


def sum_stats(many: list[dict[str, float]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for stats in many:
        for key, value in stats.items():
            out[key] = out.get(key, 0) + value
    return out
