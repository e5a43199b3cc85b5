"""Regenerate ``pins.json``: the expected stream of every pool member.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/pin.py

Streams come from the ``object`` backend, the reference every other
backend must match byte for byte.  Slices of one instance share one
oracle run.  Run this only when a pool in ``pools.py`` changes; the
benchmark never runs the oracle itself.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from typing import Dict, List

from common import PINS_PATH, stream_digest
from pools import pin_specs
from repro.engine.suspend import JobSearch


def oracle_lines(job, stop) -> List[str]:
    search = JobSearch(job)
    lines: List[str] = []
    while stop is None or len(lines) < stop:
        pair = search.next()
        if pair is None:
            break
        lines.append(pair[0])
    return lines


def main() -> int:
    specs = pin_specs()
    longest: Dict[object, int] = {}
    for spec in specs:
        base = dataclasses.replace(spec.job, limit=None)
        stop = spec.stop if spec.stop is not None else -1
        if base not in longest or longest[base] != -1 and (stop == -1 or stop > longest[base]):
            longest[base] = stop
    streams: Dict[object, List[str]] = {}
    started = time.perf_counter()
    for i, (base, stop) in enumerate(longest.items()):
        streams[base] = oracle_lines(base, None if stop == -1 else stop)
        print(f"[{i + 1}/{len(longest)}] {time.perf_counter() - started:.1f}s", file=sys.stderr)
    pins = {}
    for spec in specs:
        lines = streams[dataclasses.replace(spec.job, limit=None)][spec.start : spec.stop]
        if not spec.ordered:
            lines = sorted(lines)
        pins[spec.pin] = {
            "count": len(lines),
            "ordered": spec.ordered,
            "sha256": stream_digest(lines),
        }
    with open(PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(pins)} pins from {len(longest)} oracle streams", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
