"""The repository benchmark: one command per workload, seed and mode.

Usage, from the repository root::

    python3 perfbench/run.py --workload engine-sparse --seed 1 --seconds 20 --trace 0

Workloads (all closed loop, one process, at most 2 client threads):

``engine-sparse``  in-process ``JobSearch`` on sparse jobs of all 8 kinds
``engine-dense``   in-process ``JobSearch`` on a dense (n=240, m~10k) instance
``serve-cold``     2 HTTP clients, every request a new instance
``serve-warm``     1 HTTP client replaying, paging and resuming a filled store

``BENCHMARK.json`` gates the first three.  serve-warm is run by hand for
the read path (store hits, relabeled keys, resumes): its ten-run spread
was 14-23% on a shared 2-vCPU VM, and a run takes ~60 s.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
traced split and prints the per-layer metrics (see ``layers.py``).
Every output stream is checked against ``pins.json``; any failure makes
the run exit 1.  The last line of standard output is the result object.
The program is imported from ``src/`` under the working directory; the
run exits 2 when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WORKLOADS = ("engine-sparse", "engine-dense", "serve-cold", "serve-warm")


def _check_layer_table(layers) -> None:
    """``BENCHMARK.json`` must list exactly the metrics ``layers.py`` prints."""
    with open("BENCHMARK.json") as handle:
        declared = json.load(handle)["per_layer"]
    expected = [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _moves in layers.metric_table()
    ]
    if declared != expected:
        sys.exit("BENCHMARK.json per_layer does not match perfbench/layers.py")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import layers

    _check_layer_table(layers)
    if args.workload.startswith("engine-"):
        from engine_bench import run_engine

        out = run_engine(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        from serve_bench import run_serve

        out = run_serve(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0 if out.emit() else 1


if __name__ == "__main__":
    sys.exit(main())
