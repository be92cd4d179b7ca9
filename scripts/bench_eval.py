#!/usr/bin/env python3
"""Time ``eval_term`` and ``minimize_core`` on cq-graph's seeded digraph.

The model is the benchmark's cq-graph workspace: the 50-atom, 4-regular
digraph of ``perfbench/gen.py`` for seed 1, built the way the workload
builds it.  The cases are

* ``eval_term`` on the eight fixed shapes of that workload (path-2..4,
  cycle-3..4, star-2..4) and on path-5..8;
* ``minimize_core`` on the out-stars with 5, 6 and 7 leaves behind one
  exposed centre that contain-core minimizes.

Each case runs ``--repeat`` times, in rounds over all the cases.  A repeat
calls the case as often as it takes to fill 20 ms, at least once, and counts
the mean time of one call.  The median and the least of the repeats are
reported.  Every ``eval_term`` result is checked against
``gen.reference_eval`` and every core must have one cell, outside the timed
region.  Exit status is 0 when every check holds and 1 otherwise.

The results go under ``--label`` into the JSON file ``--out``; the other
labels already in that file are kept, so one file holds a before and an
after.  Usage, from the repository root::

    python3 scripts/bench_eval.py --label before
    python3 scripts/bench_eval.py --repeat 1 --out /tmp/BENCH_eval.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from random import Random
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gen  # noqa: E402
from reglog.contain import minimize_core  # noqa: E402
from reglog.dsl import parse_workspace  # noqa: E402
from reglog.model import eval_term  # noqa: E402

ATOMS, DEGREE, SEED = 50, 4, 1  # cq-graph's graph, as its seed-1 run builds it
FILL_S = 0.02


def per_call(fn, *args) -> float:
    """The mean time of one call, over enough calls to fill ``FILL_S``."""
    calls, spent = 0, 0.0
    while calls == 0 or spent < FILL_S:
        start = perf_counter()
        fn(*args)
        spent += perf_counter() - start
        calls += 1
    return spent / calls


def cases():
    """(name, function, arguments, check of the result) for every case."""
    edges = gen.random_digraph(Random(f"cq-graph/graph/{SEED}"), ATOMS, DEGREE)
    model = parse_workspace(gen.graph_workspace_text(ATOMS, edges)).model()
    queries = [*gen.FIXED_SHAPES, *(gen.path_query(k) for k in range(5, 9))]
    for query in queries:
        expect = {
            tuple(gen.atom(n) for n in row)
            for row in gen.reference_eval(query, edges)
        }
        yield (
            f"eval {query[0]}",
            eval_term,
            (gen.cq_term(query), model),
            lambda value, expect=expect: value.tuples == expect,
        )
    for leaves in (5, 6, 7):
        star = gen.star_query(leaves, outer=(0,))
        yield (
            f"minimize star-{leaves}",
            minimize_core,
            (gen.cq_term(star),),
            lambda core: len(core.cells) == 1,
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="repeats per case")
    parser.add_argument("--label", default="current", help="key of this run")
    parser.add_argument(
        "--out", default=os.path.join(ROOT, "BENCH_eval.json"), help="JSON file"
    )
    args = parser.parse_args()
    todo = list(cases())
    failed = [name for name, fn, fn_args, holds in todo if not holds(fn(*fn_args))]
    # Repeats go round the cases, so a burst of load on the host slows one
    # repeat of several cases, not every repeat of one.
    times: dict[str, list[float]] = {name: [] for name, *_ in todo}
    for _ in range(args.repeat):
        for name, fn, fn_args, _ in todo:
            times[name].append(per_call(fn, *fn_args))
    results = {}
    for name, spent in times.items():
        results[name] = {
            "median_ms": round(statistics.median(spent) * 1e3, 4),
            "min_ms": round(min(spent) * 1e3, 4),
        }
        print(f"{name:22} {results[name]['median_ms']:10.4f} ms")
    record = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    record[args.label] = {
        "seed": SEED,
        "repeat": args.repeat,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "correct": not failed,
        "cases": results,
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    for name in failed:
        print(f"error: {name} gave a wrong result", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
