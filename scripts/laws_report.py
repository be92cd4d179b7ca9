#!/usr/bin/env python3
"""Run the bounded axiom suite and morphism censuses over a model.

The model comes from a workspace file, or from a built-in two-type fixture
with two binary predicates when no file is given.  The report covers every
named structural check at the requested search bounds, then a census of
relations and functions for each ordered pair of types.  Each check shows
the wall time of the sweep that computed it, as the report records it; each
census shows its own wall time.  Exit status is 0 when everything passes, 1
when a check or census fails, and 2, with the message on standard error, when
the workspace cannot be read or a bound or census is refused.

Usage::

    python3 scripts/laws_report.py
    python3 scripts/laws_report.py --arity 2 --objects 8
    python3 scripts/laws_report.py --workspace corpus/fundamental_census.rl
"""

from __future__ import annotations

import argparse
import sys
import time

from reglog.context import mk_context
from reglog.dsl import load_workspace
from reglog.errors import ReglogError
from reglog.model import mk_model
from reglog.syncat import AxiomBounds, check_regular_axioms, fundamental_check


def builtin_model():
    return mk_model(
        {"x": ("0", "1"), "y": ("0", "1")},
        {"R": mk_context(("x", "x")), "S": mk_context(("x", "y"))},
        {"R": (("0", "1"), ("1", "1")), "S": (("0", "0"), ("1", "0"))},
    )


def main() -> int:
    try:
        return run()
    except (ReglogError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workspace", help="workspace file providing the model")
    parser.add_argument("--arity", type=int, default=2, help="max context arity")
    parser.add_argument("--hom-arity", type=int, default=2, help="max hom arity")
    parser.add_argument(
        "--tuple-space", type=int, default=4, help="max tuple-space size per object"
    )
    parser.add_argument("--objects", type=int, default=6, help="max object family")
    opts = parser.parse_args()

    if opts.workspace:
        model = load_workspace(opts.workspace).model()
    else:
        model = builtin_model()
    types = sorted(model.domains)
    print(f"model: {len(types)} types, {len(model.relations)} predicates")
    for t in types:
        print(f"  |{t}| = {len(model.domain(t))}")

    bounds = AxiomBounds(
        max_arity=opts.arity,
        hom_arity=opts.hom_arity,
        max_tuple_space=opts.tuple_space,
        limit_objects=opts.objects,
    )
    report = check_regular_axioms(model, bounds)
    print()
    print(f"axiom suite at {bounds}, with the time of the sweep behind each check:")
    lines = report.summary().splitlines()
    for check, line in zip(report.checks, lines):
        print(f"{line} ({check.seconds:.2f}s)")
    print(lines[-1])

    ok = report.ok
    print()
    print("census of relations and functions between one-port objects:")
    for left in types:
        for right in types:
            started = time.perf_counter()
            census = fundamental_check(model, left, right)
            elapsed = time.perf_counter() - started
            print(f"  {left} -> {right}: {census.summary()} ({elapsed:.2f}s)")
            ok = ok and census.ok
    print()
    print("result:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
