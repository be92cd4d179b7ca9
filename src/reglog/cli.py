"""Command line front end.

Usage: ``reglog WORKSPACE COMMAND [ARGS] [--model FILE] [--json] [--bound N]
[--timings]``

The workspace file declares types, predicates, diagrams, terms, and data; a
second file given with ``--model`` overlays extra domains and relation rows.
Exit status is 0 when the queried property holds (or the command simply
succeeds), 1 when it does not hold, and 2 on malformed input.  ``--timings``
writes the seconds spent loading (both files) and in the command to stderr.
Files are read and stdout is written as UTF-8, whatever the locale.

The argparse tree is built once per process, on the first ``main`` call, and
reused by every later call: ``parse_args`` returns a fresh namespace and
leaves the parser unchanged, so no state carries from one call to the next.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from time import perf_counter

from .contain import contains, minimize_core
from .context import Context
from .dot import emit_dot
from .dsl import Workspace, load_workspace, print_workspace, wiring_to_text
from .errors import DslError, ReglogError
from .model import entails_in, eval_term
from .syncat import AxiomBounds, check_regular_axioms, fundamental_check
from .term import GraphicalTerm, bare_term, flatten, to_formula
from .wiring import WiringDiagram, leq_wd, normalize, substitute


def _context_dict(c: Context) -> dict:
    return {"ports": list(c.port_types), "support": list(c.support)}


def _wiring_dict(w: WiringDiagram) -> dict:
    return {
        "inner": [_context_dict(c) for c in w.inner],
        "outer": _context_dict(w.outer),
        "dots": list(w.dot_types),
        "support": list(w.support),
        "wires": [list(row) for row in w.wires],
    }


def _get_term(ws: Workspace, name: str) -> GraphicalTerm:
    if name in ws.terms:
        return ws.terms[name]
    if name in ws.predicates:
        return bare_term(name, ws.signature)
    raise DslError(f"unknown term {name!r}")


def _get_diagram(ws: Workspace, name: str) -> tuple[WiringDiagram, tuple | None]:
    if name in ws.diagrams:
        return ws.diagrams[name], None
    if name in ws.terms or name in ws.predicates:
        term = flatten(_get_term(ws, name))
        return term.diagram, term.cells
    raise DslError(f"unknown diagram or term {name!r}")


def _emit(args, payload: dict, text: str, end: str = "\n") -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    elif text:
        print(text, end=end)


def _verdict(args, holds: bool, what: str) -> int:
    _emit(args, {what: holds}, "holds" if holds else "does not hold")
    return 0 if holds else 1


def cmd_validate(ws: Workspace, args) -> int:
    ws.model()
    counts = {
        "types": len(ws.types),
        "contexts": len(ws.contexts),
        "predicates": len(ws.predicates),
        "diagrams": len(ws.diagrams),
        "terms": len(ws.terms),
    }
    text = ", ".join(f"{key} {n}" for key, n in counts.items())
    _emit(args, {"ok": True, **counts}, f"ok: {text}")
    return 0


def cmd_print(ws: Workspace, args) -> int:
    text = print_workspace(ws)
    _emit(args, {"text": text}, text, end="")
    return 0


def cmd_normalize(ws: Workspace, args) -> int:
    w, _ = _get_diagram(ws, args.name)
    w = normalize(w)
    _emit(args, _wiring_dict(w), wiring_to_text(w))
    return 0


def cmd_compose(ws: Workspace, args) -> int:
    outer, _ = _get_diagram(ws, args.outer)
    inner, _ = _get_diagram(ws, args.inner)
    if not 1 <= args.slot <= len(outer.inner):
        raise DslError(
            f"{args.outer!r} has {len(outer.inner)} slots, not {args.slot}"
        )
    w = substitute(outer, args.slot - 1, inner)
    _emit(args, _wiring_dict(w), wiring_to_text(w))
    return 0


def cmd_leq(ws: Workspace, args) -> int:
    lower, _ = _get_diagram(ws, args.lower)
    upper, _ = _get_diagram(ws, args.upper)
    return _verdict(args, leq_wd(lower, upper), "leq")


def cmd_eval(ws: Workspace, args) -> int:
    term = _get_term(ws, args.term)
    rel = eval_term(term, ws.model())
    rows = rel.rows()
    payload = {
        "context": list(rel.context.port_types),
        "support": list(rel.context.support),
        "tuples": [list(r) for r in rows],
    }
    _emit(args, payload, "\n".join(", ".join(r) for r in rows))
    return 0


def cmd_entail(ws: Workspace, args) -> int:
    model = ws.model()
    left = _get_term(ws, args.left)
    right = _get_term(ws, args.right)
    return _verdict(args, entails_in(model, left, right), "entails")


def cmd_contains(ws: Workspace, args) -> int:
    left = _get_term(ws, args.left)
    right = _get_term(ws, args.right)
    return _verdict(args, contains(left, right), "contains")


def cmd_minimize(ws: Workspace, args) -> int:
    term = minimize_core(_get_term(ws, args.term))
    cells = list(term.cells)
    payload = {"cells": cells, "wiring": _wiring_dict(term.diagram)}
    text = f"cells: {', '.join(cells) if cells else '(none)'}\n"
    text += wiring_to_text(term.diagram)
    _emit(args, payload, text)
    return 0


def cmd_formula(ws: Workspace, args) -> int:
    text = to_formula(flatten(_get_term(ws, args.term)))
    _emit(args, {"formula": text}, text)
    return 0


def cmd_dot(ws: Workspace, args) -> int:
    w, labels = _get_diagram(ws, args.name)
    text = emit_dot(w, labels, name=args.name)
    _emit(args, {"dot": text}, text, end="")
    return 0


def cmd_axioms(ws: Workspace, args) -> int:
    bounds = AxiomBounds()
    if args.bound is not None:
        bounds = AxiomBounds(max_arity=args.bound, hom_arity=args.bound)
    report = check_regular_axioms(ws.model(), bounds)
    _emit(args, report.as_dict(), report.summary())
    return 0 if report.ok else 1


def cmd_fundamental(ws: Workspace, args) -> int:
    if args.left_type not in ws.types or args.right_type not in ws.types:
        raise DslError("fundamental expects two declared types")
    report = fundamental_check(ws.model(), args.left_type, args.right_type)
    _emit(args, report.as_dict(), report.summary())
    return 0 if report.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--model", metavar="FILE", help="overlay domains and data from FILE"
    )
    common.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    common.add_argument(
        "--bound", type=int, default=None, help="search bound for axioms"
    )
    common.add_argument(
        "--timings", action="store_true", help="write phase times to stderr"
    )

    parser = argparse.ArgumentParser(
        prog="reglog", description="relational logic over wiring diagrams"
    )
    parser.add_argument("workspace", help="workspace file to load")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, *spec):
        p = sub.add_parser(name, parents=[common], help=help_text)
        for arg, kw in spec:
            p.add_argument(arg, **kw)
        p.set_defaults(fn=fn)

    add("validate", cmd_validate, "parse everything and build the model")
    add("print", cmd_print, "reprint the workspace in canonical form")
    add(
        "normalize",
        cmd_normalize,
        "print a diagram in normal form",
        ("name", {"help": "diagram or term name"}),
    )
    add(
        "compose",
        cmd_compose,
        "substitute one diagram into a slot of another",
        ("outer", {"help": "outer diagram"}),
        ("slot", {"type": int, "help": "1-based slot"}),
        ("inner", {"help": "inner diagram"}),
    )
    add(
        "leq",
        cmd_leq,
        "diagram ordering: does the first entail the second?",
        ("lower", {}),
        ("upper", {}),
    )
    add(
        "eval",
        cmd_eval,
        "evaluate a term in the workspace model",
        ("term", {}),
    )
    add(
        "entail",
        cmd_entail,
        "tuple containment of two terms in the model",
        ("left", {}),
        ("right", {}),
    )
    add(
        "contains",
        cmd_contains,
        "semantic containment over every model",
        ("left", {}),
        ("right", {}),
    )
    add(
        "minimize",
        cmd_minimize,
        "drop redundant cells from a term",
        ("term", {}),
    )
    add(
        "formula",
        cmd_formula,
        "print a term as a first-order formula",
        ("term", {}),
    )
    add(
        "dot",
        cmd_dot,
        "render a diagram or term for graphviz",
        ("name", {}),
    )
    add("axioms", cmd_axioms, "run the bounded law suite on the model")
    add(
        "fundamental",
        cmd_fundamental,
        "census of morphisms between two one-port objects",
        ("left_type", {}),
        ("right_type", {}),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit status.

    A ``sys.stdout`` text file in another encoding is switched to UTF-8, with
    its error handler kept, for the rest of the process.
    """
    out = sys.stdout
    if isinstance(out, io.TextIOWrapper) and out.encoding != "utf-8":
        out.reconfigure(encoding="utf-8", errors=out.errors)
    args = build_parser().parse_args(argv)
    try:
        start = perf_counter()
        ws = load_workspace(args.workspace)
        if args.model:
            ws.merge_data(load_workspace(args.model))
        loaded = perf_counter()
        code = args.fn(ws, args)
    except (ReglogError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.timings:
        print(f"timings: load {loaded - start:.6f} s", file=sys.stderr)
        print(f"timings: command {perf_counter() - loaded:.6f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
