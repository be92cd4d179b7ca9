"""Reference evaluator: exhaustive enumeration of all dot assignments.

This module intentionally re-derives term semantics from scratch and shares no
search machinery with :func:`reglog.model.eval_term`.  Tests and the committed
corpus expectations use it as the independent route; do not "optimize" it into
the engine evaluator.
"""

from __future__ import annotations

import itertools

from .errors import EvalError
from .model import FinRelation, ModelInstance
from .term import GraphicalTerm


def eval_term_naive(term: GraphicalTerm, model: ModelInstance) -> FinRelation:
    d = term.diagram
    if any(len(model.domain(s)) == 0 for s in d.support):
        return FinRelation(d.outer, frozenset())
    cell_rows: list[frozenset[tuple[str, ...]]] = []
    for cell, shell in zip(term.cells, d.inner):
        if isinstance(cell, str):
            rel = model.relation(cell)
            if rel.context != shell:
                raise EvalError(
                    f"predicate {cell} has context {rel.context} in the model "
                    f"but fills a slot of shape {shell}"
                )
            cell_rows.append(rel.tuples)
        else:
            cell_rows.append(eval_term_naive(cell, model).tuples)
    pools = [model.domain(t) for t in d.dot_types]
    checks = list(zip(d.wires, cell_rows))
    out_row = d.wires[-1]
    found = set()
    # Every assignment is tried; the cells are checked in slot order, and
    # the first cell the assignment misses rejects it.
    for assignment in itertools.product(*pools):
        for row, rows in checks:
            if tuple([assignment[dot] for dot in row]) not in rows:
                break
        else:
            found.add(tuple([assignment[dot] for dot in out_row]))
    return FinRelation(d.outer, frozenset(found))
