"""The naive evaluator's inner loop against its earlier form.

``eval_term_naive`` below is the oracle as it read before its cell checks
became an explicit loop over precomputed (row, rows) pairs, copied verbatim.
Both enumerate every assignment in the same order, so they must give equal
relations, or raise the same error, on every term and model.
"""

from __future__ import annotations

import itertools

from reglog import naive
from reglog.dsl import load_workspace
from reglog.errors import EvalError, ReglogError
from reglog.model import FinRelation, ModelInstance
from reglog.term import GraphicalTerm

from helpers import ROOT
from test_model import join_plan_cases


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
    found = set()
    for assignment in itertools.product(*pools):
        if all(
            tuple(assignment[dot] for dot in row) in rows
            for row, rows in zip(d.wires, cell_rows)
        ):
            found.add(tuple(assignment[dot] for dot in d.wires[-1]))
    return FinRelation(d.outer, frozenset(found))


def outcome(evaluate, term, model):
    try:
        return evaluate(term, model)
    except ReglogError as exc:
        return type(exc), str(exc)


def test_agrees_with_the_earlier_form_on_seeded_terms():
    for term, model in join_plan_cases():
        assert naive.eval_term_naive(term, model) == eval_term_naive(term, model)


def test_agrees_with_the_earlier_form_on_the_corpus():
    checked = 0
    for path in sorted((ROOT / "corpus").glob("*.rl")):
        ws = load_workspace(str(path))
        model = ws.model()
        for term in ws.terms.values():
            expect = outcome(eval_term_naive, term, model)
            assert outcome(naive.eval_term_naive, term, model) == expect, path.name
            checked += 1
    assert checked >= 20
