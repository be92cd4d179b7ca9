"""General containment of graphical terms via the frozen canonical instance.

``contains(t, t2)`` decides whether every model that satisfies ``t`` on a
tuple also satisfies ``t2`` on it.  The decision procedure builds the
canonical instance of ``t``: one atom per dot, plus one fresh atom per
white-dot label (a supported type carried by no dot), with each predicate
holding exactly the rows that ``t``'s cells assert.  Containment holds exactly
when the frozen outer tuple of ``t`` shows up when evaluating ``t2`` against
that instance.

The fresh atoms make the support semantics come out right: a type supported by
``t2`` but not by ``t`` has an empty domain in the canonical instance, so the
check correctly fails against models that leave that type empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .context import Context
from .errors import ValidationError
from .model import FinRelation, ModelInstance, eval_term
from .term import GraphicalTerm, drop_cell, flatten


@dataclass(frozen=True)
class CanonicalInstance:
    instance: ModelInstance
    frozen: tuple[str, ...]


def _dot_atom(i: int) -> str:
    return f"d{i + 1}"


def canonical_instance(
    term: GraphicalTerm,
    predicate_contexts: Mapping[str, Context] | None = None,
) -> CanonicalInstance:
    """The frozen instance of a flat term.

    ``predicate_contexts`` may declare extra predicates (they get empty
    relations), so the instance can be evaluated against terms mentioning
    predicates that ``term`` does not.  Each predicate must have one shell
    across ``term`` and ``predicate_contexts``.
    """
    if not term.is_flat():
        raise ValidationError("canonical_instance expects a flat term")
    d = term.diagram
    domains: dict[str, list[str]] = {}
    for i, t in enumerate(d.dot_types):
        domains.setdefault(t, []).append(_dot_atom(i))
    for label in d.white_labels():
        domains.setdefault(label, []).append(f"w_{label}")

    contexts: dict[str, Context] = dict(predicate_contexts or {})
    rows: dict[str, set[tuple[str, ...]]] = {name: set() for name in contexts}
    for cell, shell, row in zip(term.cells, d.inner, d.wires):
        if contexts.setdefault(cell, shell) != shell:
            raise ValidationError(f"predicate {cell} used at two different shells")
        rows.setdefault(cell, set()).add(tuple(_dot_atom(i) for i in row))
    relations = {
        name: FinRelation(contexts[name], frozenset(rows.get(name, ())))
        for name in contexts
    }
    model = ModelInstance({t: tuple(atoms) for t, atoms in domains.items()}, relations)
    frozen = tuple(_dot_atom(i) for i in d.wires[-1])
    return CanonicalInstance(model, frozen)


def contains(left: GraphicalTerm, right: GraphicalTerm) -> bool:
    """Does ``left`` entail ``right`` in every finite model?"""
    return _contains_flat(flatten(left), flatten(right))


def _contains_flat(left: GraphicalTerm, right: GraphicalTerm) -> bool:
    """``contains`` on two terms that are already flat and normalized."""
    if left.outer != right.outer:
        raise ValidationError("containment needs terms over the same outer shell")
    # canonical_instance checks the left term's shells against these.
    shells: dict[str, Context] = {}
    for cell, shell in zip(right.cells, right.diagram.inner):
        if shells.setdefault(cell, shell) != shell:
            raise ValidationError(f"predicate {cell} used at two different shells")
    canonical = canonical_instance(left, shells)
    return canonical.frozen in eval_term(right, canonical.instance).tuples


def equivalent(left: GraphicalTerm, right: GraphicalTerm) -> bool:
    return contains(left, right) and contains(right, left)


def minimize_core(term: GraphicalTerm) -> GraphicalTerm:
    """Delete cells while the term stays equivalent to the original.

    Dropping a cell only weakens a term (orphaned dots are absorbed into the
    support, which the full support convention already contains), so a
    candidate is equivalent exactly when it contains the current term.  One
    scan suffices: a cell that cannot be dropped stays undroppable after
    later drops, because if C minus cells i and j is equivalent to C, so is C
    minus j alone.  A term with no droppable cell is a core, and cores are
    unique up to isomorphism, so the result has the fewest cells of any term
    equivalent to the input.
    """
    current = flatten(term)
    slot = 0
    while slot < len(current.cells):
        # drop_cell returns a flat, normalized term: no need to flatten it.
        candidate = drop_cell(current, slot)
        if _contains_flat(candidate, current):
            current = candidate
        else:
            slot += 1
    return current
