"""Finite relational models and term evaluation.

A model assigns a finite domain of atoms (opaque strings) to each type symbol
and a finite relation to each predicate.  Evaluating a graphical term against
a model is conjunctive-query evaluation: find the assignments of atoms to dots
that land every cell's ports inside the cell's relation, and read off the
outer ports.  A term whose support mentions a type with an empty domain
evaluates to the empty relation outright.

The evaluator here is a plain backtracking search that binds cells in order of
ascending relation size.  A deliberately separate brute-force evaluator lives
in :mod:`reglog.naive` and is used to cross-check this one; keep the two
implementations independent.

Everything is immutable, so evaluation of many terms against many models can
be fanned out safely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .context import Context, ContextMorphism, oplus
from .errors import EvalError, ValidationError
from .term import GraphicalTerm


@dataclass(frozen=True)
class FinRelation:
    """A finite relation on a context: a set of typed tuples of atoms."""

    context: Context
    tuples: frozenset[tuple[str, ...]]

    def rows(self) -> list[tuple[str, ...]]:
        """The tuples in sorted order, for deterministic output."""
        return sorted(self.tuples)

    def __len__(self):
        return len(self.tuples)


def _check_arity(rel: FinRelation) -> FinRelation:
    for row in rel.tuples:
        if len(row) != rel.context.arity:
            raise ValidationError(
                f"tuple {row} does not match arity {rel.context.arity}"
            )
    return rel


def mk_relation(
    context: Context, tuples: Iterable[tuple[str, ...]]
) -> FinRelation:
    """Validating constructor: every tuple must match the context's arity."""
    return _check_arity(FinRelation(context, frozenset(tuple(row) for row in tuples)))


def empty_relation(context: Context) -> FinRelation:
    return FinRelation(context, frozenset())


@dataclass(frozen=True)
class ModelInstance:
    """Domains per type symbol plus one finite relation per predicate.

    Types absent from ``domains`` have the empty domain.  A predicate whose
    context supports a type with an empty domain must have an empty relation.
    """

    domains: Mapping[str, tuple[str, ...]]
    relations: Mapping[str, FinRelation]

    def domain(self, t: str) -> tuple[str, ...]:
        return self.domains.get(t, ())

    def relation(self, name: str) -> FinRelation:
        if name not in self.relations:
            raise EvalError(f"unknown predicate {name}")
        return self.relations[name]


def mk_model(
    domains: Mapping[str, Iterable[str]],
    shells: Mapping[str, Context | FinRelation],
    rows: Mapping[str, Iterable[tuple[str, ...]]] | None = None,
) -> ModelInstance:
    """Validating constructor from domains plus either finished relations
    (passed through as they are) or predicate shells with (possibly missing)
    row sets.  Every row must match its arity and draw its atoms from the
    domains, and a relation whose context supports a type with an empty
    domain must be empty, and no domain may be named by the empty string."""
    if any(not t for t in domains):
        raise ValidationError("type symbols must be nonempty strings")
    rows = rows or {}
    relations = {}
    for name, shell in shells.items():
        if isinstance(shell, FinRelation):
            relations[name] = _check_arity(shell)
        else:
            relations[name] = mk_relation(shell, rows.get(name, ()))
    model = ModelInstance({t: tuple(atoms) for t, atoms in domains.items()}, relations)
    for name, rel in relations.items():
        for row in rel.tuples:
            for atom, t in zip(row, rel.context.port_types):
                if atom not in model.domain(t):
                    raise ValidationError(
                        f"relation {name} holds atom {atom!r} outside the "
                        f"domain of {t}"
                    )
        if rel.tuples and any(not model.domain(s) for s in rel.context.support):
            raise ValidationError(
                f"relation {name} must be empty: its context supports a "
                f"type with an empty domain"
            )
    return model


def true_rel(context: Context, model: ModelInstance) -> FinRelation:
    """The full relation on a context, empty if any supported type is."""
    if any(not model.domain(s) for s in context.support):
        return empty_relation(context)
    pools = [model.domain(t) for t in context.port_types]
    return FinRelation(context, frozenset(itertools.product(*pools)))


def meet_rel(left: FinRelation, right: FinRelation) -> FinRelation:
    if left.context != right.context:
        raise ValidationError("meet needs relations on the same context")
    return FinRelation(left.context, left.tuples & right.tuples)


def _cell_relation(
    cell: str | GraphicalTerm, shell: Context, model: ModelInstance
) -> FinRelation:
    if isinstance(cell, str):
        rel = model.relation(cell)
        if rel.context != shell:
            raise EvalError(
                f"predicate {cell} has context {rel.context} in the model but "
                f"fills a slot of shape {shell}"
            )
        return rel
    return eval_term(cell, model)


def eval_term(term: GraphicalTerm, model: ModelInstance) -> FinRelation:
    """Evaluate a term against a model.

    Nested cells are evaluated recursively.  Cells are then bound one at a
    time, smallest relation first, by scanning their tuples against the
    partial dot assignment; dots touched by no cell are enumerated from their
    domains at the end.
    """
    d = term.diagram
    if any(not model.domain(s) for s in d.support):
        return empty_relation(d.outer)
    rels = [
        _cell_relation(cell, shell, model)
        for cell, shell in zip(term.cells, d.inner)
    ]
    order = sorted(range(len(rels)), key=lambda i: len(rels[i]))
    assignment: dict[int, str] = {}
    out_row = d.wires[-1]
    results: set[tuple[str, ...]] = set()

    def finish():
        loose = [i for i in range(d.num_dots) if i not in assignment]
        pools = [model.domain(d.dot_types[i]) for i in loose]
        for combo in itertools.product(*pools):
            assignment.update(zip(loose, combo))
            results.add(tuple(assignment[i] for i in out_row))
        for i in loose:
            assignment.pop(i, None)

    def bind(k: int):
        if k == len(order):
            finish()
            return
        slot = order[k]
        row = d.wires[slot]
        for tup in rels[slot].tuples:
            added: list[int] = []
            ok = True
            for dot, atom in zip(row, tup):
                if dot in assignment:
                    if assignment[dot] != atom:
                        ok = False
                        break
                else:
                    assignment[dot] = atom
                    added.append(dot)
            if ok:
                bind(k + 1)
            for dot in added:
                del assignment[dot]

    bind(0)
    return FinRelation(d.outer, frozenset(results))


def entails_in(
    model: ModelInstance, left: GraphicalTerm, right: GraphicalTerm
) -> bool:
    """Does ``left`` entail ``right`` in this one model?"""
    if left.outer != right.outer:
        raise ValidationError("entailment needs terms over the same outer shell")
    return eval_term(left, model).tuples <= eval_term(right, model).tuples


def pushforward(f: ContextMorphism, rel: FinRelation) -> FinRelation:
    """Existential image along ``f``: reindex every tuple by the port map."""
    if rel.context != f.dom:
        raise ValidationError("relation lives on the wrong context")
    return FinRelation(
        f.cod,
        frozenset(tuple(row[i] for i in f.port_map) for row in rel.tuples),
    )


def pullback_pred(
    f: ContextMorphism, rel: FinRelation, model: ModelInstance
) -> FinRelation:
    """Preimage along ``f``: all domain tuples whose reindexing lands in ``rel``."""
    if rel.context != f.cod:
        raise ValidationError("relation lives on the wrong context")
    if any(not model.domain(s) for s in f.dom.support):
        return empty_relation(f.dom)
    pools = [model.domain(t) for t in f.dom.port_types]
    kept = (
        row
        for row in itertools.product(*pools)
        if tuple(row[i] for i in f.port_map) in rel.tuples
    )
    return FinRelation(f.dom, frozenset(kept))


def rho_lax(left: FinRelation, right: FinRelation) -> FinRelation:
    """The product relation on the product context."""
    return FinRelation(
        oplus(left.context, right.context),
        frozenset(a + b for a in left.tuples for b in right.tuples),
    )


def lambda_opl(
    rel: FinRelation, left: Context, right: Context
) -> tuple[FinRelation, FinRelation]:
    """Project a relation on a declared product onto its two blocks."""
    if oplus(left, right) != rel.context:
        raise ValidationError(
            f"context {rel.context} is not {left} followed by {right}"
        )
    n1 = left.arity
    return (
        FinRelation(left, frozenset(row[:n1] for row in rel.tuples)),
        FinRelation(right, frozenset(row[n1:] for row in rel.tuples)),
    )
