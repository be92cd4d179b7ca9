"""Finite relational models and term evaluation.

A model assigns a finite domain of atoms (opaque strings) to each type symbol
and a finite relation to each predicate.  Evaluating a graphical term against
a model is conjunctive-query evaluation: find the assignments of atoms to dots
that land every cell's ports inside the cell's relation, and read off the
outer ports.  A term whose support mentions a type with an empty domain
evaluates to the empty relation outright.

The evaluator flattens a nested term first, then builds a join plan once per
call that follows the wires: each next cell is one with the most dots that
earlier cells bind, then the smallest relation, then the lowest slot, so the
order in which cells are written never turns a connected join into a product.
Each cell's tuples are hashed by the positions whose dots earlier cells bind,
so every step probes an index instead of scanning the relation.  The indexes
are built once per model, per predicate and pattern, and kept on the model,
so many queries on one model hash each relation only once per way they probe
it.  The plan runs as a loop over an explicit stack, so neither the number of
cells nor the nesting depth is bounded by the interpreter's recursion limit.
The atoms bound along the way form a frame, a short tuple: each step extends
its parent's frame with the entry it binds, and ``operator.itemgetter``
getters laid out once per call read each probe key and each out row off a
frame.  A dot whose last cell is planned is dead: no later probe reads it.
Dead dots leave the frame in batches, and the atoms of those the out row
reads go into a list kept for the call, which heads the out rows.  So a
frame holds the dots still to be probed and fewer dead ones than the larger
of ``DROP_BATCH`` and that count, and a long plan stays linear in its length
for a given width.  The loop stops one step early: each entry of the
next-to-last step probes the last step's index once and adds all of that
probe's rows to the answer in one set update, and the answer's size is
checked against ``EVAL_MAX_ROWS`` after each such update.  A deliberately
separate brute-force evaluator lives in :mod:`reglog.naive` and is used to
cross-check this one; keep the two implementations independent.

Models and relations are never changed after construction, and a model's
index cache holds only data derived from its relations, so evaluation of many
terms against many models can be fanned out safely: a race at worst builds an
equal index twice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from operator import itemgetter
from typing import Iterable, Mapping

from .context import Context, ContextMorphism, oplus
from .errors import EvalError, ValidationError
from .term import GraphicalTerm, flatten


@dataclass(frozen=True)
class FinRelation:
    """A finite relation on a context: a set of typed tuples of atoms.

    It is a formula in its context, and so also an object of the category of
    internal relations (:mod:`reglog.syncat`).  The sorted rows and their
    positions are computed on first use and cached; equality, hashing and
    ``repr`` see only the two fields.
    """

    context: Context
    tuples: frozenset[tuple[str, ...]]

    @cached_property
    def sorted_rows(self) -> tuple[tuple[str, ...], ...]:
        """The tuples in sorted order; internal-relation mask bits index them."""
        return tuple(sorted(self.tuples))

    @cached_property
    def row_index(self) -> dict[tuple[str, ...], int]:
        return {row: i for i, row in enumerate(self.sorted_rows)}

    def rows(self) -> list[tuple[str, ...]]:
        """The tuples in sorted order, for deterministic output."""
        return list(self.sorted_rows)

    def __len__(self):
        return len(self.tuples)

    def __str__(self):
        return f"({self.context}, rows {list(self.sorted_rows)})"


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
    # eval_term's probe indexes, by (predicate, repeat pattern, key
    # positions); derived from ``relations`` alone, which never change.
    _indexes: dict[tuple, dict] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

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
    members = {t: set(atoms) for t, atoms in model.domains.items()}
    for name, rel in relations.items():
        for row in rel.tuples:
            for atom, t in zip(row, rel.context.port_types):
                if atom not in members.get(t, ()):
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


def _cell_relation(cell: str, shell: Context, model: ModelInstance) -> FinRelation:
    rel = model.relation(cell)
    if rel.context != shell:
        raise EvalError(
            f"predicate {cell} has context {rel.context} in the model but "
            f"fills a slot of shape {shell}"
        )
    return rel


def _check_leaves(term: GraphicalTerm, model: ModelInstance) -> None:
    """Raise the error that evaluating ``term`` level by level would raise.

    Leaves are checked in pre-order, and a level whose own support has a type
    with an empty domain is skipped with everything below it, because
    evaluating that level returns the empty relation before it looks at its
    cells.
    """
    stack: list[tuple[str | GraphicalTerm, Context | None]] = [(term, None)]
    while stack:
        cell, shell = stack.pop()
        if isinstance(cell, str):
            _cell_relation(cell, shell, model)
        elif all(model.domain(s) for s in cell.diagram.support):
            stack += reversed(list(zip(cell.cells, cell.diagram.inner)))


def _index(
    tuples: frozenset[tuple[str, ...]],
    first: list[int],
    key_pos: tuple[int, ...],
    new_pos: tuple[int, ...],
) -> dict[tuple[str, ...], list[tuple[str, ...]]]:
    """Hash the tuples that agree wherever the row repeats a dot, by their
    atoms at ``key_pos``, keeping their atoms at ``new_pos``."""
    repeats = [(p, q) for p, q in enumerate(first) if p != q]
    index: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for tup in tuples:
        if not repeats or all(tup[p] == tup[q] for p, q in repeats):
            key = tuple([tup[p] for p in key_pos])
            index.setdefault(key, []).append(tuple([tup[p] for p in new_pos]))
    return index


def _row_getter(positions: list[int], made: dict) -> itemgetter:
    """Read the atoms at ``positions`` off a tuple, always as a tuple: a
    slice for none or one, where ``itemgetter`` would return a bare atom.
    ``made`` keeps the getters already built, by positions, so one call
    builds each distinct getter once."""
    key = tuple(positions)
    getter = made.get(key)
    if getter is None:
        if len(key) == 1:
            getter = itemgetter(slice(key[0], key[0] + 1))
        elif not key:
            getter = itemgetter(slice(0))
        else:
            getter = itemgetter(*key)
        made[key] = getter
    return getter


# A result row of four atoms takes about 180 bytes while the set of rows and
# the frozenset made from it are both alive: 2^20 rows peaked at 194 MB in
# eval_term (1.1 s) and at 387 MB in ``reglog eval``, which also prints them
# (6.3 s), on a 2-vCPU host.
EVAL_MAX_ROWS = 2**20

# Dead dots stay in the frame until at least this many, and at least as many
# as the live ones, have gathered; then they all leave it at once.  A dot
# left in costs the copy of one reference per frame, a batch that leaves
# costs a getter call per frame, so frames of short plans keep their dead
# dots; frames that kept them all would be quadratic in a long plan's length,
# and frames that dropped them one by one would be quadratic in its width.
DROP_BATCH = 32


# A plan step: the index it probes, the dots its probe key reads, the dots it
# binds, and the dots it finds dead.
Step = tuple[dict, tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _plan(term: GraphicalTerm, model: ModelInstance) -> tuple[list[int], list[Step]]:
    """The join plan of a flat term whose support has no empty domain: the
    slots in the order their cells are bound, and the steps, one per cell
    in that order and then one per loose outer dot, each the index it
    probes, the probe key read off the bound dots, the dots it binds, and
    the dots it finds dead.

    The next cell has the most distinct bound dots, then the smallest
    relation, then the lowest slot: the plan takes the smallest relation
    when no pending cell touches a bound dot, and otherwise follows the
    wires.  A lazy heap holds those keys.  Binding a dot pushes a fresh key
    for each unplanned cell that touches it, found by a dot -> cells index
    kept for this call; a cell's stale keys sort after its fresh one, so
    they are popped once it is planned and skipped.  Planning takes
    O(p log p) time in the p ports.

    The same index counts, for each dot, the cells still to plan that touch
    it.  Once the last of them is planned, no later probe reads the dot: a
    dot bound earlier is dead at that step, a dot that step binds at the
    next step.  Outer dots die too; ``eval_term`` keeps their atoms for the
    out row.

    Each cell's tuples are hashed by its key positions once per model,
    predicate and repeat pattern, and kept on the model; each cell's shell
    is checked on every call.  A loose outer dot's step holds its whole
    domain.  A term without cells is those dots alone, so past
    ``EVAL_MAX_ROWS`` of them it is refused here.
    """
    d = term.diagram
    rels = [
        _cell_relation(cell, shell, model)
        for cell, shell in zip(term.cells, d.inner)
    ]
    # Cells go by their rank in the size/slot order below.  A cell's key is
    # its rank less n for each of its distinct dots that is bound, so the
    # least key is the best cell and the key mod n is its rank.
    n = len(rels)
    by_rank = sorted(range(n), key=lambda slot: len(rels[slot].tuples))
    touching: list[list[int]] = [[] for _ in range(d.num_dots)]
    for rank, slot in enumerate(by_rank):
        for dot in set(d.wires[slot]):
            touching[dot].append(rank)
    heap = list(range(n))
    hits = [0] * n
    planned = [False] * n
    bound = [False] * d.num_dots
    # unplanned[dot]: the cells still to plan that touch the dot
    unplanned = [len(cells) for cells in touching]
    indexes = model._indexes
    order: list[int] = []
    steps: list[Step] = []
    done: list[int] = []  # dots the last step bound that no later cell reads
    while heap:
        rank = heappop(heap) % n
        if planned[rank]:
            continue
        planned[rank] = True
        slot = by_rank[rank]
        order.append(slot)
        row = d.wires[slot]
        seen: dict[int, int] = {}
        first = [seen.setdefault(dot, p) for p, dot in enumerate(row)]
        key_pos = tuple([p for dot, p in seen.items() if bound[dot]])
        new_pos = tuple([p for dot, p in seen.items() if not bound[dot]])
        shape = (term.cells[slot], tuple(first), key_pos)
        if shape not in indexes:
            indexes[shape] = _index(rels[slot].tuples, first, key_pos, new_pos)
        new_dots = tuple([row[p] for p in new_pos])
        drop, done = done, []
        for dot in seen:
            unplanned[dot] -= 1
            if not unplanned[dot]:
                (drop if bound[dot] else done).append(dot)
        steps.append(
            (indexes[shape], tuple([row[p] for p in key_pos]), new_dots, tuple(drop))
        )
        for dot in new_dots:
            bound[dot] = True
            for other in touching[dot]:
                if not planned[other]:
                    hits[other] += 1
                    heappush(heap, other - hits[other] * n)
    loose = 1
    for dot in dict.fromkeys(d.wires[-1]):
        if not bound[dot]:
            pool = [(atom,) for atom in model.domain(d.dot_types[dot])]
            loose *= len(pool)
            steps.append(({(): pool}, (), (dot,), tuple(done)))
            done = []
    if loose > EVAL_MAX_ROWS and not rels:
        raise EvalError(
            f"the term's loose outer dots alone give {loose} rows, over the "
            f"limit of EVAL_MAX_ROWS = {EVAL_MAX_ROWS} rows"
        )
    return order, steps


def eval_term(term: GraphicalTerm, model: ModelInstance) -> FinRelation:
    """Evaluate a term against a model.

    A nested term is flattened first, after its leaves are checked in the
    order a level-by-level evaluation would meet them, and ``_plan`` builds
    its join plan.  The plan runs as a depth-first loop over an explicit
    stack of probe results, down to the next-to-last step, under a root
    step that matches once and binds nothing.  The atoms bound so far form
    a frame, a tuple laid out once per call: each step extends its parent's
    frame as ``frame + entry``, after a getter has read the step's probe
    key off the parent frame.  Dead dots stay in the frame until at least
    ``DROP_BATCH`` of them, and at least as many as the live ones, have
    gathered; the step at which they do keeps the rest of the frame by one
    more getter, after writing the atoms of the dead out-row dots into
    ``head``, a list kept for the call with one place per such dot.  The
    depth-first order rewrites each place before the last step reads it.
    So each batch costs about as much as the dots it drops, and a long
    plan stays linear in its length whatever its out row reads; dots that
    die at the last step never leave.  Each entry that
    the next-to-last step binds probes the last step's index once and adds
    every row of the probe in one set update, each out row read off
    ``head + frame + row`` by one more getter.  A one-step plan is one such
    update on the empty key.

    The answer is bounded by ``EVAL_MAX_ROWS``; past it this raises
    ``EvalError``.  A term without cells is its loose outer dots alone, so
    ``_plan`` refuses it before the loop.  Otherwise the loop counts the rows
    each time the last step runs dry, that is after each bulk update, once
    per probe, so the set passes the limit by at most one probe's entries,
    and a term whose cells match nothing is never refused.
    """
    if not term.is_flat():
        _check_leaves(term, model)
        term = flatten(term)
    d = term.diagram
    if any(not model.domain(s) for s in d.support):
        return empty_relation(d.outer)
    steps = _plan(term, model)[1]
    if not steps:
        return FinRelation(d.outer, frozenset({()}))
    last_index, last_key, last_new, _ = steps.pop()
    # Lay out the frames.  Each step becomes, in place, its index, the
    # getters of its probe key and of the frame it keeps (None: all of it),
    # and, where dead out-row dots leave, the slice of the head they go to
    # and the getter that reads them (None: none leave).
    # Step 0 is the root: it matches once and binds nothing, so a one-step
    # plan is one bulk update on the empty key.
    out_row = d.wires[-1]
    outer = set(out_row)
    made: dict[tuple[int, ...], itemgetter] = {}
    layout: list[int] = []  # the dots of the frame, in order
    place: dict[int, int] = {}  # each dot's place in the frame
    head_dots: list[int] = []  # the out-row dots that left, in order
    waiting: list[int] = []  # the dead dots still in the frame
    for k, (index, key, new, drop) in enumerate(steps):
        key_of = _row_getter([place[dot] for dot in key], made)
        keep = move = None
        waiting += drop
        if len(waiting) >= max(DROP_BATCH, len(layout) - len(waiting)):
            moved = [dot for dot in waiting if dot in outer]
            if moved:
                at = slice(len(head_dots), len(head_dots) + len(moved))
                move = (at, _row_getter([place[dot] for dot in moved], made))
                head_dots += moved
            gone = set(waiting)
            layout = [dot for dot in layout if dot not in gone]
            keep = _row_getter([place[dot] for dot in layout], made)
            place = {dot: p for p, dot in enumerate(layout)}
            waiting = []
        steps[k] = (index, key_of, keep, move)
        for dot in new:
            place[dot] = len(layout)
            layout.append(dot)
    steps.insert(0, None)
    last_key_of = _row_getter([place[dot] for dot in last_key], made)
    where = {dot: p for p, dot in enumerate(head_dots + layout + list(last_new))}
    row_of = _row_getter([where[dot] for dot in out_row], made)
    head: list[str] = [""] * len(head_dots)
    results: set[tuple[str, ...]] = set()
    inner = len(steps) - 1
    # its[k] iterates the entries step k may bind under steps 0..k-1, and
    # bases[k] is the frame they extend.
    its = [iter(())] * len(steps)
    bases: list[tuple[str, ...]] = [()] * len(steps)
    its[0] = iter(((),))
    k = 0
    while k >= 0:
        base = bases[k]
        for entry in its[k]:
            frame = base + entry
            if k == inner:
                rows = last_index.get(last_key_of(frame))
                if rows is None:
                    continue
                if head:
                    frame = tuple(head) + frame
                results.update(map(row_of, map(frame.__add__, rows)))
                if len(results) > EVAL_MAX_ROWS:
                    raise EvalError(
                        "the term's value has more than the limit of "
                        f"EVAL_MAX_ROWS = {EVAL_MAX_ROWS} rows"
                    )
            else:
                k += 1
                index, key_of, keep, move = steps[k]
                its[k] = iter(index.get(key_of(frame), ()))
                if keep is None:
                    bases[k] = frame
                else:
                    if move is not None:
                        head[move[0]] = move[1](frame)
                    bases[k] = keep(frame)
                break
        else:
            k -= 1
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
