"""Graphical terms: wiring diagrams whose inner shells are filled with cells.

A cell is either a predicate name (a string, resolved against a signature or a
model) or another graphical term whose outer shell matches the slot.  Nested
terms are stored as trees; :func:`flatten` glues every nested diagram into
its slot in one pass, producing a term whose cells are all predicate names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .context import Context
from .errors import ValidationError
from .unionfind import UnionFind
from .wiring import WiringDiagram, identity_wd, normalize

Cell = Union[str, "GraphicalTerm"]


@dataclass(frozen=True)
class PredicateSignature:
    """Declared type symbols and predicate shells."""

    types: frozenset[str]
    predicates: Mapping[str, Context]

    def __post_init__(self):
        for name, shell in self.predicates.items():
            if not shell.support_set <= self.types:
                raise ValidationError(
                    f"predicate {name} uses symbols outside the declared types"
                )

    def shell(self, name: str) -> Context:
        if name not in self.predicates:
            raise ValidationError(f"unknown predicate {name}")
        return self.predicates[name]


@dataclass(frozen=True)
class GraphicalTerm:
    diagram: WiringDiagram
    cells: tuple[Cell, ...]

    @property
    def outer(self) -> Context:
        return self.diagram.outer

    def is_flat(self) -> bool:
        return all(isinstance(c, str) for c in self.cells)


def mk_term(
    diagram: WiringDiagram,
    cells: tuple[Cell, ...] | list[Cell],
    signature: PredicateSignature | None = None,
) -> GraphicalTerm:
    """Validating constructor: one cell per inner shell, each nested term's
    outer shell equal to its slot, and, if ``signature`` is given, each
    predicate cell declared on its slot."""
    cells = tuple(cells)
    if len(cells) != diagram.num_slots:
        raise ValidationError(
            f"{diagram.num_slots} inner shells but {len(cells)} cells"
        )
    for shell, cell in zip(diagram.inner, cells):
        if isinstance(cell, GraphicalTerm) and cell.diagram.outer != shell:
            raise ValidationError(
                f"nested term with outer shell {cell.diagram.outer} placed "
                f"in a slot of shape {shell}"
            )
    if signature is not None:
        for shell, cell in zip(diagram.inner, cells):
            if isinstance(cell, str) and signature.shell(cell) != shell:
                raise ValidationError(
                    f"predicate {cell} is declared on {signature.shell(cell)} "
                    f"but placed in a slot of shape {shell}"
                )
    return GraphicalTerm(diagram, cells)


def bare_term(name: str, signature: PredicateSignature) -> GraphicalTerm:
    """The predicate itself, wrapped in an identity diagram."""
    return GraphicalTerm(identity_wd(signature.shell(name)), (name,))


def flatten(term: GraphicalTerm) -> GraphicalTerm:
    """Substitute every nested diagram into its slot, all at once.

    The dots of every level go into one list, each level at its own offset;
    one union-find glues each nested outer shell onto the slot it fills, and
    one ``normalize`` renumbers the dots.  The walk is pre-order with an
    explicit stack, so leaf cells come out left to right at any depth.
    """
    dot_types: list[str] = []
    support: list[str] = []
    glue: list[tuple[int, int]] = []
    leaves: list[tuple[str, Context, tuple[int, ...]]] = []
    # (cell, the shell it fills, that shell's wires as global dots)
    stack: list[tuple[Cell, Context | None, tuple[int, ...]]] = [(term, None, ())]
    while stack:
        cell, shell, row = stack.pop()
        if isinstance(cell, str):
            leaves.append((cell, shell, row))
            continue
        d = cell.diagram
        base = len(dot_types)
        dot_types += d.dot_types
        support += d.support
        glue += zip(row, (base + x for x in d.wires[-1]))
        shifted = [tuple(base + x for x in r) for r in d.wires[:-1]]
        stack += reversed(list(zip(cell.cells, d.inner, shifted)))
    uf = UnionFind(len(dot_types))
    for a, b in glue:
        uf.union(a, b)
    rows = [row for _, _, row in leaves] + [term.diagram.wires[-1]]
    diagram = WiringDiagram(
        tuple(shell for _, shell, _ in leaves),
        term.outer,
        tuple(dot_types),
        tuple(support),
        tuple(tuple(map(uf.find, row)) for row in rows),
    )
    return GraphicalTerm(normalize(diagram), tuple(c for c, _, _ in leaves))


def true_term(c: Context) -> GraphicalTerm:
    """The top element on ``c``: no cells, each outer port its own dot."""
    ports = tuple(range(c.arity))
    diagram = normalize(WiringDiagram((), c, c.port_types, (), (ports,)))
    return GraphicalTerm(diagram, ())


def meet_term(left: GraphicalTerm, right: GraphicalTerm) -> GraphicalTerm:
    """Conjunction of two terms over the same outer shell."""
    if left.outer != right.outer:
        raise ValidationError("meet needs terms over the same outer shell")
    c = left.outer
    ports = tuple(range(c.arity))
    diagram = normalize(
        WiringDiagram((c, c), c, c.port_types, (), (ports, ports, ports))
    )
    return GraphicalTerm(diagram, (left, right))


def _var(dot: int) -> str:
    return f"v{dot + 1}"


def to_formula(term: GraphicalTerm) -> str:
    """Render a flat term as an existential conjunction.

    One variable per dot, named ``v1, v2, ...`` in normal-form dot order.
    Dots touched by no outer port are existentially quantified with their
    type; every white-dot label contributes a conjunct asserting that its
    type is inhabited.
    """
    if not term.is_flat():
        raise ValidationError("to_formula expects a flat term")
    d = term.diagram
    free = set(d.wires[-1])
    bound = [i for i in range(d.num_dots) if i not in free]
    prefix = "".join(f"∃{_var(i)}:{d.dot_types[i]}. " for i in bound)
    atoms = [
        f"{cell}({','.join(_var(i) for i in row)})"
        for cell, row in zip(term.cells, d.wires)
    ]
    conjuncts = atoms if atoms else ["true"]
    for k, label in enumerate(d.white_labels()):
        conjuncts.append(f"∃w{k + 1}:{label}. true")
    return prefix + " ∧ ".join(conjuncts)


def outer_variables(term: GraphicalTerm) -> tuple[tuple[str, str], ...]:
    """The formula variable and type for each outer port, in port order."""
    d = term.diagram
    return tuple(
        (_var(i), d.dot_types[i]) for i in d.wires[-1]
    )


def drop_cell(term: GraphicalTerm, slot: int) -> GraphicalTerm:
    """Remove one cell and its shell; orphaned dot types stay in the support."""
    if not 0 <= slot < len(term.cells):
        raise ValidationError(f"no cell {slot}")
    d = term.diagram
    diagram = normalize(
        WiringDiagram(
            d.inner[:slot] + d.inner[slot + 1 :],
            d.outer,
            d.dot_types,
            d.support,
            d.wires[:slot] + d.wires[slot + 1 :],
        )
    )
    return GraphicalTerm(diagram, term.cells[:slot] + term.cells[slot + 1 :])
