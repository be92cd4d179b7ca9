"""Wiring diagrams: relations between contexts presented by shared dots.

A wiring diagram has k inner shells (contexts), one outer shell, a list of
typed dots, and a boundary map sending every port of every shell to a dot of
the same type.  The diagram also carries a support set that contains the dot
types and every shell's support; symbols in the support that no dot carries
form the *white dot* label.

Diagrams are kept in a normal form: dots are numbered by the first port that
touches them, scanning inner shells in order and the outer shell last, and the
support is sorted.  Equality of normal forms decides equality of the diagrams
as relations, and the ordering ``leq_wd`` compares diagrams over the same
boundary.  Substitution plugs a diagram into one inner shell: it offsets the
inside dots, merges dots along the vanished boundary with a union-find, and
normalizes.  ``compose_wd`` is built on it; ``term.flatten`` glues a whole
term tree the same way in one pass.

The generators are graphs and cographs of context maps: identity, copy and
discard are the graphs (``dom -> cod``) of the identity, diagonal and terminal
maps; merge and spawn are the cographs (``cod -> dom``) of the last two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .context import (
    Context,
    ContextMorphism,
    _canon_support,
    braid_cm,
    diagonal_cm,
    identity_cm,
    oplus,
    oplus_all,
    terminal_cm,
    terminal_ctx,
)
from .errors import CompositionError, ValidationError
from .unionfind import UnionFind


@dataclass(frozen=True)
class WiringDiagram:
    """A diagram with shells ``(*inner, outer)``; ``wires[s][p]`` is the dot of
    port ``p`` of shell ``s``, with the outer shell stored last."""

    inner: tuple[Context, ...]
    outer: Context
    dot_types: tuple[str, ...]
    support: tuple[str, ...]
    wires: tuple[tuple[int, ...], ...]

    @property
    def num_slots(self) -> int:
        return len(self.inner)

    @property
    def num_dots(self) -> int:
        return len(self.dot_types)

    def white_labels(self) -> tuple[str, ...]:
        """Support symbols carried by no dot: the white-dot label."""
        used = set(self.dot_types)
        return tuple(s for s in self.support if s not in used)


def normalize(w: WiringDiagram) -> WiringDiagram:
    """Renumber dots by first occurrence in the port scan and complete the
    support to cover dots and shells; idempotent.

    A dot no port touches gets no number, and its type stays only in the
    support.  No checks: ``w`` may be any record whose wires index its dots.
    """
    order: dict[int, int] = {}
    for row in w.wires:
        for d in row:
            order.setdefault(d, len(order))
    support = _canon_support(
        w.dot_types
        + w.support
        + tuple(s for shell in (*w.inner, w.outer) for s in shell.support)
    )
    return WiringDiagram(
        w.inner,
        w.outer,
        tuple(w.dot_types[d] for d in order),
        support,
        tuple(tuple(order[d] for d in row) for row in w.wires),
    )


def mk_wiring(
    inner: Iterable[Context],
    outer: Context,
    dot_types: Iterable[str],
    wires: Iterable[Iterable[int]],
    extra_support: Iterable[str] = (),
) -> WiringDiagram:
    """Validating constructor: every port is wired to a known dot of its
    type.  The result is normalized, so dots hit by no port are absorbed
    into the support.  Errors name dots by their 1-based input position."""
    inner = tuple(inner)
    dot_types = tuple(dot_types)
    wires = tuple(tuple(row) for row in wires)
    shells = (*inner, outer)
    if len(wires) != len(shells):
        raise ValidationError(
            f"expected {len(shells)} wire rows (inner shells then outer), "
            f"got {len(wires)}"
        )
    for shell, row in zip(shells, wires):
        if len(row) != shell.arity:
            raise ValidationError(
                f"shell {shell} has arity {shell.arity} but {len(row)} wires"
            )
        for p, d in enumerate(row):
            if not 0 <= d < len(dot_types):
                raise ValidationError(f"wire to unknown dot index {d}")
            if dot_types[d] != shell.port_types[p]:
                raise ValidationError(
                    f"port {p + 1} of shell {shell} has type "
                    f"{shell.port_types[p]} but dot {d + 1} has type {dot_types[d]}"
                )
    return normalize(
        WiringDiagram(inner, outer, dot_types, tuple(extra_support), wires)
    )


def graph_wd(f: ContextMorphism) -> WiringDiagram:
    """The graph of a context morphism, as a diagram ``dom -> cod``."""
    ports = tuple(range(f.dom.arity))
    return normalize(
        WiringDiagram((f.dom,), f.cod, f.dom.port_types, (), (ports, f.port_map))
    )


def cograph_wd(f: ContextMorphism) -> WiringDiagram:
    """The cograph of a context morphism, as a diagram ``cod -> dom``."""
    ports = tuple(range(f.dom.arity))
    return normalize(
        WiringDiagram((f.cod,), f.dom, f.dom.port_types, (), (f.port_map, ports))
    )


def identity_wd(c: Context) -> WiringDiagram:
    """The identity ``c -> c``: the graph of the identity map."""
    return graph_wd(identity_cm(c))


def empty_wd() -> WiringDiagram:
    """The tensor unit: no shells but the empty outer one, no dots."""
    return normalize(WiringDiagram((), terminal_ctx(), (), (), ((),)))


def substitute(w: WiringDiagram, slot: int, inside: WiringDiagram) -> WiringDiagram:
    """Plug ``inside`` into inner shell ``slot`` of ``w`` (0-based).

    The outer shell of ``inside`` must equal the shell it replaces.  Dots
    joined through the vanished boundary are merged; merged classes that end
    up with no port are absorbed into the support.
    """
    if not 0 <= slot < w.num_slots:
        raise CompositionError(f"no inner shell {slot}")
    if inside.outer != w.inner[slot]:
        raise CompositionError(
            f"outer shell {inside.outer} of the plugged diagram does not match "
            f"inner shell {w.inner[slot]}"
        )
    n_w = w.num_dots
    uf = UnionFind(n_w + inside.num_dots)
    for a, b in zip(w.wires[slot], inside.wires[-1]):
        uf.union(a, n_w + b)
    rows = (
        *w.wires[:slot],
        *(tuple(n_w + d for d in row) for row in inside.wires[:-1]),
        *w.wires[slot + 1 :],
    )
    return normalize(
        WiringDiagram(
            w.inner[:slot] + inside.inner + w.inner[slot + 1 :],
            w.outer,
            w.dot_types + inside.dot_types,
            w.support + inside.support,
            tuple(tuple(map(uf.find, row)) for row in rows),
        )
    )


def tensor(left: WiringDiagram, right: WiringDiagram) -> WiringDiagram:
    """Juxtapose two diagrams: shells concatenate, dots stay disjoint."""
    shift = left.num_dots
    rows = (
        *left.wires[:-1],
        *(tuple(d + shift for d in row) for row in right.wires[:-1]),
        left.wires[-1] + tuple(d + shift for d in right.wires[-1]),
    )
    return normalize(
        WiringDiagram(
            left.inner + right.inner,
            oplus(left.outer, right.outer),
            left.dot_types + right.dot_types,
            left.support + right.support,
            rows,
        )
    )


def as_morphism(w: WiringDiagram) -> WiringDiagram:
    """Fuse all inner shells into their product, giving a one-shell diagram."""
    fused = oplus_all(w.inner)
    rows = (
        tuple(d for row in w.wires[:-1] for d in row),
        w.wires[-1],
    )
    return normalize(WiringDiagram((fused,), w.outer, w.dot_types, w.support, rows))


def compose_wd(first: WiringDiagram, second: WiringDiagram) -> WiringDiagram:
    """Composite ``first ; second`` of one-shell (morphism-shaped) diagrams."""
    if first.num_slots != 1 or second.num_slots != 1:
        raise CompositionError(
            "compose_wd expects diagrams with exactly one inner shell"
        )
    return substitute(second, 0, first)


def leq_wd(lower: WiringDiagram, upper: WiringDiagram) -> bool:
    """Is ``lower <= upper``?  Both diagrams must share all shells.

    True when every pair of ports joined in ``upper`` is joined in ``lower``
    (the upper connectivity refines the lower one) and the upper support is
    contained in the lower support.
    """
    if lower.inner != upper.inner or lower.outer != upper.outer:
        raise CompositionError("leq_wd compares diagrams over identical shells")
    forced: dict[int, int] = {}
    for row_low, row_up in zip(lower.wires, upper.wires):
        for d_low, d_up in zip(row_low, row_up):
            if forced.setdefault(d_up, d_low) != d_low:
                return False
    return set(upper.support) <= set(lower.support)


def delta_wd(c: Context) -> WiringDiagram:
    """Copy ``c -> c (+) c``: the graph of the diagonal."""
    return graph_wd(diagonal_cm(c))


def mu_wd(c: Context) -> WiringDiagram:
    """Merge ``c (+) c -> c``: the cograph of the diagonal."""
    return cograph_wd(diagonal_cm(c))


def epsilon_wd(c: Context) -> WiringDiagram:
    """Discard ``c -> ()``: the graph of the terminal map; types stay in support."""
    return graph_wd(terminal_cm(c))


def eta_wd(c: Context) -> WiringDiagram:
    """Spawn ``() -> c``: the cograph of the terminal map; a fresh dot per port."""
    return cograph_wd(terminal_cm(c))


def braid_wd(left: Context, right: Context) -> WiringDiagram:
    return graph_wd(braid_cm(left, right))


def transpose_wd(w: WiringDiagram) -> WiringDiagram:
    """Swap the inner and outer shells of a one-shell diagram."""
    if w.num_slots != 1:
        raise CompositionError(
            "transpose_wd expects a diagram with exactly one inner shell"
        )
    return normalize(
        WiringDiagram(
            (w.outer,), w.inner[0], w.dot_types, w.support, (w.wires[1], w.wires[0])
        )
    )
