"""Typed contexts and their morphisms.

A context is a finite list of typed ports together with a *support*: a set of
type symbols asserted to be inhabited.  The support always contains the types
of the ports; it may contain extra symbols that no port mentions.

Morphisms act contravariantly on ports: a morphism from ``dom`` to ``cod``
carries a function sending each port of ``cod`` to a port of ``dom`` of the
same type, and may only shrink the support (``cod`` support inside ``dom``
support).  With product given by list concatenation this category has all
finite limits, and both pullbacks and image factorizations are computed here
by direct combinatorics on the port maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CompositionError, ValidationError
from .unionfind import UnionFind


def _canon_support(symbols: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(set(symbols)))


@dataclass(frozen=True)
class Context:
    """A finite list of typed ports plus a sorted support set covering them."""

    port_types: tuple[str, ...]
    support: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.port_types)

    @property
    def support_set(self) -> frozenset[str]:
        return frozenset(self.support)

    def extra_support(self) -> tuple[str, ...]:
        """Support symbols carried by no port."""
        used = set(self.port_types)
        return tuple(s for s in self.support if s not in used)

    def __str__(self):
        parts = ", ".join(self.port_types)
        extra = self.extra_support()
        if extra:
            supp = f"| supp {', '.join(extra)}"
            return f"({parts} {supp})" if parts else f"({supp})"
        return f"({parts})"


def mk_context(
    port_types: Iterable[str], extra_support: Iterable[str] = ()
) -> Context:
    """Build a context from a port typing and optional extra support symbols.

    Every symbol must be nonempty; the support is built sorted and covering
    the ports, so nothing else about it needs checking.
    """
    port_types = tuple(port_types)
    extra_support = tuple(extra_support)
    if any(not t for t in (*port_types, *extra_support)):
        raise ValidationError("type symbols must be nonempty strings")
    return Context(port_types, _canon_support((*port_types, *extra_support)))


def terminal_ctx() -> Context:
    """The empty context: no ports, no support."""
    return Context((), ())


def oplus(left: Context, right: Context) -> Context:
    """Concatenate port lists and union supports.

    Concatenation makes the product strictly associative and strictly unital
    with :func:`terminal_ctx`, so nested products never need re-bracketing.
    """
    return Context(
        left.port_types + right.port_types,
        _canon_support(left.support + right.support),
    )


def oplus_all(contexts: Iterable[Context]) -> Context:
    result = terminal_ctx()
    for c in contexts:
        result = oplus(result, c)
    return result


@dataclass(frozen=True)
class ContextMorphism:
    """A morphism ``dom -> cod`` given by its contravariant port map.

    ``port_map[j]`` names the port of ``dom`` that port ``j`` of ``cod`` is
    sent to.  Ports are indexed from 0.
    """

    dom: Context
    cod: Context
    port_map: tuple[int, ...]


def mk_morphism(dom: Context, cod: Context, port_map: Iterable[int]) -> ContextMorphism:
    """Validating constructor: the port map must be typed and in range, and
    the codomain support must lie inside the domain support."""
    port_map = tuple(port_map)
    if len(port_map) != cod.arity:
        raise ValidationError(
            f"port map has {len(port_map)} entries for a codomain of "
            f"arity {cod.arity}"
        )
    for j, i in enumerate(port_map):
        if not 0 <= i < dom.arity:
            raise ValidationError(f"port map entry {i} out of range at {j}")
        if dom.port_types[i] != cod.port_types[j]:
            raise ValidationError(
                f"type mismatch at codomain port {j}: "
                f"{cod.port_types[j]} vs {dom.port_types[i]}"
            )
    if not cod.support_set <= dom.support_set:
        raise ValidationError("codomain support must be contained in domain support")
    return ContextMorphism(dom, cod, port_map)


def identity_cm(c: Context) -> ContextMorphism:
    return ContextMorphism(c, c, tuple(range(c.arity)))


def compose_cm(f: ContextMorphism, g: ContextMorphism) -> ContextMorphism:
    """Diagrammatic composite ``f ; g`` (first f, then g)."""
    if f.cod != g.dom:
        raise CompositionError("middle contexts differ")
    return ContextMorphism(
        f.dom, g.cod, tuple(f.port_map[i] for i in g.port_map)
    )


def is_mono(f: ContextMorphism) -> bool:
    """Monomorphisms are exactly the morphisms with surjective port map."""
    return set(f.port_map) == set(range(f.dom.arity))


def is_regular_epi(f: ContextMorphism) -> bool:
    """Regular epis have an injective port map and preserve the support."""
    return (
        len(set(f.port_map)) == len(f.port_map)
        and f.dom.support == f.cod.support
    )


def image_factor_cm(f: ContextMorphism) -> tuple[ContextMorphism, ContextMorphism]:
    """Factor ``f`` as a regular epi followed by a mono.

    The image context keeps the ports of ``dom`` that the port map hits, in
    their original order, and keeps the whole domain support.
    """
    hit = sorted(set(f.port_map))
    image = Context(
        tuple(f.dom.port_types[i] for i in hit),
        f.dom.support,
    )
    epi = ContextMorphism(f.dom, image, tuple(hit))
    rank = {i: k for k, i in enumerate(hit)}
    mono = ContextMorphism(image, f.cod, tuple(rank[i] for i in f.port_map))
    return epi, mono


def pullback_cm(
    f: ContextMorphism, g: ContextMorphism
) -> tuple[Context, ContextMorphism, ContextMorphism]:
    """Pullback of the cospan ``f: A -> C <- B :g``.

    Returns ``(apex, p1, p2)`` with ``p1: apex -> A`` and ``p2: apex -> B``.
    On port maps this is a pushout of finite sets: ports of A and B are merged
    whenever a common port of C points at both.  Classes are numbered by their
    smallest member, with all A ports before all B ports.
    """
    if f.cod != g.cod:
        raise CompositionError("cospan feet must share their codomain")
    n1, n2 = f.dom.arity, g.dom.arity
    uf = UnionFind(n1 + n2)
    for j in range(f.cod.arity):
        uf.union(f.port_map[j], n1 + g.port_map[j])
    roots = [uf.find(i) for i in range(n1 + n2)]
    index_of = {root: k for k, root in enumerate(sorted(set(roots)))}
    types = f.dom.port_types + g.dom.port_types
    apex = Context(
        tuple(types[root] for root in index_of),
        _canon_support(f.dom.support + g.dom.support),
    )
    ports = tuple(index_of[root] for root in roots)
    p1 = ContextMorphism(apex, f.dom, ports[:n1])
    p2 = ContextMorphism(apex, g.dom, ports[n1:])
    return apex, p1, p2


def diagonal_cm(c: Context) -> ContextMorphism:
    """The diagonal ``c -> c (+) c``: both copies read back the same port."""
    return ContextMorphism(c, oplus(c, c), tuple(range(c.arity)) * 2)


def terminal_cm(c: Context) -> ContextMorphism:
    return ContextMorphism(c, terminal_ctx(), ())


def braid_cm(left: Context, right: Context) -> ContextMorphism:
    """The symmetry ``left (+) right -> right (+) left``."""
    n1, n2 = left.arity, right.arity
    port_map = tuple(range(n1, n1 + n2)) + tuple(range(n1))
    return ContextMorphism(oplus(left, right), oplus(right, left), port_map)


def enumerate_morphisms(dom: Context, cod: Context) -> Iterator[ContextMorphism]:
    """All morphisms ``dom -> cod``, in lexicographic port-map order."""
    if not cod.support_set <= dom.support_set:
        return
    slots = []
    for t in cod.port_types:
        positions = [i for i, s in enumerate(dom.port_types) if s == t]
        if not positions:
            return
        slots.append(positions)
    for port_map in itertools.product(*slots):
        yield ContextMorphism(dom, cod, port_map)
