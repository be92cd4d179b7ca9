"""Shared generators and independent oracles for the test suite.

Everything here is deliberately written without reusing the engine's internal
machinery: the substitution oracle walks the port graph with a BFS instead of
a union-find, the flattening oracle applies it one slot at a time, the
tokenizer oracle matches one anchored token at a time, the formula
interpreter evaluates the printed first-order syntax, and the containment
oracle enumerates small candidate countermodels (quotients of the left term's
atom set) instead of trusting the frozen instance.  Keep these independent;
the tests compare engine against oracle.
"""

from __future__ import annotations

import itertools
import os
import re
import subprocess
import sys
from pathlib import Path
from random import Random
from typing import Iterable, Iterator

from reglog.context import Context, mk_context
from reglog.errors import DslError
from reglog.model import (
    FinRelation,
    ModelInstance,
    eval_term,
    mk_model,
    mk_relation,
)
from reglog.naive import eval_term_naive
from reglog.term import (
    GraphicalTerm,
    PredicateSignature,
    flatten,
    outer_variables,
    to_formula,
)
from reglog.wiring import WiringDiagram, mk_wiring

TYPES = ("x", "y")

SHELLS = {
    "R": mk_context(("x", "x")),
    "S": mk_context(("x", "y")),
    "U": mk_context(("x",)),
    "V": mk_context(("y",)),
    "Q": mk_context(("x", "x"), ("y",)),
    "P": mk_context((), ("x",)),
}

SIGNATURE = PredicateSignature(frozenset(TYPES), SHELLS)

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------


def all_contexts(types, max_arity) -> list[Context]:
    """Every context over ``types`` with arity and support bounded as stated."""
    out = []
    for n in range(max_arity + 1):
        for ports in itertools.product(types, repeat=n):
            rest = [t for t in types if t not in ports]
            for r in range(len(rest) + 1):
                for extra in itertools.combinations(rest, r):
                    out.append(mk_context(ports, extra))
    return out


def pullback_up_sweep(types, max_arity) -> tuple[int, int]:
    """Exhaustively verify the pullback universal property, by counting.

    For every cospan f: a -> c, g: b -> c over ``types`` with arities up to
    ``max_arity`` the square commutes, so each m: z -> apex gives a cone
    (m;p1, m;p2).  For every z these are distinct and as many as all cones,
    sum over v of |{q1 : q1;f = v}| * |{q2 : q2;g = v}|: each cone has one
    mediator.  Returns the numbers of cospans and cones."""
    from reglog.context import compose_cm, enumerate_morphisms, pullback_cm

    ctxs = all_contexts(types, max_arity)
    homs: dict[tuple[Context, Context], list] = {}
    fibres: dict = {}  # f -> for each z: v -> |{q: z -> dom f, q;f = v}|

    def hom(dom, cod):
        if (dom, cod) not in homs:
            homs[dom, cod] = list(enumerate_morphisms(dom, cod))
        return homs[dom, cod]

    # u: P -> Q then v: Q -> R has port map i |-> u[v[i]], and morphisms
    # with fixed boundaries are equal exactly when their port maps are.
    def comp(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(u[j] for j in v)

    def fibre_sizes(f) -> list[dict]:
        if f not in fibres:
            fibres[f] = [{} for _ in ctxs]
            for z, sizes in zip(ctxs, fibres[f]):
                for q in hom(z, f.dom):
                    v = comp(q.port_map, f.port_map)
                    sizes[v] = sizes.get(v, 0) + 1
        return fibres[f]

    cospans = cones = 0
    for c in ctxs:
        for a in ctxs:
            for b in ctxs:
                for f in hom(a, c):
                    for g in hom(b, c):
                        cospans += 1
                        apex, p1, p2 = pullback_cm(f, g)
                        assert compose_cm(p1, f) == compose_cm(p2, g)
                        p1m, p2m = p1.port_map, p2.port_map
                        for z, by_f, by_g in zip(ctxs, fibre_sizes(f), fibre_sizes(g)):
                            ms = [m.port_map for m in hom(z, apex)]
                            keys = {(comp(m, p1m), comp(m, p2m)) for m in ms}
                            count = sum(n * by_g.get(v, 0) for v, n in by_f.items())
                            assert len(keys) == len(ms) == count, (f, g, z)
                            cones += count
    return cospans, cones


def rand_context(rng: Random, types=TYPES, max_arity=3) -> Context:
    arity = rng.randrange(max_arity + 1)
    ports = tuple(rng.choice(types) for _ in range(arity))
    extra = tuple(t for t in types if t not in ports and rng.random() < 0.3)
    return mk_context(ports, extra)


def rand_morphism_from(rng: Random, dom: Context, max_arity=5):
    """A random morphism out of ``dom``, with codomain arity up to ``max_arity``."""
    from reglog.context import mk_morphism

    if dom.arity == 0:
        cod_ports: tuple[str, ...] = ()
        port_map: tuple[int, ...] = ()
    else:
        cod_arity = rng.randrange(max_arity + 1)
        port_map = tuple(rng.randrange(dom.arity) for _ in range(cod_arity))
        cod_ports = tuple(dom.port_types[i] for i in port_map)
    pool = [s for s in dom.support if s not in cod_ports]
    extra = tuple(s for s in pool if rng.random() < 0.4)
    cod = mk_context(cod_ports, extra)
    return mk_morphism(dom, cod, port_map)


def rand_morphism_pair(rng: Random, types=("x", "y", "z"), max_arity=5):
    """A random morphism with a random domain, arities up to ``max_arity``."""
    return rand_morphism_from(rng, rand_context(rng, types, max_arity), max_arity)


def rand_regular_epi_onto(rng: Random, cod: Context):
    """A random regular epi into ``cod``: injective port map, equal support.

    The domain interleaves one port per codomain port with a few padding
    ports whose types are drawn from the existing support, so nothing new
    appears.
    """
    from reglog.context import mk_morphism

    pads = (
        [rng.choice(cod.support) for _ in range(rng.randrange(3))]
        if cod.support
        else []
    )
    labels = [("port", i) for i in range(cod.arity)]
    labels += [("pad", j) for j in range(len(pads))]
    rng.shuffle(labels)
    ports = tuple(
        cod.port_types[i] if kind == "port" else pads[i] for kind, i in labels
    )
    port_map = tuple(labels.index(("port", i)) for i in range(cod.arity))
    dom = mk_context(ports, cod.extra_support())
    return mk_morphism(dom, cod, port_map)


def _wire_shell(rng: Random, shell: Context, dots: list[str]) -> tuple[int, ...]:
    row = []
    for t in shell.port_types:
        choices = [i for i, dt in enumerate(dots) if dt == t]
        row.append(rng.choice(choices))
    return tuple(row)


def rand_wiring(
    rng: Random,
    inner: Iterable[Context],
    outer: Context | None = None,
    max_extra_dots: int = 2,
) -> WiringDiagram:
    """A random diagram over the given inner shells (and outer, if given)."""
    inner = tuple(inner)
    if outer is None:
        outer = rand_context(rng, TYPES, 3)
    needed = {t for c in (*inner, outer) for t in c.port_types}
    dots = sorted(needed)
    for _ in range(rng.randrange(max_extra_dots + 1)):
        dots.append(rng.choice(TYPES))
    rng.shuffle(dots)
    if not dots and rng.random() < 0.3:
        dots = [rng.choice(TYPES)]
    rows = [_wire_shell(rng, c, dots) for c in (*inner, outer)]
    extra = tuple(t for t in TYPES if rng.random() < 0.15)
    return mk_wiring(inner, outer, dots, rows, extra)


def operad_law_sweep(rng: Random, iterations: int) -> int:
    """Random instances of the substitution and tensor laws.

    Each iteration draws fresh diagrams and asserts, by normal-form equality:
    substituting into disjoint slots in either order, substitute-then-
    substitute versus substitute-into-the-inside (nesting associativity),
    both unit laws, tensor functoriality on both sides, and the monoid laws
    for tensor.  Returns the number of law instances checked.
    """
    from reglog.wiring import empty_wd, identity_wd, substitute, tensor

    def subterm(outer: Context) -> WiringDiagram:
        shells = tuple(rand_context(rng) for _ in range(rng.randrange(3)))
        return rand_wiring(rng, shells, outer=outer)

    checked = 0
    for _ in range(iterations):
        shells = tuple(rand_context(rng) for _ in range(3))
        w = rand_wiring(rng, shells)
        a = subterm(shells[0])
        b = subterm(shells[2])

        # disjoint slots commute (with the index shift on the second route)
        route1 = substitute(substitute(w, 2, b), 0, a)
        route2 = substitute(substitute(w, 0, a), 1 + a.num_slots, b)
        assert route1 == route2
        checked += 1

        # nesting associativity
        u = rand_wiring(rng, (rand_context(rng), rand_context(rng)), outer=shells[1])
        v = subterm(u.inner[1])
        assert substitute(w, 1, substitute(u, 1, v)) == substitute(
            substitute(w, 1, u), 2, v
        )
        checked += 1

        # unit laws
        assert substitute(w, 1, identity_wd(shells[1])) == w
        assert substitute(identity_wd(w.outer), 0, w) == w
        checked += 2

        # tensor is functorial for substitution on either side
        w2 = rand_wiring(rng, (rand_context(rng),))
        assert tensor(substitute(w, 0, a), w2) == substitute(tensor(w, w2), 0, a)
        assert tensor(w2, substitute(w, 0, a)) == substitute(
            tensor(w2, w), w2.num_slots, a
        )
        checked += 2

        # tensor monoid laws
        assert tensor(tensor(w, w2), a) == tensor(w, tensor(w2, a))
        assert tensor(w, empty_wd()) == w
        assert tensor(empty_wd(), w) == w
        checked += 3
    return checked


def order_law_sweep(rng: Random, iterations: int) -> int:
    """Random instances of the ordering laws for diagrams.

    Checks reflexivity, antisymmetry, transitivity over generated merge
    chains, and that substitution and tensor are monotone in every argument
    (2-functoriality).  Returns the number of law instances checked.
    """
    from reglog.wiring import leq_wd, substitute, tensor

    checked = 0
    for _ in range(iterations):
        shells = tuple(rand_context(rng) for _ in range(2))
        w_hi = rand_wiring(rng, shells)
        w_lo, w_hi = breaking_pair(rng, w_hi)
        assert leq_wd(w_lo, w_hi)
        assert leq_wd(w_lo, w_lo) and leq_wd(w_hi, w_hi)
        checked += 2

        if w_lo != w_hi:
            assert not leq_wd(w_hi, w_lo)
            checked += 1

        w_lower, _ = breaking_pair(rng, w_lo)
        assert leq_wd(w_lower, w_hi)
        checked += 1

        a_hi = rand_wiring(rng, (rand_context(rng),), outer=shells[0])
        a_lo, a_hi = breaking_pair(rng, a_hi)
        assert leq_wd(substitute(w_lo, 0, a_lo), substitute(w_hi, 0, a_hi))
        assert leq_wd(tensor(w_lo, a_lo), tensor(w_hi, a_hi))
        checked += 2
    return checked


def generator_law_sweep(contexts: Iterable[Context]) -> int:
    """The spider laws as diagram-level identities, for every given context.

    Per context: comonoid (counit both sides, coassociativity,
    cocommutativity), the dual monoid laws, the Frobenius equations with
    specialness, and the four adjoint inequalities (copy left adjoint to
    merge, spawn left adjoint to discard) with strictness on inhabited
    contexts.  Returns the number of identities checked.
    """
    from reglog.context import oplus, terminal_ctx
    from reglog.wiring import (
        as_morphism,
        braid_wd,
        compose_wd,
        delta_wd,
        epsilon_wd,
        eta_wd,
        identity_wd,
        leq_wd,
        mu_wd,
        tensor,
    )

    checked = 0
    for c in contexts:
        d, m = delta_wd(c), mu_wd(c)
        e, n = epsilon_wd(c), eta_wd(c)
        i = identity_wd(c)
        ii = identity_wd(oplus(c, c))

        assert compose_wd(d, as_morphism(tensor(e, i))) == i
        assert compose_wd(d, as_morphism(tensor(i, e))) == i
        assert compose_wd(d, as_morphism(tensor(d, i))) == compose_wd(
            d, as_morphism(tensor(i, d))
        )
        assert compose_wd(d, braid_wd(c, c)) == d

        assert compose_wd(as_morphism(tensor(n, i)), m) == i
        assert compose_wd(as_morphism(tensor(i, n)), m) == i
        assert compose_wd(as_morphism(tensor(m, i)), m) == compose_wd(
            as_morphism(tensor(i, m)), m
        )
        assert compose_wd(braid_wd(c, c), m) == m

        middle = compose_wd(m, d)
        assert (
            compose_wd(as_morphism(tensor(d, i)), as_morphism(tensor(i, m)))
            == middle
        )
        assert (
            compose_wd(as_morphism(tensor(i, d)), as_morphism(tensor(m, i)))
            == middle
        )
        assert compose_wd(d, m) == i

        assert leq_wd(i, compose_wd(d, m))
        assert leq_wd(compose_wd(m, d), ii)
        assert leq_wd(i, compose_wd(e, n))
        assert leq_wd(compose_wd(n, e), identity_wd(terminal_ctx()))
        checked += 15
        if c.arity:
            assert not leq_wd(ii, compose_wd(m, d))
            assert not leq_wd(compose_wd(e, n), i)
            checked += 2
    return checked


def worked_example() -> WiringDiagram:
    """A three-box diagram with seven dots, written with scrambled dot
    numbers exactly as assigned below (1-based in the comments, 0-based in
    the code).

    Inner shells:  (x, y, y)   (x, x, x | supp w, y)   (y, y, x, x)
    Outer shell:   (y, z, z, x, x, z | supp w)
    Dots 1..7:     y  y  z  x  x  x  z, support adds v and w.
    """
    g1 = mk_context(("x", "y", "y"))
    g2 = mk_context(("x", "x", "x"), ("w", "y"))
    g3 = mk_context(("y", "y", "x", "x"))
    out = mk_context(("y", "z", "z", "x", "x", "z"), ("w",))
    return WiringDiagram(
        inner=(g1, g2, g3),
        outer=out,
        dot_types=("y", "y", "z", "x", "x", "x", "z"),
        support=("v", "w", "x", "y", "z"),
        wires=(
            (3, 1, 0),          # box 1: ports 1,2,3 -> dots 4,2,1
            (5, 3, 4),          # box 2: ports 1,2,3 -> dots 6,4,5
            (0, 1, 5, 5),       # box 3: ports 1,2,3,4 -> dots 1,2,6,6
            (0, 2, 2, 4, 5, 6), # outer: ports 1..6 -> dots 1,3,3,5,6,7
        ),
    )


def rand_flat_term(
    rng: Random, max_cells=3, outer: Context | None = None
) -> GraphicalTerm:
    names = [rng.choice(sorted(SHELLS)) for _ in range(rng.randrange(max_cells + 1))]
    diagram = rand_wiring(rng, [SHELLS[n] for n in names], outer)
    return GraphicalTerm(diagram, tuple(names))


def rand_term(
    rng: Random, depth=2, max_cells=3, outer: Context | None = None
) -> GraphicalTerm:
    if depth == 0 or rng.random() < 0.4:
        return rand_flat_term(rng, max_cells, outer)
    sub = rand_term(rng, depth - 1, max_cells)
    names = [rng.choice(sorted(SHELLS)) for _ in range(rng.randrange(max_cells))]
    shells = [sub.outer] + [SHELLS[n] for n in names]
    diagram = rand_wiring(rng, shells, outer)
    return GraphicalTerm(diagram, (sub, *names))


def permute_slots(term: GraphicalTerm, perm: Iterable[int]) -> GraphicalTerm:
    """The same term with its top-level cells listed in the order ``perm``
    (slot ``k`` of the result is slot ``perm[k]`` of ``term``); dots are
    renumbered by first occurrence, as in any normalized diagram."""
    perm = tuple(perm)
    d = term.diagram
    diagram = mk_wiring(
        [d.inner[i] for i in perm],
        d.outer,
        d.dot_types,
        [*(d.wires[i] for i in perm), d.wires[-1]],
        d.support,
    )
    return GraphicalTerm(diagram, tuple(term.cells[i] for i in perm))


def rand_model(rng: Random, max_atoms=3, density=0.5) -> ModelInstance:
    domains = {
        t: tuple(f"{t}{i}" for i in range(rng.randrange(max_atoms + 1)))
        for t in TYPES
    }
    relations = {}
    for name, shell in SHELLS.items():
        if any(not domains.get(s) for s in shell.support):
            relations[name] = mk_relation(shell, ())
            continue
        pools = [domains[t] for t in shell.port_types]
        rows = [
            row
            for row in itertools.product(*pools)
            if rng.random() < density
        ]
        relations[name] = mk_relation(shell, rows)
    return mk_model(domains, relations)


def grow_model(rng: Random, model: ModelInstance) -> ModelInstance:
    """Add random rows to every relation of ``model`` (same domains)."""
    from reglog.model import true_rel

    relations = {}
    for name, rel in model.relations.items():
        extra = [
            row
            for row in true_rel(rel.context, model).tuples
            if rng.random() < 0.25
        ]
        relations[name] = mk_relation(rel.context, set(rel.tuples) | set(extra))
    return mk_model(model.domains, relations)


def semantics_law_sweep(rng: Random, pairs: int, max_dots: int = 4) -> int:
    """Random (term, model) pairs put through every semantic law at once.

    Per pair: the engine, the exhaustive evaluator, and the formula
    interpreter agree; flattening (wholesale or one slot at a time) preserves
    the value; growing the model or dropping a cell grows the value; merging
    dots shrinks it; the no-cell term evaluates to the full relation; and a
    two-term meet evaluates to the intersection.  Returns the number of pairs
    checked.
    """
    from reglog.model import entails_in, meet_rel, true_rel
    from reglog.term import drop_cell, flatten, meet_term, true_term
    from reglog.wiring import substitute

    checked = 0
    while checked < pairs:
        term = rand_term(rng, depth=2)
        flat = flatten(term)
        if flat.diagram.num_dots > max_dots:
            continue
        model = rand_model(rng, max_atoms=3)

        value = eval_term(term, model)
        assert value == eval_term(flat, model)
        assert value == eval_term_naive(term, model)
        assert value == eval_formula(flat, model)

        nested_slots = [
            i for i, c in enumerate(term.cells) if isinstance(c, GraphicalTerm)
        ]
        if nested_slots:
            slot = nested_slots[0]
            sub = flatten(term.cells[slot])
            once = GraphicalTerm(
                substitute(term.diagram, slot, sub.diagram),
                term.cells[:slot] + sub.cells + term.cells[slot + 1 :],
            )
            assert eval_term(once, model) == value

        bigger = grow_model(rng, model)
        assert value.tuples <= eval_term(flat, bigger).tuples

        lower_d, upper_d = breaking_pair(rng, flat.diagram)
        lower = GraphicalTerm(lower_d, flat.cells)
        assert eval_term(lower, model).tuples <= eval_term(
            GraphicalTerm(upper_d, flat.cells), model
        ).tuples

        if flat.cells:
            slot = rng.randrange(len(flat.cells))
            assert entails_in(model, flat, drop_cell(flat, slot))

        top = true_term(flat.outer)
        assert eval_term(top, model) == true_rel(flat.outer, model)

        other = rand_flat_term(rng, outer=flat.outer)
        assert eval_term(meet_term(flat, other), model) == meet_rel(
            value, eval_term(other, model)
        )
        checked += 1
    return checked


def galois_law_sweep(rng: Random, iterations: int) -> int:
    """Random checks of the image/preimage adjunction along context maps.

    Per iteration: the adjunction itself, Frobenius reciprocity, the
    image-preimage-image identity, and the base-change square built from a
    pullback of contexts.  Returns the number of iterations.
    """
    from reglog.context import enumerate_morphisms, identity_cm, pullback_cm
    from reglog.model import meet_rel, pullback_pred, pushforward, true_rel

    def sub_relation(context):
        return mk_relation(
            context,
            [r for r in true_rel(context, model).tuples if rng.random() < 0.5],
        )

    done = 0
    while done < iterations:
        model = rand_model(rng)
        f = rand_morphism_pair(rng, types=TYPES, max_arity=3)
        rel = sub_relation(f.dom)
        target = sub_relation(f.cod)

        image_in_target = pushforward(f, rel).tuples <= target.tuples
        below_preimage = rel.tuples <= pullback_pred(f, target, model).tuples
        assert image_in_target == below_preimage

        assert pushforward(
            f, meet_rel(rel, pullback_pred(f, target, model))
        ) == meet_rel(pushforward(f, rel), target)

        assert pushforward(
            f, pullback_pred(f, pushforward(f, rel), model)
        ) == pushforward(f, rel)

        legs = list(enumerate_morphisms(rand_context(rng, max_arity=2), f.cod))
        if done % 7 == 0:
            legs.append(identity_cm(f.cod))
        for g in legs[:3]:
            apex, p1, p2 = pullback_cm(f, g)
            assert pullback_pred(g, pushforward(f, rel), model) == pushforward(
                p2, pullback_pred(p1, rel, model)
            )
        done += 1
    return done


# ---------------------------------------------------------------------------
# independent evaluator: interpret the printed formula
# ---------------------------------------------------------------------------

_EXISTS = re.compile(r"^∃([vw][0-9]+):([A-Za-z_][A-Za-z0-9_]*)\. ")
_ATOM = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\(([^()]*)\)$")


def eval_formula(term: GraphicalTerm, model: ModelInstance) -> FinRelation:
    """Evaluate a flat term by interpreting its printed formula.

    This is a third route to the semantics: it consumes only the output of
    ``to_formula`` and ``outer_variables``.
    """
    text = to_formula(term)
    bound: list[tuple[str, str]] = []
    while True:
        m = _EXISTS.match(text)
        if not m:
            break
        bound.append((m.group(1), m.group(2)))
        text = text[m.end():]
    atoms: list[tuple[str, tuple[str, ...]]] = []
    inhabited: list[str] = []
    for part in text.split(" ∧ "):
        if part == "true":
            continue
        m = _EXISTS.match(part)
        if m:
            if part[m.end():] != "true":
                raise AssertionError(f"unexpected conjunct {part!r}")
            inhabited.append(m.group(2))
            continue
        m = _ATOM.match(part)
        if not m:
            raise AssertionError(f"unparsable conjunct {part!r}")
        args = tuple(a for a in m.group(2).split(",") if a)
        atoms.append((m.group(1), args))

    outer = outer_variables(term)
    if any(not model.domain(t) for t in inhabited):
        return FinRelation(term.outer, frozenset())
    free: dict[str, str] = {}
    for var, t in outer:
        free.setdefault(var, t)
    free_vars = sorted(free)

    def matrix_holds(env: dict[str, str]) -> bool:
        return all(
            tuple(env[a] for a in args) in model.relation(name).tuples
            for name, args in atoms
        )

    rows = set()
    for combo in itertools.product(
        *(model.domain(free[v]) for v in free_vars)
    ):
        env = dict(zip(free_vars, combo))
        sat = False
        for bcombo in itertools.product(
            *(model.domain(t) for _, t in bound)
        ):
            env.update(zip((v for v, _ in bound), bcombo))
            if matrix_holds(env):
                sat = True
                break
        if not bound:
            sat = matrix_holds(env)
        if sat:
            rows.add(tuple(env[v] for v, _ in outer))
    return FinRelation(term.outer, frozenset(rows))


# ---------------------------------------------------------------------------
# independent substitution oracle: BFS on the port graph, one slot at a time
# ---------------------------------------------------------------------------


def oracle_substitute(
    w: WiringDiagram, slot: int, inside: WiringDiagram
) -> WiringDiagram:
    """Recompute substitution by merging dots along the vanished boundary
    with a breadth-first search, then renumbering by first occurrence."""
    links: dict[tuple[str, int], set[tuple[str, int]]] = {}
    for p in range(w.inner[slot].arity):
        a = ("w", w.wires[slot][p])
        b = ("i", inside.wires[-1][p])
        links.setdefault(a, set()).add(b)
        links.setdefault(b, set()).add(a)

    comp: dict[tuple[str, int], frozenset] = {}

    def component(node):
        if node in comp:
            return comp[node]
        seen = {node}
        queue = [node]
        while queue:
            cur = queue.pop()
            for nxt in links.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        result = frozenset(seen)
        for n in seen:
            comp[n] = result
        return result

    raw_rows: list[list[frozenset]] = []
    for s in range(w.num_slots):
        if s == slot:
            for i in range(inside.num_slots):
                raw_rows.append(
                    [component(("i", d)) for d in inside.wires[i]]
                )
        else:
            raw_rows.append([component(("w", d)) for d in w.wires[s]])
    raw_rows.append([component(("w", d)) for d in w.wires[-1]])

    def node_type(node):
        tag, d = node
        return w.dot_types[d] if tag == "w" else inside.dot_types[d]

    order: dict[frozenset, int] = {}
    for row in raw_rows:
        for c in row:
            if c not in order:
                order[c] = len(order)
    dot_types = [""] * len(order)
    for c, idx in order.items():
        dot_types[idx] = node_type(next(iter(c)))
    support = tuple(sorted(set(w.support) | set(inside.support)))
    return WiringDiagram(
        w.inner[:slot] + inside.inner + w.inner[slot + 1 :],
        w.outer,
        tuple(dot_types),
        support,
        tuple(tuple(order[c] for c in row) for row in raw_rows),
    )


def oracle_flatten(term: GraphicalTerm) -> GraphicalTerm:
    """Flatten slot by slot: flatten each nested cell recursively, then plug
    it into its slot with :func:`oracle_substitute`.  Recursion depth grows
    with the nesting, so keep the inputs shallow."""
    diagram = term.diagram
    cells: list[str] = []
    for cell in term.cells:
        if isinstance(cell, str):
            cells.append(cell)
        else:
            sub = oracle_flatten(cell)
            diagram = oracle_substitute(diagram, len(cells), sub.diagram)
            cells.extend(sub.cells)
    return GraphicalTerm(diagram, tuple(cells))


# ---------------------------------------------------------------------------
# independent tokenizer oracle: one anchored match at a time
# ---------------------------------------------------------------------------

_ORACLE_TOKEN = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<string>"[^"\n]*")
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>[0-9]+)
  | (?P<arrow>->)
  | (?P<punct>[(){},;:=.|])
    """,
    re.VERBOSE,
)


def oracle_tokenize(text: str) -> list[tuple[str, str, int]]:
    """The DSL's tokens as ``(kind, value, line)`` triples, ending with ``eof``.

    The tokenizer ``reglog.dsl`` used before it became one ``finditer``
    pass: match at the current position, and raise at the first position
    where no alternative matches.
    """
    tokens = []
    line = 1
    pos = 0
    while pos < len(text):
        m = _ORACLE_TOKEN.match(text, pos)
        if not m:
            raise DslError(f"unexpected character {text[pos]!r}", line)
        pos = m.end()
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            continue
        if kind in ("ws", "comment"):
            continue
        value = m.group()
        if kind == "string":
            value = value[1:-1]
        tokens.append((kind, value, line))
    tokens.append(("eof", "", line))
    return tokens


# ---------------------------------------------------------------------------
# independent internal-relation oracle: sets of concatenated rows
# ---------------------------------------------------------------------------
#
# The set-of-rows algorithms that reglog.syncat computed before it encoded a
# relation as one bitmask per domain row.  Each reads only the endpoint
# predicates and the ``rows`` view of its arguments, and returns row sets.


def _split(rel) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    n1 = rel.dom.context.arity
    return [(row[:n1], row[n1:]) for row in rel.rows]


def oracle_compose(first, second) -> frozenset:
    """Join on the middle block, then project it away."""
    n1 = first.dom.context.arity
    n2 = second.dom.context.arity
    by_middle: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for row in second.rows:
        by_middle.setdefault(row[:n2], []).append(row[n2:])
    return frozenset(
        row[:n1] + z for row in first.rows for z in by_middle.get(row[n1:], ())
    )


def oracle_transpose(rel) -> frozenset:
    return frozenset(y + x for x, y in _split(rel))


def oracle_leq(lower, upper) -> bool:
    return lower.rows <= upper.rows


def oracle_meet(a, b) -> frozenset:
    return a.rows & b.rows


def oracle_tensor(a, b) -> frozenset:
    return frozenset(
        xa + xb + ya + yb for xa, ya in _split(a) for xb, yb in _split(b)
    )


def oracle_braid(left, right) -> frozenset:
    return frozenset(a + b + b + a for a in left.tuples for b in right.tuples)


def oracle_delta(o) -> frozenset:
    """The rows of the copy map; the merge map has the same concatenated rows."""
    return frozenset(row + row + row for row in o.tuples)


def oracle_bang(o) -> frozenset:
    """The rows of the discard map; the spawn map has the same concatenated rows."""
    return o.tuples


def oracle_classify(rel) -> tuple[bool, bool]:
    """Totality and determinism read off the rows."""
    images: dict[tuple[str, ...], set[tuple[str, ...]]] = {}
    for x, y in _split(rel):
        images.setdefault(x, set()).add(y)
    total = rel.dom.tuples <= images.keys()
    return total, all(len(ys) == 1 for ys in images.values())


def oracle_pair(u1, u2) -> frozenset:
    """The rows of the tupling, before they are checked against a target."""
    by_x: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for x, y2 in _split(u2):
        by_x.setdefault(x, []).append(y2)
    return frozenset(
        x + y1 + y2 for x, y1 in _split(u1) for y2 in by_x.get(x, ())
    )


def oracle_pullback(t1, t2) -> tuple[frozenset, frozenset, frozenset]:
    """The apex predicate and the rows of both projections."""
    by_y: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for x2, y in _split(t2):
        by_y.setdefault(y, []).append(x2)
    apex = frozenset(x1 + x2 for x1, y in _split(t1) for x2 in by_y.get(y, ()))
    n1 = t1.dom.context.arity
    return (
        apex,
        frozenset(row + row[:n1] for row in apex),
        frozenset(row + row[n1:] for row in apex),
    )


def oracle_equalizer(t1, t2) -> tuple[frozenset, frozenset]:
    """The equalizer predicate and the rows of its inclusion."""
    n1 = t1.dom.context.arity
    agree = frozenset(row[:n1] for row in t1.rows & t2.rows)
    return agree, frozenset(x + x for x in agree)


def oracle_image(rel) -> tuple[frozenset, frozenset, frozenset]:
    """The image predicate and the rows of the epi and of the mono."""
    image = frozenset(y for _, y in _split(rel))
    return image, rel.rows, frozenset(y + y for y in image)


def oracle_relations(dom, cod) -> list[frozenset]:
    """Every relation, smallest first, then by sorted concatenated rows."""
    space = sorted(x + y for x in dom.tuples for y in cod.tuples)
    return [
        frozenset(rows)
        for k in range(len(space) + 1)
        for rows in itertools.combinations(space, k)
    ]


def oracle_functions(dom, cod) -> list[frozenset]:
    """Every graph of a row map, in the order of the sequence of images."""
    xs = sorted(dom.tuples)
    ys = sorted(cod.tuples)
    return [
        frozenset(x + y for x, y in zip(xs, choice))
        for choice in itertools.product(ys, repeat=len(xs))
    ]


# ---------------------------------------------------------------------------
# independent containment oracle: quotient countermodels
# ---------------------------------------------------------------------------


def set_partitions(items: list) -> Iterator[list[list]]:
    """All partitions of a list into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
        yield [[first]] + partition


def _term_shells(*terms: GraphicalTerm) -> dict[str, Context]:
    shells: dict[str, Context] = {}
    for t in terms:
        for cell, shell in zip(t.cells, t.diagram.inner):
            assert shells.setdefault(cell, shell) == shell
    return shells


def quotient_models(left: GraphicalTerm, shells: dict[str, Context]):
    """Every quotient of the left term's atom set, as (model, frozen tuple).

    The atoms are the term's dots plus one witness per white label; every
    candidate countermodel of that size arises as one of these quotients.
    """
    d = left.diagram
    atoms_by_type: dict[str, list] = {}
    for i, t in enumerate(d.dot_types):
        atoms_by_type.setdefault(t, []).append(("d", i))
    for label in d.white_labels():
        atoms_by_type.setdefault(label, []).append(("w", label))
    types = sorted(atoms_by_type)
    partition_lists = [list(set_partitions(atoms_by_type[t])) for t in types]
    for combo in itertools.product(*partition_lists):
        cls: dict[tuple, str] = {}
        domains: dict[str, list[str]] = {}
        for t, partition in zip(types, combo):
            names = []
            for k, block in enumerate(partition):
                name = f"{t}_{k}"
                names.append(name)
                for atom in block:
                    cls[atom] = name
            domains[t] = names
        rows: dict[str, set] = {name: set() for name in shells}
        for cell, row in zip(left.cells, d.wires):
            rows[cell].add(tuple(cls[("d", i)] for i in row))
        model = mk_model(domains, shells, rows)
        frozen = tuple(cls[("d", i)] for i in d.wires[-1])
        yield model, frozen


def contains_oracle(
    left: GraphicalTerm, right: GraphicalTerm, use_naive: bool = False
) -> bool:
    """Containment by brute force over quotient countermodels."""
    left, right = flatten(left), flatten(right)
    assert left.outer == right.outer
    shells = _term_shells(left, right)
    evaluate = eval_term_naive if use_naive else eval_term
    for model, frozen in quotient_models(left, shells):
        assert frozen in evaluate(left, model).tuples
        if frozen not in evaluate(right, model).tuples:
            return False
    return True


def all_models(
    shells: dict[str, Context], domains: dict[str, tuple[str, ...]]
) -> Iterator[ModelInstance]:
    """Every model on fixed domains: all row-set choices per predicate."""
    names = sorted(shells)
    spaces = []
    for name in names:
        shell = shells[name]
        if any(not domains.get(s) for s in shell.support):
            spaces.append([frozenset()])
            continue
        pool = list(
            itertools.product(*(domains[t] for t in shell.port_types))
        )
        spaces.append(
            [
                frozenset(rows)
                for k in range(len(pool) + 1)
                for rows in itertools.combinations(pool, k)
            ]
        )
    for combo in itertools.product(*spaces):
        yield mk_model(
            domains, shells, dict(zip(names, combo))
        )


def contains_bruteforce(
    left: GraphicalTerm, right: GraphicalTerm, domains: dict[str, tuple[str, ...]]
) -> bool:
    """Full enumeration of every model on the given domains (slow; keep tiny)."""
    left, right = flatten(left), flatten(right)
    shells = _term_shells(left, right)
    for model in all_models(shells, domains):
        lt = eval_term_naive(left, model)
        rt = eval_term_naive(right, model)
        if not lt.tuples <= rt.tuples:
            return False
    return True


def rand_containment_pair(
    rng: Random, max_dots: int = 4, max_cells: int = 3
) -> tuple[GraphicalTerm, GraphicalTerm]:
    """A random pair of terms over one outer shell, sized for the oracle.

    A third of the pairs are derived positives (a cell dropped, or dots
    merged on the left side) so the sweep sees both verdicts.
    """
    from reglog.term import drop_cell

    while True:
        left = rand_term(rng, depth=1, max_cells=max_cells)
        flat = flatten(left)
        if flat.diagram.num_dots > max_dots or len(flat.cells) > max_cells:
            continue
        style = rng.random()
        if style < 0.18 and flat.cells:
            right = drop_cell(flat, rng.randrange(len(flat.cells)))
        elif style < 0.35:
            lower_d, _ = breaking_pair(rng, flat.diagram)
            left, right = GraphicalTerm(lower_d, flat.cells), flat
        else:
            right = rand_term(rng, depth=1, max_cells=max_cells, outer=left.outer)
            rf = flatten(right)
            if rf.diagram.num_dots > max_dots or len(rf.cells) > max_cells:
                continue
        return left, right


def containment_sweep(
    rng: Random, pairs: int, use_naive: bool = False, max_dots: int = 4
) -> tuple[int, int]:
    """Engine containment versus the quotient-model oracle.

    Returns ``(pairs checked, positive verdicts)``; asserts agreement on
    every pair.
    """
    from reglog.contain import contains

    checked = positives = 0
    while checked < pairs:
        left, right = rand_containment_pair(rng, max_dots=max_dots)
        verdict = contains(left, right)
        assert verdict == contains_oracle(left, right, use_naive=use_naive), (
            left,
            right,
        )
        positives += verdict
        checked += 1
    return checked, positives


# ---------------------------------------------------------------------------
# ordered-pair generator for the diagram 2-cells
# ---------------------------------------------------------------------------


def breaking_pair(rng: Random, upper: WiringDiagram):
    """A random 2-cell ``lower <= upper``: merge dots and grow the support."""
    merges = {}
    for _ in range(rng.randrange(1, 3)):
        by_type: dict[str, list[int]] = {}
        for i, t in enumerate(upper.dot_types):
            by_type.setdefault(t, []).append(i)
        candidates = [v for v in by_type.values() if len(v) >= 2]
        if not candidates:
            break
        group = rng.choice(candidates)
        a, b = rng.sample(group, 2)
        merges[max(a, b)] = min(a, b)

    def target(d):
        while d in merges:
            d = merges[d]
        return d

    rows = [tuple(target(d) for d in row) for row in upper.wires]
    extra = set(upper.support)
    if rng.random() < 0.4:
        extra.add(rng.choice(TYPES))
    lower = mk_wiring(
        upper.inner, upper.outer, upper.dot_types, rows, tuple(extra)
    )
    return lower, upper


# ---------------------------------------------------------------------------
# the declared console script, run from the source tree
# ---------------------------------------------------------------------------


def run_console_script(*args, **kwargs) -> subprocess.CompletedProcess:
    """Run the ``reglog`` console script in a separate process, without an install.

    The entry point is read from ``[project.scripts]`` in pyproject.toml, and
    the child runs the body of the wrapper that pip generates for it.  ``src``
    goes first on the child's PYTHONPATH, as an absolute path, so it runs the
    tree under test whatever the working directory and whatever copy of
    reglog is installed.  ``kwargs`` go to ``subprocess.run``.
    """
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the one flat table by hand
        table = re.search(
            r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S
        )
        scripts = dict(
            re.findall(r'^"?([\w.-]+)"?\s*=\s*"([^"]*)"', table[1], re.M)
        )
    else:
        scripts = tomllib.loads(text)["project"]["scripts"]
    target = scripts["reglog"]
    assert target == "reglog.cli:main", target
    module, attr = target.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return subprocess.run(
        [sys.executable, "-c", wrapper, *map(str, args)], env=src_env(), **kwargs
    )


def src_env() -> dict[str, str]:
    """The current environment with the absolute ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env
