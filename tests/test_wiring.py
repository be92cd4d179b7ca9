"""Tests for wiring diagrams: normal forms, the substitution operad, the
diagram ordering, and the generator laws (copy/merge/discard/spawn).

The centrepiece is a worked three-box diagram whose boundary assignments are
written out in full; its normal form, white labels, and invariance under dot
renumbering are all pinned down.  Substitution is checked against an
independent port-graph oracle that recomputes connectivity with a BFS.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, strategies as st

from reglog.context import compose_cm, identity_cm, mk_context, oplus, terminal_ctx
from reglog.errors import CompositionError, ValidationError
from reglog.wiring import (
    WiringDiagram,
    as_morphism,
    braid_wd,
    cograph_wd,
    compose_wd,
    delta_wd,
    empty_wd,
    epsilon_wd,
    eta_wd,
    graph_wd,
    identity_wd,
    leq_wd,
    mk_wiring,
    mu_wd,
    normalize,
    substitute,
    tensor,
    transpose_wd,
)

from helpers import (
    all_contexts,
    breaking_pair,
    operad_law_sweep,
    oracle_substitute,
    order_law_sweep,
    rand_context,
    rand_morphism_from,
    rand_morphism_pair,
    rand_wiring,
    worked_example,
)


class TestNormalForm:
    def test_worked_example_normalizes(self):
        w = worked_example()
        n = normalize(w)
        # First-occurrence scan meets the old dots in the order
        # 4, 2, 1, 6, 5, 3, 7; renumbering accordingly:
        assert n.dot_types == ("x", "y", "y", "x", "x", "z", "z")
        assert n.wires == (
            (0, 1, 2),
            (3, 0, 4),
            (2, 1, 3, 3),
            (2, 5, 5, 4, 3, 6),
        )
        assert n.support == ("v", "w", "x", "y", "z")
        assert n.inner == w.inner and n.outer == w.outer

    def test_worked_example_white_labels(self):
        w = normalize(worked_example())
        # v and w appear in the support but on no dot.
        assert w.white_labels() == ("v", "w")

    def test_normalize_is_idempotent_on_example(self):
        n = normalize(worked_example())
        assert normalize(n) == n

    def test_mk_wiring_agrees_with_normalize(self):
        w = worked_example()
        built = mk_wiring(w.inner, w.outer, w.dot_types, w.wires, ("v",))
        assert built == normalize(w)

    def test_dot_renumbering_is_invisible(self):
        w = worked_example()
        rng = Random(201)
        perms = [
            (6, 5, 4, 3, 2, 1, 0),
            (1, 2, 3, 4, 5, 6, 0),
        ]
        for _ in range(20):
            p = list(range(7))
            rng.shuffle(p)
            perms.append(tuple(p))
        for p in perms:
            types = [None] * 7
            for old, new in enumerate(p):
                types[new] = w.dot_types[old]
            scrambled = WiringDiagram(
                w.inner,
                w.outer,
                tuple(types),
                w.support,
                tuple(tuple(p[d] for d in row) for row in w.wires),
            )
            assert normalize(scrambled) == normalize(w)

    def test_normalize_idempotent_random(self):
        rng = Random(202)
        for _ in range(300):
            w = rand_wiring(rng, [rand_context(rng) for _ in range(2)])
            assert normalize(w) == w  # rand_wiring returns normal forms

    def test_unhit_dots_become_support(self):
        c = mk_context(("x",))
        w = mk_wiring((c,), c, ("x", "y"), ((0,), (0,)))
        assert w.num_dots == 1
        assert w.white_labels() == ("y",)

    def test_validation_rejects_bad_rows(self):
        c = mk_context(("x",))
        with pytest.raises(ValidationError):
            mk_wiring((c,), c, ("x",), ((0, 0), (0,)))
        with pytest.raises(ValidationError):
            mk_wiring((c,), c, ("y",), ((0,), (0,)))
        with pytest.raises(ValidationError):
            mk_wiring((c,), c, ("x",), ((3,), (0,)))
        with pytest.raises(ValidationError):
            mk_wiring((c,), c, ("x",), ((0,),))

    def test_validation_requires_complete_support(self):
        # mk_wiring completes the support from the shell supports, so no
        # diagram it returns lacks a shell's symbol.
        c = mk_context(("x",), ("z",))
        w = mk_wiring((c,), c, ("x",), ((0,), (0,)))
        assert w.support == ("x", "z")
        assert w.white_labels() == ("z",)

    def test_results_are_valid_by_construction(self):
        # These operations normalize records they build themselves, without
        # the checks of mk_wiring; every result must still pass them unchanged.
        rng = Random(204)
        diagrams = [empty_wd()]
        for _ in range(200):
            shells = [rand_context(rng) for _ in range(rng.randrange(3))]
            w = rand_wiring(rng, shells)
            left, right = rand_context(rng), rand_context(rng)
            arrow = rand_wiring(rng, [rand_context(rng)])
            f = rand_morphism_pair(rng, max_arity=3)
            diagrams += [
                tensor(w, arrow),
                as_morphism(w),
                transpose_wd(arrow),
                identity_wd(left),
                delta_wd(left),
                mu_wd(left),
                epsilon_wd(left),
                eta_wd(left),
                graph_wd(f),
                cograph_wd(f),
                braid_wd(left, right),
            ]
            if shells:
                slot = rng.randrange(len(shells))
                inside = rand_wiring(
                    rng, [rand_context(rng) for _ in range(2)], shells[slot]
                )
                diagrams.append(substitute(w, slot, inside))
        for d in diagrams:
            assert mk_wiring(d.inner, d.outer, d.dot_types, d.wires, d.support) == d


class TestSubstitution:
    def test_matches_port_graph_oracle(self):
        # The union-find substitution agrees with a BFS reconstruction of
        # the merged port graph on at least 500 random pairs.
        rng = Random(203)
        for _ in range(500):
            shells = tuple(rand_context(rng) for _ in range(rng.randint(1, 3)))
            w = rand_wiring(rng, shells)
            slot = rng.randrange(len(shells))
            inside = rand_wiring(
                rng,
                [rand_context(rng) for _ in range(rng.randrange(3))],
                outer=shells[slot],
            )
            assert substitute(w, slot, inside) == oracle_substitute(w, slot, inside)

    def test_operad_laws_random(self):
        assert operad_law_sweep(Random(204), 130) >= 1000

    @given(st.integers(0, 10**9))
    def test_operad_laws_property(self, seed):
        operad_law_sweep(Random(seed), 2)

    def test_substitution_requires_matching_shell(self):
        w = rand_wiring(Random(205), (mk_context(("x",)),))
        wrong = rand_wiring(Random(206), (), outer=mk_context(("y",)))
        with pytest.raises(CompositionError):
            substitute(w, 0, wrong)
        with pytest.raises(CompositionError):
            substitute(w, 3, wrong)

    def test_composition_is_nesting(self):
        # Composing relation-shaped diagrams is substitution into the single
        # slot; identities are neutral.
        rng = Random(207)
        for _ in range(200):
            a, b = rand_context(rng), rand_context(rng)
            f = rand_wiring(rng, (a,), outer=b)
            assert compose_wd(identity_wd(a), f) == f
            assert compose_wd(f, identity_wd(b)) == f
            g = rand_wiring(rng, (b,), outer=rand_context(rng))
            h = rand_wiring(rng, (g.outer,), outer=rand_context(rng))
            assert compose_wd(compose_wd(f, g), h) == compose_wd(f, compose_wd(g, h))

    def test_tensor_is_juxtaposition(self):
        rng = Random(208)
        for _ in range(100):
            w1 = rand_wiring(rng, (rand_context(rng),))
            w2 = rand_wiring(rng, (rand_context(rng), rand_context(rng)))
            t = tensor(w1, w2)
            assert t.inner == (*w1.inner, *w2.inner)
            assert t.outer == oplus(w1.outer, w2.outer)
            assert t.num_dots == w1.num_dots + w2.num_dots
            assert set(t.support) == set(w1.support) | set(w2.support)

    def test_as_morphism_fuses_slots(self):
        w = worked_example()
        m = as_morphism(w)
        assert m.num_slots == 1
        assert m.inner[0] == oplus(oplus(w.inner[0], w.inner[1]), w.inner[2])
        assert m.outer == w.outer
        # Fusing preserves the underlying connectivity.
        assert m.dot_types == normalize(w).dot_types


class TestOrdering:
    def test_order_laws_random(self):
        assert order_law_sweep(Random(209), 200) >= 1000

    def test_merging_dots_moves_down(self):
        # Outer (x, x) wired to two dots sits above the same boundary wired
        # to one dot: merging is a step down the order.
        out = mk_context(("x", "x"))
        upper = mk_wiring((), out, ("x", "x"), ((0, 1),))
        lower = mk_wiring((), out, ("x",), ((0, 0),))
        assert leq_wd(lower, upper)
        assert not leq_wd(upper, lower)
        assert leq_wd(lower, lower) and leq_wd(upper, upper)

    def test_support_growth_moves_down(self):
        # Adding a white label (more support, same wiring) also moves down.
        out = mk_context(("x",))
        upper = mk_wiring((), out, ("x",), ((0,),))
        lower = mk_wiring((), out, ("x",), ((0,),), extra_support=("y",))
        assert leq_wd(lower, upper)
        assert not leq_wd(upper, lower)

    def test_breaking_wires_moves_up(self):
        # The broken diagram (identity split through a discard/spawn pair)
        # sits above the identity.
        c = mk_context(("x", "y"))
        broken = compose_wd(epsilon_wd(c), eta_wd(c))
        assert leq_wd(identity_wd(c), broken)
        assert not leq_wd(broken, identity_wd(c))

    def test_leq_needs_identical_shells(self):
        w1 = mk_wiring((), mk_context(("x",)), ("x",), ((0,),))
        w2 = mk_wiring((), mk_context(("y",)), ("y",), ((0,),))
        with pytest.raises(CompositionError):
            leq_wd(w1, w2)

    def test_antisymmetry_random(self):
        rng = Random(210)
        for _ in range(200):
            hi = rand_wiring(rng, tuple(rand_context(rng) for _ in range(2)))
            lo, hi = breaking_pair(rng, hi)
            if leq_wd(lo, hi) and leq_wd(hi, lo):
                assert lo == hi


class TestGenerators:
    """The copy/merge/discard/spawn structure on every small context."""

    SMALL = all_contexts(("x", "y"), 3)

    def test_family_is_the_expected_size(self):
        assert len(self.SMALL) == 24

    def test_comonoid_laws_every_small_context(self):
        for c in self.SMALL:
            d = delta_wd(c)
            e = epsilon_wd(c)
            i = identity_wd(c)
            assert compose_wd(d, as_morphism(tensor(e, i))) == i
            assert compose_wd(d, as_morphism(tensor(i, e))) == i
            assert compose_wd(d, as_morphism(tensor(d, i))) == compose_wd(
                d, as_morphism(tensor(i, d))
            )
            assert compose_wd(d, braid_wd(c, c)) == d

    def test_monoid_laws_every_small_context(self):
        for c in self.SMALL:
            m = mu_wd(c)
            n = eta_wd(c)
            i = identity_wd(c)
            assert compose_wd(as_morphism(tensor(n, i)), m) == i
            assert compose_wd(as_morphism(tensor(i, n)), m) == i
            assert compose_wd(as_morphism(tensor(m, i)), m) == compose_wd(
                as_morphism(tensor(i, m)), m
            )
            assert compose_wd(braid_wd(c, c), m) == m

    def test_frobenius_and_special_every_small_context(self):
        for c in self.SMALL:
            d, m, i = delta_wd(c), mu_wd(c), identity_wd(c)
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

    def test_adjoint_inequalities_every_small_context(self):
        # The four unit/counit inequalities making copy left adjoint to merge
        # and spawn left adjoint to discard.
        for c in self.SMALL:
            d, m = delta_wd(c), mu_wd(c)
            e, n = epsilon_wd(c), eta_wd(c)
            i = identity_wd(c)
            assert leq_wd(i, compose_wd(d, m))
            assert leq_wd(compose_wd(m, d), identity_wd(oplus(c, c)))
            assert leq_wd(i, compose_wd(e, n))
            assert leq_wd(compose_wd(n, e), identity_wd(terminal_ctx()))
            if c.arity:
                # Strictness: merging across the two copies is not invertible.
                assert not leq_wd(identity_wd(oplus(c, c)), compose_wd(m, d))
                assert not leq_wd(compose_wd(e, n), i)

    def test_generators_match_literal_diagrams(self):
        # Every generator written out by hand, on a one-port context, on one
        # with a repeated port type and on one with extra support.
        x = mk_context(("x",))
        xyx = mk_context(("x", "y", "x"))
        ys = mk_context(("y",), ("z",))
        e = terminal_ctx()
        pairs = [
            (identity_wd(x), mk_wiring((x,), x, ("x",), ((0,), (0,)))),
            (delta_wd(x), mk_wiring((x,), oplus(x, x), ("x",), ((0,), (0, 0)))),
            (mu_wd(x), mk_wiring((oplus(x, x),), x, ("x",), ((0, 0), (0,)))),
            (epsilon_wd(x), mk_wiring((x,), e, ("x",), ((0,), ()))),
            (eta_wd(x), mk_wiring((e,), x, ("x",), ((), (0,)))),
            (
                identity_wd(xyx),
                mk_wiring((xyx,), xyx, ("x", "y", "x"), ((0, 1, 2), (0, 1, 2))),
            ),
            (
                delta_wd(xyx),
                mk_wiring(
                    (xyx,),
                    oplus(xyx, xyx),
                    ("x", "y", "x"),
                    ((0, 1, 2), (0, 1, 2, 0, 1, 2)),
                ),
            ),
            (
                mu_wd(xyx),
                mk_wiring(
                    (oplus(xyx, xyx),),
                    xyx,
                    ("x", "y", "x"),
                    ((0, 1, 2, 0, 1, 2), (0, 1, 2)),
                ),
            ),
            (epsilon_wd(xyx), mk_wiring((xyx,), e, ("x", "y", "x"), ((0, 1, 2), ()))),
            (eta_wd(xyx), mk_wiring((e,), xyx, ("x", "y", "x"), ((), (0, 1, 2)))),
            (identity_wd(ys), mk_wiring((ys,), ys, ("y",), ((0,), (0,)))),
            (delta_wd(ys), mk_wiring((ys,), oplus(ys, ys), ("y",), ((0,), (0, 0)))),
            (mu_wd(ys), mk_wiring((oplus(ys, ys),), ys, ("y",), ((0, 0), (0,)))),
            (epsilon_wd(ys), mk_wiring((ys,), e, ("y",), ((0,), ()))),
            (eta_wd(ys), mk_wiring((e,), ys, ("y",), ((), (0,)))),
            (
                braid_wd(x, xyx),
                mk_wiring(
                    (oplus(x, xyx),),
                    oplus(xyx, x),
                    ("x", "x", "y", "x"),
                    ((0, 1, 2, 3), (1, 2, 3, 0)),
                ),
            ),
            (
                braid_wd(ys, x),
                mk_wiring((oplus(ys, x),), oplus(x, ys), ("y", "x"), ((0, 1), (1, 0))),
            ),
        ]
        for generator, literal in pairs:
            assert generator == literal
        # the extra support stays on the diagram as a white label
        assert epsilon_wd(ys).support == eta_wd(ys).support == ("y", "z")
        assert epsilon_wd(ys).white_labels() == eta_wd(ys).white_labels() == ("z",)

    def test_generator_table_shapes(self):
        c = mk_context(("x", "y"))
        other = mk_context(("y",))
        ident = identity_wd(c)
        assert (ident.inner, ident.outer) == ((c,), c)
        assert delta_wd(c).outer == oplus(c, c)
        assert mu_wd(c).inner == (oplus(c, c),)
        assert epsilon_wd(c).outer == terminal_ctx()
        assert eta_wd(c).inner == (terminal_ctx(),)
        assert braid_wd(c, other).outer == oplus(other, c)

    def test_graph_is_functorial(self):
        rng = Random(211)
        for _ in range(200):
            f = rand_morphism_pair(rng, max_arity=4)
            g = rand_morphism_from(rng, f.cod, max_arity=4)
            assert graph_wd(compose_cm(f, g)) == compose_wd(graph_wd(f), graph_wd(g))
            assert cograph_wd(compose_cm(f, g)) == compose_wd(
                cograph_wd(g), cograph_wd(f)
            )
            assert graph_wd(identity_cm(f.dom)) == identity_wd(f.dom)

    def test_graph_adjoint_to_cograph(self):
        rng = Random(212)
        for _ in range(200):
            f = rand_morphism_pair(rng, max_arity=4)
            unit = compose_wd(graph_wd(f), cograph_wd(f))
            counit = compose_wd(cograph_wd(f), graph_wd(f))
            assert leq_wd(identity_wd(f.dom), unit)
            assert leq_wd(counit, identity_wd(f.cod))

    def test_transpose_is_an_involution(self):
        rng = Random(213)
        for _ in range(200):
            w = rand_wiring(rng, (rand_context(rng),))
            t = transpose_wd(w)
            assert t.inner == (w.outer,) and t.outer == w.inner[0]
            assert transpose_wd(t) == w

    def test_transpose_needs_exactly_one_inner_shell(self):
        a, b = mk_context(("x",)), mk_context(("y", "x"))
        for shells in [(), (a, b)]:
            w = rand_wiring(Random(214), shells, outer=oplus(a, b))
            with pytest.raises(CompositionError, match="exactly one inner shell"):
                transpose_wd(w)

    def test_braid_is_natural_and_involutive(self):
        rng = Random(215)
        for _ in range(100):
            a, b = rand_context(rng), rand_context(rng)
            assert compose_wd(braid_wd(a, b), braid_wd(b, a)) == identity_wd(
                oplus(a, b)
            )

    def test_empty_diagram_is_the_unit(self):
        assert empty_wd().num_slots == 0
        assert empty_wd().outer == terminal_ctx()
        assert empty_wd().num_dots == 0
