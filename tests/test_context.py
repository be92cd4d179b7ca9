"""Tests for typed contexts and their morphisms.

Covers construction/validation, the categorical structure (identities,
associativity, terminal object), the mono / regular-epi characterisations
checked against their universal definitions on exhaustive small sweeps, and
the image factorisation plus pullbacks with an exhaustive universal-property
check.
"""

from __future__ import annotations

import itertools
from random import Random

import pytest
from hypothesis import given, strategies as st

from reglog.context import (
    braid_cm,
    compose_cm,
    diagonal_cm,
    enumerate_morphisms,
    identity_cm,
    image_factor_cm,
    is_mono,
    is_regular_epi,
    mk_context,
    mk_morphism,
    oplus,
    oplus_all,
    pullback_cm,
    terminal_cm,
    terminal_ctx,
)
from reglog.errors import CompositionError, ValidationError

from helpers import (
    all_contexts,
    pullback_up_sweep,
    rand_context,
    rand_morphism_from,
    rand_morphism_pair,
    rand_regular_epi_onto,
)


class TestConstruction:
    def test_ports_and_support(self):
        c = mk_context(("x", "y", "x"), ("z",))
        assert c.arity == 3
        assert c.port_types == ("x", "y", "x")
        assert c.support == ("x", "y", "z")

    def test_support_is_sorted_and_deduplicated(self):
        c = mk_context(("y", "x"), ("z", "z", "a"))
        assert c.support == ("a", "x", "y", "z")

    def test_extra_support_excludes_port_types(self):
        c = mk_context(("y", "z", "y"), ("w", "x"))
        assert c.extra_support() == ("w", "x")
        assert mk_context(("x",), ("x",)).extra_support() == ()

    def test_three_port_context_with_two_loose_symbols(self):
        # A three-port context typed (y, z, y) whose support also carries
        # w and x; the rendering shows ports first, then the loose symbols.
        c = mk_context(("y", "z", "y"), ("w", "x"))
        assert c.support == ("w", "x", "y", "z")
        assert str(c) == "(y, z, y | supp w, x)"

    def test_morphism_requires_typed_port_map(self):
        a = mk_context(("x", "y"))
        b = mk_context(("y",))
        with pytest.raises(ValidationError):
            mk_morphism(a, b, (0,))  # port 0 of a is x, not y
        f = mk_morphism(a, b, (1,))
        assert f.port_map == (1,)

    def test_morphism_requires_support_inclusion(self):
        a = mk_context(("x",))
        b = mk_context((), ("y",))
        with pytest.raises(ValidationError):
            mk_morphism(a, b, ())

    def test_morphism_rejects_out_of_range_indices(self):
        a = mk_context(("x",))
        b = mk_context(("x",))
        with pytest.raises(ValidationError):
            mk_morphism(a, b, (1,))

    def test_port_types_must_be_nonempty(self):
        with pytest.raises(ValidationError):
            mk_context(("",))

    def test_extra_support_symbols_must_be_nonempty(self):
        # An empty symbol would print as "(x | supp )", which the DSL cannot read.
        with pytest.raises(ValidationError, match="must be nonempty strings"):
            mk_context(("x",), ("",))

    def test_results_are_valid_by_construction(self):
        # These operations construct contexts and morphisms without the checks
        # of mk_context and mk_morphism; every result must still pass them.
        rng = Random(107)
        morphisms = []
        for _ in range(300):
            f = rand_morphism_pair(rng, max_arity=3)
            g = rand_morphism_from(rng, f.cod, max_arity=3)
            c = rand_context(rng, ("x", "y", "z"))
            epi, mono = image_factor_cm(f)
            morphisms += [
                identity_cm(f.dom),
                compose_cm(f, g),
                epi,
                mono,
                diagonal_cm(c),
                terminal_cm(c),
                braid_cm(f.dom, c),
            ]
            legs = list(enumerate_morphisms(rand_context(rng, max_arity=3), f.cod))
            morphisms += legs
            for h in legs[:2]:
                morphisms += pullback_cm(f, h)[1:]
        for m in morphisms:
            assert mk_morphism(m.dom, m.cod, m.port_map) == m
            for c in (m.dom, m.cod):
                assert mk_context(c.port_types, c.support) == c


class TestCategoryLaws:
    def test_identity_laws_random(self):
        rng = Random(101)
        for _ in range(300):
            f = rand_morphism_pair(rng)
            assert compose_cm(identity_cm(f.dom), f) == f
            assert compose_cm(f, identity_cm(f.cod)) == f

    def test_associativity_random(self):
        rng = Random(102)
        for _ in range(400):
            f = rand_morphism_pair(rng)
            g = rand_morphism_from(rng, f.cod)
            h = rand_morphism_from(rng, g.cod)
            assert compose_cm(compose_cm(f, g), h) == compose_cm(f, compose_cm(g, h))

    @given(st.integers(0, 10**9))
    def test_associativity_property(self, seed):
        rng = Random(seed)
        f = rand_morphism_pair(rng, max_arity=4)
        g = rand_morphism_from(rng, f.cod, max_arity=4)
        h = rand_morphism_from(rng, g.cod, max_arity=4)
        assert compose_cm(compose_cm(f, g), h) == compose_cm(f, compose_cm(g, h))

    def test_compose_requires_matching_boundary(self):
        f = mk_morphism(mk_context(("x",)), mk_context(("x",)), (0,))
        g = mk_morphism(mk_context(("y",)), mk_context(("y",)), (0,))
        with pytest.raises(CompositionError):
            compose_cm(f, g)

    def test_terminal_object_has_unique_map_from_everything(self):
        # The empty context is terminal: exactly one morphism into it.
        for c in all_contexts(("x", "y"), 2):
            homs = list(enumerate_morphisms(c, terminal_ctx()))
            assert homs == [terminal_cm(c)]

    def test_braid_is_an_involution(self):
        rng = Random(103)
        for _ in range(100):
            a = rand_context(rng)
            b = rand_context(rng)
            fwd = braid_cm(a, b)
            back = braid_cm(b, a)
            assert compose_cm(fwd, back) == identity_cm(oplus(a, b))
            assert compose_cm(back, fwd) == identity_cm(oplus(b, a))

    def test_monoidal_unit_and_associativity_are_strict(self):
        rng = Random(104)
        for _ in range(100):
            a, b, c = (rand_context(rng) for _ in range(3))
            assert oplus(a, terminal_ctx()) == a
            assert oplus(terminal_ctx(), a) == a
            assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))
            assert oplus_all([a, b, c]) == oplus(a, oplus(b, c))

    def test_canonical_maps_typecheck(self):
        a = mk_context(("x", "y"), ("z",))
        b = mk_context(("y",))
        delta = diagonal_cm(a)
        sigma = braid_cm(a, b)
        assert (delta.dom, delta.cod) == (a, oplus(a, a))
        assert terminal_cm(a).cod == terminal_ctx()
        assert (sigma.dom, sigma.cod) == (oplus(a, b), oplus(b, a))


class TestEnumerateMorphisms:
    def test_hom_set_sizes(self):
        x = mk_context(("x",))
        xx = mk_context(("x", "x"))
        # [DERIVED] A map (x, x) -> (x) picks which source port the single
        # target port reuses: 2 choices.  In the other direction both target
        # ports must reuse the single source port: 1 choice.
        assert len(list(enumerate_morphisms(xx, x))) == 2
        assert len(list(enumerate_morphisms(x, xx))) == 1
        # [DERIVED] (x, x) -> (x, x): each of the two ports independently
        # picks a source port.
        assert len(list(enumerate_morphisms(xx, xx))) == 4

    def test_hom_set_empty_when_support_grows(self):
        # No morphism may introduce support symbols absent from the source.
        src = mk_context(("x",))
        tgt = mk_context(("x",), ("y",))
        assert list(enumerate_morphisms(src, tgt)) == []

    def test_hom_set_empty_when_types_unavailable(self):
        assert list(enumerate_morphisms(mk_context(("x",)), mk_context(("y",)))) == []

    def test_enumeration_matches_direct_count(self):
        # [DERIVED] |hom(dom, cod)| is the number of typed port maps, as long
        # as the support condition holds.
        dom = mk_context(("x", "x", "y"))
        cod = mk_context(("x", "x", "y", "y"))
        homs = list(enumerate_morphisms(dom, cod))
        assert len(homs) == 2 * 2 * 1 * 1
        assert len(set(homs)) == len(homs)
        for f in homs:
            assert f.dom == dom and f.cod == cod


class TestMonoEpiCharacterisations:
    """The port-map characterisations agree with the universal definitions."""

    def test_mono_iff_left_cancellable(self):
        ctxs = all_contexts(("x",), 2)
        for dom in ctxs:
            for cod in ctxs:
                for f in enumerate_morphisms(dom, cod):
                    cancellable = True
                    for z in ctxs:
                        for g, h in itertools.combinations(
                            list(enumerate_morphisms(z, dom)), 2
                        ):
                            if compose_cm(g, f) == compose_cm(h, f):
                                cancellable = False
                    assert is_mono(f) == cancellable, f

    def test_support_dropping_is_epi_but_not_regular(self):
        # Dropping a loose support symbol is epi (right-cancellable) but not
        # regular, because the support shrinks.
        f = mk_morphism(mk_context(("x", "x"), ("y",)), mk_context(("x", "x")), (0, 1))
        assert not is_regular_epi(f)
        for z in all_contexts(("x", "y"), 2):
            for g, h in itertools.combinations(
                list(enumerate_morphisms(f.cod, z)), 2
            ):
                assert compose_cm(f, g) != compose_cm(f, h)

    def test_regular_epi_iff_coequalizer_of_kernel_pair(self):
        # Dual route for the port-map characterisation: a morphism is a
        # regular epi exactly when it is the coequalizer of its kernel pair.
        # The coequalizer property is checked literally, quantifying over
        # every test object and every fork.
        ctxs = all_contexts(("x", "y"), 2)
        checked = 0
        for a in ctxs:
            for b in ctxs:
                for f in enumerate_morphisms(a, b):
                    _, k1, k2 = pullback_cm(f, f)
                    assert compose_cm(k1, f) == compose_cm(k2, f)
                    is_coeq = True
                    for z in ctxs:
                        into_b = list(enumerate_morphisms(b, z))
                        for q in enumerate_morphisms(a, z):
                            if compose_cm(k1, q) != compose_cm(k2, q):
                                continue
                            mediators = [
                                u for u in into_b if compose_cm(f, u) == q
                            ]
                            if len(mediators) != 1:
                                is_coeq = False
                    assert is_coeq == is_regular_epi(f), f
                    checked += 1
        assert checked > 100


class TestImageFactorisation:
    def test_random_factorisations_recompose(self):
        # Criterion: at least 1000 random morphisms over up to 3 types with
        # arities up to 5 factor as regular epi followed by mono and the
        # factors recompose to the original morphism.
        rng = Random(105)
        for _ in range(1000):
            f = rand_morphism_pair(rng, types=("x", "y", "z"), max_arity=5)
            epi, mono = image_factor_cm(f)
            assert is_regular_epi(epi)
            assert is_mono(mono)
            assert compose_cm(epi, mono) == f

    def test_factorisation_of_extremes(self):
        f = mk_morphism(mk_context(("x", "y")), mk_context(("y", "x")), (1, 0))
        epi, mono = image_factor_cm(f)
        assert compose_cm(epi, mono) == f
        # An iso factors as (iso, identity-shaped mono) up to the image choice.
        assert is_mono(epi) and is_regular_epi(mono)
        g = terminal_cm(mk_context(("x",), ("y",)))
        epi, mono = image_factor_cm(g)
        assert epi.cod.arity == 0
        assert epi.cod.support == ("x", "y")
        assert compose_cm(epi, mono) == g

    def test_factorisation_is_orthogonal(self):
        # Uniqueness of image: given e;m == e';m' with e, e' regular epi and
        # m, m' mono, the images are isomorphic.  We verify on an exhaustive
        # sweep that the canonical factorisation's image is determined.
        ctxs = all_contexts(("x",), 2)
        for dom in ctxs:
            for cod in ctxs:
                for f in enumerate_morphisms(dom, cod):
                    epi, mono = image_factor_cm(f)
                    assert epi.dom == f.dom and mono.cod == f.cod
                    assert epi.cod == mono.dom
                    # Image arity equals the number of distinct ports hit.
                    assert epi.cod.arity == len(set(f.port_map))
                    assert epi.cod.support == dom.support


class TestPullbacks:
    def test_pullback_square_commutes_random(self):
        rng = Random(106)
        done = 0
        while done < 300:
            f = rand_morphism_pair(rng, max_arity=3)
            legs = list(enumerate_morphisms(rand_context(rng, max_arity=3), f.cod))
            if not legs:
                continue
            g = rng.choice(legs)
            apex, p1, p2 = pullback_cm(f, g)
            assert compose_cm(p1, f) == compose_cm(p2, g)
            assert p1.dom == apex and p2.dom == apex
            assert p1.cod == f.dom and p2.cod == g.dom
            done += 1

    def test_pullback_universal_property_exhaustive(self):
        # For every cospan over one type with arities up to 3: every
        # commuting cone factors through the pullback via exactly one
        # mediating morphism.  (The two-type sweep runs in the acceptance
        # suite.)
        cospans, cones = pullback_up_sweep(("x",), 3)
        assert cospans == 1569
        assert cones > 1000

    def test_pullback_of_identity_is_identity(self):
        rng = Random(107)
        for _ in range(100):
            f = rand_morphism_pair(rng, max_arity=3)
            apex, p1, p2 = pullback_cm(f, identity_cm(f.cod))
            # p1 is an iso onto f.dom: it has an inverse among the homs.
            assert compose_cm(p1, f) == compose_cm(p2, identity_cm(f.cod))
            inverses = [
                s
                for s in enumerate_morphisms(f.dom, apex)
                if compose_cm(s, p1) == identity_cm(f.dom)
                and compose_cm(p1, s) == identity_cm(apex)
            ]
            assert len(inverses) == 1

    def test_regular_epis_stable_under_pullback(self):
        # Pulling back a regular epi along anything yields a regular epi.
        rng = Random(108)
        for _ in range(300):
            f = rand_morphism_pair(rng, max_arity=4)
            g = rand_regular_epi_onto(rng, f.cod)
            assert is_regular_epi(g)
            apex, p1, p2 = pullback_cm(f, g)
            assert compose_cm(p1, f) == compose_cm(p2, g)
            assert is_regular_epi(p1), (f, g)

    def test_regular_epi_stability_exhaustive_small(self):
        ctxs = all_contexts(("x", "y"), 2)
        seen = 0
        for a in ctxs:
            for b in ctxs:
                for c in ctxs:
                    for f in enumerate_morphisms(a, c):
                        for g in enumerate_morphisms(b, c):
                            if not is_regular_epi(g):
                                continue
                            seen += 1
                            apex, p1, p2 = pullback_cm(f, g)
                            assert is_regular_epi(p1), (f, g)
        assert seen > 100
