"""Tests for general containment between graphical terms.

The decision procedure (freeze the left term into its canonical instance,
evaluate the right term over it) is checked against two independent oracles:
exhaustive search over quotient countermodels, and full enumeration of every
model on tiny fixed domains.  Soundness is additionally sampled on random
models.
"""

from __future__ import annotations

import itertools
from random import Random

import pytest
from hypothesis import given, strategies as st

from reglog import contain
from reglog.contain import (
    CanonicalInstance,
    canonical_instance,
    contains,
    equivalent,
    minimize_core,
)
from reglog.context import mk_context
from reglog.dsl import load_workspace
from reglog.errors import ValidationError
from reglog.model import entails_in, eval_term, mk_model
from reglog.term import (
    GraphicalTerm,
    bare_term,
    drop_cell,
    flatten,
    meet_term,
    true_term,
)
from reglog.wiring import mk_wiring

from helpers import (
    ROOT,
    SHELLS,
    SIGNATURE,
    breaking_pair,
    contains_bruteforce,
    containment_sweep,
    contains_oracle,
    permute_slots,
    rand_containment_pair,
    rand_flat_term,
    rand_model,
    rand_term,
)


def two_step() -> GraphicalTerm:
    """R(v1, v2) ∧ S(v2, v3) with v1, v3 exposed."""
    w = mk_wiring(
        (SHELLS["R"], SHELLS["S"]),
        mk_context(("x", "y")),
        ("x", "x", "y"),
        ((0, 1), (1, 2), (0, 2)),
    )
    return GraphicalTerm(w, ("R", "S"))


def u_at_two_shells() -> GraphicalTerm:
    """U(v1) ∧ U(v1, v1): one predicate filling slots of two shells."""
    w = mk_wiring(
        (SHELLS["U"], SHELLS["R"]), mk_context(()), ("x",), ((0,), (0, 0), ())
    )
    return GraphicalTerm(w, ("U", "U"))


class TestCanonicalInstance:
    def test_structure_of_the_frozen_instance(self):
        ci = canonical_instance(two_step())
        assert ci.frozen == ("d1", "d3")
        assert ci.instance.domain("x") == ("d1", "d2")
        assert ci.instance.domain("y") == ("d3",)
        assert ci.instance.relation("R").rows() == [("d1", "d2")]
        assert ci.instance.relation("S").rows() == [("d2", "d3")]

    def test_white_labels_get_witness_atoms(self):
        t = true_term(mk_context(("x",), ("z",)))
        ci = canonical_instance(t)
        assert ci.instance.domain("z") == ("w_z",)
        assert ci.instance.domain("x") == ("d1",)
        assert ci.frozen == ("d1",)

    def test_repeated_cells_accumulate_rows(self):
        w = mk_wiring(
            (SHELLS["U"], SHELLS["U"]),
            mk_context(("x", "x")),
            ("x", "x"),
            ((0,), (1,), (0, 1)),
        )
        ci = canonical_instance(GraphicalTerm(w, ("U", "U")))
        assert ci.instance.relation("U").rows() == [("d1",), ("d2",)]

    def test_one_shell_per_predicate(self):
        with pytest.raises(ValidationError):
            canonical_instance(u_at_two_shells())
        with pytest.raises(ValidationError):
            canonical_instance(two_step(), {"R": SHELLS["S"]})

    def test_extra_predicates_become_empty(self):
        ci = canonical_instance(two_step(), {"Q": SHELLS["Q"]})
        assert ci.instance.relation("Q").rows() == []

    def test_instance_is_valid_by_construction(self):
        # canonical_instance builds its relations and model without the
        # checks of mk_model; every instance must still pass them.
        rng = Random(504)
        for _ in range(150):
            m = canonical_instance(flatten(rand_term(rng)), SHELLS).instance
            assert mk_model(m.domains, m.relations) == m

    def test_frozen_instance_satisfies_its_own_term(self):
        rng = Random(501)
        for _ in range(150):
            t = flatten(rand_term(rng))
            ci = canonical_instance(t)
            assert ci.frozen in eval_term(t, ci.instance).tuples

    def test_requires_flat_terms(self):
        nested = meet_term(bare_term("R", SIGNATURE), bare_term("R", SIGNATURE))
        with pytest.raises(ValidationError):
            canonical_instance(nested)
        assert isinstance(
            canonical_instance(flatten(nested)), CanonicalInstance
        )


class TestContains:
    def test_agrees_with_quotient_oracle(self):
        checked, positives = containment_sweep(Random(502), 120)
        assert checked == 120
        assert 0 < positives < checked

    def test_agrees_with_quotient_oracle_on_naive_route(self):
        # Same oracle, but the countermodels are evaluated by the exhaustive
        # assignment enumerator, keeping the engine out of the loop entirely.
        checked, _ = containment_sweep(Random(503), 40, use_naive=True, max_dots=3)
        assert checked == 40

    def test_slot_order_does_not_change_the_verdict(self):
        # Both sides flattened and their cells listed in random orders, against
        # the oracle on the written pair, evaluated by the exhaustive
        # assignment enumerator.
        rng = Random(505)
        positives = 0
        for _ in range(300):
            left, right = rand_containment_pair(rng, max_cells=4)
            holds = contains_oracle(left, right, use_naive=True)
            positives += holds
            for _ in range(3):
                shuffled = [
                    permute_slots(t, rng.sample(range(len(t.cells)), len(t.cells)))
                    for t in (flatten(left), flatten(right))
                ]
                assert contains(*shuffled) == holds, (left, right)
        assert 0 < positives < 300

    @given(st.integers(0, 10**9))
    def test_agreement_property(self, seed):
        containment_sweep(Random(seed), 2)

    def test_never_disagrees_with_full_model_enumeration(self):
        # Full enumeration over fixed two-atom domains is a necessary filter:
        # the engine may only claim containment if the inclusion holds in
        # every one of those models, and must deny it whenever some such
        # model is a countermodel.
        rng = Random(504)
        domains = {"x": ("0", "1"), "y": ("2", "3")}
        checked = 0
        while checked < 30:
            left, right = rand_containment_pair(rng, max_dots=3, max_cells=2)
            lf, rf = flatten(left), flatten(right)
            cost = 1
            for cell, shell in set(
                zip(lf.cells + rf.cells, lf.diagram.inner + rf.diagram.inner)
            ):
                cost *= 2 ** len(
                    list(itertools.product(*(domains[t] for t in shell.port_types)))
                )
            if cost > 4096:
                continue
            verdict = contains(left, right)
            exhaustive = contains_bruteforce(left, right, domains)
            if verdict:
                assert exhaustive
            if not exhaustive:
                assert not verdict
            checked += 1

    def test_sound_on_random_models(self):
        rng = Random(505)
        positives = 0
        while positives < 40:
            left, right = rand_containment_pair(rng)
            if not contains(left, right):
                continue
            positives += 1
            for _ in range(25):
                assert entails_in(rand_model(rng), left, right)

    def test_reflexive_and_transitive(self):
        rng = Random(506)
        for _ in range(60):
            t = rand_term(rng)
            assert contains(t, t)
            flat = flatten(t)
            lower_d, _ = breaking_pair(rng, flat.diagram)
            lower = GraphicalTerm(lower_d, flat.cells)
            upper = (
                drop_cell(flat, rng.randrange(len(flat.cells)))
                if flat.cells
                else flat
            )
            assert contains(lower, flat) and contains(flat, upper)
            assert contains(lower, upper)

    def test_true_is_the_top_element(self):
        rng = Random(507)
        for _ in range(60):
            t = rand_term(rng)
            assert contains(t, true_term(t.outer))

    def test_meet_is_a_lower_bound(self):
        rng = Random(508)
        for _ in range(60):
            a = rand_flat_term(rng)
            b = rand_flat_term(rng, outer=a.outer)
            m = meet_term(a, b)
            assert contains(m, a)
            assert contains(m, b)
            assert contains(a, m) == contains(a, b)

    def test_support_requirements_matter(self):
        # Same outer shell, but the right diagram carries a white y label:
        # it additionally demands an inhabited y, which the left does not
        # provide, so containment fails in that direction only.
        outer = mk_context(("x",))
        plain = true_term(outer)
        with_y = GraphicalTerm(
            mk_wiring((), outer, ("x",), ((0,),), extra_support=("y",)), ()
        )
        assert with_y.diagram.white_labels() == ("y",)
        assert not contains(plain, with_y)
        assert contains(with_y, plain)

    def test_mismatched_outer_shells_rejected(self):
        with pytest.raises(ValidationError):
            contains(bare_term("R", SIGNATURE), bare_term("S", SIGNATURE))

    def test_conflicting_predicate_shells_rejected(self):
        c = mk_context(("x", "y"))
        misdeclared = GraphicalTerm(
            mk_wiring((c,), mk_context(("x", "x")), ("x", "x", "y"),
                      ((0, 2), (0, 1))),
            ("R",),
        )
        with pytest.raises(ValidationError):
            contains(misdeclared, bare_term("R", SIGNATURE))
        with pytest.raises(ValidationError):
            contains(bare_term("R", SIGNATURE), misdeclared)
        with pytest.raises(ValidationError):
            contains(true_term(mk_context(())), u_at_two_shells())


class TestEquivalence:
    def test_equivalence_ignores_dot_numbering(self):
        t = two_step()
        d = t.diagram
        scrambled = GraphicalTerm(
            mk_wiring(
                d.inner,
                d.outer,
                ("y", "x", "x"),
                tuple(tuple({0: 1, 1: 2, 2: 0}[x] for x in row) for row in d.wires),
            ),
            t.cells,
        )
        assert equivalent(t, scrambled)

    def test_duplicate_conjunct_is_redundant(self):
        r = bare_term("R", SIGNATURE)
        assert equivalent(meet_term(r, r), r)


class TestMinimize:
    def test_redundant_branch_collapses(self):
        # R(v1, v2) ∧ R(v1, v3), exposing v1 only: one conjunct suffices.
        w = mk_wiring(
            (SHELLS["R"], SHELLS["R"]),
            mk_context(("x",)),
            ("x", "x", "x"),
            ((0, 1), (0, 2), (0,)),
        )
        t = GraphicalTerm(w, ("R", "R"))
        core = minimize_core(t)
        assert len(core.cells) == 1
        assert equivalent(core, t)

    def test_exposed_ports_block_deletion(self):
        t = bare_term("R", SIGNATURE)
        assert minimize_core(t) == flatten(t)

    def test_flattens_only_its_input(self, monkeypatch):
        # Every candidate comes from drop_cell on a flat term, so the
        # containment checks must not flatten again.
        calls = []

        def counting_flatten(term):
            calls.append(term)
            return flatten(term)

        monkeypatch.setattr(contain, "flatten", counting_flatten)
        ws = load_workspace(str(ROOT / "corpus" / "minimize_redundant.rl"))
        core = minimize_core(ws.terms["main"])
        assert len(calls) == 1
        assert core.cells == ("E",)

    def test_random_cores_are_equivalent_fixed_points(self):
        rng = Random(509)
        for _ in range(40):
            t = rand_term(rng, depth=1)
            core = minimize_core(t)
            assert equivalent(core, t)
            assert minimize_core(core) == core
            assert len(core.cells) <= len(flatten(t).cells)

    def test_cores_have_the_fewest_cells_of_any_equivalent_subterm(self):
        # Every subset of the cells of seeded terms with up to 6 cells: the
        # smallest one equivalent to the term is exactly as large as the core.
        rng = Random(613)
        checked = shrunk = 0
        while checked < 60:
            flat = flatten(rand_term(rng, depth=2, max_cells=4))
            n = len(flat.cells)
            if not 2 <= n <= 6:
                continue
            smallest = n
            for keep in range(2**n - 1):
                sub = flat
                for slot in reversed(range(n)):
                    if not keep >> slot & 1:
                        sub = drop_cell(sub, slot)
                if contains(sub, flat):  # flat always contains sub
                    smallest = min(smallest, bin(keep).count("1"))
            assert len(minimize_core(flat).cells) == smallest
            checked += 1
            shrunk += smallest < n
        assert shrunk >= 10, shrunk
