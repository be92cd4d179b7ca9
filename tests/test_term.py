"""Tests for graphical terms: construction, flattening, the formula
rendering, and the built-in term combinators (true, meet, transpose, drop).

Formula strings are pinned exactly; the model tests then interpret the same
strings with an independent parser, so any drift here is caught twice.
"""

from __future__ import annotations

from random import Random

import pytest

from reglog.context import mk_context, terminal_ctx
from reglog.dsl import load_workspace
from reglog.errors import ValidationError
from reglog.term import (
    GraphicalTerm,
    PredicateSignature,
    bare_term,
    drop_cell,
    flatten,
    meet_term,
    mk_term,
    outer_variables,
    to_formula,
    true_term,
)
from reglog.wiring import identity_wd, mk_wiring, substitute

from helpers import (
    ROOT,
    SHELLS,
    SIGNATURE,
    oracle_flatten,
    rand_context,
    rand_term,
)

EDGE = mk_context(("x", "x"))
EDGE_SIGNATURE = PredicateSignature(frozenset({"x"}), {"E": EDGE})


class TestSignature:
    def test_shell_lookup(self):
        assert SIGNATURE.shell("R") == mk_context(("x", "x"))
        with pytest.raises(ValidationError):
            SIGNATURE.shell("nope")

    def test_predicates_must_use_declared_types(self):
        with pytest.raises(ValidationError):
            PredicateSignature(frozenset({"x"}), {"R": mk_context(("x", "y"))})
        with pytest.raises(ValidationError):
            PredicateSignature(frozenset({"x"}), {"P": mk_context((), ("z",))})


class TestConstruction:
    def test_cell_count_must_match_slots(self):
        w = identity_wd(SHELLS["R"])
        with pytest.raises(ValidationError):
            mk_term(w, ())
        with pytest.raises(ValidationError):
            mk_term(w, ("R", "R"))

    def test_nested_cell_must_fit_its_slot(self):
        w = identity_wd(SHELLS["R"])
        wrong = bare_term("S", SIGNATURE)  # outer (x, y), slot wants (x, x)
        with pytest.raises(ValidationError):
            mk_term(w, (wrong,))
        fits = bare_term("R", SIGNATURE)
        assert mk_term(w, (fits,)).cells == (fits,)

    def test_mk_term_checks_predicate_shells(self):
        w = identity_wd(SHELLS["R"])
        with pytest.raises(ValidationError):
            mk_term(w, ("S",), SIGNATURE)
        assert mk_term(w, ("S",)).cells == ("S",)  # unchecked without signature
        assert mk_term(w, ("R",), SIGNATURE).is_flat()

    def test_results_are_valid_by_construction(self):
        # The combinators build terms and diagrams without the checks of
        # mk_term and mk_wiring; every result must still pass them.
        rng = Random(306)
        terms = []
        for _ in range(200):
            t = rand_term(rng)
            c = rand_context(rng)
            terms += [flatten(t), true_term(c), meet_term(t, t)]
            if t.cells:
                terms.append(drop_cell(t, rng.randrange(len(t.cells))))
        terms += [bare_term(name, SIGNATURE) for name in sorted(SHELLS)]
        for t in terms:
            assert mk_term(t.diagram, t.cells) == t
            d = t.diagram
            assert mk_wiring(d.inner, d.outer, d.dot_types, d.wires, d.support) == d

    def test_bare_term_shape(self):
        t = bare_term("Q", SIGNATURE)
        assert t.diagram == identity_wd(SHELLS["Q"])
        assert t.cells == ("Q",)
        assert t.outer == SHELLS["Q"]


class TestFlatten:
    def test_flat_terms_are_fixed_points(self):
        t = bare_term("R", SIGNATURE)
        assert flatten(t) == t

    def test_single_nested_slot(self):
        inner = bare_term("R", SIGNATURE)
        shell = inner.outer
        w = mk_wiring((shell,), mk_context(("x",)), ("x",), ((0, 0), (0,)))
        t = GraphicalTerm(w, (inner,))
        flat = flatten(t)
        assert flat.is_flat()
        assert flat.cells == ("R",)
        assert flat.diagram == substitute(w, 0, inner.diagram)

    def test_cells_come_out_left_to_right(self):
        # Slot layout (nested(U, V), "R"); the nested pair expands in place.
        uv = mk_wiring(
            (SHELLS["U"], SHELLS["V"]),
            mk_context(("x", "y")),
            ("x", "y"),
            ((0,), (1,), (0, 1)),
        )
        nested = GraphicalTerm(uv, ("U", "V"))
        outer = mk_wiring(
            (nested.outer, SHELLS["R"]),
            mk_context(("y",)),
            ("x", "y"),
            ((0, 1), (0, 0), (1,)),
        )
        t = GraphicalTerm(outer, (nested, "R"))
        flat = flatten(t)
        assert flat.cells == ("U", "V", "R")
        assert flat.outer == t.outer

    def test_deep_nesting_flattens(self):
        rng = Random(301)
        for _ in range(150):
            t = rand_term(rng, depth=3)
            flat = flatten(t)
            assert flat.is_flat()
            assert flat.outer == t.outer
            assert flat.cells == oracle_flatten(t).cells
            assert flatten(flat) == flat

    def test_matches_slot_by_slot_oracle(self):
        rng = Random(307)
        for depth in range(5):
            for _ in range(200):
                t = rand_term(rng, depth=depth)
                assert flatten(t) == oracle_flatten(t)

    def test_matches_oracle_on_corpus_terms(self):
        checked = 0
        for path in sorted((ROOT / "corpus").glob("*.rl")):
            for t in load_workspace(path).terms.values():
                assert flatten(t) == oracle_flatten(t)
                checked += 1
        assert checked >= 23

    # Deep terms are compared only after flattening: dataclass == and hash
    # on a nested term recurse once per level.
    @pytest.mark.parametrize("depth", [500, 2000])
    def test_identity_wrappers_vanish(self, depth):
        t = bare_term("E", EDGE_SIGNATURE)
        for _ in range(depth):
            t = GraphicalTerm(identity_wd(EDGE), (t,))
        assert flatten(t) == bare_term("E", EDGE_SIGNATURE)

    def test_many_nested_cells_make_a_path(self):
        n = 800
        wires = [(i, i + 1) for i in range(n)] + [(0, n)]
        path = mk_wiring([EDGE] * n, EDGE, ["x"] * (n + 1), wires)
        t = GraphicalTerm(path, (bare_term("E", EDGE_SIGNATURE),) * n)
        assert flatten(t) == GraphicalTerm(path, ("E",) * n)


class TestFormula:
    def test_bare_predicate(self):
        assert to_formula(bare_term("R", SIGNATURE)) == "R(v1,v2)"
        assert to_formula(bare_term("U", SIGNATURE)) == "U(v1)"

    def test_loose_dot_is_quantified(self):
        w = mk_wiring((SHELLS["R"],), mk_context(("x",)), ("x", "x"), ((0, 1), (0,)))
        t = GraphicalTerm(w, ("R",))
        assert to_formula(t) == "∃v2:x. R(v1,v2)"

    def test_closed_formula(self):
        w = mk_wiring((SHELLS["U"],), terminal_ctx(), ("x",), ((0,), ()))
        t = GraphicalTerm(w, ("U",))
        assert to_formula(t) == "∃v1:x. U(v1)"

    def test_shared_dots_repeat_variables(self):
        c = mk_context(("x", "x"))
        w = mk_wiring((SHELLS["R"], SHELLS["R"]), c, ("x", "x"), ((0, 1), (1, 0), (0, 1)))
        t = GraphicalTerm(w, ("R", "R"))
        assert to_formula(t) == "R(v1,v2) ∧ R(v2,v1)"

    def test_no_cells_renders_true(self):
        assert to_formula(true_term(mk_context(("x", "y")))) == "true"

    def test_white_labels_assert_inhabited_types(self):
        # Two ports, two loose support symbols: the formula records them as
        # inhabitedness conjuncts, in sorted label order.
        t = true_term(mk_context(("x", "y"), ("w", "z")))
        assert t.diagram.white_labels() == ("w", "z")
        assert to_formula(t) == "true ∧ ∃w1:w. true ∧ ∃w2:z. true"

    def test_atoms_and_whites_combine(self):
        w = mk_wiring(
            (SHELLS["U"],), mk_context(("x",)), ("x",), ((0,), (0,)), ("y",)
        )
        t = GraphicalTerm(w, ("U",))
        assert to_formula(t) == "U(v1) ∧ ∃w1:y. true"

    def test_formula_requires_flat_terms(self):
        nested = GraphicalTerm(
            identity_wd(SHELLS["R"]), (bare_term("R", SIGNATURE),)
        )
        with pytest.raises(ValidationError):
            to_formula(nested)

    def test_outer_variables_follow_ports(self):
        c = mk_context(("x", "x"))
        w = mk_wiring((), c, ("x",), ((0, 0),))
        t = GraphicalTerm(w, ())
        assert outer_variables(t) == (("v1", "x"), ("v1", "x"))
        assert to_formula(t) == "true"
        assert outer_variables(bare_term("S", SIGNATURE)) == (
            ("v1", "x"),
            ("v2", "y"),
        )


class TestCombinators:
    def test_true_term_shape(self):
        c = mk_context(("x", "y"), ("z",))
        t = true_term(c)
        assert t.cells == ()
        assert t.outer == c
        assert t.diagram.num_dots == 2
        assert t.diagram.white_labels() == ("z",)

    def test_meet_requires_equal_shells(self):
        with pytest.raises(ValidationError):
            meet_term(bare_term("R", SIGNATURE), bare_term("S", SIGNATURE))

    def test_meet_shape(self):
        r = bare_term("R", SIGNATURE)
        m = meet_term(r, r)
        assert m.cells == (r, r)
        assert m.outer == r.outer
        flat = flatten(m)
        assert flat.cells == ("R", "R")
        assert to_formula(flat) == "R(v1,v2) ∧ R(v1,v2)"

    def test_drop_cell_leaves_support_behind(self):
        w = mk_wiring((SHELLS["U"],), terminal_ctx(), ("x",), ((0,), ()))
        t = GraphicalTerm(w, ("U",))
        dropped = drop_cell(t, 0)
        assert dropped.cells == ()
        assert dropped.diagram.white_labels() == ("x",)
        assert to_formula(dropped) == "true ∧ ∃w1:x. true"

    def test_drop_cell_keeps_shared_dots(self):
        m = flatten(meet_term(bare_term("R", SIGNATURE), bare_term("R", SIGNATURE)))
        dropped = drop_cell(m, 1)
        assert dropped.cells == ("R",)
        assert to_formula(dropped) == "R(v1,v2)"
        assert dropped.outer == m.outer

    def test_drop_cell_range_checked(self):
        with pytest.raises(ValidationError):
            drop_cell(bare_term("R", SIGNATURE), 1)
