"""Tests for finite models and term evaluation.

Evaluation runs through three independent routes (the engine's indexed join
plan, an exhaustive assignment enumerator, and an interpreter for the printed
formula) that must agree.  The structural laws: flattening preserves
values, growing the model or dropping a cell can only grow the value, merging
dots can only shrink it, the no-cell term is the full relation, meets are
intersections, and image/preimage along context maps form an adjunction
satisfying Frobenius reciprocity and base change.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import itertools
import os
import signal
import tracemalloc
from collections import Counter
from random import Random

import pytest
from hypothesis import given, strategies as st

import reglog.model as model_mod
from reglog.contain import contains
from reglog.context import identity_cm, mk_context, mk_morphism, oplus, pullback_cm
from reglog.dsl import parse_workspace
from reglog.errors import EvalError, ValidationError
from reglog.model import (
    _plan,
    DROP_BATCH,
    FinRelation,
    ModelInstance,
    empty_relation,
    entails_in,
    eval_term,
    lambda_opl,
    mk_model,
    mk_relation,
    pullback_pred,
    pushforward,
    rho_lax,
    true_rel,
)
from reglog.naive import eval_term_naive
from reglog.term import GraphicalTerm, flatten, mk_term, true_term
from reglog.wiring import mk_wiring, tensor

from helpers import (
    TYPES,
    eval_formula,
    galois_law_sweep,
    permute_slots,
    rand_context,
    rand_flat_term,
    rand_model,
    rand_morphism_pair,
    rand_term,
    semantics_law_sweep,
)


def chain_model(rows=(("a", "b"), ("b", "c"))):
    return mk_model({"x": ("a", "b", "c")}, {"E": mk_context(("x", "x"))}, {"E": rows})


def path_term(length: int) -> GraphicalTerm:
    """E(v1,v2) ∧ E(v2,v3) ∧ ... with the two endpoints exposed."""
    shell = mk_context(("x", "x"))
    dots = tuple("x" for _ in range(length + 1))
    rows = [(i, i + 1) for i in range(length)]
    w = mk_wiring([shell] * length, shell, dots, (*rows, (0, length)))
    return GraphicalTerm(w, tuple("E" for _ in range(length)))


def perfbench_gen():
    """``perfbench/gen.py``, the benchmark's seeded input generators."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "perfbench", "gen.py")
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


class TestModelConstruction:
    def test_rows_must_fit_domains(self):
        with pytest.raises(ValidationError):
            chain_model(rows=(("a", "z"),))

    def test_rows_must_fit_arity(self):
        with pytest.raises(ValidationError):
            mk_relation(mk_context(("x", "x")), (("a",),))

    def test_supported_empty_type_forces_empty_relation(self):
        shell = mk_context(("x",), ("y",))
        with pytest.raises(ValidationError):
            mk_model({"x": ("a",)}, {"U": shell}, {"U": (("a",),)})
        ok = mk_model({"x": ("a",)}, {"U": shell})
        assert ok.relation("U").tuples == frozenset()

    def test_domain_names_must_be_nonempty(self):
        with pytest.raises(ValidationError, match="must be nonempty strings"):
            mk_model({"": ("a",)}, {})

    def test_missing_domain_is_empty(self):
        m = chain_model()
        assert m.domain("y") == ()
        assert m.domain("x") == ("a", "b", "c")

    def test_unknown_predicate_is_an_error(self):
        with pytest.raises(EvalError):
            chain_model().relation("F")

    def test_relations_pass_through(self):
        rel = mk_relation(mk_context(("x",)), (("a",),))
        m = mk_model({"x": ("a",)}, {"U": rel})
        assert m.relation("U") is rel

    def test_finished_relations_are_arity_checked(self):
        # A relation built directly skips mk_relation; mk_model checks it.
        rel = FinRelation(mk_context(("x",)), frozenset({("a", "a")}))
        with pytest.raises(ValidationError):
            mk_model({"x": ("a",)}, {"U": rel})

    def test_a_large_workspace_builds_its_model_in_linear_time(self):
        # The benchmark's digraph workspace with 16,000 atoms and four edges
        # out of each: mk_model checks its 64,000 rows against one set per
        # domain in 0.1 s on a 2-vCPU host, where a scan of the domain's
        # tuple for each atom took 11.6 s.
        gen = perfbench_gen()
        atoms = 16_000
        edges = gen.random_digraph(Random(413), atoms, 4)
        workspace = parse_workspace(gen.graph_workspace_text(atoms, edges))
        with time_limit(2):
            model = workspace.model()
        assert len(model.domain("x")) == atoms
        assert len(model.relation("E")) == 4 * atoms

    def test_results_are_valid_by_construction(self):
        # The operations build relations without the arity check of
        # mk_relation; every result must still pass it.
        rng = Random(405)
        results = []
        for _ in range(150):
            m = rand_model(rng)
            t = rand_flat_term(rng)
            f = rand_morphism_pair(rng, types=TYPES, max_arity=3)
            left, right = rand_context(rng), rand_context(rng)
            rel = true_rel(oplus(left, right), m)
            image = pushforward(f, true_rel(f.dom, m))
            results += [
                eval_term(t, m),
                true_rel(left, m),
                image,
                pullback_pred(f, image, m),
                rho_lax(eval_term(t, m), rel),
                *lambda_opl(rel, left, right),
            ]
        for r in results:
            assert mk_relation(r.context, r.tuples) == r


class TestEvaluation:
    def test_path_composition(self):
        # [DERIVED] relational composition of the edge relation with itself:
        # paths of length 2 in a -> b -> c land on (a, c) only.
        m = chain_model()
        assert eval_term(path_term(2), m).rows() == [("a", "c")]
        assert eval_term(path_term(3), m).rows() == []
        assert eval_term(path_term(1), m).rows() == [("a", "b"), ("b", "c")]

    def test_loose_dot_enumerates_domain(self):
        # An unconstrained exposed dot ranges over the whole domain.
        m = chain_model()
        shell = mk_context(("x", "x"))
        w = mk_wiring(
            (mk_context(("x", "x")),), shell, ("x", "x", "x"), ((0, 1), (0, 2))
        )
        t = GraphicalTerm(w, ("E",))
        assert eval_term(t, m).rows() == [
            ("a", a) for a in ("a", "b", "c")
        ] + [("b", a) for a in ("a", "b", "c")]

    def test_empty_supported_domain_evaluates_empty(self):
        m = chain_model()  # no y atoms
        t = true_term(mk_context(("x",), ("y",)))
        assert eval_term(t, m) == empty_relation(t.outer)
        assert true_rel(t.outer, m) == empty_relation(t.outer)
        # Without the y requirement the same shape is the full relation.
        t2 = true_term(mk_context(("x",)))
        assert eval_term(t2, m).rows() == [("a",), ("b",), ("c",)]

    def test_shell_mismatch_is_an_error(self):
        m = chain_model()
        wrong = mk_term(identity_wiring_for(mk_context(("x",))), ("E",))
        with pytest.raises(EvalError):
            eval_term(wrong, m)
        with pytest.raises(EvalError):
            eval_term_naive(wrong, m)

    def test_semantic_laws_random(self):
        assert semantics_law_sweep(Random(401), 150) == 150

    @given(st.integers(0, 10**9))
    def test_semantic_laws_property(self, seed):
        semantics_law_sweep(Random(seed), 2)

    def test_entailment_in_one_model(self):
        m = chain_model()
        long, short = path_term(2), path_term(1)
        # Paths of length 2 are not a subset of edges here ((a, c) is not an
        # edge), while the reverse inclusion fails too ((b, c) is no path).
        assert not entails_in(m, long, short)
        assert not entails_in(m, short, long)
        assert entails_in(m, long, true_term(long.outer))
        m2 = chain_model(rows=(("a", "b"), ("b", "c"), ("a", "c")))
        assert entails_in(m2, long, short)

    def test_entailment_needs_matching_shells(self):
        with pytest.raises(ValidationError):
            entails_in(chain_model(), path_term(1), true_term(mk_context(("x",))))


class TestEvalBound:
    def loose_term(self) -> GraphicalTerm:
        # E(a, b) with a loose third dot: 2 edges times 3 atoms
        w = mk_wiring(
            (mk_context(("x", "x")),),
            mk_context(("x", "x", "x")),
            ("x", "x", "x"),
            ((0, 1), (0, 1, 2)),
        )
        return GraphicalTerm(w, ("E",))

    def test_a_result_over_the_limit_is_refused(self, monkeypatch):
        assert model_mod.EVAL_MAX_ROWS == 2**20
        m, t = chain_model(), self.loose_term()
        monkeypatch.setattr(model_mod, "EVAL_MAX_ROWS", 6)
        assert len(eval_term(t, m)) == 6
        monkeypatch.setattr(model_mod, "EVAL_MAX_ROWS", 5)
        with pytest.raises(
            EvalError, match=r"^the term's value has more than the limit of "
            r"EVAL_MAX_ROWS = 5 rows$"
        ):
            eval_term(t, m)
        # a plan whose last step is a cell
        monkeypatch.setattr(model_mod, "EVAL_MAX_ROWS", 1)
        with pytest.raises(EvalError, match="EVAL_MAX_ROWS = 1 rows$"):
            eval_term(path_term(1), m)

    def test_a_multi_cell_plan_is_checked_after_every_probe(self, monkeypatch):
        # E(v0, v1) ∧ E(v1, v2) exposing all three dots, on the complete graph
        # on three atoms: each of the nine edges the first cell binds probes
        # the second cell once, which adds three new rows.
        atoms = ("a", "b", "c")
        m = mk_model(
            {"x": atoms},
            {"E": mk_context(("x", "x"))},
            {"E": itertools.product(atoms, repeat=2)},
        )
        t = binary_query((0, 1, 2), ("E", (0, 1)), ("E", (1, 2)))
        probes = []

        class Probed(dict):
            def get(self, key, default=None):
                probes.append(key)
                return super().get(key, default)

        index = model_mod._index
        monkeypatch.setattr(model_mod, "_index", lambda *args: Probed(index(*args)))
        monkeypatch.setattr(model_mod, "EVAL_MAX_ROWS", 27)
        assert len(eval_term(t, m)) == 27
        monkeypatch.setattr(model_mod, "EVAL_MAX_ROWS", 26)
        with pytest.raises(EvalError, match="EVAL_MAX_ROWS = 26 rows$"):
            eval_term(t, m)
        # refused at the first probe of the last cell that passes the limit
        monkeypatch.setattr(model_mod, "EVAL_MAX_ROWS", 4)
        probes.clear()
        with pytest.raises(EvalError, match="EVAL_MAX_ROWS = 4 rows$"):
            eval_term(t, m)
        assert [len(key) for key in probes] == [0, 1, 1]

    def test_loose_outer_dots_over_the_limit_are_refused_before_the_loop(
        self, monkeypatch
    ):
        m = chain_model()
        monkeypatch.setattr(model_mod, "EVAL_MAX_ROWS", 2)
        with pytest.raises(
            EvalError, match=r"^the term's loose outer dots alone give 3 rows, over "
            r"the limit of EVAL_MAX_ROWS = 2 rows$"
        ):
            eval_term(true_term(mk_context(("x",))), m)
        # with cells, only an answer over the limit is refused
        assert eval_term(self.loose_term(), chain_model(rows=())).rows() == []
        monkeypatch.undo()
        # 60^6 rows: refused at once, where the loop would run out of memory
        wide = mk_model({"x": tuple(f"a{i}" for i in range(60))}, {})
        ports = mk_context(("x",) * 6)
        with pytest.raises(EvalError, match=" 46656000000 rows, over the limit"):
            eval_term(true_term(ports), wide)


def identity_wiring_for(c):
    ports = tuple(range(c.arity))
    return mk_wiring((c,), c, c.port_types, (ports, ports))


class TestGaloisConnection:
    def test_laws_random(self):
        assert galois_law_sweep(Random(402), 250) == 250

    def test_pushforward_reindexes(self):
        dom = mk_context(("x", "x"))
        cod = mk_context(("x", "x", "x"))
        f = mk_morphism(dom, cod, (1, 0, 1))
        rel = mk_relation(dom, [("a", "b")])
        assert pushforward(f, rel).rows() == [("b", "a", "b")]
        with pytest.raises(ValidationError):
            pushforward(f, mk_relation(cod, []))

    def test_pullback_filters_the_product(self):
        m = chain_model()
        dom = mk_context(("x", "x"))
        cod = mk_context(("x",))
        f = mk_morphism(dom, cod, (0,))
        rel = mk_relation(cod, [("a",)])
        assert pullback_pred(f, rel, m).rows() == [
            ("a", "a"), ("a", "b"), ("a", "c")
        ]
        with pytest.raises(ValidationError):
            pullback_pred(f, mk_relation(dom, []), m)

    def test_preimage_of_empty_supported_type(self):
        m = chain_model()
        f = mk_morphism(mk_context(("x",), ("y",)), mk_context(("x",)), (0,))
        full = true_rel(f.cod, m)
        assert pullback_pred(f, full, m) == empty_relation(f.dom)

    def test_base_change_along_identity(self):
        # Orientation check: pulling the square back along the identity leg
        # must reproduce the pushforward itself.
        m = chain_model()
        f = mk_morphism(mk_context(("x", "x")), mk_context(("x",)), (1,))
        rel = mk_relation(f.dom, [("a", "b"), ("b", "c")])
        apex, p1, p2 = pullback_cm(f, identity_cm(f.cod))
        chased = pushforward(p2, pullback_pred(p1, rel, m))
        assert chased == pushforward(f, rel)
        assert chased.rows() == [("b",), ("c",)]


class TestLaxStructure:
    def test_product_relation_is_tensor_value(self):
        rng = Random(403)
        for _ in range(100):
            m = rand_model(rng)
            t1 = rand_flat_term(rng)
            t2 = rand_flat_term(rng)
            joint = GraphicalTerm(
                tensor(t1.diagram, t2.diagram), t1.cells + t2.cells
            )
            assert eval_term(joint, m) == rho_lax(
                eval_term(t1, m), eval_term(t2, m)
            )

    def test_projections_are_lax_inverse(self):
        rng = Random(404)
        for _ in range(100):
            m = rand_model(rng)
            left = mk_context(tuple(rng.choice("xy") for _ in range(2)))
            right = mk_context(tuple(rng.choice("xy") for _ in range(1)))
            full = true_rel(oplus(left, right), m)
            rel = mk_relation(
                full.context,
                [r for r in full.tuples if rng.random() < 0.5],
            )
            l, r = lambda_opl(rel, left, right)
            assert rel.tuples <= rho_lax(l, r).tuples
            if rel.tuples:
                assert l.tuples and r.tuples

    def test_projection_requires_declared_split(self):
        rel = mk_relation(mk_context(("x", "y")), [])
        with pytest.raises(ValidationError):
            lambda_opl(rel, mk_context(("y",)), mk_context(("x",)))


class TestAgreementOnFixtures:
    def test_three_routes_on_the_path_fixture(self):
        m = chain_model()
        for n in (1, 2, 3):
            t = path_term(n)
            engine = eval_term(t, m)
            assert engine == eval_term_naive(t, m)
            assert engine == eval_formula(t, m)

    def test_routes_on_signature_terms(self):
        rng = Random(405)
        for _ in range(100):
            t = rand_flat_term(rng)
            m = rand_model(rng)
            engine = eval_term(t, m)
            assert engine == eval_term_naive(t, m)
            assert engine == eval_formula(t, m)


def odd_slots_first(length: int) -> GraphicalTerm:
    """``path_term(length)`` with its cells listed odd slots first: the
    first ``length // 2`` cells share no dot."""
    return permute_slots(
        path_term(length), [*range(1, length, 2), *range(0, length, 2)]
    )


def is_connected(term: GraphicalTerm) -> bool:
    """Has the flat term at least two cells, each touching a dot, joined
    through shared dots?"""
    rows = [set(row) for row in term.diagram.wires[:-1]]
    if len(rows) < 2 or not all(rows):
        return False
    reached, pending = rows[0], rows[1:]
    while True:
        joined = [row for row in pending if row & reached]
        if not joined:
            return not pending
        reached = reached.union(*joined)
        pending = [row for row in pending if not row & reached]


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise ``TimeoutError`` inside the block once ``seconds`` pass."""

    def expire(signum, frame):
        raise TimeoutError(f"over the time limit of {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def cycle_term(n: int, exit_dot: int) -> GraphicalTerm:
    """E(v0,v1) ∧ ... ∧ E(v(n-1),v0), exposing ``v0`` and ``v(exit_dot)``."""
    shell = mk_context(("x", "x"))
    rows = [(i, (i + 1) % n) for i in range(n)]
    w = mk_wiring([shell] * n, shell, ("x",) * n, (*rows, (0, exit_dot)))
    return GraphicalTerm(w, ("E",) * n)


def plan_features(term: GraphicalTerm, model: ModelInstance) -> set[str]:
    """The cases the join plan treats apart that a term and model reach,
    read off the plan the engine runs."""
    flat = flatten(term)
    d = flat.diagram
    if any(not model.domain(s) for s in d.support):
        return {"empty supported domain"}
    rows, out = d.wires[:-1], d.wires[-1]
    sizes = [len(model.relation(c)) for c in flat.cells]
    order, steps = _plan(flat, model)
    keys = [key for _, key, *_ in steps[: len(order)]]
    touched = {dot for row in rows for dot in row}
    cases = {
        "nested": not term.is_flat(),
        "dot repeated in a cell": any(len(set(r)) < len(r) for r in rows),
        "repeated outer dot": len(set(out)) < len(out),
        "outer dot in no cell": bool(set(out) - touched),
        "white label": bool(d.white_labels()),
        "empty relation": 0 in sizes,
        "no cells": not rows,
        "equal sizes": len(set(sizes)) < len(sizes),
        "probe on two dots": any(len(key) >= 2 for key in keys),
        "connected order ahead of size order": order
        != sorted(range(len(rows)), key=sizes.__getitem__),
        # the last step's rows are added in bulk, read off head + entry
        "one-step plan": len(steps) == 1,
        "one-dot out row": len(out) == 1,
        "empty out row with cells": not out and bool(rows),
        "last step binds no outer dot": bool(rows)
        and not set(steps[-1][2]) & set(out),
        "loose last step after a cell": bool(rows) and len(steps) > len(order),
        # dots that die at the last step never leave the frame; earlier ones
        # leave in batches (see test_frame_layouts_agree_with_naive)
        "a dot dies before the last step": any(dead for *_, dead in steps[:-1]),
    }
    return {case for case, hit in cases.items() if hit}


def with_out_row(term: GraphicalTerm, out: list[int]) -> GraphicalTerm:
    """The flat ``term`` with the out row ``out``, a list of its dots."""
    d = term.diagram
    outer = mk_context([d.dot_types[dot] for dot in out], d.outer.support)
    diagram = mk_wiring(d.inner, outer, d.dot_types, [*d.wires[:-1], out], d.support)
    return GraphicalTerm(diagram, term.cells)


def join_plan_cases(count: int = 600):
    """Seeded (term, model) pairs: flat and nested terms over few dots, so
    cells repeat dots and predicates, and models with empty domains and
    empty relations."""
    rng = Random(409)
    checked = 0
    while checked < count:
        if rng.random() < 0.5:
            term = rand_flat_term(rng, max_cells=5)
        else:
            term = rand_term(rng, depth=2, max_cells=3)
        if flatten(term).diagram.num_dots > 5:
            continue
        yield term, rand_model(rng, max_atoms=4, density=rng.choice((0.3, 0.7)))
        checked += 1


class TestJoinPlan:
    def test_agrees_with_naive_on_seeded_terms(self):
        # Every case the plan treats apart must come up.
        reached: Counter[str] = Counter()
        for term, model in join_plan_cases():
            assert eval_term(term, model) == eval_term_naive(term, model)
            reached.update(plan_features(term, model))
        assert len(reached) == 17 and min(reached.values()) >= 10, reached

    def test_nested_errors_match_level_by_level_evaluation(self):
        # (id-with-white-y(P), Q) with y empty and Q missing: the nested cell
        # is empty on its own, so the error comes from Q; a missing predicate
        # inside that cell is never looked at.
        x = mk_context(("x",))
        inner = mk_wiring((x,), x, ("x",), ((0,), (0,)), extra_support=("y",))
        outer = mk_wiring((x, x), x, ("x",), ((0,), (0,), (0,)))
        model = mk_model({"x": ("a",)}, {"P": x, "U": x}, {"P": [("a",)]})

        def meet(first: str, second: str) -> GraphicalTerm:
            return GraphicalTerm(outer, (GraphicalTerm(inner, (first,)), second))

        for evaluate in (eval_term, eval_term_naive):
            with pytest.raises(EvalError, match="unknown predicate Q"):
                evaluate(meet("P", "Q"), model)
            assert evaluate(meet("Missing", "U"), model) == empty_relation(x)

    def test_long_path_on_a_cycle_closed_form(self):
        # A path of k = 5,003 cells on the directed n-cycle is {(i, i+k mod n)}.
        n, k = 5, 5003
        atoms = tuple(str(i) for i in range(n))
        edges = [(atoms[i], atoms[(i + 1) % n]) for i in range(n)]
        model = mk_model({"x": atoms}, {"E": mk_context(("x", "x"))}, {"E": edges})
        path = path_term(k)
        assert eval_term(path, model).tuples == {
            (atoms[i], atoms[(i + k) % n]) for i in range(n)
        }
        # The canonical instance of the n-cycle term is the n-cycle itself,
        # so that term entails the path exactly when it exposes v(k mod n).
        holds = [j for j in range(n) if contains(cycle_term(n, j), path)]
        assert holds == [k % n]

    def test_long_path_listed_odd_slots_first(self):
        # Its first 2,501 cells share no dot: a plan that took cells of equal
        # size in slot order would walk 5^2501 combinations of their rows.
        # Planned along the wires, the value and one containment take
        # 0.1-0.2 s on a 2-vCPU host; a planner that scans the pending cells
        # for each next one is quadratic, and took 5.4-6.4 s there.
        n, k = 5, 5003
        atoms = tuple(str(i) for i in range(n))
        edges = [(atoms[i], atoms[(i + 1) % n]) for i in range(n)]
        model = mk_model({"x": atoms}, {"E": mk_context(("x", "x"))}, {"E": edges})
        path = odd_slots_first(k)
        with time_limit(2):
            value = eval_term(path, model)
            holds = contains(cycle_term(n, k % n), path)
        assert value.tuples == {(atoms[i], atoms[(i + k) % n]) for i in range(n)}
        assert holds

    def test_a_long_path_stays_linear(self):
        # A path of k = 20,003 cells on the directed 5-cycle.  Its frames
        # hold the dot the next cell probes, the two outer dots and fewer
        # than DROP_BATCH dead ones, so the value takes 0.2-0.4 s on a
        # 2-vCPU host; a frame that kept every dot it ever bound is
        # quadratic in the plan's depth, and took 3-8 s there.
        n, k = 5, 20_003
        atoms = tuple(str(i) for i in range(n))
        edges = [(atoms[i], atoms[(i + 1) % n]) for i in range(n)]
        model = mk_model({"x": atoms}, {"E": mk_context(("x", "x"))}, {"E": edges})
        path = path_term(k)
        with time_limit(1.5):
            value = eval_term(path, model)
        assert value.tuples == {(atoms[i], atoms[(i + k) % n]) for i in range(n)}

    def test_a_long_path_with_every_dot_exposed_stays_linear(self):
        # The out row reads all 20,004 dots of the path on the directed
        # 5-cycle, so the frames move them into the head a batch at a time;
        # 0.25-0.45 s on a 2-vCPU host.  Frames that kept every out-row dot
        # are quadratic in the plan's depth: 0.67 s at 5,003 cells there.
        n, k = 5, 20_003
        atoms = tuple(str(i) for i in range(n))
        edges = [(atoms[i], atoms[(i + 1) % n]) for i in range(n)]
        model = mk_model({"x": atoms}, {"E": mk_context(("x", "x"))}, {"E": edges})
        path = with_out_row(path_term(k), list(range(k + 1)))
        with time_limit(2):
            value = eval_term(path, model)
        assert value.tuples == {
            tuple(atoms[(i + j) % n] for j in range(k + 1)) for i in range(n)
        }

    def test_wide_cells_stay_linear(self):
        # One cell binds 5,000 dots, and 5,000 one-port cells each probe
        # one of them, so a dot dies at every step.  Batches drop them in
        # 0.03 s on a 2-vCPU host; dropping each at its own step copies the
        # whole frame each time, 1.6 s there (and out of memory at 20,000).
        w = 5000
        x, xw = mk_context(("x",)), mk_context(("x",) * w)
        model = mk_model(
            {"x": ("a",)}, {"P": xw, "U": x}, {"P": [("a",) * w], "U": [("a",)]}
        )
        rows = [tuple(range(w)), *((i,) for i in range(w))]
        diagram = mk_wiring(
            [xw, *[x] * w], mk_context(("x", "x")), ("x",) * w, (*rows, (0, w - 1))
        )
        with time_limit(1):
            value = eval_term(GraphicalTerm(diagram, ("P", *["U"] * w)), model)
        assert value.tuples == {("a", "a")}
        # Two 40,000-port cells on the same dots: all of them die at the
        # second step, and the plan lists them in 0.12 s there; one tuple
        # grown by a dot at a time took 2.2 s.
        w = 40_000
        xw = mk_context(("x",) * w)
        model = mk_model({"x": ("a",)}, {"P": xw}, {"P": [("a",) * w]})
        rows = [tuple(range(w)), tuple(reversed(range(w)))]
        diagram = mk_wiring([xw, xw], mk_context(()), ("x",) * w, (*rows, ()))
        with time_limit(1):
            value = eval_term(GraphicalTerm(diagram, ("P", "P")), model)
        assert value.tuples == {()}

    def test_long_paths_keep_their_frames_short(self):
        # The traced peak of evaluating the 2,003-cell path on the 5-cycle,
        # exposing its endpoints or every dot: 0.7-0.8 MiB here, and 16 MiB
        # when dead dots never leave the frames, which then all hold about
        # k atoms at the deepest step.  Unlike a time limit, it does not
        # depend on the host's speed.
        n, k = 5, 2003
        atoms = tuple(str(i) for i in range(n))
        edges = [(atoms[i], atoms[(i + 1) % n]) for i in range(n)]
        model = mk_model({"x": atoms}, {"E": mk_context(("x", "x"))}, {"E": edges})
        for out in ([0, k], list(range(k + 1))):
            path = with_out_row(path_term(k), out)
            eval_term(path, model)  # the index is built once, outside the trace
            tracemalloc.start()
            try:
                value = eval_term(path, model)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(value.tuples) == n
            assert peak < 4 * 2**20, peak

    def test_long_out_rows_agree_with_the_closed_form(self):
        # Paths on the directed 5-cycle, their cells in seeded orders, whose
        # out rows read more than DROP_BATCH dots in a seeded order with
        # repeats: v(j) is atom i + j for each start i, so the value is known
        # without the naive evaluator, which cannot walk 5^k assignments.
        rng = Random(415)
        n = 5
        atoms = tuple(str(i) for i in range(n))
        edges = [(atoms[i], atoms[(i + 1) % n]) for i in range(n)]
        model = mk_model({"x": atoms}, {"E": mk_context(("x", "x"))}, {"E": edges})
        moved = 0
        for k in (40, 75, 130):
            for _ in range(6):
                dots = rng.sample(range(k + 1), rng.randint(DROP_BATCH + 1, k + 1))
                out = dots + rng.choices(dots, k=rng.randint(0, 5))
                rng.shuffle(out)
                term = permute_slots(
                    with_out_row(path_term(k), out), rng.sample(range(k), k)
                )
                steps = _plan(term, model)[1]
                early = [dot for *_, drop in steps[:-1] for dot in drop]
                moved += len(set(early) & set(term.diagram.wires[-1])) >= DROP_BATCH
                assert eval_term(term, model).tuples == {
                    tuple(atoms[(i + j) % n] for j in out) for i in range(n)
                }
        assert moved >= 10, moved

    @pytest.mark.parametrize("batch", [DROP_BATCH, 1])
    def test_frame_layouts_agree_with_naive(self, batch, monkeypatch):
        # The out row is read off the last frame, so give each flat term
        # other out rows over the same cells: permuted, with a dot repeated,
        # and leading with a dot the last step binds, then an earlier one.
        # With a batch of 1, dead dots leave as soon as they are as many as
        # the live ones, so frames are cut short and dead outer dots head
        # the out rows.
        monkeypatch.setattr(model_mod, "DROP_BATCH", batch)
        rng = Random(414)
        built = Counter()
        for term, model in join_plan_cases(300):
            flat = flatten(term)
            d = flat.diagram
            out = d.wires[-1]
            outs = {"permuted": rng.sample(out, len(out))}
            if out:
                outs["repeated"] = [*out, rng.choice(out)]
            if all(model.domain(s) for s in d.support) and flat.cells:
                steps = _plan(flat, model)[1]
                earlier = [dot for _, _, new, _ in steps[:-1] for dot in new]
                if steps[-1][2] and earlier:
                    first = (rng.choice(steps[-1][2]), rng.choice(earlier))
                    outs["last-step dot first"] = [*first, *out]
            for kind, row in outs.items():
                other = with_out_row(flat, row)
                assert eval_term(other, model) == eval_term_naive(other, model)
                built[kind] += 1
        assert min(built.values()) >= 50 and len(built) == 3, built

    def test_slot_order_does_not_change_the_value(self):
        # Random orders of the cells, at the top level and after flattening,
        # evaluate to the naive enumerator's value of the written term.
        rng = Random(411)
        for term, model in join_plan_cases(200):
            expected = eval_term_naive(term, model)
            for listed in (term, flatten(term)):
                n = len(listed.cells)
                for _ in range(3):
                    shuffled = permute_slots(listed, rng.sample(range(n), n))
                    assert eval_term(shuffled, model) == expected

    def test_connected_terms_probe_bound_dots_after_the_first_step(self):
        # In a connected term every cell the plan binds after the first
        # shares a dot with an earlier one, whatever order the cells come in.
        rng = Random(412)
        chains = [
            permute_slots(path_term(k), rng.sample(range(k), k))
            for k in (2, 5, 9, 14)
            for _ in range(5)
        ]
        cases = [(t, chain_model()) for t in (*chains, odd_slots_first(14))]
        cases.append((cycle_term(8, 3), chain_model()))
        while len(cases) < 300:
            term, model = rand_flat_term(rng, max_cells=6), rand_model(rng)
            supported = all(model.domain(s) for s in term.diagram.support)
            if supported and is_connected(term):
                cases.append((term, model))
        for term, model in cases:
            order, steps = _plan(term, model)
            assert sorted(order) == list(range(len(term.cells)))
            assert all(key for _, key, *_ in steps[1 : len(order)]), term


def binary_query(
    out: tuple[int, ...], *atoms: tuple[str, tuple[int, int]]
) -> GraphicalTerm:
    """The conjunction of atoms ``(predicate, (dot, dot))`` over dots of type
    x, exposing the dots in ``out``."""
    shell = mk_context(("x", "x"))
    dots = 1 + max(d for _, row in atoms for d in row)
    w = mk_wiring(
        [shell] * len(atoms),
        mk_context(("x",) * len(out)),
        ("x",) * dots,
        (*(row for _, row in atoms), out),
    )
    return GraphicalTerm(w, tuple(name for name, _ in atoms))


def two_graph_model() -> ModelInstance:
    """E and F: two different relations with the same shell."""
    shell = mk_context(("x", "x"))
    e = [("a", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("c", "c"), ("a", "d")]
    f = [("a", "b"), ("b", "b"), ("d", "c")]
    atoms = ("a", "b", "c", "d")
    return mk_model({"x": atoms}, {"E": shell, "F": shell}, {"E": e, "F": f})


# Probes the cache must tell apart, in an order that meets each one after
# another pattern of the same predicate has been indexed on the model.
CACHE_QUERIES = [
    binary_query((0, 1), ("E", (0, 1))),
    # a repeated dot, under the same (empty) key as the line above
    binary_query((0,), ("E", (0, 0))),
    # E probed by its first position, then by its second
    binary_query((0, 2), ("E", (0, 1)), ("E", (1, 2))),
    binary_query((0, 2), ("E", (1, 2)), ("E", (0, 1))),
    # a repeated dot under a one-position key
    binary_query((0,), ("E", (0, 1)), ("E", (1, 1))),
    # the two leaves of the star share one index within the call
    binary_query((1, 2, 3), ("E", (0, 1)), ("E", (0, 2)), ("E", (0, 3))),
    # F has E's shell, pattern and key positions
    binary_query((0, 1), ("F", (0, 1))),
    binary_query((0, 2), ("F", (0, 1)), ("E", (1, 2))),
    binary_query((0, 1), ("E", (0, 1)), ("F", (0, 1))),
    binary_query((0,), ("E", (0, 1)), ("E", (1, 2)), ("E", (2, 0))),
]


class TestIndexCache:
    def test_many_queries_on_one_model(self):
        model = two_graph_model()
        for term in CACHE_QUERIES * 2:
            fresh = ModelInstance(model.domains, model.relations)
            value = eval_term(term, model)
            assert value == eval_term(term, fresh) == eval_term_naive(term, model)
        shared = rand_model(Random(410), max_atoms=4)
        for term, _ in join_plan_cases(300):
            fresh = ModelInstance(shared.domains, shared.relations)
            value = eval_term(term, shared)
            assert value == eval_term(term, fresh) == eval_term_naive(term, shared)

    def test_repeated_query_builds_nothing(self):
        model = two_graph_model()
        star = CACHE_QUERIES[5]
        eval_term(star, model)
        before = dict(model._indexes)
        assert len(before) == 2  # the root and the two leaves' shared probe
        eval_term(star, model)
        assert model._indexes.keys() == before.keys()
        assert all(model._indexes[k] is index for k, index in before.items())

    def test_cache_is_invisible(self):
        model = two_graph_model()
        fresh = ModelInstance(model.domains, model.relations)
        for term in CACHE_QUERIES:
            eval_term(term, model)
        assert model._indexes and not fresh._indexes
        assert model == fresh and repr(model) == repr(fresh)
        assert "_indexes" not in repr(model)
        copy = dataclasses.replace(model)
        assert copy == model and copy._indexes == {}
        other = dataclasses.replace(model, relations={"E": model.relation("F")})
        assert other._indexes == {}
        assert eval_term(CACHE_QUERIES[0], other) == model.relation("F")
