"""The acceptance gate: nine end-to-end criteria, one verdict line each.

Every criterion is recorded through the ``acceptance`` fixture, so the run
ends with a PASS/FAIL line per criterion in the terminal summary.  A
criterion that raises still records its FAIL line before the traceback
propagates.  The whole gate is budgeted to finish in well under five
minutes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from pathlib import Path
from random import Random

from reglog import cli
from reglog.contain import contains
from reglog.context import (
    compose_cm,
    image_factor_cm,
    is_mono,
    is_regular_epi,
    mk_context,
    pullback_cm,
)
from reglog.dsl import parse_workspace, print_workspace
from reglog.model import mk_model, true_rel
from reglog.syncat import (
    check_regular_axioms,
    classify,
    compose_ir,
    enumerate_functions,
    enumerate_relations,
    fundamental_check,
    identity_ir,
    leq_ir,
    transpose_ir,
)
from reglog.term import flatten
from reglog.wiring import mk_wiring, normalize

from helpers import (
    all_contexts,
    containment_sweep,
    contains_bruteforce,
    galois_law_sweep,
    generator_law_sweep,
    operad_law_sweep,
    order_law_sweep,
    pullback_up_sweep,
    rand_containment_pair,
    rand_morphism_pair,
    rand_regular_epi_onto,
    run_console_script,
    semantics_law_sweep,
    worked_example,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run(acceptance, number, description, body):
    """Execute one criterion body, always recording a verdict line."""
    try:
        body()
    except BaseException:
        with contextlib.suppress(AssertionError):
            acceptance.check(number, description, False)
        raise
    acceptance.check(number, description, True)


def test_criterion_1_worked_context_and_wiring(acceptance):
    def body():
        shell = mk_context(("y", "z", "y"), ("w", "x"))
        assert shell.arity == 3
        assert shell.support == ("w", "x", "y", "z")
        assert str(shell) == "(y, z, y | supp w, x)"

        w = worked_example()
        assert sum(len(row) for row in w.wires) == 16
        built = mk_wiring(w.inner, w.outer, w.dot_types, w.wires, ("v",))
        n = normalize(w)
        assert built == n
        assert normalize(n) == n
        assert n.white_labels() == ("v", "w")
        assert n.num_dots == 7 and n.support == ("v", "w", "x", "y", "z")

        # The same diagram transcribed in the workspace language.
        ws = parse_workspace(
            (CORPUS / "three_box_wiring.rl").read_text(), base_dir=str(CORPUS)
        )
        assert normalize(ws.diagrams["omega"]) == n

    run(
        acceptance,
        1,
        "worked three-port shell and 16-wire three-box diagram build, "
        "normalize, and expose white labels v and w",
        body,
    )


def test_criterion_2_factorization_and_pullbacks(acceptance):
    def body():
        rng = Random(92)
        for _ in range(1000):
            f = rand_morphism_pair(rng, types=("x", "y", "z"), max_arity=5)
            epi, mono = image_factor_cm(f)
            assert compose_cm(epi, mono) == f
            assert is_regular_epi(epi) and is_mono(mono)

        cospans, cones = pullback_up_sweep(("x",), 3)
        assert cospans == 1569 and cones > 1000
        cospans2, cones2 = pullback_up_sweep(("x", "y"), 3)
        assert (cospans2, cones2) == (40775, 2080408)

        for _ in range(300):
            f = rand_morphism_pair(rng, max_arity=4)
            g = rand_regular_epi_onto(rng, f.cod)
            apex, p1, p2 = pullback_cm(f, g)
            assert compose_cm(p1, f) == compose_cm(p2, g)
            assert is_regular_epi(p1)

    run(
        acceptance,
        2,
        "1000 random morphisms factor as regular epi then mono; pullback "
        "universal property exhaustive on 42344 cospans; regular epis "
        "stable under pullback",
        body,
    )


def test_criterion_3_operad_and_order_laws(acceptance):
    def body():
        assert operad_law_sweep(Random(93), 120) >= 1000
        assert order_law_sweep(Random(94), 210) >= 1000

    run(
        acceptance,
        3,
        "substitution associativity/unitality, tensor functoriality, and "
        "the diagram order laws hold on 1000+ random instances each",
        body,
    )


def test_criterion_4_spider_laws_exhaustive(acceptance):
    def body():
        family = all_contexts(("x", "y"), 3)
        assert len(family) == 24
        assert generator_law_sweep(family) == 400

    run(
        acceptance,
        4,
        "comonoid/monoid, Frobenius, special, and adjoint inequalities "
        "hold as diagram identities on all 24 contexts of arity <= 3 "
        "over two types",
        body,
    )


def test_criterion_5_semantics_and_transfer_laws(acceptance):
    def body():
        assert semantics_law_sweep(Random(95), 520) == 520
        assert galois_law_sweep(Random(96), 220) == 220

    run(
        acceptance,
        5,
        "three evaluation routes agree and the monotonicity/nesting/"
        "breaking laws hold on 520 term-model pairs; adjunction, Frobenius "
        "reciprocity, and base change hold on 220 random instances",
        body,
    )


def test_criterion_6_containment_oracles(acceptance):
    def body():
        checked, positives = containment_sweep(Random(97), 210)
        assert checked == 210 and 0 < positives < checked

        checked_naive, _ = containment_sweep(
            Random(98), 40, use_naive=True, max_dots=3
        )
        assert checked_naive == 40

        rng = Random(99)
        domains = {"x": ("0", "1"), "y": ("2", "3")}
        small = 0
        while small < 30:
            left, right = rand_containment_pair(rng, max_dots=3, max_cells=2)
            lf, rf = flatten(left), flatten(right)
            cost = 1
            for cell, shell in set(
                zip(lf.cells + rf.cells, lf.diagram.inner + rf.diagram.inner)
            ):
                cost *= 2 ** len(
                    list(
                        itertools.product(
                            *(domains[t] for t in shell.port_types)
                        )
                    )
                )
            if cost > 4096:
                continue
            verdict = contains(left, right)
            exhaustive = contains_bruteforce(left, right, domains)
            if verdict:
                assert exhaustive
            if not exhaustive:
                assert not verdict
            small += 1

    run(
        acceptance,
        6,
        "containment agrees with the countermodel oracle on 250 random "
        "pairs and implies the exhaustive small-domain search on 30 more",
        body,
    )


def _criterion_model():
    return mk_model(
        {"x": ("0", "1"), "y": ("0", "1")},
        {"R": mk_context(("x", "x")), "S": mk_context(("x", "y"))},
        {"R": (("0", "1"), ("1", "1")), "S": (("0", "0"), ("1", "0"))},
    )


# Cases per check at the default bounds on the criterion-7 model, 119,853 in
# all; the benchmark pins the same table.
LAW_CASES = {
    "frobenius_special_per_object": 720,
    "adjoint_monoid_inequalities": 480,
    "terminal_map_unique": 120,
    "subobject_lattice_size": 120,
    "validity_equals_frame_condition": 5904,
    "function_characterizations_agree": 5904,
    "order_on_functions_discrete": 3544,
    "entailments_sharpen_to_equalities": 5904,
    "transpose_involutive": 5904,
    "composition_unital": 5904,
    "left_adjoints_are_the_functions": 1021,
    "composition_associative": 65536,
    "pullback_square_commutes": 1080,
    "pullback_mediator_unique": 15390,
    "regular_epi_pullback_stable": 432,
    "equalizer_universal": 1602,
    "image_factorization": 72,
    "regular_epi_mono_orthogonal": 216,
}


def test_criterion_7_internal_relations_axioms(acceptance):
    def body():
        model = _criterion_model()
        report = check_regular_axioms(model)
        assert report.ok
        assert len(report.checks) == 18
        assert all(c.cases > 0 for c in report.checks)
        assert {c.name: c.cases for c in report.checks} == LAW_CASES

        def full(ports):
            c = mk_context(ports)
            return true_rel(c, model)

        ox, oy, oxy = full(("x",)), full(("y",)), full(("x", "y"))
        pairs = [
            (ox, ox), (ox, oy), (oy, ox), (oy, oy),
            (ox, oxy), (oxy, ox), (oy, oxy), (oxy, oy), (oxy, oxy),
        ]
        classified = 0
        for dom, cod in pairs:
            idd, idc = identity_ir(dom), identity_ir(cod)
            for rel in enumerate_relations(dom, cod):
                dag = transpose_ir(rel)
                unit = leq_ir(idd, compose_ir(rel, dag))
                counit = leq_ir(compose_ir(dag, rel), idc)
                verdict = classify(rel)
                assert verdict.total == unit
                assert verdict.deterministic == counit
                assert verdict.function == (unit and counit)
                classified += 1
        assert classified == 66624

        for dom, cod in pairs:
            fns = enumerate_functions(dom, cod)
            for f in fns:
                for g in fns:
                    if f != g:
                        assert not leq_ir(f, g)

    run(
        acceptance,
        7,
        "bounded axiom suite passes at arity 2 on the two-type model; "
        "totality and determinism match the adjoint characterization on "
        "all 66624 relations; functions are ordered discretely",
        body,
    )


def test_criterion_8_fundamental_census(acceptance):
    def body():
        model = mk_model(
            {"r": ("0", "1"), "s": ("a", "b", "c")},
            {"E": mk_context(("r", "r"))},
        )
        for left, right, functions, relations in [
            ("r", "s", 9, 64),
            ("s", "r", 8, 64),
            ("r", "r", 4, 16),
            ("s", "s", 27, 512),
        ]:
            report = fundamental_check(model, left, right)
            assert report.ok
            d = report.as_dict()
            assert d["functions"] == d["expected_functions"] == functions
            assert d["relations"] == d["expected_relations"] == relations
            assert d["functions_are_graphs"] is True

    run(
        acceptance,
        8,
        "census between one-port objects matches |D'|^|D| functions and "
        "2^(|D|*|D'|) relations for domain sizes 2 and 3, every function "
        "a graph",
        body,
    )


def test_criterion_9_corpus_and_cli_contract(acceptance, tmp_path):
    def body():
        files = sorted(CORPUS.glob("*.rl"))
        assert len(files) >= 20
        for path in files:
            ws = parse_workspace(path.read_text(), base_dir=str(CORPUS))
            once = print_workspace(ws)
            again = print_workspace(parse_workspace(once, base_dir=str(CORPUS)))
            assert once == again, path.name

        manifest = json.loads((CORPUS / "manifest.json").read_text())
        assert len(manifest) >= 40
        assert sum(1 for e in manifest if e["args"][0] == "eval") >= 15
        assert any(e["code"] == 1 for e in manifest)
        for entry in manifest:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main([str(CORPUS / entry["file"]), *entry["args"]])
            assert code == entry["code"], entry
            expected = (CORPUS / "expected" / entry["expect"]).read_bytes()
            assert buffer.getvalue().encode("utf-8") == expected, entry

        # the declared console script, end to end in a separate process
        proc = run_console_script(
            CORPUS / "three_box_wiring.rl", "eval", "main", capture_output=True
        )
        assert proc.returncode == 0
        assert proc.stdout == (
            CORPUS / "expected" / "three_box_wiring.eval.txt"
        ).read_bytes()

        # malformed input exits 2
        assert cli.main([str(tmp_path / "missing.rl"), "validate"]) == 2
        bad = tmp_path / "bad.rl"
        bad.write_text("type x;\npred R : (zz);\n")
        assert cli.main([str(bad), "validate"]) == 2

    run(
        acceptance,
        9,
        "24 corpus workspaces round-trip through the printer; all 41 "
        "committed CLI expectations match byte for byte with the "
        "documented exit codes",
        body,
    )
