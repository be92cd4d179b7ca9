"""Tests for the workspace language and the command line front end.

The printer is checked to be a fixpoint of parse-then-print, parse errors
carry line numbers, the tokenizer agrees with an oracle, CSV ingestion
detects headers, and every CLI subcommand is exercised through ``cli.main``,
also on mutated corpus texts, on generated long paths and deep nestings, and
in sequence on one cached parser.  The declared console script also runs as
a real subprocess from the source tree on every run, and the installed
``reglog`` executable is checked wherever it is on ``PATH``.  Exit codes
follow the contract: 0 success/holds, 1 does not hold (or a failing report),
2 malformed input.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import resource
import shutil
import subprocess
import sys
import time
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from reglog import cli, syncat
from reglog.context import mk_context
from reglog.dsl import (
    _lex,
    ingest_csv,
    load_workspace,
    parse_workspace,
    print_workspace,
    wiring_to_text,
)
from reglog.dot import emit_dot
from reglog.errors import DslError, ValidationError
from reglog.model import eval_term
from reglog.term import to_formula
from reglog.wiring import mk_wiring, normalize

from helpers import ROOT, run_console_script, src_env
from legacy_parser import oracle_lex

TEXTS = {p.name: p.read_text() for p in sorted((ROOT / "corpus").glob("*.rl"))}

BASIC = """\
type x, y;
context G = (x, y);
pred R : G;
pred U : (x | supp y);
diagram d : (G, G) -> G {
  dot a : x;
  dot b : y;
  dot m : y;
  wire in1.1 -> a;
  wire in1.2 -> m;
  wire in2.1 -> a;
  wire in2.2 -> b;
  wire out.1 -> a;
  wire out.2 -> b;
}
term t = d(R, R);
term r = R;
term top = true(G);
term wtop = true((x | supp y));
domain x = {a0, a1};
domain y = {b0};
data R { (a0, b0); (a1, b0); }
"""

IDENTITY_WS = """\
type x;
pred E : (x, x);
diagram id : ((x, x)) -> (x, x) {
  dot a : x;
  dot b : x;
  wire in1.1 -> a;
  wire in1.2 -> b;
  wire out.1 -> a;
  wire out.2 -> b;
}
"""


def nested_ws(depth: int) -> str:
    """``main`` is E inside ``depth`` identity diagrams, one term per level."""
    names = [f"t{k}" for k in range(1, depth)] + ["main"]
    terms = "".join(
        f"term {name} = id({cell});\n" for name, cell in zip(names, ["E", *names])
    )
    return IDENTITY_WS + terms + "domain x = {0, 1, 2};\ndata E { (0, 1); (1, 2); }\n"


def path_ws(cells: int, atoms: int) -> str:
    """``main`` is a path of ``cells`` E cells in one flat diagram, over the
    directed cycle on ``atoms`` atoms."""
    dots = "".join(f"  dot d{i} : x;\n" for i in range(cells + 1))
    wires = "".join(
        f"  wire in{i + 1}.1 -> d{i};\n  wire in{i + 1}.2 -> d{i + 1};\n"
        for i in range(cells)
    )
    edges = " ".join(f"({i}, {(i + 1) % atoms});" for i in range(atoms))
    return (
        "type x;\npred E : (x, x);\n"
        f"diagram path : ({', '.join(['(x, x)'] * cells)}) -> (x, x) {{\n"
        f"{dots}{wires}  wire out.1 -> d0;\n  wire out.2 -> d{cells};\n}}\n"
        f"term main = path({', '.join(['E'] * cells)});\n"
        f"domain x = {{{', '.join(map(str, range(atoms)))}}};\n"
        f"data E {{ {edges} }}\n"
    )


def run_module(*args, timeout=60, preexec_fn=None, **env):
    """Run ``python -m reglog.cli`` on the source tree, with extra ``env``."""
    return subprocess.run(
        [sys.executable, "-m", "reglog.cli", *map(str, args)],
        capture_output=True,
        env={**src_env(), **env},
        timeout=timeout,
        preexec_fn=preexec_fn,
    )


def write_ws(tmp_path, text=BASIC, name="ws.rl"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestTokenizer:
    def test_tracks_lines_and_comments(self):
        assert _lex("type x; # a comment\ntype") == (
            ["type", "x", ";", "type", ""],
            [1, 1, 1, 2, 2],
        )

    def test_rejects_stray_characters(self):
        with pytest.raises(DslError) as err:
            _lex("type x;\n$")
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_matches_the_oracle_on_the_corpus_and_mutations(self):
        # Stray characters, tabs, carriage returns, lone quotes (unterminated
        # strings) and non-ASCII text, inserted at seeded positions.
        def lex(lexer, text):
            try:
                return lexer(text)
            except DslError as err:
                return str(err), err.line

        inserts = ("$", "\t", "\r", "\r\n", '"', '"\n', "é", "λ", "\u00a0", "→")
        rng = Random(811)
        errors = 0
        for text in TEXTS.values():
            assert lex(_lex, text) == lex(oracle_lex, text)
            for _ in range(60):
                mutated = text
                for _ in range(rng.randint(1, 3)):
                    at = rng.randrange(len(mutated) + 1)
                    mutated = mutated[:at] + rng.choice(inserts) + mutated[at:]
                expected = lex(oracle_lex, mutated)
                assert lex(_lex, mutated) == expected, mutated
                errors += isinstance(expected[0], str)
        # Most mutations must reach the error path, or it goes unchecked.
        assert errors > len(TEXTS) * 30


class TestParser:
    def test_basic_workspace(self):
        ws = parse_workspace(BASIC)
        assert ws.types == ["x", "y"]
        assert ws.contexts["G"] == mk_context(("x", "y"))
        assert ws.predicates["U"] == mk_context(("x",), ("y",))
        d = ws.diagrams["d"]
        # dots are renumbered in order of first use when the diagram is built
        assert d.dot_types == ("x", "y", "y")
        assert d.wires == ((0, 1), (0, 2), (0, 2))
        assert ws.terms["t"].cells == ("R", "R")
        assert ws.domains["x"] == ("a0", "a1")
        assert ws.data["R"] == {("a0", "b0"), ("a1", "b0")}
        model = ws.model()
        assert eval_term(ws.terms["r"], model).rows() == [
            ("a0", "b0"),
            ("a1", "b0"),
        ]

    def test_named_shell_references(self):
        text = (
            "type x;\n"
            "context C = (x);\n"
            "diagram d : (C) -> (x) {\n"
            "  dot p : x;\n"
            "  wire C.1 -> p;\n"
            "  wire out.1 -> p;\n"
            "}\n"
        )
        ws = parse_workspace(text)
        assert ws.diagrams["d"].wires == ((0,), (0,))

    def test_ambiguous_shell_reference(self):
        text = (
            "type x;\n"
            "context C = (x);\n"
            "diagram d : (C, C) -> (x) {\n"
            "  dot p : x;\n"
            "  wire C.1 -> p;\n"
            "}\n"
        )
        with pytest.raises(DslError, match="ambiguous"):
            parse_workspace(text)

    def test_supp_block(self):
        text = (
            "type x, w;\n"
            "diagram d : () -> (x) {\n"
            "  dot p : x;\n"
            "  wire out.1 -> p;\n"
            "  supp {w};\n"
            "}\n"
        )
        ws = parse_workspace(text)
        assert ws.diagrams["d"].support == ("w", "x")
        assert ws.diagrams["d"].white_labels() == ("w",)

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("type out;", "reserved", 1),
            ("type x;\ntype x;", "already declared", 2),
            ("type x;\npred R : (z);", "unknown type", 2),
            ("context C = (x);", "unknown type", 1),
            ("type x;\ndomain x = {a, a};", "duplicate atom", 2),
            ("type x;\ndomain x = {a};\ndomain x = {b};", "already declared", 3),
            ("type x;\ndata R { (a); }", "unknown predicate", 2),
            ("term t = bogus;", "expected", 1),
            ("type x;\npred R : (x)", "expected ';'", 2),
        ],
    )
    def test_statement_errors(self, text, message, line):
        with pytest.raises(DslError, match=message) as err:
            parse_workspace(text)
        assert err.value.line == line

    def test_unwired_port_is_an_error(self):
        text = (
            "type x;\n"
            "diagram d : () -> (x, x) {\n"
            "  dot p : x;\n"
            "  wire out.1 -> p;\n"
            "}\n"
        )
        with pytest.raises(DslError, match="out.2 is not wired"):
            parse_workspace(text)

    def test_double_wired_port_is_an_error(self):
        text = (
            "type x;\n"
            "diagram d : () -> (x) {\n"
            "  dot p : x;\n"
            "  dot q : x;\n"
            "  wire out.1 -> p;\n"
            "  wire out.1 -> q;\n"
            "}\n"
        )
        with pytest.raises(DslError, match="wired twice"):
            parse_workspace(text)

    def test_wire_to_unknown_dot_or_shell(self):
        base = "type x;\ndiagram d : () -> (x) {\n  dot p : x;\n"
        with pytest.raises(DslError, match="unknown dot"):
            parse_workspace(base + "  wire out.1 -> q;\n}\n")
        with pytest.raises(DslError, match="no inner shell"):
            parse_workspace(base + "  wire in1.1 -> p;\n}\n")
        with pytest.raises(DslError, match="has no port 2"):
            parse_workspace(base + "  wire out.2 -> p;\n}\n")

    def test_data_rows_are_checked(self):
        head = "type x;\npred R : (x, x);\ndomain x = {a};\n"
        with pytest.raises(DslError, match="row has 1 entries"):
            parse_workspace(head + "data R { (a); }")
        with pytest.raises(DslError, match="not in the domain"):
            parse_workspace(head + "data R { (a, b); }")

    def test_term_arity_mismatch_is_reported(self):
        text = BASIC + "term bad = d(R, R, R);\n"
        with pytest.raises(DslError, match="line 2[0-9]"):
            parse_workspace(text)


class TestCsv:
    SHELL = mk_context(("x", "y"))
    DOMAINS = {"x": ("a0", "a1"), "y": ("b0",)}

    def test_header_detected_and_skipped(self, tmp_path):
        f = tmp_path / "rows.csv"
        f.write_text("src,dst\na0,b0\na1 , b0\n")
        assert ingest_csv(str(f), self.SHELL, self.DOMAINS) == {
            ("a0", "b0"),
            ("a1", "b0"),
        }

    def test_headerless_file(self, tmp_path):
        f = tmp_path / "rows.csv"
        f.write_text("a0,b0\n\na1,b0\n")
        assert ingest_csv(str(f), self.SHELL, self.DOMAINS) == {
            ("a0", "b0"),
            ("a1", "b0"),
        }

    def test_bad_rows_are_rejected(self, tmp_path):
        f = tmp_path / "rows.csv"
        f.write_text("src,dst\na0\n")
        with pytest.raises(DslError, match="row 2 has 1 columns"):
            ingest_csv(str(f), self.SHELL, self.DOMAINS)
        f.write_text("src,dst\na0,zz\n")
        with pytest.raises(DslError, match="'zz' is not an atom"):
            ingest_csv(str(f), self.SHELL, self.DOMAINS)
        with pytest.raises(DslError, match="cannot read"):
            ingest_csv(str(tmp_path / "absent.csv"), self.SHELL, self.DOMAINS)

    def test_data_from_statement(self, tmp_path):
        (tmp_path / "rows.csv").write_text("src,dst\na0,b0\n")
        path = write_ws(
            tmp_path,
            "type x, y;\npred R : (x, y);\ndomain x = {a0};\ndomain y = {b0};\n"
            'data R from "rows.csv";\n',
        )
        ws = load_workspace(path)
        assert ws.data["R"] == {("a0", "b0")}
        assert 'data R from "rows.csv";' in print_workspace(ws)


class TestPrinter:
    def test_print_is_a_fixpoint(self):
        ws = parse_workspace(BASIC)
        once = print_workspace(ws)
        twice = print_workspace(parse_workspace(once))
        assert once == twice
        reparsed = parse_workspace(twice)
        assert reparsed.diagrams["d"] == ws.diagrams["d"]
        assert reparsed.terms["t"] == ws.terms["t"]
        assert reparsed.data == ws.data

    def test_context_names_are_reused(self):
        out = print_workspace(parse_workspace(BASIC))
        assert "pred R : G;" in out
        assert "diagram d : (G, G) -> G {" in out
        assert "term top = true(G);" in out
        assert "term wtop = true((x | supp y));" in out

    def test_wiring_to_text(self):
        w = mk_wiring(
            (), mk_context(("x",)), ("x",), ((0,),), extra_support=("w", "y")
        )
        text = wiring_to_text(w)
        assert text.splitlines() == [
            "wiring {",
            "  inner: [];",
            "  outer: (x);",
            "  dots: [x];",
            "  wire out.1 -> d1;",
            "  supp {w, x, y};",
            "}",
        ]

    def test_dot_needs_one_label_per_inner_shell(self):
        d = parse_workspace(BASIC).diagrams["d"]
        assert emit_dot(d, ("R", "S")).startswith('graph "wiring" {')
        for labels in [(), ("R",), ("R", "S", "T")]:
            with pytest.raises(ValidationError, match="^one label per inner"):
                emit_dot(d, labels)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def test_validate(self, tmp_path, capsys):
        path = write_ws(tmp_path)
        code, out, _ = run_cli(capsys, path, "validate")
        assert code == 0
        assert out.startswith("ok:")
        code, out, _ = run_cli(capsys, path, "validate", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["predicates"] == 2 and payload["terms"] == 4

    def test_print_roundtrip(self, tmp_path, capsys):
        path = write_ws(tmp_path)
        code, out, _ = run_cli(capsys, path, "print")
        assert code == 0
        again = write_ws(tmp_path, out, name="ws2.rl")
        code, out2, _ = run_cli(capsys, again, "print")
        assert code == 0 and out2 == out

    def test_eval_text_and_json(self, tmp_path, capsys):
        path = write_ws(tmp_path)
        code, out, _ = run_cli(capsys, path, "eval", "r")
        assert code == 0
        assert out == "a0, b0\na1, b0\n"
        code, out, _ = run_cli(capsys, path, "eval", "t", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["context"] == ["x", "y"]
        rel = eval_term(
            parse_workspace(BASIC).terms["t"], parse_workspace(BASIC).model()
        )
        assert [tuple(r) for r in payload["tuples"]] == rel.rows()

    def test_leq_exit_codes(self, tmp_path, capsys):
        text = (
            "type x;\n"
            "diagram merged : () -> (x, x) {\n"
            "  dot p : x;\n"
            "  wire out.1 -> p;\n"
            "  wire out.2 -> p;\n"
            "}\n"
            "diagram split : () -> (x, x) {\n"
            "  dot p : x;\n"
            "  dot q : x;\n"
            "  wire out.1 -> p;\n"
            "  wire out.2 -> q;\n"
            "}\n"
        )
        path = write_ws(tmp_path, text)
        code, out, _ = run_cli(capsys, path, "leq", "merged", "split")
        assert (code, out) == (0, "holds\n")
        code, out, _ = run_cli(capsys, path, "leq", "split", "merged")
        assert (code, out) == (1, "does not hold\n")
        code, out, _ = run_cli(capsys, path, "leq", "split", "merged", "--json")
        assert code == 1 and json.loads(out) == {"leq": False}

    def test_contains_and_entail(self, tmp_path, capsys):
        path = write_ws(tmp_path)
        code, _, _ = run_cli(capsys, path, "contains", "t", "top")
        assert code == 0
        code, _, _ = run_cli(capsys, path, "contains", "top", "t")
        assert code == 1
        code, _, _ = run_cli(capsys, path, "entail", "t", "r")
        assert code == 0

    def test_model_overlay(self, tmp_path, capsys):
        base = write_ws(tmp_path)
        overlay = write_ws(
            tmp_path,
            "type x, y;\npred R : (x, y);\ndomain x = {a2};\n"
            "domain y = {b0};\ndata R { (a2, b0); }\n",
            name="extra.rl",
        )
        code, out, _ = run_cli(capsys, base, "eval", "r", "--model", overlay)
        assert code == 0
        assert "a2, b0" in out

    def test_compose_and_normalize(self, tmp_path, capsys):
        path = write_ws(tmp_path)
        code, out, _ = run_cli(capsys, path, "compose", "d", "1", "d")
        assert code == 0 and out.startswith("wiring {")
        code, out, _ = run_cli(capsys, path, "normalize", "t", "--json")
        assert code == 0
        ws = parse_workspace(BASIC)
        expected = normalize(ws.terms["t"].diagram)
        payload = json.loads(out)
        assert payload["dots"] == list(expected.dot_types)
        assert [tuple(r) for r in payload["wires"]] == list(expected.wires)
        code, _, _ = run_cli(capsys, path, "compose", "d", "3", "d")
        assert code == 2

    def test_formula(self, tmp_path, capsys):
        path = write_ws(tmp_path)
        code, out, _ = run_cli(capsys, path, "formula", "t")
        assert code == 0
        ws = parse_workspace(BASIC)
        assert out == to_formula(ws.terms["t"]) + "\n"
        assert "∃" in out and "R(" in out

    def test_minimize(self, tmp_path, capsys):
        path = write_ws(tmp_path)
        code, out, _ = run_cli(capsys, path, "minimize", "t", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["cells"] == ["R"]

    def test_dot_output(self, tmp_path, capsys):
        path = write_ws(tmp_path)
        code, out, _ = run_cli(capsys, path, "dot", "d")
        assert code == 0
        assert out.startswith('graph "d" {')
        assert out.count("shape=point") == 3
        assert out.count("shape=square") == 2
        assert out.count("--") == 6
        code, out, _ = run_cli(capsys, path, "dot", "wtop")
        assert code == 0
        assert "supp {y}" in out

    def test_deeply_nested_term(self, tmp_path, capsys):
        # ``main`` is E inside ``depth`` identity diagrams, one term per level;
        # every command flattens it, so any depth must print the same bytes.
        shallow = write_ws(tmp_path, nested_ws(1), "deep1.rl")
        deep = write_ws(tmp_path, nested_ws(2000), "deep2000.rl")
        for args in (
            ("eval", "main"),
            ("entail", "main", "main"),
            ("contains", "main", "main"),
            ("formula", "main"),
            ("normalize", "main"),
            ("minimize", "main"),
            ("dot", "main"),
        ):
            expected = run_cli(capsys, shallow, *args)
            assert expected[0] == 0 and expected[1]
            assert run_cli(capsys, deep, *args) == expected

    def test_long_flat_path(self, tmp_path, capsys):
        # 1,200 cells in one diagram; on the 7-cycle a path of k steps is
        # {(i, i+k mod 7)}, and k = 1,200 is 3 mod 7.
        path = write_ws(tmp_path, path_ws(1200, 7), "path1200.rl")
        code, out, err = run_cli(capsys, path, "eval", "main")
        assert (code, err) == (0, "")
        assert out.splitlines() == [f"{i}, {(i + 3) % 7}" for i in range(7)]
        assert run_cli(capsys, path, "contains", "main", "main") == (0, "holds\n", "")

    def test_contains_does_not_depend_on_the_order_cells_are_written(self):
        # A plan that ignored the wires took 106 s on ``contains written odd``.
        ws = ROOT / "tests" / "workspaces" / "odd_slots_path14.rl"
        for pair in (("written", "odd"), ("odd", "written")):
            proc = run_module(ws, "contains", *pair, timeout=10)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"holds\n", b"")

    def test_axioms_and_fundamental(self, tmp_path, capsys):
        path = write_ws(tmp_path)
        code, out, _ = run_cli(capsys, path, "axioms", "--bound", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True and len(payload["checks"]) == 18
        code, out, _ = run_cli(capsys, path, "fundamental", "x", "y", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["functions"] == 1 and payload["relations"] == 4
        code, _, err = run_cli(capsys, path, "fundamental", "x", "zz")
        assert code == 2 and "error:" in err

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, str(tmp_path / "nope.rl"), "validate")
        assert code == 2 and "error:" in err
        bad = write_ws(tmp_path, "type x;\npred R : (zz);\n", name="bad.rl")
        code, _, err = run_cli(capsys, bad, "validate")
        assert code == 2 and "line 2" in err
        path = write_ws(tmp_path)
        code, _, err = run_cli(capsys, path, "eval", "missing")
        assert code == 2 and "unknown term" in err
        # The error names the dot by its declared position (b is dot 2),
        # not by its number in the normal form (where b would be dot 1).
        mistyped = write_ws(
            tmp_path,
            "type x, y;\n"
            "diagram d : ((x)) -> () {\n"
            "  dot a : x;\n"
            "  dot b : y;\n"
            "  wire in1.1 -> b;\n"
            "}\n",
            name="mistyped.rl",
        )
        code, _, err = run_cli(capsys, mistyped, "validate")
        assert code == 2
        assert "line 2: port 1 of shell (x) has type x but dot 2 has type y" in err

    def test_non_utf8_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.rl"
        path.write_bytes(b"\xfftype x;\n")
        proc = run_module(path, "validate")
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: cannot read {str(path)!r}: not UTF-8 (byte 0xff)\n".encode()
        )
        rows = tmp_path / "rows.csv"
        rows.write_bytes(b"a0,b0\ncaf\xe9,b0\n")
        ws = write_ws(tmp_path, BASIC + 'data R from "rows.csv";\n', "csv.rl")
        line = BASIC.count("\n") + 1
        assert run_cli(capsys, ws, "validate") == (
            2,
            "",
            f"error: line {line}: cannot read {str(rows)!r}: not UTF-8 (byte 0xe9)\n",
        )

    def test_utf8_input_under_the_c_locale(self, tmp_path):
        path = tmp_path / "lambda.rl"
        path.write_bytes("type x;  # λ\n".encode("utf-8"))
        proc = run_module(
            path, "validate", LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            b"ok: types 1, contexts 0, predicates 0, diagrams 0, terms 0\n"
        )

    def test_fundamental_refuses_a_large_census_before_allocating(self, tmp_path):
        # 5 x 5 cells would mean 2^25 relations, minutes and gigabytes without
        # the limit, so the child gets its own address-space cap and a timeout.
        path = write_ws(
            tmp_path,
            "type x, y;\ndomain x = {a, b, c, d, e};\ndomain y = {p, q, r, s, t};\n",
        )
        cap = 700 << 20
        proc = run_module(
            path,
            "fundamental",
            "x",
            "y",
            timeout=5,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            b"error: fundamental census of 5x5 = 25 cells is over the limit of "
            b"16 cells\n"
        )

    def test_eval_refuses_a_huge_result_before_allocating(self, tmp_path):
        # Six loose outer ports over 60 atoms: 60^6 rows.  Without the limit
        # this ended in a MemoryError traceback and exit 1 under a 1 GB cap.
        atoms = ", ".join(f"a{i}" for i in range(60))
        dots = "".join(
            f"  dot p{i} : x;\n  wire out.{i} -> p{i};\n" for i in range(1, 7)
        )
        path = write_ws(
            tmp_path,
            f"type x;\ndomain x = {{{atoms}}};\n"
            f"diagram wide : () -> (x, x, x, x, x, x) {{\n{dots}}}\n"
            "term main = wide();\n",
        )
        cap = 700 << 20
        for command in (["eval", "main"], ["entail", "main", "main"]):
            start = time.perf_counter()
            proc = run_module(
                path,
                *command,
                timeout=5,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            )
            assert time.perf_counter() - start < 1
            assert (proc.returncode, proc.stdout) == (2, b"")
            assert proc.stderr == (
                b"error: the term's loose outer dots alone give 46656000000 rows, "
                b"over the limit of EVAL_MAX_ROWS = 1048576 rows\n"
            )

    def test_axioms_refuses_a_large_bound_before_allocating(self, tmp_path):
        # At arity 3 an object has 125 rows, and the law suite would tensor it
        # into about 2 million rows: gigabytes without the limit.
        path = write_ws(
            tmp_path,
            "type x, y;\ndomain x = {a, b, c, d, e};\ndomain y = {p, q, r, s, t};\n",
        )
        cap = 700 << 20
        start = time.perf_counter()
        proc = run_module(
            path,
            "axioms",
            "--bound",
            "3",
            timeout=5,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert time.perf_counter() - start < 1
        assert proc.returncode == 2
        assert proc.stderr == (
            b"error: axioms at arity 3: an object of 125 rows needs 3637 MiB of "
            b"masks for o (+) o (+) o, over the limit of 512 MiB\n"
        )

    def test_axioms_passes_on_six_two_atom_types(self, tmp_path):
        # 3,555,328 pairs of objects in 34 shapes of the hom sweep
        types = [f"t{k}" for k in range(6)]
        text = f"type {', '.join(types)};\n" + "".join(
            f"domain {t} = {{a, b}};\n" for t in types
        )
        proc = run_module(write_ws(tmp_path, text), "axioms", timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == b"result: ok"

    def test_axioms_on_the_largest_corpus_workspace(self):
        # 254,976 pairs of objects; a pair at a time it took about 12 s
        proc = run_module(ROOT / "corpus" / "three_box_wiring.rl", "axioms", timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == b"result: ok"

    @pytest.mark.parametrize(
        "limit",
        [
            "AXIOMS_MAX_RELATIONS",
            "AXIOMS_MAX_ASSOC_TRIPLES",
            "AXIOMS_MAX_LIMIT_OBJECTS",
        ],
    )
    def test_axioms_sweep_budgets_exit_2(self, tmp_path, capsys, monkeypatch, limit):
        monkeypatch.setattr(syncat, limit, 0)
        code, out, err = run_cli(capsys, write_ws(tmp_path), "axioms")
        assert (code, out) == (2, "")
        pattern = r"error: axioms at \w+ \d+.*, over the limit of 0 \w+\n"
        assert re.fullmatch(pattern, err)

    def test_axioms_refuses_a_negative_bound(self, tmp_path):
        proc = run_module(write_ws(tmp_path), "axioms", "--bound", "-1", timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == (
            b"error: axiom bounds must not be negative: max_arity, hom_arity\n"
        )

    def test_non_ascii_output_under_the_c_locale(self):
        proc = run_module(
            ROOT / "corpus" / "shell_three_ports.rl",
            "formula",
            "main",
            LC_ALL="C",
            PYTHONCOERCECLOCALE="0",
            PYTHONUTF8="0",
        )
        assert proc.returncode == 0, proc.stderr
        expected = ROOT / "corpus" / "expected" / "shell_three_ports.formula.txt"
        assert proc.stdout == expected.read_bytes()
        assert not proc.stdout.isascii()

    def test_stdout_is_switched_to_utf8_keeping_its_error_handler(
        self, tmp_path, monkeypatch
    ):
        raw = io.BytesIO()
        out = io.TextIOWrapper(raw, encoding="ascii", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main([write_ws(tmp_path), "validate"]) == 0
        assert (out.encoding, out.errors) == ("utf-8", "surrogateescape")
        print("\u2203 \udcff", file=out, end="")
        out.flush()
        assert raw.getvalue().endswith("\u2203 ".encode() + b"\xff")

    def test_timings_go_to_stderr_only(self, tmp_path, capsys):
        path = write_ws(tmp_path)
        overlay = write_ws(tmp_path, "type x;\ndomain x = {a2};\n", name="extra.rl")
        timings = re.compile(
            r"timings: load \d+\.\d{6} s\ntimings: command \d+\.\d{6} s\n"
        )
        for args in (
            ("eval", "r"),
            ("eval", "r", "--json"),
            ("eval", "r", "--model", overlay),
            ("contains", "top", "t"),
        ):
            code, out, err = run_cli(capsys, path, *args)
            assert err == ""
            timed_code, timed_out, timed_err = run_cli(capsys, path, *args, "--timings")
            assert (timed_code, timed_out) == (code, out)
            assert timings.fullmatch(timed_err), timed_err

    def test_parser_is_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()
        proc = subprocess.run(
            [sys.executable, "-c",
             "import reglog.cli as c; print(c.build_parser.cache_info().misses)"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0 and proc.stdout == "0\n", proc.stderr

    def test_reused_parser_carries_no_state_between_calls(self, tmp_path, capsys):
        # Each good call in the sequence prints the bytes a fresh process
        # prints, whatever ran before it in this process.
        path = write_ws(tmp_path)
        overlay = write_ws(
            tmp_path,
            "type x, y;\npred R : (x, y);\ndomain x = {a2};\n"
            "domain y = {b0};\ndata R { (a2, b0); }\n",
            name="extra.rl",
        )
        fresh = {}

        def good(*args):
            if args not in fresh:
                proc = run_console_script(path, *args, capture_output=True)
                fresh[args] = (proc.returncode, proc.stdout)
            code, out, _ = run_cli(capsys, path, *args)
            assert (code, out.encode()) == fresh[args]

        good("eval", "t", "--json")
        good("eval", "t")
        good("eval", "r", "--model", overlay)
        good("eval", "r")
        with pytest.raises(SystemExit) as exc:
            cli.main([path, "eval", "--json"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: reglog")
        good("eval", "t")
        good("contains", "top", "t")
        assert fresh[("eval", "r")] != fresh[("eval", "r", "--model", overlay)]
        assert fresh[("contains", "top", "t")][0] == 1

    def test_console_script_subprocess(self, tmp_path):
        path = write_ws(tmp_path)
        proc = run_console_script(path, "eval", "r", capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "a0, b0\na1, b0\n"
        proc = subprocess.run(
            [sys.executable, "-m", "reglog.cli", path, "leq", "t", "t"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0 and proc.stdout == "holds\n"

    @pytest.mark.skipif(
        shutil.which("reglog") is None, reason="reglog console script not installed"
    )
    def test_installed_console_script(self):
        corpus = ROOT / "corpus"
        proc = subprocess.run(
            ["reglog", str(corpus / "three_box_wiring.rl"), "eval", "main"],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == (
            corpus / "expected" / "three_box_wiring.eval.txt"
        ).read_bytes()

    def test_corpus_oracle_finds_no_stale_expectation(self):
        # The script re-derives every committed eval expectation with the
        # naive evaluator, so this runs the oracle route over the corpus.
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "regen_expected.py"), "--check"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout == "41 expectations checked, 0 stale\n"


# Manifest invocations on mutated corpus texts: whole lines or single words
# deleted, copied elsewhere, or swapped.  Whatever the text, the CLI answers
# with an exit code of the contract and lets no exception escape.  Large
# generated inputs are only reshaped in ways that keep them well-formed, so
# every run on them reaches the evaluator and must print what the unchanged
# input prints.

MANIFEST = json.loads((ROOT / "corpus" / "manifest.json").read_text())
PARTS = (re.compile(r"[^\n]*\n|[^\n]+"), re.compile(r"\w+|\s+|."))
# 1,000 examples of 3 runs each: 3,000 runs, with a third of the per-example
# overhead of hypothesis.
FUZZ_EXAMPLES = 1000
RUNS_PER_EXAMPLE = 3
# Generated inputs past the interpreter's recursion limit: a flat 1,100-cell
# path and a term nested 600 deep.  A run on the path costs up to 100 ms, so
# each invocation runs once as generated and once reshaped.
LARGE = {"long_path.rl": path_ws(1100, 3), "deep_nesting.rl": nested_ws(600)}
LARGE_MANIFEST = [
    {"file": "long_path.rl", "args": ["eval", "main"]},
    {"file": "long_path.rl", "args": ["entail", "main", "main"]},
    {"file": "deep_nesting.rl", "args": ["eval", "main"]},
    {"file": "deep_nesting.rl", "args": ["entail", "main", "main"]},
    {"file": "deep_nesting.rl", "args": ["contains", "main", "main"]},
]


def mutate(rng: Random, text: str) -> str:
    pieces = rng.choice(PARTS).findall(text)
    for _ in range(rng.randint(1, 4)):
        if not pieces:
            break
        i, j = rng.randrange(len(pieces)), rng.randrange(len(pieces))
        op = rng.choice(("delete", "insert", "swap"))
        if op == "delete":
            del pieces[i]
        elif op == "insert":
            pieces.insert(i, pieces[j])
        else:
            pieces[i], pieces[j] = pieces[j], pieces[i]
    return "".join(pieces)


SPACES = (" ", "  ", "\t", "\n", " \n\t", " # reshaped\n")


def reshape(rng: Random, text: str) -> str:
    """A well-formed variant of ``text``: ``dot`` and ``wire`` lines shuffled
    within their blocks, dots and terms renamed by a permutation of their
    names (``main`` kept), and one to four runs of whitespace replaced."""
    lines = text.splitlines(keepends=True)
    for kind in ("  dot ", "  wire "):
        at = [i for i, line in enumerate(lines) if line.startswith(kind)]
        moved = [lines[i] for i in at]
        rng.shuffle(moved)
        for i, line in zip(at, moved):
            lines[i] = line
    text = "".join(lines)
    rename = {}
    for kind in ("dot", "term"):
        names = [n for n in re.findall(rf"\b{kind} (\w+)", text) if n != "main"]
        rename.update(zip(names, rng.sample(names, len(names))))
    text = "".join([rename.get(word, word) for word in re.split(r"(\w+)", text)])
    pieces = re.split(r"(\s+)", text)
    for _ in range(rng.randint(1, 4)):
        pieces[rng.randrange(1, len(pieces), 2)] = rng.choice(SPACES)
    return "".join(pieces)


def run_main(path, args) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(path), *args])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    shutil.copytree(ROOT / "corpus" / "data", path / "data")
    return path


@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(st.integers(0, 10**9))
def test_corpus_mutations_keep_the_exit_code_contract(fuzz_dir, seed):
    rng = Random(seed)
    for _ in range(RUNS_PER_EXAMPLE):
        entry = rng.choice(MANIFEST)
        text = mutate(rng, TEXTS[entry["file"]])
        path = fuzz_dir / entry["file"]
        path.write_text(text)
        code, _ = run_main(path, entry["args"])
        assert code in (0, 1, 2), (text, code)


def test_reshaped_large_inputs_reach_the_evaluator(fuzz_dir):
    # Not under ``given``: hypothesis raises the recursion limit while an
    # example runs, which lets a recursive evaluator through.
    rng = Random(1201)
    for entry in LARGE_MANIFEST:
        path = fuzz_dir / entry["file"]
        path.write_text(LARGE[entry["file"]])
        answer = run_main(path, entry["args"])
        assert answer[0] == 0, answer
        path.write_text(reshape(rng, LARGE[entry["file"]]))
        assert run_main(path, entry["args"]) == answer
