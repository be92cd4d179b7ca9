"""A small declaration language for workspaces.

A workspace collects type declarations, named contexts, predicate signatures,
wiring diagrams, terms, and model data (domains plus relation rows, inline or
from CSV files).  The printer emits a canonical form: parsing what it prints
reproduces the same workspace, and printing is a fixpoint.

Statements, each terminated by ``;`` or a ``{ ... }`` block::

    type x, y;
    context G = (x, y | supp z);
    pred R : (x, y);
    diagram d : (G, (y)) -> (x) {
      dot d1 : x;
      wire in1.1 -> d1;
      wire in1.2 -> d2;
      ...
      supp {z};
    }
    term t = d(R, s);
    term s = R;
    term u = true((x, y));
    domain x = {a, b};
    data R { (a, b); (b, b); }
    data R from "rows.csv";

``#`` starts a comment running to the end of the line.  Shell references in
``wire`` lines are ``in1``, ``in2``, ... for inner shells, ``out`` for the
outer one; an inner shell written as a context name may also be referenced by
that name when it is unambiguous.
"""

from __future__ import annotations

import csv
import os
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, TypeVar

from .context import Context, mk_context
from .errors import DslError, ReglogError
from .model import ModelInstance, mk_model
from .term import GraphicalTerm, PredicateSignature, bare_term, mk_term, true_term
from .wiring import WiringDiagram, mk_wiring

_T = TypeVar("_T")

_KEYWORDS = {
    "type",
    "pred",
    "context",
    "diagram",
    "term",
    "domain",
    "data",
    "supp",
    "wire",
    "dot",
    "from",
    "true",
}

_RESERVED_NAME = re.compile(r"^(out|in[0-9]+)$")

_TOKEN = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<string>"[^"\n]*")
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>[0-9]+)
  | (?P<arrow>->)
  | (?P<punct>[(){},;:=.|])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str
    value: str
    line: int


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, ending with an ``eof`` token.

    One ``finditer`` pass: the last alternative, ``bad``, matches any
    character the language does not use, so the matches tile the text and
    the first ``bad`` match raises with its line.
    """
    tokens = []
    line = 1
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "nl":
            line += 1
        elif kind == "bad":
            raise DslError(f"unexpected character {m.group()!r}", line)
        elif kind == "string":
            tokens.append(Token(kind, m.group()[1:-1], line))
        elif kind not in ("ws", "comment"):
            tokens.append(Token(kind, m.group(), line))
    tokens.append(Token("eof", "", line))
    return tokens


@dataclass
class Workspace:
    """Everything a source file declares, plus the statement order."""

    base_dir: str = "."
    types: list[str] = field(default_factory=list)
    contexts: dict[str, Context] = field(default_factory=dict)
    predicates: dict[str, Context] = field(default_factory=dict)
    diagrams: dict[str, WiringDiagram] = field(default_factory=dict)
    terms: dict[str, GraphicalTerm] = field(default_factory=dict)
    term_exprs: dict[str, tuple] = field(default_factory=dict)
    domains: dict[str, tuple[str, ...]] = field(default_factory=dict)
    data: dict[str, set[tuple[str, ...]]] = field(default_factory=dict)
    statements: list[tuple] = field(default_factory=list)

    @property
    def signature(self) -> PredicateSignature:
        return PredicateSignature(frozenset(self.types), dict(self.predicates))

    def model(self) -> ModelInstance:
        rows = {name: self.data.get(name, set()) for name in self.predicates}
        return mk_model(self.domains, self.predicates, rows)

    def merge_data(self, other: "Workspace") -> None:
        """Overlay another workspace's domains and rows onto this one."""
        for t in other.types:
            if t not in self.types:
                self.types.append(t)
        for t, atoms in other.domains.items():
            mine = self.domains.get(t, ())
            merged = list(mine) + [a for a in atoms if a not in mine]
            self.domains[t] = tuple(merged)
        for name, shell in other.predicates.items():
            if name in self.predicates and self.predicates[name] != shell:
                raise DslError(f"predicate {name} redeclared with a new shell")
            self.predicates.setdefault(name, shell)
        for name, rows in other.data.items():
            self.data.setdefault(name, set()).update(rows)


class _Parser:
    def __init__(self, tokens: list[Token], ws: Workspace):
        self.tokens = tokens
        self.pos = 0
        self.ws = ws

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str) -> Token:
        tok = self.next()
        if tok.value != value:
            raise DslError(f"expected {value!r}, found {tok.value!r}", tok.line)
        return tok

    def expect_name(self) -> Token:
        tok = self.next()
        if tok.kind != "name":
            raise DslError(f"expected a name, found {tok.value!r}", tok.line)
        return tok

    def fresh_name(self) -> Token:
        tok = self.expect_name()
        if tok.value in _KEYWORDS or _RESERVED_NAME.match(tok.value):
            raise DslError(f"{tok.value!r} is reserved", tok.line)
        for table in (
            self.ws.types,
            self.ws.contexts,
            self.ws.predicates,
            self.ws.diagrams,
            self.ws.terms,
        ):
            if tok.value in table:
                raise DslError(f"name {tok.value!r} already declared", tok.line)
        return tok

    def atom(self) -> Token:
        tok = self.next()
        if tok.kind not in ("name", "number"):
            raise DslError(f"expected an atom, found {tok.value!r}", tok.line)
        return tok

    def comma_list(
        self, item: Callable[[], _T], stop: tuple[str, ...] = ()
    ) -> list[_T]:
        """Items separated by commas; none at all if a ``stop`` token is next."""
        if self.peek().value in stop:
            return []
        items = [item()]
        while self.peek().value == ",":
            self.next()
            items.append(item())
        return items

    # -- shared pieces -----------------------------------------------------

    def type_name(self) -> str:
        tok = self.expect_name()
        if tok.value not in self.ws.types:
            raise DslError(f"unknown type {tok.value!r}", tok.line)
        return tok.value

    def context_literal(self) -> Context:
        open_tok = self.expect("(")
        ports = self.comma_list(self.type_name, (")", "|"))
        extra: list[str] = []
        if self.peek().value == "|":
            self.next()
            self.expect("supp")
            extra = self.comma_list(self.type_name)
        self.expect(")")
        try:
            return mk_context(ports, extra)
        except ReglogError as exc:
            raise DslError(str(exc), open_tok.line) from exc

    def context_ref(self) -> Context:
        tok = self.peek()
        if tok.kind == "name":
            self.next()
            if tok.value not in self.ws.contexts:
                raise DslError(f"unknown context {tok.value!r}", tok.line)
            return self.ws.contexts[tok.value]
        return self.context_literal()

    # -- statements ----------------------------------------------------------

    def parse(self) -> None:
        while self.peek().kind != "eof":
            tok = self.next()
            handler = getattr(self, f"stmt_{tok.value}", None)
            if tok.kind != "name" or handler is None:
                raise DslError(
                    f"expected a statement, found {tok.value!r}", tok.line
                )
            handler()

    def stmt_type(self) -> None:
        names = self.comma_list(self.fresh_name)
        self.expect(";")
        for tok in names:
            if tok.value in self.ws.types:
                raise DslError(f"type {tok.value!r} already declared", tok.line)
            self.ws.types.append(tok.value)
        self.ws.statements.append(("type", tuple(t.value for t in names)))

    def stmt_context(self) -> None:
        name = self.fresh_name()
        self.expect("=")
        value = self.context_literal()
        self.expect(";")
        self.ws.contexts[name.value] = value
        self.ws.statements.append(("context", name.value))

    def stmt_pred(self) -> None:
        name = self.fresh_name()
        self.expect(":")
        shell = self.context_ref()
        self.expect(";")
        self.ws.predicates[name.value] = shell
        self.ws.statements.append(("pred", name.value))

    def stmt_domain(self) -> None:
        tok = self.expect_name()
        if tok.value not in self.ws.types:
            raise DslError(f"unknown type {tok.value!r}", tok.line)
        if tok.value in self.ws.domains:
            raise DslError(f"domain of {tok.value!r} already declared", tok.line)
        self.expect("=")
        self.expect("{")
        atoms = [tok.value for tok in self.comma_list(self.atom, ("}",))]
        self.expect("}")
        self.expect(";")
        if len(set(atoms)) != len(atoms):
            raise DslError(f"duplicate atom in domain of {tok.value!r}", tok.line)
        self.ws.domains[tok.value] = tuple(atoms)
        self.ws.statements.append(("domain", tok.value))

    def _data_row(self, shell: Context, line: int, atoms: tuple[str, ...]) -> tuple:
        if len(atoms) != shell.arity:
            raise DslError(
                f"row has {len(atoms)} entries, predicate takes {shell.arity}",
                line,
            )
        for value, t in zip(atoms, shell.port_types):
            if value not in self.ws.domains.get(t, ()):
                raise DslError(
                    f"atom {value!r} is not in the domain of type {t!r}", line
                )
        return atoms

    def stmt_data(self) -> None:
        tok = self.expect_name()
        if tok.value not in self.ws.predicates:
            raise DslError(f"unknown predicate {tok.value!r}", tok.line)
        shell = self.ws.predicates[tok.value]
        if self.peek().value == "from":
            self.next()
            fname = self.next()
            if fname.kind != "string":
                raise DslError("expected a quoted file name", fname.line)
            self.expect(";")
            path = os.path.join(self.ws.base_dir, fname.value)
            rows = ingest_csv(path, shell, self.ws.domains, fname.line)
            self.ws.data.setdefault(tok.value, set()).update(rows)
            self.ws.statements.append(("data_from", tok.value, fname.value))
            return
        self.expect("{")
        rows: set[tuple[str, ...]] = set()
        while self.peek().value != "}":
            open_tok = self.expect("(")
            atoms = [tok.value for tok in self.comma_list(self.atom, (")",))]
            self.expect(")")
            self.expect(";")
            rows.add(self._data_row(shell, open_tok.line, tuple(atoms)))
        self.expect("}")
        if rows:
            self.ws.data.setdefault(tok.value, set()).update(rows)
            self.ws.statements.append(("data", tok.value, tuple(sorted(rows))))

    def stmt_diagram(self) -> None:
        name = self.fresh_name()
        self.expect(":")
        self.expect("(")
        inner_names: list[str | None] = []

        def inner_shell() -> Context:
            tok = self.peek()
            inner_names.append(tok.value if tok.kind == "name" else None)
            return self.context_ref()

        inner = self.comma_list(inner_shell, (")",))
        self.expect(")")
        self.expect("->")
        outer = self.context_ref()
        self.expect("{")

        dot_names: dict[str, int] = {}
        dot_types: list[str] = []
        rows: list[list[int | None]] = [
            [None] * c.arity for c in inner
        ] + [[None] * outer.arity]
        extra: list[str] = []
        saw_supp = False
        header_line = name.line

        def shell_index(tok: Token) -> int:
            if tok.value == "out":
                return len(inner)
            m = re.fullmatch(r"in([0-9]+)", tok.value)
            if m:
                k = int(m.group(1))
                if not 1 <= k <= len(inner):
                    raise DslError(
                        f"no inner shell {tok.value!r} (the diagram has "
                        f"{len(inner)})",
                        tok.line,
                    )
                return k - 1
            hits = [i for i, lbl in enumerate(inner_names) if lbl == tok.value]
            if len(hits) == 1:
                return hits[0]
            if len(hits) > 1:
                raise DslError(
                    f"shell name {tok.value!r} is ambiguous, use in1..in{len(inner)}",
                    tok.line,
                )
            raise DslError(f"unknown shell {tok.value!r}", tok.line)

        while self.peek().value != "}":
            tok = self.next()
            if tok.value == "dot":
                dname = self.expect_name()
                if dname.value in dot_names:
                    raise DslError(f"dot {dname.value!r} already declared", dname.line)
                self.expect(":")
                dot_names[dname.value] = len(dot_types)
                dot_types.append(self.type_name())
                self.expect(";")
            elif tok.value == "wire":
                ref = self.expect_name()
                shell = shell_index(ref)
                self.expect(".")
                port_tok = self.next()
                if port_tok.kind != "number":
                    raise DslError("expected a port number", port_tok.line)
                port = int(port_tok.value) - 1
                arity = (outer if shell == len(inner) else inner[shell]).arity
                if not 0 <= port < arity:
                    raise DslError(
                        f"shell {ref.value!r} has no port {port_tok.value}",
                        port_tok.line,
                    )
                self.expect("->")
                dname = self.expect_name()
                if dname.value not in dot_names:
                    raise DslError(f"unknown dot {dname.value!r}", dname.line)
                self.expect(";")
                if rows[shell][port] is not None:
                    raise DslError(
                        f"port {ref.value}.{port_tok.value} is wired twice",
                        port_tok.line,
                    )
                rows[shell][port] = dot_names[dname.value]
            elif tok.value == "supp":
                if saw_supp:
                    raise DslError("supp given twice", tok.line)
                saw_supp = True
                self.expect("{")
                extra = self.comma_list(self.type_name, ("}",))
                self.expect("}")
                self.expect(";")
            else:
                raise DslError(
                    f"expected dot, wire or supp, found {tok.value!r}", tok.line
                )
        self.expect("}")

        shells = [f"in{i + 1}" for i in range(len(inner))] + ["out"]
        for s, row in enumerate(rows):
            for p, dot in enumerate(row):
                if dot is None:
                    raise DslError(
                        f"port {shells[s]}.{p + 1} is not wired", header_line
                    )
        try:
            diagram = mk_wiring(inner, outer, dot_types, rows, extra)
        except ReglogError as exc:
            raise DslError(str(exc), header_line) from exc
        self.ws.diagrams[name.value] = diagram
        self.ws.statements.append(("diagram", name.value))

    def stmt_term(self) -> None:
        name = self.fresh_name()
        self.expect("=")
        head = self.expect_name()
        expr: tuple
        if head.value == "true":
            self.expect("(")
            ctx = self.context_ref()
            self.expect(")")
            value = true_term(ctx)
            expr = ("true", ctx)
        elif head.value in self.ws.diagrams:
            self.expect("(")
            args = [tok.value for tok in self.comma_list(self.expect_name, (")",))]
            self.expect(")")
            cells = []
            for arg in args:
                if arg in self.ws.terms:
                    cells.append(self.ws.terms[arg])
                elif arg in self.ws.predicates:
                    cells.append(arg)
                else:
                    raise DslError(
                        f"unknown predicate or term {arg!r}", head.line
                    )
            try:
                value = mk_term(
                    self.ws.diagrams[head.value], cells, self.ws.signature
                )
            except ReglogError as exc:
                raise DslError(str(exc), head.line) from exc
            expr = ("apply", head.value, tuple(args))
        elif head.value in self.ws.predicates:
            value = bare_term(head.value, self.ws.signature)
            expr = ("pred", head.value)
        else:
            raise DslError(
                f"expected true(...), a diagram application or a predicate, "
                f"found {head.value!r}",
                head.line,
            )
        self.expect(";")
        self.ws.terms[name.value] = value
        self.ws.term_exprs[name.value] = expr
        self.ws.statements.append(("term", name.value))


def ingest_csv(
    path: str,
    shell: Context,
    domains: dict[str, tuple[str, ...]],
    line: int | None = None,
) -> set[tuple[str, ...]]:
    """Read relation rows from a CSV file.

    The first row is treated as a header exactly when none of its entries is
    a valid atom for its column; every remaining row must consist of declared
    atoms of the column types.
    """
    try:
        with open(path, newline="") as fh:
            raw = [
                [cell.strip() for cell in row]
                for row in csv.reader(fh)
                if any(cell.strip() for cell in row)
            ]
    except OSError as exc:
        raise DslError(f"cannot read {path!r}: {exc.strerror}", line) from exc

    def cell_ok(value: str, t: str) -> bool:
        return value in domains.get(t, ())

    rows: set[tuple[str, ...]] = set()
    start = 0
    if raw:
        first = raw[0]
        if len(first) != shell.arity or not any(
            cell_ok(v, t) for v, t in zip(first, shell.port_types)
        ):
            start = 1
    for idx, row in enumerate(raw[start:], start=start + 1):
        if len(row) != shell.arity:
            raise DslError(
                f"{path}: row {idx} has {len(row)} columns, expected "
                f"{shell.arity}",
                line,
            )
        for value, t in zip(row, shell.port_types):
            if not cell_ok(value, t):
                raise DslError(
                    f"{path}: row {idx}: {value!r} is not an atom of type {t!r}",
                    line,
                )
        rows.add(tuple(row))
    return rows


def parse_workspace(text: str, base_dir: str = ".") -> Workspace:
    ws = Workspace(base_dir=base_dir)
    _Parser(tokenize(text), ws).parse()
    return ws


def load_workspace(path: str) -> Workspace:
    with open(path) as fh:
        text = fh.read()
    return parse_workspace(text, base_dir=os.path.dirname(path) or ".")


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _context_out(c: Context, known: dict[Context, str]) -> str:
    return known.get(c, str(c))


def _wire_lines(w: WiringDiagram) -> list[str]:
    shells = [f"in{i + 1}" for i in range(len(w.inner))] + ["out"]
    return [
        f"  wire {shells[s]}.{p + 1} -> d{dot + 1};"
        for s, row in enumerate(w.wires)
        for p, dot in enumerate(row)
    ]


def _diagram_out(
    name: str, w: WiringDiagram, known: dict[Context, str]
) -> list[str]:
    inner = ", ".join(_context_out(c, known) for c in w.inner)
    lines = [f"diagram {name} : ({inner}) -> {_context_out(w.outer, known)} {{"]
    for i, t in enumerate(w.dot_types):
        lines.append(f"  dot d{i + 1} : {t};")
    lines += _wire_lines(w)
    used = set(w.dot_types)
    for c in (*w.inner, w.outer):
        used.update(c.support)
    extra = [t for t in w.support if t not in used]
    if extra:
        lines.append(f"  supp {{{', '.join(extra)}}};")
    lines.append("}")
    return lines


def print_workspace(ws: Workspace) -> str:
    """Emit the workspace in canonical form (a fixpoint of parse-then-print)."""
    out: list[str] = []
    known: dict[Context, str] = {}
    for stmt in ws.statements:
        kind = stmt[0]
        if kind == "type":
            out.append(f"type {', '.join(stmt[1])};")
        elif kind == "context":
            name = stmt[1]
            out.append(f"context {name} = {ws.contexts[name]};")
            known.setdefault(ws.contexts[name], name)
        elif kind == "pred":
            name = stmt[1]
            out.append(f"pred {name} : {_context_out(ws.predicates[name], known)};")
        elif kind == "domain":
            t = stmt[1]
            out.append(f"domain {t} = {{{', '.join(ws.domains[t])}}};")
        elif kind == "data":
            name, rows = stmt[1], stmt[2]
            out.append(f"data {name} {{")
            for row in rows:
                out.append(f"  ({', '.join(row)});")
            out.append("}")
        elif kind == "data_from":
            out.append(f'data {stmt[1]} from "{stmt[2]}";')
        elif kind == "diagram":
            out.extend(_diagram_out(stmt[1], ws.diagrams[stmt[1]], known))
        elif kind == "term":
            name = stmt[1]
            expr = ws.term_exprs[name]
            if expr[0] == "true":
                out.append(f"term {name} = true({_context_out(expr[1], known)});")
            elif expr[0] == "pred":
                out.append(f"term {name} = {expr[1]};")
            else:
                out.append(f"term {name} = {expr[1]}({', '.join(expr[2])});")
    return "\n".join(out) + ("\n" if out else "")


def wiring_to_text(w: WiringDiagram) -> str:
    """A standalone literal for one wiring diagram."""
    lines = ["wiring {"]
    inner = ", ".join(str(c) for c in w.inner)
    lines.append(f"  inner: [{inner}];")
    lines.append(f"  outer: {w.outer};")
    lines.append(f"  dots: [{', '.join(w.dot_types)}];")
    lines += _wire_lines(w)
    lines.append(f"  supp {{{', '.join(w.support)}}};")
    lines.append("}")
    return "\n".join(lines)
