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

Files are UTF-8.  The lexer runs one ``findall`` per line, whose matches are
exactly the tokens: strings keep their quotes, a comment is the line's last
match and is dropped, and any other character gives an empty match.  Neither
a string nor a comment runs past its line.  The parser reads two flat lists,
the token strings and their lines, and takes a token's kind from its first
character: a letter or ``_`` for a name, a digit for a number, ``"`` for a
string; the empty string marks the end.
"""

from __future__ import annotations

import csv
import os
import re
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from .context import Context, mk_context
from .errors import DslError, ReglogError
from .model import ModelInstance, mk_model
from .term import GraphicalTerm, PredicateSignature, bare_term, mk_term, true_term
from .wiring import WiringDiagram, mk_wiring

_T = TypeVar("_T")

_KEYWORDS = frozenset(
    "type pred context diagram term domain data supp wire dot from true".split()
)

_RESERVED_NAME = re.compile(r"^(out|in[0-9]+)$")

# The tokens of one line, and a comment; the empty last alternative matches
# before each character that is neither whitespace nor the start of a token.
_TOKEN = re.compile(
    r'"[^"]*"|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|->|[(){},;:=.|]|#.*|(?=[^ \t\r])'
)


def _lex(text: str) -> tuple[list[str], list[int]]:
    """The token strings of ``text`` and their lines, ending with ``""``."""
    values: list[str] = []
    lines: list[int] = []
    findall = _TOKEN.findall
    n = 0
    for n, line in enumerate(text.split("\n"), 1):
        tokens = findall(line)
        if "" in tokens:
            at = next(m.start() for m in _TOKEN.finditer(line) if not m.group())
            raise DslError(f"unexpected character {line[at]!r}", n)
        if tokens and tokens[-1][0] == "#":
            tokens.pop()
        values += tokens
        lines += [n] * len(tokens)
    values.append("")
    lines.append(n)
    return values, lines


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
    def __init__(self, text: str, ws: Workspace):
        self.values, self.lines = _lex(text)
        self.pos = 0
        self.ws = ws

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> str:
        return self.values[self.pos]

    def next(self) -> str:
        self.pos += 1
        return self.values[self.pos - 1]

    @property
    def line(self) -> int:
        """The line of the token read last."""
        return self.lines[self.pos - 1]

    def unexpected(self, what: str) -> DslError:
        """The error for the token read last, which is not ``what``."""
        value = self.values[self.pos - 1].strip('"')
        return DslError(f"expected {what}, found {value!r}", self.line)

    def expect(self, value: str) -> None:
        self.pos += 1
        if self.values[self.pos - 1] != value:
            raise self.unexpected(repr(value))

    def expect_name(self) -> str:
        self.pos += 1
        name = self.values[self.pos - 1]
        if not name.isidentifier():
            raise self.unexpected("a name")
        return name

    def fresh_name(self) -> str:
        name = self.expect_name()
        if name in _KEYWORDS or _RESERVED_NAME.match(name):
            raise DslError(f"{name!r} is reserved", self.line)
        ws = self.ws
        for table in (ws.types, ws.contexts, ws.predicates, ws.diagrams, ws.terms):
            if name in table:
                raise DslError(f"name {name!r} already declared", self.line)
        return name

    def atom(self) -> str:
        value = self.next()
        if not (value.isidentifier() or value.isdigit()):
            raise self.unexpected("an atom")
        return value

    def comma_list(
        self, item: Callable[[], _T], stop: tuple[str, ...] = ()
    ) -> list[_T]:
        """Items separated by commas; none at all if a ``stop`` token is next."""
        if self.values[self.pos] in stop:
            return []
        items = [item()]
        while self.values[self.pos] == ",":
            self.pos += 1
            items.append(item())
        return items

    # -- shared pieces -----------------------------------------------------

    def type_name(self) -> str:
        name = self.expect_name()
        if name not in self.ws.types:
            raise DslError(f"unknown type {name!r}", self.line)
        return name

    def context_literal(self) -> Context:
        self.expect("(")
        line = self.line
        ports = self.comma_list(self.type_name, (")", "|"))
        extra: list[str] = []
        if self.peek() == "|":
            self.next()
            self.expect("supp")
            extra = self.comma_list(self.type_name)
        self.expect(")")
        try:
            return mk_context(ports, extra)
        except ReglogError as exc:
            raise DslError(str(exc), line) from exc

    def context_ref(self) -> Context:
        if not self.peek().isidentifier():
            return self.context_literal()
        name = self.next()
        if name not in self.ws.contexts:
            raise DslError(f"unknown context {name!r}", self.line)
        return self.ws.contexts[name]

    # -- statements ----------------------------------------------------------

    def parse(self) -> None:
        while self.peek():
            handler = getattr(self, f"stmt_{self.next()}", None)
            if handler is None:
                raise self.unexpected("a statement")
            handler()

    def stmt_type(self) -> None:
        start = self.pos
        names = self.comma_list(self.fresh_name)
        self.expect(";")
        for k, name in enumerate(names):
            if name in self.ws.types:
                # the names sit at every other token, between the commas
                raise DslError(
                    f"type {name!r} already declared", self.lines[start + 2 * k]
                )
            self.ws.types.append(name)
        self.ws.statements.append(("type", tuple(names)))

    def stmt_context(self) -> None:
        name = self.fresh_name()
        self.expect("=")
        value = self.context_literal()
        self.expect(";")
        self.ws.contexts[name] = value
        self.ws.statements.append(("context", name))

    def stmt_pred(self) -> None:
        name = self.fresh_name()
        self.expect(":")
        shell = self.context_ref()
        self.expect(";")
        self.ws.predicates[name] = shell
        self.ws.statements.append(("pred", name))

    def stmt_domain(self) -> None:
        t = self.expect_name()
        line = self.line
        if t not in self.ws.types:
            raise DslError(f"unknown type {t!r}", line)
        if t in self.ws.domains:
            raise DslError(f"domain of {t!r} already declared", line)
        self.expect("=")
        self.expect("{")
        atoms = self.comma_list(self.atom, ("}",))
        self.expect("}")
        self.expect(";")
        if len(set(atoms)) != len(atoms):
            raise DslError(f"duplicate atom in domain of {t!r}", line)
        self.ws.domains[t] = tuple(atoms)
        self.ws.statements.append(("domain", t))

    def stmt_data(self) -> None:
        name = self.expect_name()
        if name not in self.ws.predicates:
            raise DslError(f"unknown predicate {name!r}", self.line)
        shell = self.ws.predicates[name]
        if self.peek() == "from":
            self.next()
            if self.next()[:1] != '"':
                raise DslError("expected a quoted file name", self.line)
            fname, line = self.values[self.pos - 1].strip('"'), self.line
            self.expect(";")
            path = os.path.join(self.ws.base_dir, fname)
            rows = ingest_csv(path, shell, self.ws.domains, line)
            self.ws.data.setdefault(name, set()).update(rows)
            self.ws.statements.append(("data_from", name, fname))
            return
        self.expect("{")
        rows: set[tuple[str, ...]] = set()
        columns = [set(self.ws.domains.get(t, ())) for t in shell.port_types]
        while self.peek() != "}":
            self.expect("(")
            line = self.line
            row = tuple(self.comma_list(self.atom, (")",)))
            self.expect(")")
            self.expect(";")
            if len(row) != shell.arity:
                raise DslError(
                    f"row has {len(row)} entries, predicate takes {shell.arity}",
                    line,
                )
            for value, t, domain in zip(row, shell.port_types, columns):
                if value not in domain:
                    raise DslError(
                        f"atom {value!r} is not in the domain of type {t!r}", line
                    )
            rows.add(row)
        self.expect("}")
        if rows:
            self.ws.data.setdefault(name, set()).update(rows)
            self.ws.statements.append(("data", name, tuple(sorted(rows))))

    def stmt_diagram(self) -> None:
        name = self.fresh_name()
        header_line = self.line
        self.expect(":")
        self.expect("(")
        inner_names: list[str | None] = []

        def inner_shell() -> Context:
            label = self.peek()
            inner_names.append(label if label.isidentifier() else None)
            return self.context_ref()

        inner = self.comma_list(inner_shell, (")",))
        self.expect(")")
        self.expect("->")
        outer = self.context_ref()
        self.expect("{")

        dot_names: dict[str, int] = {}
        dot_types: list[str] = []
        shells = (*inner, outer)
        rows: list[list[int | None]] = [[None] * c.arity for c in shells]
        extra: list[str] = []
        saw_supp = False

        def shell_index(ref: str) -> int:
            if ref == "out":
                return len(inner)
            if ref[:2] == "in" and ref[2:].isdigit():
                if not 1 <= int(ref[2:]) <= len(inner):
                    raise DslError(
                        f"no inner shell {ref!r} (the diagram has {len(inner)})",
                        self.line,
                    )
                return int(ref[2:]) - 1
            hits = [i for i, lbl in enumerate(inner_names) if lbl == ref]
            if len(hits) > 1:
                raise DslError(
                    f"shell name {ref!r} is ambiguous, use in1..in{len(inner)}",
                    self.line,
                )
            if not hits:
                raise DslError(f"unknown shell {ref!r}", self.line)
            return hits[0]

        while self.peek() != "}":
            keyword = self.next()
            if keyword == "dot":
                dname = self.expect_name()
                if dname in dot_names:
                    raise DslError(f"dot {dname!r} already declared", self.line)
                self.expect(":")
                dot_names[dname] = len(dot_types)
                dot_types.append(self.type_name())
                self.expect(";")
            elif keyword == "wire":
                ref = self.expect_name()
                shell = shell_index(ref)
                self.expect(".")
                number = self.next()
                port_line = self.line
                if not number.isdigit():
                    raise DslError("expected a port number", port_line)
                port = int(number) - 1
                if not 0 <= port < shells[shell].arity:
                    raise DslError(
                        f"shell {ref!r} has no port {number}", port_line
                    )
                self.expect("->")
                dname = self.expect_name()
                if dname not in dot_names:
                    raise DslError(f"unknown dot {dname!r}", self.line)
                self.expect(";")
                if rows[shell][port] is not None:
                    raise DslError(
                        f"port {ref}.{number} is wired twice", port_line
                    )
                rows[shell][port] = dot_names[dname]
            elif keyword == "supp":
                if saw_supp:
                    raise DslError("supp given twice", self.line)
                saw_supp = True
                self.expect("{")
                extra = self.comma_list(self.type_name, ("}",))
                self.expect("}")
                self.expect(";")
            else:
                raise self.unexpected("dot, wire or supp")
        self.expect("}")

        for s, row in enumerate(rows):
            if None in row:
                label = "out" if s == len(inner) else f"in{s + 1}"
                port = row.index(None) + 1
                raise DslError(f"port {label}.{port} is not wired", header_line)
        try:
            diagram = mk_wiring(inner, outer, dot_types, rows, extra)
        except ReglogError as exc:
            raise DslError(str(exc), header_line) from exc
        self.ws.diagrams[name] = diagram
        self.ws.statements.append(("diagram", name))

    def stmt_term(self) -> None:
        name = self.fresh_name()
        self.expect("=")
        head = self.expect_name()
        line = self.line
        expr: tuple
        if head == "true":
            self.expect("(")
            ctx = self.context_ref()
            self.expect(")")
            value = true_term(ctx)
            expr = ("true", ctx)
        elif head in self.ws.diagrams:
            self.expect("(")
            args = self.comma_list(self.expect_name, (")",))
            self.expect(")")
            cells = []
            for arg in args:
                if arg in self.ws.terms:
                    cells.append(self.ws.terms[arg])
                elif arg in self.ws.predicates:
                    cells.append(arg)
                else:
                    raise DslError(f"unknown predicate or term {arg!r}", line)
            try:
                value = mk_term(self.ws.diagrams[head], cells, self.ws.signature)
            except ReglogError as exc:
                raise DslError(str(exc), line) from exc
            expr = ("apply", head, tuple(args))
        elif head in self.ws.predicates:
            value = bare_term(head, self.ws.signature)
            expr = ("pred", head)
        else:
            raise self.unexpected(
                "true(...), a diagram application or a predicate"
            )
        self.expect(";")
        self.ws.terms[name] = value
        self.ws.term_exprs[name] = expr
        self.ws.statements.append(("term", name))


def _not_utf8(path: str, exc: UnicodeDecodeError, line: int | None = None):
    byte = exc.object[exc.start]
    return DslError(f"cannot read {path!r}: not UTF-8 (byte {byte:#04x})", line)


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
        with open(path, newline="", encoding="utf-8") as fh:
            raw = [
                [cell.strip() for cell in row]
                for row in csv.reader(fh)
                if any(cell.strip() for cell in row)
            ]
    except OSError as exc:
        raise DslError(f"cannot read {path!r}: {exc.strerror}", line) from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc, line) from exc
    columns = [set(domains.get(t, ())) for t in shell.port_types]
    start = 0
    if raw and (
        len(raw[0]) != shell.arity or not any(v in c for v, c in zip(raw[0], columns))
    ):
        start = 1
    rows: set[tuple[str, ...]] = set()
    for idx, row in enumerate(raw[start:], start=start + 1):
        if len(row) != shell.arity:
            raise DslError(
                f"{path}: row {idx} has {len(row)} columns, expected {shell.arity}",
                line,
            )
        for value, t, domain in zip(row, shell.port_types, columns):
            if value not in domain:
                raise DslError(
                    f"{path}: row {idx}: {value!r} is not an atom of type {t!r}",
                    line,
                )
        rows.add(tuple(row))
    return rows


def parse_workspace(text: str, base_dir: str = ".") -> Workspace:
    ws = Workspace(base_dir=base_dir)
    _Parser(text, ws).parse()
    return ws


def load_workspace(path: str) -> Workspace:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
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
