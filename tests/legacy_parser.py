"""The workspace parser as it read before it parsed from flat token lists.

``LegacyParser`` is the earlier ``reglog.dsl._Parser``, copied verbatim: it
reads ``Token`` objects, from the anchored-match oracle tokenizer.  Only the
names it used from its module are imported here; ``Token``, the record the
earlier lexer returned, is defined here.  ``test_lexer.py`` checks that the
current parser builds an equal ``Workspace``, or raises the same ``DslError``
with the same line, on the same texts, and compares the current lexer with
``oracle_lex``, the oracle tokens in the lexer's own form.
"""

from __future__ import annotations

import os
import re
from typing import Callable, NamedTuple, TypeVar

from reglog.context import Context, mk_context
from reglog.dsl import _KEYWORDS, _RESERVED_NAME, Workspace, ingest_csv
from reglog.errors import DslError, ReglogError
from reglog.term import bare_term, mk_term, true_term
from reglog.wiring import mk_wiring

from helpers import oracle_tokenize

_T = TypeVar("_T")


class Token(NamedTuple):
    kind: str
    value: str
    line: int


def oracle_lex(text: str) -> tuple[list[str], list[int]]:
    """``oracle_tokenize`` in the form ``reglog.dsl._lex`` returns: the token
    strings, a string keeping its quotes, and their lines."""
    tokens = oracle_tokenize(text)
    values = [f'"{v}"' if kind == "string" else v for kind, v, _ in tokens]
    return values, [line for _, _, line in tokens]


def legacy_parse_workspace(text: str, base_dir: str = ".") -> Workspace:
    ws = Workspace(base_dir=base_dir)
    LegacyParser([Token(*tok) for tok in oracle_tokenize(text)], ws).parse()
    return ws


class LegacyParser:
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

