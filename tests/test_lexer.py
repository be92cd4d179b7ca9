"""The line lexer and the flat-list parser against their earlier forms.

``_lex``, the lexer the parser reads, is compared with ``oracle_tokenize``
on seeded random strings, through ``legacy_parser.oracle_lex``, which spells
the oracle tokens as ``_lex`` does.  The parser is compared with
``legacy_parser.LegacyParser``, the earlier parser over ``Token`` objects: on
the corpus, on seeded token-level mutations of it and on a 10,000-row data
block, both must build equal workspaces or raise the same ``DslError`` on the
same line.
"""

from __future__ import annotations

import re
from random import Random

import pytest

from reglog.dsl import _lex, parse_workspace
from reglog.errors import DslError

from helpers import ROOT, oracle_tokenize
from legacy_parser import legacy_parse_workspace, oracle_lex

CORPUS = ROOT / "corpus"
TEXTS = {p.name: p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.rl"))}
ALPHABET = 'ab1_Z9 \t\r\n#"(){},;:=.|->$é'
# Spans of one oracle token each, or of one character the language rejects.
PIECE = re.compile(r'"[^"\n]*"|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|->|[^\s]')


def outcome(fn, *args):
    try:
        return fn(*args)
    except DslError as err:
        return str(err), err.line


def test_tokenize_matches_the_oracle_on_random_strings():
    rng = Random(1609)
    kinds = set()
    errors = 0
    for _ in range(20_000):
        text = "".join(rng.choices(ALPHABET, k=rng.randint(0, 24)))
        expected = outcome(oracle_lex, text)
        assert outcome(_lex, text) == expected, repr(text)
        if isinstance(expected[0], str):
            errors += 1
        else:
            kinds.update(kind for kind, _, _ in oracle_tokenize(text))
    # Both outcomes and every token kind must occur, or a path goes unchecked.
    assert 2_000 < errors < 18_000
    assert kinds == {"name", "number", "string", "arrow", "punct", "eof"}


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028"])
def test_only_newline_ends_a_line_and_other_whitespace_is_rejected(char):
    # str.splitlines would end a line at each of these; the oracle rejects them.
    text = f'type x;\ndata R from "a{char}b";{char}\n# c{char}\ntype{char}y;\n'
    assert outcome(_lex, text) == outcome(oracle_lex, text)
    assert outcome(_lex, text) == (f"line 2: unexpected character {char!r}", 2)


def mutate(text: str, rng: Random) -> str:
    """Delete, repeat, swap or replace a token, or insert a character."""
    spans = [m.span() for m in PIECE.finditer(text)]
    (a, b), (c, d) = rng.choice(spans), rng.choice(spans)
    op = rng.randrange(5)
    if op == 0:
        return text[:a] + text[b:]
    if op == 1:
        return text[:b] + " " + text[a:b] + text[b:]
    if op == 2 and b <= c:
        return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    if op == 3:
        return text[:a] + text[c:d] + text[b:]
    at = rng.randrange(len(text) + 1)
    return text[:at] + rng.choice(ALPHABET) + text[at:]


def test_parser_matches_the_legacy_parser_on_the_corpus_and_mutations():
    rng = Random(1610)
    errors = set()
    for text in TEXTS.values():
        assert parse_workspace(text, str(CORPUS)) == legacy_parse_workspace(
            text, str(CORPUS)
        )
        for _ in range(200):
            mutated = text
            for _ in range(rng.randint(1, 2)):
                mutated = mutate(mutated, rng)
            expected = outcome(legacy_parse_workspace, mutated, str(CORPUS))
            got = outcome(parse_workspace, mutated, str(CORPUS))
            assert got == expected, mutated
            if isinstance(expected, tuple):
                errors.add(re.sub(r"'[^']*'|\d+", "_", expected[0]))
    # The mutations must reach many distinct error messages, not one or two.
    assert len(errors) >= 32, sorted(errors)


@pytest.mark.parametrize(
    "text",
    [
        "type x,\n  y,\n  x;\n",
        "type x;\ntype y,\n\n z, y;",
        "type x;\ndomain x = {a,\n b,\n a};\n",
        "type x;\npred R : (x);\ndata R {\n (a);\n};",
        'type x;\npred R : (x);\ndata R from\n"missing.csv"\n;',
    ],
)
def test_errors_found_after_a_statement_keep_the_line_of_their_token(text):
    expected = outcome(legacy_parse_workspace, text)
    assert isinstance(expected, tuple) and expected[1] > 1
    assert outcome(parse_workspace, text) == expected


def data_block(rows: list[tuple[int, int]], bad_at: int | None = None) -> str:
    lines = [
        "type x, y;",
        "pred R : (x, y);",
        f"domain x = {{{', '.join(f'a{i}' for i in range(100))}}};",
        f"domain y = {{{', '.join(f'b{i}' for i in range(100))}}};",
        "data R {",
    ]
    for k, (i, j) in enumerate(rows):
        right = "a0" if k == bad_at else f"b{j}"
        lines.append(f"  (a{i}, {right});  # row {k}")
    lines += ["}", "term t = R;"]
    return "\n".join(lines) + "\n"


def test_a_large_data_block_parses_like_the_legacy_parser():
    rows = [(i, j) for i in range(100) for j in range(100)]
    Random(1611).shuffle(rows)
    text = data_block(rows)
    ws = parse_workspace(text)
    assert ws == legacy_parse_workspace(text)
    assert len(ws.data["R"]) == 10_000
    bad = data_block(rows, bad_at=7_777)
    expected = outcome(legacy_parse_workspace, bad)
    assert expected == ("line 7783: atom 'a0' is not in the domain of type 'y'", 7783)
    assert outcome(parse_workspace, bad) == expected


@pytest.mark.parametrize(
    "text, message",
    [
        ('type x; context G = (x ")";', "line 1: expected ')', found ')'"),
        ('type x; context G = (x "|" supp x);', "line 1: expected ')', found '|'"),
    ],
)
def test_a_string_never_stands_in_for_another_token(text, message):
    # The earlier parser compared token values only, so a quoted ")" or "|"
    # acted as the punctuation; now a string is only ever a file name.
    legacy_parse_workspace(text)
    with pytest.raises(DslError, match=re.escape(message)):
        parse_workspace(text)
