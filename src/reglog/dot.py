"""Graphviz rendering of wiring diagrams.

Each inner shell becomes a cluster of numbered port nodes, every dot becomes
a filled point labelled with its type, outer ports sit on the boundary, and
leftover support symbols (labels carried by no dot) are gathered into one
dashed node.  Output is deterministic: shells, ports, and dots are emitted in
index order.
"""

from __future__ import annotations

from .errors import ValidationError
from .wiring import WiringDiagram


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(
    w: WiringDiagram,
    labels: tuple[str, ...] | None = None,
    name: str = "wiring",
) -> str:
    """Render one diagram in the DOT language (an undirected graph)."""
    if labels is not None and len(labels) != len(w.inner):
        raise ValidationError("one label per inner shell expected")
    lines = [
        f"graph {_quote(name)} {{",
        "  rankdir=LR;",
        '  node [fontname="Helvetica", fontsize=11];',
    ]
    for i, shell in enumerate(w.inner):
        title = labels[i] if labels else f"in{i + 1}"
        lines.append(f"  subgraph cluster_in{i + 1} {{")
        lines.append(f"    label={_quote(f'{title} : {shell}')};")
        for p, t in enumerate(shell.port_types):
            lines.append(
                f"    s{i + 1}p{p + 1} [shape=circle, label={_quote(f'{p + 1}:{t}')}];"
            )
        lines.append("  }")
    for p, t in enumerate(w.outer.port_types):
        lines.append(
            f"  outp{p + 1} [shape=square, label={_quote(f'{p + 1}:{t}')}];"
        )
    for d, t in enumerate(w.dot_types):
        lines.append(
            f"  d{d + 1} [shape=point, width=0.14, xlabel={_quote(t)}];"
        )
    whites = w.white_labels()
    if whites:
        lines.append(
            "  white [shape=box, style=dashed, "
            f"label={_quote('supp {' + ', '.join(whites) + '}')}];"
        )
    for i in range(len(w.inner)):
        for p, dot in enumerate(w.wires[i]):
            lines.append(f"  s{i + 1}p{p + 1} -- d{dot + 1};")
    for p, dot in enumerate(w.wires[-1]):
        lines.append(f"  outp{p + 1} -- d{dot + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"
