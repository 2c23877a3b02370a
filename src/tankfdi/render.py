"""Colored causal-graph and terminal rendering of detector output.

Each supervised variable is a node of a small influence graph; its alarm
degree is mapped onto a green-to-red hue gradient so an operator reads the
system state at a glance.
"""

from __future__ import annotations

import colorsys

from .plant import VARIABLES

#: Directed influence edges between the supervised variables: sources drive
#: their tank pressures, coupled tanks exchange flow with the middle tank.
EDGES = (
    ("Msf1", "De1"),
    ("Msf2", "De3"),
    ("De1", "Df1"),
    ("Df1", "De1"),
    ("Df1", "De2"),
    ("De2", "Df2"),
    ("Df2", "De2"),
    ("Df2", "De3"),
)


def color_index(degree: float) -> str:
    """Alarm degree in [0, 1] -> hex RGB on the green-to-red hue gradient.

    0 maps to pure green (#00FF00), 1 to pure red (#FF0000); values outside
    the interval are clamped.
    """
    d = min(max(float(degree), 0.0), 1.0)
    hue = (1.0 - d) * 120.0 / 360.0
    r, g, b = colorsys.hsv_to_rgb(hue, 1.0, 1.0)
    return f"#{round(r * 255):02X}{round(g * 255):02X}{round(b * 255):02X}"


def _rgb(degree: float) -> tuple[int, int, int]:
    hex_color = color_index(degree)
    return tuple(int(hex_color[i:i + 2], 16) for i in (1, 3, 5))


def _degree_map(degrees) -> dict[str, float]:
    values = list(degrees)
    if len(values) != 7:
        raise ValueError("expected seven degrees in canonical variable order")
    return {v: float(x) for v, x in zip(VARIABLES, values)}


#: The DOT text around the node lines: the same for every call.
_DOT_HEAD = ("digraph system_state {\n"
             "  rankdir=LR;\n"
             "  node [style=filled, shape=ellipse, fontname=\"Helvetica\"];\n")
_DOT_EDGES = "".join(f"  \"{src}\" -> \"{dst}\";\n" for src, dst in sorted(EDGES)) + "}\n"


def emit_dot(degrees) -> str:
    """DOT digraph with one filled node per variable; byte-stable output.

    Nodes are emitted in canonical variable order and edges sorted
    lexicographically, so identical inputs give identical bytes. Only the
    node lines depend on ``degrees``, seven values in VARIABLES order.
    """
    nodes = "".join(f"  \"{name}\" [fillcolor=\"{color_index(d)}\", "
                    f"label=\"{name} ({d:.2f})\"];\n"
                    for name, d in _degree_map(degrees).items())
    return _DOT_HEAD + nodes + _DOT_EDGES


def emit_ansi(degrees, no_color: bool = False) -> str:
    """One terminal line per variable with a 24-bit colored state cell."""
    lines = []
    for name, d in _degree_map(degrees).items():
        if no_color:
            lines.append(f"{name:<5} {d:.2f}")
        else:
            r, g, b = _rgb(d)
            lines.append(f"\x1b[48;2;{r};{g};{b}m  \x1b[0m {name:<5} {d:.2f}")
    return "\n".join(lines) + "\n"
