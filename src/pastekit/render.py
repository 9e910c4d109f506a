"""DOT and SVG exports.

DOT output ranks elements by dimension and draws the oriented Hasse graph
(input-labelled edges reversed).  The SVG exporter lays a diagram of
dimension <= 2 out slice by slice in its canonical cell order, each wire
layer in path order, walked from its start point (`_Index.path`);
dashed wires and nodeless cells mark basepoint labels.  Layout is
best-effort; tests pin the drawings of a few small diagrams.
"""
from __future__ import annotations

from typing import Mapping

from .ogp import Complex, MINUS
from .orders import MaxdGraph, normal_order_of_subset
from .products import BASEPOINT, LabelledComplex


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(name: str, head: list[str], adj: Mapping[str, tuple[str, ...]]) -> str:
    """A DOT digraph: the header lines ``head``, then one line per edge of
    ``adj``, sources in sorted order; both DOT exports write through it."""
    lines = [f"digraph {_quote(name)} {{", *head]
    for v in sorted(adj):
        for w in adj[v]:
            lines.append(f"  {_quote(v)} -> {_quote(w)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(cx: Complex) -> str:
    # grading leaves no dimension below the top empty
    ranks = [" ".join(["  { rank=same;", *(_quote(x) + ";" for x in cx.by_dim(n)), "}"]) for n in range(cx.dim + 1)]
    return _dot(cx.name, ["  rankdir=BT;", *ranks], cx.oriented_hasse())


def export_dot_maxd(g: MaxdGraph, name: str = "maxd") -> str:
    shapes = [f"  {_quote(v)} [shape=ellipse];" for v in g.low] + [f"  {_quote(v)} [shape=box];" for v in g.high]
    return _dot(name, shapes, g.adjacency)


# -- string-diagram SVG ------------------------------------------------------------


def _wire_sequence(cx: Complex, wires: frozenset[str]) -> list[str]:
    """The 1-cells of a 1-dimensional closed subset in path order (`_Index.path`);
    none for an empty layer."""
    if not wires:
        return []
    ix = cx._index()
    arrows = ix.path(ix.mask(wires))
    if arrows is None:
        raise ValueError("wire layer is not a single path")
    return [ix.ids[a] for a in arrows]


def export_svg_2diagram(lc: LabelledComplex | Complex) -> str:
    """Render a diagram of dimension <= 2 as a layered string diagram."""
    if isinstance(lc, Complex):
        lc = LabelledComplex(lc, {x: x for x in lc.elements()})
    cx = lc.shape
    if cx.dim > 2:
        raise ValueError("string diagrams render up to dimension 2")
    whole = cx.whole()
    try:
        cells = normal_order_of_subset(cx, whole) if cx.dim == 2 else ()
    except RuntimeError as exc:
        raise ValueError(f"{cx.name}: cannot lay out as a string diagram: {exc}") from exc
    layer = _wire_sequence(cx, cx.boundary(whole, 1, MINUS)) if cx.dim >= 1 else []
    layers = [layer]
    placements = []
    for cell in cells:
        ins, outs = (_wire_sequence(cx, side) for side in cx._boundary_pair(cx.closure([cell]), 1))
        if ins:
            pos = layer.index(ins[0])
        else:
            pos = len(layer)
        if layer[pos : pos + len(ins)] != ins:
            raise ValueError(f"cell {cell!r} inputs are not contiguous in the layer")
        layer = layer[:pos] + outs + layer[pos + len(ins) :]
        placements.append((cell, pos, len(ins), len(outs)))
        layers.append(layer)
    xstep, ystep, pad = 40, 50, 20
    width = pad * 2 + xstep * max((len(l) for l in layers), default=1)
    height = pad * 2 + ystep * max(len(placements), 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
    ]

    def wx(i: int) -> int:
        return pad + xstep // 2 + i * xstep

    def wire(w: str, x1: int, y1: int, x2: int, y2: int) -> None:
        dash = ' stroke-dasharray="4 3"' if lc.labels[w] == BASEPOINT else ""
        parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black"{dash}/>')

    for level, (cell, pos, n_in, n_out) in enumerate(placements):
        y0 = pad + level * ystep
        y1 = y0 + ystep
        y_mid = (y0 + y1) // 2
        cx_mid = wx(pos) + (max(n_in, n_out, 1) - 1) * xstep // 2
        after = layers[level + 1]
        for i, w in enumerate(layers[level]):
            if pos <= i < pos + n_in:
                wire(w, wx(i), y0, cx_mid, y_mid)
            else:
                wire(w, wx(i), y0, wx(after.index(w)), y1)
        for j, w in enumerate(after[pos : pos + n_out], start=pos):
            wire(w, cx_mid, y_mid, wx(j), y1)
        label = lc.labels[cell]
        if label != BASEPOINT:
            parts.append(f'<circle cx="{cx_mid}" cy="{y_mid}" r="5" fill="black"/>')
            parts.append(f'<text x="{cx_mid + 8}" y="{y_mid + 4}" font-size="12">{label}</text>')
    if not placements:
        for i, w in enumerate(layers[0]):
            wire(w, wx(i), pad, wx(i), height - pad)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
