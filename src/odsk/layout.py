"""Order-diagram drawing: two-linear-extension coordinates with a
layered fallback, plus quality metrics and SVG/DOT emission.

Coordinates are plain ints. dimdraw places an element at
x = rank1 - rank2, y = rank1 + rank2 for a pair of linear extensions, so
covering edges always point upward. When the poset has a 2-realizer the
exact realizer is used; otherwise the pair is picked from sampled
extensions whose intersection, the order the pair draws, has the fewest
comparable pairs. quality sorts the edges by their lower y and tests
only the pairs whose y-ranges and x-ranges overlap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .completion import order_dimension
from .errors import BudgetExceeded, OdskError
from .order import LinearExtension, Poset, _bits, _intersection_rows, _transpose

PAIR_SEARCH_SEEDS = 200
MEDIAN_SWEEPS = 8


@dataclass(frozen=True, eq=False)
class Drawing:
    """Element positions plus the covering edges of the source order."""

    positions: tuple[tuple[str, tuple[int, int]], ...]
    edges: tuple[tuple[str, str], ...]

    def position_map(self) -> dict[str, tuple[int, int]]:
        return dict(self.positions)

    def __post_init__(self):
        pos = self.position_map()
        seen = set()
        for name, (x, y) in self.positions:
            if (x, y) in seen:
                raise OdskError(f"coincident coordinates at {name}")
            seen.add((x, y))
        for a, b in self.edges:
            if not pos[a][1] < pos[b][1]:
                raise OdskError(f"edge {a} -> {b} does not point upward")


def _drawing_from_extensions(p: Poset, l1: LinearExtension,
                             l2: LinearExtension) -> Drawing:
    """Distinct rank pairs give distinct points."""
    r1, r2 = l1.position, l2.position
    positions = tuple((e, (r1[e] - r2[e], r1[e] + r2[e])) for e in p.elements)
    return Drawing(positions, p.covers)


def dimdraw(p: Poset, budget_ms: int | None = None) -> Drawing:
    """Two-extension drawing; exact realizer when the dimension is at
    most two, else the best of 100 sampled extension pairs. Falls back
    to the layered drawing with a warning when budgets bar sampling."""
    if len(p) == 0:
        return Drawing((), ())
    try:
        result = order_dimension(p, max_k=2, budget_ms=budget_ms)
        exts = result.realizer.extensions
        l1 = exts[0]
        l2 = exts[1] if len(exts) > 1 else exts[0]
        return _drawing_from_extensions(p, l1, l2)
    except BudgetExceeded:
        pass
    try:
        samples = [p.sample_linear_extension(seed=s) for s in range(PAIR_SEARCH_SEEDS)]
    except BudgetExceeded:
        warnings.warn("dimdraw budget exceeded; falling back to layered layout",
                      stacklevel=2)
        return layered(p)
    # a pair draws its intersection, whose comparable pairs are P's plus
    # the incomparable pairs that both extensions order alike
    best = min(range(0, PAIR_SEARCH_SEEDS, 2), key=lambda i: sum(map(
        int.bit_count, _intersection_rows(p._index, (samples[i].order, samples[i + 1].order)))))
    return _drawing_from_extensions(p, samples[best], samples[best + 1])


def layered(p: Poset) -> Drawing:
    """Sugiyama-style drawing: longest-path layers, 8 median sweeps for
    crossing reduction, centered integer grid coordinates."""
    levels = [[p._index[e] for e in level] for level in p.height_levels()]
    cover_dn = _transpose(p.cover_rows, len(p))

    def median_pass(layers: list[list[int]], upward: bool):
        seq = range(1, len(layers)) if upward else range(len(layers) - 2, -1, -1)
        for li in seq:
            ref = layers[li - 1] if upward else layers[li + 1]
            refpos = {e: k for k, e in enumerate(ref)}
            neigh = cover_dn if upward else p.cover_rows
            keyed = []
            for k, e in enumerate(layers[li]):
                ns = sorted(refpos[x] for x in _bits(neigh[e]) if x in refpos)
                med = ns[len(ns) // 2] if ns else k
                keyed.append((med, k, e))
            layers[li] = [e for _, _, e in sorted(keyed)]

    for sweep in range(MEDIAN_SWEEPS):
        median_pass(levels, upward=sweep % 2 == 0)

    positions = [None] * len(p)
    for li, layer in enumerate(levels):
        for k, i in enumerate(layer):
            positions[i] = (p.elements[i], (2 * k - (len(layer) - 1), li))
    return Drawing(tuple(positions), p.covers)


# -- quality metrics -------------------------------------------------------


@dataclass(frozen=True)
class QualityMetrics:
    crossings: int
    distinct_slopes: int
    min_node_edge_distance: float  # inf when no non-incident pair exists


def _segments_cross(p1, p2, p3, p4) -> bool:
    """Proper or improper intersection of closed segments, excluding
    intersections that consist only of shared endpoints."""

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (v > 0) - (v < 0)

    def on_seg(a, b, c):
        return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    shared = {p1, p2} & {p3, p4}
    o1, o2 = orient(p1, p2, p3), orient(p1, p2, p4)
    o3, o4 = orient(p3, p4, p1), orient(p3, p4, p2)
    if o1 != o2 and o3 != o4:
        if shared:
            # touching only at the shared endpoint is not a crossing
            other = [q for q in (p3, p4) if q not in shared]
            return any(orient(p1, p2, q) == 0 and on_seg(p1, p2, q) for q in other)
        return True
    # collinear overlap beyond a shared endpoint counts as a crossing
    for a, b, c in ((p1, p2, p3), (p1, p2, p4), (p3, p4, p1), (p3, p4, p2)):
        if orient(a, b, c) == 0 and on_seg(a, b, c) and c not in shared:
            return True
    return False


def quality(d: Drawing) -> QualityMetrics:
    """Crossings, distinct slopes and least node-to-edge distance.

    Edges are sorted by their lower y. A pair is tested for a crossing
    only when its y-ranges and x-ranges overlap, and a node skips an edge
    whose integer bounding-box gap already exceeds the least distance;
    no skipped pair could change a metric."""
    pos = d.position_map()
    segs = []
    for a, b in d.edges:  # edges point upward, so pos[a] is the lower end
        (xa, ya), (xb, yb) = pos[a], pos[b]
        segs.append((ya, yb, min(xa, xb), max(xa, xb), pos[a], pos[b], a, b))
    segs.sort()
    crossings = 0
    for i, (_, top, left, right, p1, p2, _, _) in enumerate(segs):
        for bottom, _, left2, right2, p3, p4, _, _ in segs[i + 1:]:
            if bottom > top:
                break
            if left2 <= right and left <= right2 and _segments_cross(p1, p2, p3, p4):
                crossings += 1
    slopes = set()  # dy > 0, so (dx, dy) // gcd is already in lowest terms
    for *_, (x1, y1), (x2, y2), _, _ in segs:
        g = math.gcd(x2 - x1, y2 - y1)
        slopes.add(((x2 - x1) // g, (y2 - y1) // g))

    def point_seg_dist(cx, cy, a, b) -> float:
        (ax, ay), (bx, by) = a, b
        dx, dy = bx - ax, by - ay
        t = max(0.0, min(1.0, ((cx - ax) * dx + (cy - ay) * dy) / (dx * dx + dy * dy)))
        return math.hypot(cx - (ax + t * dx), cy - (ay + t * dy))

    # Skipping is exact: a skipped edge's computed distance is never below
    # its integer gap. At a clamped end it is a hypot of ints, at least the
    # larger of them; an interior foot of the perpendicular lies farther
    # than the gap by much more than the rounding error.
    min_dist = math.inf
    for name, (cx, cy) in d.positions:
        for bottom, top, left, right, pa, pb, a, b in segs:
            if bottom - cy > min_dist:
                break
            if (cy - top > min_dist or left - cx > min_dist or cx - right > min_dist
                    or name in (a, b)):
                continue
            min_dist = min(min_dist, point_seg_dist(cx, cy, pa, pb))
        if min_dist == 0:
            break
    return QualityMetrics(crossings, len(slopes), min_dist)


# -- rendering -------------------------------------------------------------

_SCALE = 40
_MARGIN = 30
_RADIUS = 6


def render(d: Drawing, fmt: str = "svg",
           labels: dict[str, str] | None = None) -> str:
    """Byte-deterministic SVG (circles, straight lines, labels, y flipped
    to screen coordinates) or DOT with pinned positions. ``labels`` maps
    element names to display text (defaults to the names)."""

    def label(name: str) -> str:
        return name if labels is None else labels.get(name, name)

    if fmt == "dot":
        lines = ["digraph order {"]
        for name, (x, y) in d.positions:
            lines.append(f'  {_quote(name)} [label={_quote(label(name))} pos="{x},{y}!"];')
        for a, b in d.edges:
            lines.append(f'  {_quote(a)} -> {_quote(b)};')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt != "svg":
        raise OdskError(f"unknown render format: {fmt!r}")

    xs = [x for _, (x, _) in d.positions] or [0]
    ys = [y for _, (_, y) in d.positions] or [0]
    x0, y1 = min(xs), max(ys)

    def sx(x: int) -> int:
        return (x - x0) * _SCALE + _MARGIN

    def sy(y: int) -> int:
        return (y1 - y) * _SCALE + _MARGIN

    pos = d.position_map()
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{sx(max(xs)) + _MARGIN}" height="{sy(min(ys)) + _MARGIN}">',
    ]
    for a, b in d.edges:
        (xa, ya), (xb, yb) = pos[a], pos[b]
        out.append(f'  <line x1="{sx(xa)}" y1="{sy(ya)}" x2="{sx(xb)}" y2="{sy(yb)}" '
                   'stroke="black" stroke-width="1"/>')
    for name, (x, y) in d.positions:
        out.append(f'  <circle cx="{sx(x)}" cy="{sy(y)}" r="{_RADIUS}" '
                   'fill="white" stroke="black"/>')
        out.append(f'  <text x="{sx(x)}" y="{sy(y) - 10}" '
                   f'font-size="10" text-anchor="middle">{_escape(label(name))}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _quote(text: str) -> str:
    """A DOT double-quoted string."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
