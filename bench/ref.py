"""Reference computations and output checkers for the benchmark.

Nothing here imports odsk: every expected value is recomputed from the
generated inputs with small, direct algorithms (bitset closure,
intersection closure, brute-force Hausdorff, exact integer segment
tests), so a checker cannot inherit a defect of the code it checks.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm


class CheckError(Exception):
    """An output does not match the reference."""


def need(cond: bool, msg: str):
    if not cond:
        raise CheckError(msg)


def popcount(x: int) -> int:
    return bin(x).count("1")


def bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def split_names(text: str) -> list[str]:
    return [s for s in text.split(",") if s] if text else []


# -- contexts --------------------------------------------------------------


class Context:
    """Objects x attributes with bit rows; rows[g] bit m iff g has m."""

    def __init__(self, objects, attributes, rows):
        self.objects = list(objects)
        self.attributes = list(attributes)
        self.rows = list(rows)
        cols = [0] * len(self.attributes)
        for i, r in enumerate(self.rows):
            for j in bits(r):
                cols[j] |= 1 << i
        self.cols = cols
        self.full_g = (1 << len(self.objects)) - 1
        self.full_m = (1 << len(self.attributes)) - 1
        self.index = {"objects": {g: i for i, g in enumerate(self.objects)},
                      "attributes": {m: j for j, m in enumerate(self.attributes)}}

    def extent(self, intent: int) -> int:
        ext = self.full_g
        for j in bits(intent):
            ext &= self.cols[j]
        return ext

    def intent(self, extent: int) -> int:
        itt = self.full_m
        for i in bits(extent):
            itt &= self.rows[i]
        return itt

    def intents(self) -> list[int]:
        """All concept intents: the intersection closure of the object
        rows, plus the full attribute set (intent of the empty extent)."""
        family = {self.full_m}
        for r in self.rows:
            family |= {s & r for s in family}
        return sorted(family)

    def name_mask(self, names, side: str) -> int:
        index = self.index[side]
        mask = 0
        for n in names:
            need(n in index, f"unknown {side[:-1]} {n!r}")
            mask |= 1 << index[n]
        return mask


def cxt_text(ctx: Context) -> str:
    lines = ["B", "", str(len(ctx.objects)), str(len(ctx.attributes)), ""]
    lines += ctx.objects + ctx.attributes
    for r in ctx.rows:
        lines.append("".join("X" if r >> j & 1 else "."
                             for j in range(len(ctx.attributes))))
    return "\n".join(lines) + "\n"


def parse_cxt(text: str) -> Context:
    lines = text.split("\n")
    need(lines[0] == "B", "CXT output must start with B")
    g, m = int(lines[2]), int(lines[3])
    objects = lines[5:5 + g]
    attributes = lines[5 + g:5 + g + m]
    rows = []
    for line in lines[5 + g + m:5 + g + m + g]:
        need(len(line) == m and set(line) <= set("X."), "malformed CXT row")
        rows.append(sum(1 << j for j, c in enumerate(line) if c == "X"))
    need(len(rows) == g, "CXT output truncated")
    return Context(objects, attributes, rows)


def lectic_intents(ctx: Context) -> list[int]:
    """Concept intents in lectic order (earlier attributes weigh more)."""
    m = len(ctx.attributes)

    def key(mask):
        return sum(1 << (m - 1 - j) for j in bits(mask))

    return sorted(ctx.intents(), key=key)


def lattice_covers(extents: list[int]) -> set[tuple[int, int]]:
    """Cover pairs (i, j), extent i strictly below extent j, nothing between."""
    n = len(extents)
    above = [[j for j in range(n) if j != i and extents[i] & ~extents[j] == 0]
             for i in range(n)]
    covers = set()
    for i in range(n):
        for j in above[i]:
            if not any(k != j and extents[k] & ~extents[j] == 0 for k in above[i]):
                covers.add((i, j))
    return covers


def close_implication(premise: int, base: list[tuple[int, int]]) -> int:
    closed, changed = premise, True
    while changed:
        changed = False
        for p, c in base:
            if p & ~closed == 0 and c & ~closed:
                closed |= c
                changed = True
    return closed


def is_ferrers(ctx: Context) -> bool:
    rows = sorted(set(ctx.rows), key=popcount, reverse=True)
    return all(b & ~a == 0 for a, b in zip(rows, rows[1:]))


# -- orders ----------------------------------------------------------------


class Order:
    """A finite poset as reflexive-transitive bit rows: up[i] bit j iff i <= j."""

    def __init__(self, elements, up):
        self.elements = list(elements)
        self.up = list(up)
        n = len(self.elements)
        self.down = [sum(1 << i for i in range(n) if self.up[i] >> j & 1)
                     for j in range(n)]

    @classmethod
    def from_pairs(cls, elements, pairs) -> "Order":
        idx = {e: k for k, e in enumerate(elements)}
        n = len(elements)
        up = [1 << i for i in range(n)]
        for a, b in pairs:
            up[idx[a]] |= 1 << idx[b]
        for k in range(n):  # Warshall
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        for i in range(n):
            for j in bits(up[i]):
                need(i == j or not up[j] >> i & 1, "reference order has a cycle")
        return cls(elements, up)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def covers(self) -> set[tuple[int, int]]:
        out = set()
        for i, row in enumerate(self.up):
            above = row & ~(1 << i)
            indirect = 0
            for k in bits(above):
                indirect |= self.up[k] & ~(1 << k)
            out |= {(i, j) for j in bits(above & ~indirect)}
        return out

    def is_chain(self) -> bool:
        n = len(self.elements)
        return all(self.up[i] >> j & 1 or self.up[j] >> i & 1
                   for i in range(n) for j in range(n))

    def ideal_count(self) -> int:
        """Number of down-sets, grown one minimal element at a time."""
        n = len(self.elements)
        seen, frontier = {0}, [0]
        while frontier:
            grown = []
            for d in frontier:
                for i in range(n):
                    if not d >> i & 1 and self.down[i] & ~(1 << i) & ~d == 0:
                        e = d | 1 << i
                        if e not in seen:
                            seen.add(e)
                            grown.append(e)
            frontier = grown
        return len(seen)

    def cut_count(self) -> int:
        """Dedekind-MacNeille cuts: intersections of principal ideals,
        the empty intersection being the whole set."""
        family = {(1 << len(self.elements)) - 1}
        for d in self.down:
            family |= {s & d for s in family}
        return len(family)

    def closed_ideal(self, mask: int) -> int:
        """Lower bounds of the upper bounds of ``mask``."""
        n = len(self.elements)
        ub = (1 << n) - 1
        for i in bits(mask):
            ub &= self.up[i]
        lb = (1 << n) - 1
        for j in bits(ub):
            lb &= self.down[j]
        return lb


def tsv_text(elements, pairs) -> str:
    """Edge-list file: every element on its own line first, which fixes
    the element order, then one a<TAB>b line per pair."""
    return "\n".join(list(elements) + [f"{a}\t{b}" for a, b in pairs]) + "\n"


def parse_tsv(text: str) -> Order:
    elements, seen, pairs = [], set(), []
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = [p.strip() for p in line.split("\t")]
        for p in parts:
            if p not in seen:
                seen.add(p)
                elements.append(p)
        if len(parts) == 2:
            pairs.append(tuple(parts))
    return Order.from_pairs(elements, pairs)


# -- tables and domination -----------------------------------------------


class Table:
    """Integer many-valued table; specs maps column -> direction."""

    def __init__(self, objects, columns, values, specs):
        self.objects = list(objects)
        self.columns = list(columns)
        self.values = values  # values[col] -> list of ints per object
        self.specs = specs

    def csv_text(self) -> str:
        lines = [",".join(["name"] + self.columns)]
        for i, g in enumerate(self.objects):
            lines.append(",".join([g] + [str(self.values[c][i]) for c in self.columns]))
        return "\n".join(lines) + "\n"

    def spec_text(self) -> str:
        return json.dumps({c: {"kind": "ordinal", "direction": d}
                           for c, d in self.specs.items()}, indent=2) + "\n"

    def weak_leq(self, i: int, j: int) -> bool:
        for c, d in self.specs.items():
            vi, vj = self.values[c][i], self.values[c][j]
            if (vi > vj) if d == "ascending" else (vi < vj):
                return False
        return True

    def quotient(self) -> tuple[Order, dict[str, str]]:
        """Weak domination with tied elements merged; classes are named
        by joining member names with '+' in table order."""
        n = len(self.objects)
        seen, classes = set(), []
        for i in range(n):
            if i in seen:
                continue
            comp = [i] + [j for j in range(i + 1, n) if j not in seen
                          and self.weak_leq(i, j) and self.weak_leq(j, i)]
            seen.update(comp)
            classes.append(comp)
        names = ["+".join(self.objects[i] for i in c) for c in classes]
        pairs = [(names[a], names[b]) for a, ca in enumerate(classes)
                 for b, cb in enumerate(classes) if a != b and self.weak_leq(ca[0], cb[0])]
        class_of = {self.objects[i]: names[k] for k, c in enumerate(classes) for i in c}
        return Order.from_pairs(names, pairs), class_of

    def strict_order(self) -> Order:
        """Strict domination in every criterion (ties incomparable)."""
        n = len(self.objects)
        pairs = [(self.objects[i], self.objects[j]) for i in range(n) for j in range(n)
                 if i != j and all(
                     (self.values[c][i] < self.values[c][j]) if d == "ascending"
                     else (self.values[c][i] > self.values[c][j])
                     for c, d in self.specs.items())]
        return Order.from_pairs(self.objects, pairs)

    def pareto(self) -> set[str]:
        n = len(self.objects)
        return {self.objects[i] for i in range(n) if not any(
            self.weak_leq(i, j) and not self.weak_leq(j, i) for j in range(n) if j != i)}

    def scaled(self) -> tuple[list[str], list[int]]:
        """Attribute names and object rows of the ordinal scaling."""
        names, rows = [], [0] * len(self.objects)
        for c in self.columns:
            d = self.specs[c]
            vals = self.values[c]
            distinct = sorted(set(vals))
            if d == "ascending":
                thresholds = [(f"{c}:>=:{v}", lambda x, v=v: x >= v) for v in distinct[1:]]
            else:
                thresholds = [(f"{c}:<=:{v}", lambda x, v=v: x <= v)
                              for v in reversed(distinct[:-1])]
            for name, test in thresholds:
                bit = 1 << len(names)
                names.append(name)
                for i, x in enumerate(vals):
                    if test(x):
                        rows[i] |= bit
        return names, rows


def parse_table(csv_text: str, spec_text: str) -> Table:
    lines = [ln for ln in csv_text.splitlines() if ln]
    header = lines[0].split(",")
    specs = {c: body.get("direction", "ascending")
             for c, body in json.loads(spec_text).items()}
    columns = [c for c in header[1:] if c in specs]
    objects, values = [], {c: [] for c in columns}
    for line in lines[1:]:
        cells = line.split(",")
        objects.append(cells[0])
        for c in columns:
            values[c].append(int(cells[header.index(c)]))
    return Table(objects, columns, values, specs)


# -- metrics -------------------------------------------------------------


def metric_csv(names, coords) -> str:
    """Manhattan distances between distinct grid points; a metric, so the
    triangle inequality holds exactly."""
    lines = [",".join([""] + list(names))]
    for a, (xa, ya) in zip(names, coords):
        lines.append(",".join([a] + [str(abs(xa - xb) + abs(ya - yb))
                                     for xb, yb in coords]))
    return "\n".join(lines) + "\n"


def parse_metric(text: str) -> tuple[list[str], list[list[int]]]:
    rows = [ln.split(",") for ln in text.splitlines() if ln]
    names = rows[0][1:]
    return names, [[int(v) for v in r[1:]] for r in rows[1:]]


def hausdorff(d, a, b) -> int:
    return max(max(min(d[x][y] for y in b) for x in a),
               max(min(d[x][y] for x in a) for y in b))


# -- output parsing --------------------------------------------------------


def parse_json(stdout: str) -> dict:
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None
    need(isinstance(doc, dict), "JSON output is not an object")
    return doc


def parse_text(stdout: str) -> dict:
    """The CLI's text form: 'key: value' lines and 'key:' tables whose
    first line is a tab-separated header."""
    doc, table = {}, None
    key_line = re.compile(r"^([a-z0-9_]+):(?: (.*))?$")
    for line in stdout.rstrip("\n").split("\n"):
        m = key_line.match(line)
        if m and m.group(2) is not None:
            doc[m.group(1)] = m.group(2)
            table = None
        elif m:
            table = doc[m.group(1)] = {"header": None, "rows": []}
        else:
            need(table is not None, f"stray output line {line!r}")
            if table["header"] is None:
                table["header"] = line.split("\t")
            else:
                table["rows"].append(dict(zip(table["header"], line.split("\t"))))
    return {k: (v["rows"] if isinstance(v, dict) else v) for k, v in doc.items()}


# -- drawings -------------------------------------------------------------


class Drawing:
    """Nodes (name or label -> point) and segments parsed from SVG or DOT.

    Coordinates are scaled to integers by their common denominator, which
    changes neither crossings nor slope directions and keeps the all-pairs
    crossing count fast."""

    def __init__(self, nodes, labels, edges):
        scale = 1
        for _, (x, y) in nodes:
            scale = lcm(scale, x.denominator, y.denominator)
        # list of (key, (x, y)); y grows upward
        self.nodes = [(k, (int(x * scale), int(y * scale))) for k, (x, y) in nodes]
        self.labels = labels  # key -> label text
        self.edges = edges  # list of (key_low, key_high)


_SVG_LINE = re.compile(r'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"')
_SVG_CIRCLE = re.compile(r'<circle cx="([^"]+)" cy="([^"]+)"')
_SVG_TEXT = re.compile(r'<text [^>]*>(.*)</text>')
_DOT_NODE = re.compile(r'^  "(.*)" \[label="(.*)" pos="([^,]+),([^!]+)!"\];$')
_DOT_EDGE = re.compile(r'^  "(.*)" -> "(.*)";$')


def _unescape(text: str) -> str:
    return (text.replace("&quot;", '"').replace("&gt;", ">")
            .replace("&lt;", "<").replace("&amp;", "&"))


def parse_svg(doc: str) -> Drawing:
    lines = doc.splitlines()
    need(lines[-1] == "</svg>", "SVG is not closed")
    nodes, labels, at = [], {}, {}
    for k, line in enumerate(lines):
        m = _SVG_CIRCLE.search(line)
        if m:
            t = _SVG_TEXT.search(lines[k + 1])
            need(t is not None, "circle without label")
            point = (Fraction(m.group(1)), -Fraction(m.group(2)))
            key = f"n{len(nodes)}"
            nodes.append((key, point))
            labels[key] = _unescape(t.group(1))
            need(point not in at, "two circles at one point")
            at[point] = key
    edges = []
    for line in lines:
        m = _SVG_LINE.search(line)
        if m:
            a = (Fraction(m.group(1)), -Fraction(m.group(2)))
            b = (Fraction(m.group(3)), -Fraction(m.group(4)))
            need(a in at and b in at, "line end is not a node centre")
            edges.append((at[a], at[b]))
    return Drawing(nodes, labels, edges)


def parse_dot(doc: str) -> Drawing:
    lines = doc.splitlines()
    need(lines[0] == "digraph order {" and lines[-1] == "}", "DOT frame missing")
    nodes, labels, edges = [], {}, []
    for line in lines[1:-1]:
        m = _DOT_NODE.match(line)
        if m:
            nodes.append((m.group(1), (Fraction(m.group(3)), Fraction(m.group(4)))))
            labels[m.group(1)] = m.group(2)
            continue
        m = _DOT_EDGE.match(line)
        need(m is not None, f"unexpected DOT line {line!r}")
        edges.append((m.group(1), m.group(2)))
    return Drawing(nodes, labels, edges)


def _orient(a, b, c) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _within(a, b, c) -> bool:
    return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))


def segments_cross(s, t) -> bool:
    """Closed segments meet in a point other than a shared endpoint."""
    (p1, p2), (p3, p4) = s, t
    shared = {p1, p2} & {p3, p4}
    if shared:
        # two segments from one point meet elsewhere only when they
        # overlap along a common line
        (p,) = shared
        a = p2 if p1 == p else p1
        b = p4 if p3 == p else p3
        return (_orient(p, a, b) == 0
                and (a[0] - p[0]) * (b[0] - p[0]) + (a[1] - p[1]) * (b[1] - p[1]) > 0)
    o1, o2 = _orient(p1, p2, p3), _orient(p1, p2, p4)
    o3, o4 = _orient(p3, p4, p1), _orient(p3, p4, p2)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return ((o1 == 0 and _within(p1, p2, p3)) or (o2 == 0 and _within(p1, p2, p4))
            or (o3 == 0 and _within(p3, p4, p1)) or (o4 == 0 and _within(p3, p4, p2)))


def drawing_crossings(dr: Drawing) -> int:
    pos = dict(dr.nodes)
    segs = [(pos[a], pos[b]) for a, b in dr.edges]
    return sum(segments_cross(segs[i], segs[j])
               for i in range(len(segs)) for j in range(i + 1, len(segs)))


def drawing_slopes(dr: Drawing) -> int:
    pos = dict(dr.nodes)
    out = set()
    for a, b in dr.edges:
        dx, dy = pos[b][0] - pos[a][0], pos[b][1] - pos[a][1]
        g = gcd(dx, dy)
        nx, ny = dx // g, dy // g
        if ny < 0 or (ny == 0 and nx < 0):
            nx, ny = -nx, -ny
        out.add((nx, ny))
    return len(out)
