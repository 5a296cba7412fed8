"""Ordered metric spaces: Hausdorff lifts, relational distortion,
context-mediated metrics, valuation orders.

Distances are exact numbers (int or Decimal); comparisons never use an
epsilon. Triangle-inequality violations on load are warnings, not
errors, because geodesic tables may carry rounding.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Iterable, Sequence

from .errors import EmptyImage, EmptySet, OdskError, ParseError
from .fca import FormalContext
from .order import Poset, QuasiOrder, Relation, _bits, _check_elements

Number = int | Decimal


@dataclass(frozen=True)
class FiniteMetric:
    """Symmetric nonnegative distance table with zero diagonal."""

    elements: tuple[str, ...]
    d: tuple[tuple[Number, ...], ...]

    def __post_init__(self):
        _check_elements(self.elements)
        n = len(self.elements)
        if len(self.d) != n or any(len(row) != n for row in self.d):
            raise OdskError("distance table is not square")
        for i in range(n):
            if self.d[i][i] != 0:
                raise OdskError(f"nonzero self-distance at {self.elements[i]}")
            for j in range(n):
                if self.d[i][j] != self.d[j][i]:
                    raise OdskError(
                        f"asymmetric distances for {self.elements[i]}, {self.elements[j]}")
                if self.d[i][j] < 0:
                    raise OdskError("negative distance")
        for bad in self.triangle_violations():
            warnings.warn(f"triangle inequality violated at {bad}", stacklevel=2)
            break

    def triangle_violations(self) -> list[tuple[str, str, str]]:
        n = len(self.elements)
        out = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.d[i][j] > self.d[i][k] + self.d[k][j]:
                        out.append((self.elements[i], self.elements[k], self.elements[j]))
        return out

    def index(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError as exc:
            raise OdskError(f"unknown element: {name!r}") from exc

    def dist(self, a: str, b: str) -> Number:
        return self.d[self.index(a)][self.index(b)]


def _parse_number(text: str) -> Number:
    t = text.strip()
    try:
        val = Decimal(t)
    except InvalidOperation as exc:
        raise ParseError(f"bad distance value: {text!r}") from exc
    return int(val) if val == val.to_integral_value() and "." not in t and "e" not in t.lower() else val


def read_distance_csv(text: str) -> FiniteMetric:
    """Distance matrix CSV with a header row and a name column; the
    reader validates symmetry exactly."""
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if len(rows) < 2:
        raise ParseError("distance CSV needs a header and at least one row")
    names = tuple(h.strip() for h in rows[0][1:])
    if len(rows) - 1 != len(names):
        raise ParseError("distance CSV is not square")
    table = []
    for r in rows[1:]:
        if r[0].strip() != names[len(table)]:
            raise ParseError(
                f"row name {r[0]!r} does not match header order")
        if len(r) != len(names) + 1:
            raise ParseError(f"ragged distance row for {r[0]!r}")
        table.append(tuple(_parse_number(v) for v in r[1:]))
    return FiniteMetric(names, tuple(table))


def write_distance_csv(metric: FiniteMetric) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([""] + list(metric.elements))
    for name, row in zip(metric.elements, metric.d):
        w.writerow([name] + [str(v) for v in row])
    return buf.getvalue()


@dataclass(frozen=True)
class OmSpace:
    """Element set with a binary relation and a finite metric."""

    relation: Relation
    metric: FiniteMetric

    def __post_init__(self):
        if self.relation.elements != self.metric.elements:
            raise OdskError("relation and metric cover different elements")

    @property
    def elements(self) -> tuple[str, ...]:
        return self.metric.elements


def hausdorff(metric: FiniteMetric, a: Iterable[str], b: Iterable[str]) -> Number:
    """max of the two directed sup-inf distances between nonempty sets."""
    ia = [metric.index(x) for x in a]
    ib = [metric.index(y) for y in b]
    if not ia or not ib:
        raise EmptySet("hausdorff distance needs nonempty sets")
    return _hausdorff_indices(metric.d, ia, ib)


def _hausdorff_indices(d: Sequence[Sequence[Number]], ia: list[int],
                       ib: list[int]) -> Number:
    """Hausdorff distance between nonempty index lists of table ``d``."""
    ab = max(min(d[x][y] for y in ib) for x in ia)
    ba = max(min(d[x][y] for x in ia) for y in ib)
    return max(ab, ba)


@dataclass(frozen=True)
class DistortionResult:
    value: Number
    witness: tuple[str, str] | None


def relational_distortion(space: OmSpace, reflexive_close: bool = False) -> DistortionResult:
    """Worst gap between ground distance and the Hausdorff distance of
    the relational images x -> {y : (x,y) in R}.

    The witness is the first maximizing pair in element order. Elements
    with empty image raise EmptyImage unless reflexive_close is set.
    """
    rel = space.relation.reflexive_closure() if reflexive_close else space.relation
    n = len(space.elements)
    rows = rel.rows()
    empty = tuple(space.elements[i] for i in range(n) if rows[i] == 0)
    if empty:
        raise EmptyImage(empty)
    images = [[j for j in _bits(rows[i])] for i in range(n)]
    d = space.metric.d
    best: Number = 0
    witness = None
    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(d[i][j] - _hausdorff_indices(d, images[i], images[j]))
            if witness is None or gap > best:
                best = gap
                witness = (space.elements[i], space.elements[j])
    return DistortionResult(best, witness)


@dataclass(frozen=True)
class MediatedMetric:
    """Hausdorff distances between attribute extents; pairs touching an
    empty extent are undefined (None)."""

    attributes: tuple[str, ...]
    table: tuple[tuple[Number | None, ...], ...]
    empty_extents: tuple[str, ...]

    def dist(self, m1: str, m2: str) -> Number | None:
        return self.table[self.attributes.index(m1)][self.attributes.index(m2)]


def mediated_metric(ctx: FormalContext, d_g: FiniteMetric) -> MediatedMetric:
    """Lift an object metric to attributes via extents and Hausdorff."""
    if sorted(ctx.objects) != sorted(d_g.elements):
        raise OdskError("metric elements differ from context objects")
    pos = {name: k for k, name in enumerate(d_g.elements)}
    metric_index = [pos[g] for g in ctx.objects]
    cols = ctx.cols
    extents = [[metric_index[i] for i in _bits(col)] for col in cols]
    empty = tuple(m for m, col in zip(ctx.attributes, cols) if not col)
    table = []
    for ci, ei in zip(cols, extents):
        row: list[Number | None] = []
        for cj, ej in zip(cols, extents):
            if not ci or not cj:
                row.append(None)
            elif ci == cj:
                row.append(0)
            else:
                row.append(_hausdorff_indices(d_g.d, ei, ej))
        table.append(tuple(row))
    return MediatedMetric(ctx.attributes, tuple(table), empty)


def valuation_order(ctx: FormalContext) -> QuasiOrder:
    """Rank objects by their attribute count: g <= h iff |g'| <= |h'|."""
    counts = [bin(r).count("1") for r in ctx.rows]
    return QuasiOrder.from_values(ctx.objects, counts)


def disagreement(p: Poset, o: QuasiOrder) -> int:
    """Ordered pairs a < b in the poset ranked strictly the other way
    around by the (linear) quasi-order."""
    if sorted(p.elements) != sorted(o.elements):
        raise OdskError("orders cover different elements")
    pos = {e: i for i, e in enumerate(o.elements)}
    count = 0
    for i, a in enumerate(p.elements):
        for j in _bits(p.up[i] & ~(1 << i)):
            b = p.elements[j]
            ia, ib = pos[a], pos[b]
            if (o.rel[ib] >> ia & 1) and not (o.rel[ia] >> ib & 1):
                count += 1
    return count
