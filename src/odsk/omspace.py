"""Ordered metric spaces: Hausdorff lifts, relational distortion,
context-mediated metrics, valuation orders.

Distances are exact numbers (int or Decimal); comparisons never use an
epsilon, and Decimal differences are taken in an unrounded context.
Triangle-inequality violations on load are warnings, not errors,
because geodesic tables may carry rounding.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal,
                     InvalidOperation, getcontext, localcontext)
from itertools import chain, repeat
from operator import gt, sub
from typing import Iterable, Sequence

from .errors import EmptyImage, EmptySet, OdskError, ParseError
from .fca import FormalContext
from .order import Poset, QuasiOrder, Relation, _bits, _check_elements, _position

Number = int | Decimal


def _exact():
    """A local Decimal context that never rounds. `FiniteMetric` holds
    only distances that `_out_of_range` accepts, so an exact difference
    of two of them has at most about two million digits."""
    return localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN))


def _out_of_range(v: Number) -> bool:
    """A Decimal that is not finite, or whose adjusted exponent lies
    outside the current context's exponent range."""
    ctx = getcontext()
    return isinstance(v, Decimal) and not (
        v.is_finite() and ctx.Emin <= v.adjusted() <= ctx.Emax)


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
        if any(map(_out_of_range, chain.from_iterable(self.d))):
            raise OdskError("distance value not finite or out of range")
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
        """(x, z, y) for every d(x,y) - d(x,z) > d(z,y), in (x, y, z)
        index order. The table is symmetric and the arithmetic exact, so
        (x, y) and (y, x) fail for the same z: each pair i < j tests all
        z at once along rows i and j, and lists both orientations."""
        names, d = self.elements, self.d
        hits = []
        with _exact():
            for i, row in enumerate(d):
                for j in range(i + 1, len(row)):
                    dij = row[j]
                    if any(map(gt, map(sub, repeat(dij), row), d[j])):
                        ks = [k for k in range(len(row)) if dij - row[k] > d[j][k]]
                        hits += [(i, j, ks), (j, i, ks)]
        hits.sort()  # (x, y) is unique, so ks is never compared
        return [(names[x], names[k], names[y]) for x, y, ks in hits for k in ks]

    def index(self, name: str) -> int:
        return _position(self.elements, name)

    def dist(self, a: str, b: str) -> Number:
        return self.d[self.index(a)][self.index(b)]


def _parse_number(text: str) -> Number:
    t = text.strip()
    if t.isascii() and t.isdigit():
        try:  # the value and type the Decimal path gives
            return int(t)
        except ValueError:  # past int()'s digit limit; Decimal decides
            pass
    try:
        val = Decimal(t)
    except InvalidOperation as exc:
        raise ParseError(f"bad distance value: {text!r}") from exc
    if _out_of_range(val):
        raise ParseError(f"distance value not finite or out of range: {text!r}")
    return int(val) if val == val.to_integral_value() and "." not in t and "e" not in t.lower() else val


def read_distance_csv(text: str) -> FiniteMetric:
    """Distance matrix CSV with a header row and a name column; the
    reader validates symmetry exactly."""
    try:
        rows = [r for r in csv.reader(io.StringIO(text)) if r]
    except csv.Error as exc:
        raise ParseError(f"bad distance CSV: {exc}") from exc
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
    return _hausdorff_lift(metric.d, [ia, ib])(0, 1)


def _nearest(rows: Sequence[Sequence[Number]], s: list[int]) -> list[Number]:
    """z -> min(rows[x][z] for x in s), taken over s in its order."""
    return list(map(min, zip(*map(rows.__getitem__, s))))


def _hausdorff_lift(d: Sequence[Sequence[Number]], sets: list[list[int]]):
    """The Hausdorff distance between sets[a] and sets[b] of table ``d``
    as a function of (a, b), for nonempty sets[a] and sets[b].

    Per set S it tabulates row_near[S][z] = min(d[z][y] for y in S) and
    col_near[S][z] = min(d[x][z] for x in S) once. Then H(A, B) is
    max(max(row_near[B][x] for x in A), max(col_near[A][y] for y in B)):
    the minima and maxima of the directed sup-inf formula over the same
    elements in the same order, so the same int or Decimal objects.
    """
    cols = tuple(zip(*d))
    row_near = [_nearest(cols, s) for s in sets]
    col_near = [_nearest(d, s) for s in sets]

    def h(a: int, b: int) -> Number:
        return max(max(map(row_near[b].__getitem__, sets[a])),
                   max(map(col_near[a].__getitem__, sets[b])))
    return h


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
    d = space.metric.d
    h = _hausdorff_lift(d, [list(_bits(row)) for row in rows])
    best: Number = 0
    witness = None
    with _exact():
        for i in range(n):
            for j in range(i + 1, n):
                gap = abs(d[i][j] - h(i, j))
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
        return self.table[_position(self.attributes, m1, "attribute")][
            _position(self.attributes, m2, "attribute")]


def mediated_metric(ctx: FormalContext, d_g: FiniteMetric) -> MediatedMetric:
    """Lift an object metric to attributes via extents and Hausdorff."""
    if sorted(ctx.objects) != sorted(d_g.elements):
        raise OdskError("metric elements differ from context objects")
    pos = {name: k for k, name in enumerate(d_g.elements)}
    metric_index = [pos[g] for g in ctx.objects]
    cols = ctx.cols
    h = _hausdorff_lift(d_g.d, [[metric_index[i] for i in _bits(col)] for col in cols])
    empty = tuple(m for m, col in zip(ctx.attributes, cols) if not col)
    table = []
    for a, ci in enumerate(cols):
        row: list[Number | None] = []
        for b, cj in enumerate(cols):
            if not ci or not cj:
                row.append(None)
            elif ci == cj:
                row.append(0)
            else:
                row.append(h(a, b))
        table.append(tuple(row))
    return MediatedMetric(ctx.attributes, tuple(table), empty)


def valuation_order(ctx: FormalContext) -> QuasiOrder:
    """Rank objects by their attribute count: g <= h iff |g'| <= |h'|."""
    counts = [r.bit_count() for r in ctx.rows]
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
