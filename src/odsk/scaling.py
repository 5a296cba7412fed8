"""Conceptual scaling: many-valued tables to formal contexts.

Supported scale kinds: nominal, ordinal, interordinal, contranominal
(standard constructors) plus dichotomic for two-valued columns. Ordinal
scaling emits one threshold attribute per distinct observed value except
the weakest, named "col:op:value".
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Mapping, Sequence

from .errors import MissingSpec, OdskError, ParseError, UnknownValue, UnsupportedKind
from .fca import FormalContext
from .order import OrdinalStructure, QuasiOrder

STANDARD_KINDS = ("nominal", "ordinal", "interordinal", "contranominal")
SPEC_KINDS = STANDARD_KINDS + ("dichotomic",)


@dataclass(frozen=True)
class Column:
    name: str
    values: tuple[str, ...]

    @property
    def numeric(self) -> bool:
        return all(_as_decimal(v) is not None for v in self.values)


def _as_decimal(text: str) -> Decimal | None:
    try:
        return Decimal(text.strip())
    except InvalidOperation:
        return None


def _canon(value: str, numeric: bool) -> str:
    """Canonical cell rendering; numeric cells collapse to Decimal form."""
    return str(_as_decimal(value)) if numeric else value


@dataclass(frozen=True)
class ManyValuedTable:
    """Rectangular table: row names plus named columns of string cells."""

    objects: tuple[str, ...]
    columns: tuple[Column, ...]

    def __post_init__(self):
        for col in self.columns:
            if len(col.values) != len(self.objects):
                raise OdskError(f"column {col.name!r} has wrong length")

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise OdskError(f"no column named {name!r}")

    def select(self, names: Sequence[str]) -> "ManyValuedTable":
        return ManyValuedTable(self.objects, tuple(self.column(n) for n in names))


def read_table_csv(text: str) -> ManyValuedTable:
    """RFC 4180 CSV; header row, first column holds row names."""
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        return ManyValuedTable((), ())
    header = rows[0][1:]
    objects = tuple(r[0] for r in rows[1:])
    for r in rows[1:]:
        if len(r) != len(rows[0]):
            raise ParseError(f"ragged CSV row: {r!r}")
    columns = tuple(
        Column(name, tuple(r[k + 1] for r in rows[1:]))
        for k, name in enumerate(header))
    return ManyValuedTable(objects, columns)


@dataclass(frozen=True)
class ScaleSpec:
    """How one column becomes attributes; value_order lists values from
    weakest to strongest and is required only when given explicitly."""

    column: str
    kind: str
    direction: str = "ascending"
    value_order: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in SPEC_KINDS:
            raise UnsupportedKind(f"unsupported scale kind: {self.kind!r}")
        if self.direction not in ("ascending", "descending"):
            raise OdskError(f"direction must be ascending|descending, got {self.direction!r}")


def read_scaling_spec(text: str) -> dict[str, ScaleSpec]:
    """Parse the JSON spec format {column: {kind, direction?, values?}}."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad scaling spec: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("scaling spec must be an object keyed by column")
    specs = {}
    for col, body in raw.items():
        if not isinstance(body, dict) or "kind" not in body:
            raise ParseError(f"spec for column {col!r} needs a 'kind'")
        values = body.get("values")
        if values is not None and not isinstance(values, list):
            raise ParseError(f"'values' for column {col!r} must be a list")
        specs[col] = ScaleSpec(
            column=col,
            kind=body["kind"],
            direction=body.get("direction", "ascending"),
            value_order=tuple(values) if values is not None else None)
    return specs


# -- standard scales ----------------------------------------------------


def standard_scale(kind: str, n: int) -> FormalContext:
    """The classic n-row scale contexts on objects "1".."n"."""
    if n < 1:
        raise OdskError("scale size must be >= 1")
    objs = tuple(str(i) for i in range(1, n + 1))
    if kind == "nominal":
        return FormalContext(objs, tuple(f"={i}" for i in range(1, n + 1)),
                             tuple(1 << i for i in range(n)))
    if kind == "contranominal":
        full = (1 << n) - 1
        return FormalContext(objs, tuple(f"!={i}" for i in range(1, n + 1)),
                             tuple(full & ~(1 << i) for i in range(n)))
    if kind == "ordinal":
        return FormalContext(objs, tuple(f">={i}" for i in range(1, n + 1)),
                             tuple((1 << (i + 1)) - 1 for i in range(n)))
    if kind == "interordinal":
        attrs = tuple(f"<={i}" for i in range(1, n + 1)) \
            + tuple(f">={i}" for i in range(1, n + 1))
        rows = []
        for i in range(n):
            le = sum(1 << j for j in range(n) if i <= j)
            ge = sum(1 << (n + j) for j in range(n) if i >= j)
            rows.append(le | ge)
        return FormalContext(objs, attrs, tuple(rows))
    raise UnsupportedKind(f"no construction for scale kind {kind!r}")


# -- applying scales to tables -------------------------------------------


def _ordered_values(col: Column, spec: ScaleSpec) -> tuple[list[str], bool]:
    """Distinct cell values from weakest to strongest, plus numeric flag."""
    numeric = col.numeric and spec.value_order is None
    cells = [_canon(v, numeric) for v in col.values]
    if spec.value_order is not None:
        order = [_canon(v, False) for v in spec.value_order]
        missing = sorted(set(cells) - set(order))
        if missing:
            raise UnknownValue(
                f"column {col.name!r}: values not in value_order: {missing}")
        return [v for v in order if v in set(cells)], False
    distinct = sorted(set(cells), key=(lambda v: Decimal(v)) if numeric else str)
    return distinct, numeric


def _column_attributes(col: Column, spec: ScaleSpec) -> tuple[tuple[str, ...], list[int]]:
    """Attribute names and per-object bit rows for one scaled column."""
    order, numeric = _ordered_values(col, spec)
    cells = [_canon(v, numeric) for v in col.values]
    rank = {v: k for k, v in enumerate(order)}

    def asc_thresholds():
        # ">= v" per distinct value except the weakest
        names = [f"{col.name}:>=:{v}" for v in order[1:]]
        masks = [sum(1 << i for i, c in enumerate(cells) if rank[c] >= k)
                 for k in range(1, len(order))]
        return names, masks

    def desc_thresholds():
        names = [f"{col.name}:<=:{v}" for v in reversed(order[:-1])]
        masks = [sum(1 << i for i, c in enumerate(cells) if rank[c] <= k)
                 for k in reversed(range(len(order) - 1))]
        return names, masks

    if spec.kind == "ordinal":
        names, masks = asc_thresholds() if spec.direction == "ascending" else desc_thresholds()
    elif spec.kind == "interordinal":
        n1, m1 = asc_thresholds()
        n2, m2 = desc_thresholds()
        names, masks = n1 + n2, m1 + m2
    else:  # nominal, dichotomic, contranominal: one attribute per value
        if spec.kind == "dichotomic" and len(order) != 2:
            raise UnknownValue(
                f"column {col.name!r}: dichotomic scale needs exactly 2 values, "
                f"saw {len(order)}")
        negate = spec.kind == "contranominal"
        names = [f"{col.name}:{'!=' if negate else '='}:{v}" for v in order]
        masks = [sum(1 << i for i, c in enumerate(cells) if (c == v) != negate)
                 for v in order]

    # column-local attribute bit masks -> per-object rows
    rows = [0] * len(col.values)
    for j, mask in enumerate(masks):
        for i in range(len(col.values)):
            if mask >> i & 1:
                rows[i] |= 1 << j
    return tuple(names), rows


def apply_scaling(table: ManyValuedTable,
                  specs: Mapping[str, ScaleSpec]) -> FormalContext:
    """Scale every column of the table; attribute order is column order
    then value order. Every column must have a spec."""
    for col in table.columns:
        if col.name not in specs:
            raise MissingSpec(f"no scaling spec for column {col.name!r}")
    for name in specs:
        table.column(name)  # raises on unknown column
    attr_names: list[str] = []
    obj_rows = [0] * len(table.objects)
    offset = 0
    for col in table.columns:
        names, rows = _column_attributes(col, specs[col.name])
        attr_names.extend(names)
        for i, r in enumerate(rows):
            obj_rows[i] |= r << offset
        offset += len(names)
    return FormalContext(table.objects, tuple(attr_names), tuple(obj_rows))


def to_ordinal_structure(table: ManyValuedTable,
                         specs: Mapping[str, ScaleSpec]) -> OrdinalStructure:
    """Criterion quasi-orders for the ordinal columns of a table, for
    domination and Pareto analysis."""
    orders = []
    for col in table.columns:
        spec = specs.get(col.name)
        if spec is None:
            raise MissingSpec(f"no scaling spec for column {col.name!r}")
        if spec.kind != "ordinal":
            raise UnsupportedKind(
                f"column {col.name!r}: domination needs ordinal scales, got {spec.kind!r}")
        order, numeric = _ordered_values(col, spec)
        rank = {v: k for k, v in enumerate(order)}
        ranks = [rank[_canon(v, numeric)] for v in col.values]
        orders.append((col.name, QuasiOrder.from_values(
            table.objects, ranks, descending=spec.direction == "descending")))
    if not orders:
        raise OdskError("table has no columns to order by")
    return OrdinalStructure(tuple(table.objects), tuple(orders))
