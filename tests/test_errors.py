"""Each validation error: its exception type and its exact message."""

import pytest

from odsk import (FiniteMetric, FormalContext, LinearExtension, MissingSpec, OdskError,
                  OmSpace, OrdinalStructure, ParseError, Poset, QuasiOrder, Relation,
                  ScaleSpec, UnsupportedKind, disagreement, intersect_linear_orders,
                  largest_ordinal_factor, mediated_metric, order_dimension,
                  ordinal_factorization, poset_from_tsv, product_order, render,
                  standard_scale, to_ordinal_structure)
from odsk import commands
from odsk.cli import build_parser
from odsk.fixtures import fixture_path
from odsk.layout import Drawing
from odsk.scaling import Column, ManyValuedTable

CTX = FormalContext(("g",), ("m",), (1,))
ONE = OrdinalStructure(("a",), (("c", QuasiOrder(("a",), (1,))),))
TABLE = ManyValuedTable(("a",), (Column("c", ("1",)),))
METRIC_B = FiniteMetric(("b",), ((0,),))


def _command(tmp_path, argv: list[str], files: dict[str, str]):
    """Run a subcommand's body on files written under ``tmp_path``; the
    argv names them by key."""
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    args = build_parser().parse_args(
        [str(tmp_path / a) if a in files else a for a in argv])
    return getattr(commands, args.func)(args)


CASES = {
    "context row count": (
        lambda _: FormalContext(("g",), ("m",), ()),
        OdskError, "row count does not match object count"),
    "context row width": (
        lambda _: FormalContext(("g",), ("m",), (2,)),
        OdskError, "incidence row wider than attribute count"),
    "derive side": (
        lambda _: CTX.derive("both", []),
        OdskError, "side must be 'objects' or 'attributes', got 'both'"),
    "tsv empty name": (
        lambda _: poset_from_tsv("a\tb\n\tb\n"),
        ParseError, "line 2: empty element name"),
    "structure without orders": (
        lambda _: OrdinalStructure(("a",), ()),
        OdskError, "ordinal structure needs at least one order"),
    "structure over other elements": (
        lambda _: OrdinalStructure(("a",), (("c", QuasiOrder(("b",), (1,))),)),
        OdskError, "order 'c' is over different elements"),
    "tie policy": (
        lambda _: product_order(ONE, ties="merge"),
        OdskError, "unknown tie policy: 'merge'"),
    "extension repeats": (
        lambda _: LinearExtension(("a", "a")),
        OdskError, "linear extension repeats elements"),
    "no linear orders": (
        lambda _: intersect_linear_orders([]),
        OdskError, "need at least one linear order"),
    "linear orders over other elements": (
        lambda _: intersect_linear_orders([LinearExtension(("a",)), LinearExtension(("b",))]),
        OdskError, "linear orders are over different elements"),
    "metric not square": (
        lambda _: FiniteMetric(("a", "b"), ((0, 1),)),
        OdskError, "distance table is not square"),
    "metric self-distance": (
        lambda _: FiniteMetric(("a",), ((1,),)),
        OdskError, "nonzero self-distance at a"),
    "metric negative": (
        lambda _: FiniteMetric(("a", "b"), ((0, -1), (-1, 0))),
        OdskError, "negative distance"),
    "omspace elements": (
        lambda _: OmSpace(Relation(("a",), frozenset()), METRIC_B),
        OdskError, "relation and metric cover different elements"),
    "mediated metric elements": (
        lambda _: mediated_metric(CTX, METRIC_B),
        OdskError, "metric elements differ from context objects"),
    "disagreement elements": (
        lambda _: disagreement(Poset.chain("a"), QuasiOrder(("b",), (1,))),
        OdskError, "orders cover different elements"),
    "table column length": (
        lambda _: ManyValuedTable(("a", "b"), (Column("c", ("1",)),)),
        OdskError, "column 'c' has wrong length"),
    "table unknown column": (
        lambda _: TABLE.column("d"),
        OdskError, "no column named 'd'"),
    "scale size": (
        lambda _: standard_scale("nominal", 0),
        OdskError, "scale size must be >= 1"),
    "ordinal structure spec missing": (
        lambda _: to_ordinal_structure(TABLE, {}),
        MissingSpec, "no scaling spec for column 'c'"),
    "ordinal structure kind": (
        lambda _: to_ordinal_structure(TABLE, {"c": ScaleSpec("c", "nominal")}),
        UnsupportedKind, "column 'c': domination needs ordinal scales, got 'nominal'"),
    "ordinal structure no columns": (
        lambda _: to_ordinal_structure(ManyValuedTable(("a",), ()), {}),
        OdskError, "table has no columns to order by"),
    "drawing coincident points": (
        lambda _: Drawing((("a", (0, 0)), ("b", (0, 0))), ()),
        OdskError, "coincident coordinates at b"),
    "drawing downward edge": (
        lambda _: Drawing((("a", (0, 1)), ("b", (0, 0))), (("a", "b"),)),
        OdskError, "edge a -> b does not point upward"),
    "render format": (
        lambda _: render(Drawing((), ()), fmt="png"),
        OdskError, "unknown render format: 'png'"),
    "dimension max_k": (
        lambda _: order_dimension(Poset.chain("ab"), max_k=0),
        OdskError, "max_k must be >= 1"),
    "factor count": (
        lambda _: ordinal_factorization(CTX, 0),
        OdskError, "need k >= 1 factors"),
    "factor uncovered pairs": (
        lambda _: largest_ordinal_factor(CTX, frozenset({("g", "x")})),
        OdskError, "uncovered pairs must be incidences of the context"),
    "cli verify-points on a tsv": (
        lambda tmp: _command(tmp, ["dimension", str(fixture_path("bundesliga.tsv")),
                                   "--verify-points"], {}),
        OdskError, "--verify-points needs a .csv table input"),
    "cli verify-points columns": (
        lambda tmp: _command(tmp, ["dimension", "t.csv", "--spec", "s.json", "--verify-points"],
                             {"t.csv": "name,c\na,1\nb,2\n",
                              "s.json": '{"c": {"kind": "ordinal"}}'}),
        OdskError, "--verify-points needs W, D and Pts columns"),
    "cli distortion elements": (
        lambda tmp: _command(tmp, ["omspace", "distortion", "p.tsv", "d.csv"],
                             {"p.tsv": "a\tb\n", "d.csv": ",a,c\na,0,1\nc,1,0\n"}),
        OdskError, "distance table and order cover different elements"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_validation_error(case, tmp_path):
    call, error, message = CASES[case]
    with pytest.raises(error) as exc:
        call(tmp_path)
    assert type(exc.value) is error
    assert str(exc.value) == message
