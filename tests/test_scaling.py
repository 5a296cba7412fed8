import json

import pytest

from odsk import (MissingSpec, ScaleSpec, UnknownValue, UnsupportedKind,
                  apply_scaling, concepts, product_order, read_table_csv,
                  standard_scale, to_ordinal_structure)
from odsk import ParseError, read_scaling_spec
from odsk.fixtures import bundesliga_scales, bundesliga_table
from odsk.scaling import ManyValuedTable, Column


# -- standard scales -----------------------------------------------------


def test_nominal_2_is_identity():
    ctx = standard_scale("nominal", 2)
    assert ctx.rows == (0b01, 0b10)


def test_contranominal_3_boolean_lattice():
    ctx = standard_scale("contranominal", 3)
    assert len(concepts(ctx)) == 8


def test_ordinal_3_chain_lattice():
    # brute-force oracle: the closures of all attribute subsets of the
    # reflexive staircase are {>=1}, {>=1,>=2}, {>=1,>=2,>=3}; the pair
    # (empty set, M) is not a concept because M' = {3}
    lat = concepts(standard_scale("ordinal", 3))
    assert lat.is_chain()
    assert len(lat) == 3


def test_interordinal_shape():
    ctx = standard_scale("interordinal", 3)
    assert len(ctx.objects) == 3 and len(ctx.attributes) == 6
    assert ctx.has("1", "<=1") and ctx.has("1", ">=1") and not ctx.has("1", ">=2")


def test_unsupported_kinds():
    for kind in ("interval", "multi-ordinal", "contra-ordinal", "convex-ordinal"):
        with pytest.raises(UnsupportedKind):
            standard_scale(kind, 3)


# -- apply_scaling -------------------------------------------------------


def _table(rows: dict[str, list[str]], objects: list[str]) -> ManyValuedTable:
    return ManyValuedTable(tuple(objects),
                           tuple(Column(k, tuple(v)) for k, v in rows.items()))


def test_nominal_column_one_cross_per_row():
    t = _table({"color": ["red", "blue", "red"]}, ["a", "b", "c"])
    ctx = apply_scaling(t, {"color": ScaleSpec("color", "nominal")})
    assert ctx.attributes == ("color:=:blue", "color:=:red")
    assert all(bin(r).count("1") == 1 for r in ctx.rows)


def test_contranominal_column_complements_nominal():
    t = _table({"color": ["red", "blue", "red", "green"]}, ["a", "b", "c", "d"])
    nom = apply_scaling(t, {"color": ScaleSpec("color", "nominal")})
    con = apply_scaling(t, {"color": ScaleSpec("color", "contranominal")})
    assert con.attributes == ("color:!=:blue", "color:!=:green", "color:!=:red")
    full = (1 << len(nom.attributes)) - 1
    assert con.rows == tuple(full & ~row for row in nom.rows)


def test_empty_table():
    ctx = apply_scaling(ManyValuedTable((), ()), {})
    assert ctx.objects == () and ctx.attributes == ()


def test_ordinal_ascending_thresholds_drop_weakest():
    t = _table({"v": ["1", "3", "2"]}, ["a", "b", "c"])
    ctx = apply_scaling(t, {"v": ScaleSpec("v", "ordinal")})
    assert ctx.attributes == ("v:>=:2", "v:>=:3")
    assert ctx.has("b", "v:>=:3") and not ctx.has("c", "v:>=:3")
    assert ctx.has("c", "v:>=:2") and not ctx.has("a", "v:>=:2")


def test_ordinal_descending_thresholds():
    t = _table({"v": ["1", "3", "2"]}, ["a", "b", "c"])
    ctx = apply_scaling(t, {"v": ScaleSpec("v", "ordinal", direction="descending")})
    assert ctx.attributes == ("v:<=:2", "v:<=:1")
    assert ctx.has("a", "v:<=:1") and not ctx.has("c", "v:<=:1")


def test_numeric_comparison_not_lexicographic():
    t = _table({"v": ["9", "10", "2"]}, ["a", "b", "c"])
    ctx = apply_scaling(t, {"v": ScaleSpec("v", "ordinal")})
    assert ctx.attributes == ("v:>=:9", "v:>=:10")
    assert ctx.has("b", "v:>=:10") and not ctx.has("a", "v:>=:10")


def test_explicit_value_order_and_unknown_value():
    t = _table({"grade": ["good", "bad", "ok"]}, ["a", "b", "c"])
    spec = ScaleSpec("grade", "ordinal", value_order=("bad", "ok", "good"))
    ctx = apply_scaling(t, {"grade": spec})
    assert ctx.attributes == ("grade:>=:ok", "grade:>=:good")
    with pytest.raises(UnknownValue):
        apply_scaling(_table({"grade": ["great"]}, ["x"]),
                      {"grade": ScaleSpec("grade", "ordinal", value_order=("bad",))})


def test_missing_spec():
    t = _table({"v": ["1"], "w": ["2"]}, ["a"])
    with pytest.raises(MissingSpec):
        apply_scaling(t, {"v": ScaleSpec("v", "ordinal")})


def test_dichotomic_requires_two_values():
    t = _table({"b": ["yes", "no", "yes"]}, ["x", "y", "z"])
    ctx = apply_scaling(t, {"b": ScaleSpec("b", "dichotomic")})
    assert len(ctx.attributes) == 2
    with pytest.raises(UnknownValue):
        apply_scaling(_table({"b": ["1", "2", "3"]}, ["x", "y", "z"]),
                      {"b": ScaleSpec("b", "dichotomic")})


def test_interordinal_column():
    t = _table({"v": ["1", "2", "3"]}, ["a", "b", "c"])
    ctx = apply_scaling(t, {"v": ScaleSpec("v", "interordinal")})
    assert ctx.attributes == ("v:>=:2", "v:>=:3", "v:<=:2", "v:<=:1")


def test_scaling_idempotent_naming():
    t = bundesliga_table().select(["W", "L", "GF", "GA"])
    specs = bundesliga_scales()
    a = apply_scaling(t, specs)
    b = apply_scaling(t, specs)
    assert a == b


def test_bundesliga_scaling_reproduces_domination_order():
    table = bundesliga_table()
    specs = bundesliga_scales()
    scoped = table.select(list(specs))
    ctx = apply_scaling(scoped, specs)
    poset, class_of = product_order(to_ordinal_structure(scoped, specs))
    rows = {g: ctx.rows[i] for i, g in enumerate(ctx.objects)}
    for g in table.objects:
        for h in table.objects:
            dominated = rows[g] | rows[h] == rows[h]  # attrs(g) subset attrs(h)
            assert dominated == poset.leq(class_of[g], class_of[h])


def test_scaling_order_commutation_random(rng):
    for _ in range(20):
        n, k = rng.randint(1, 8), rng.randint(1, 4)
        objects = [f"r{i}" for i in range(n)]
        cols = {f"c{j}": [str(rng.randint(0, 5)) for _ in range(n)] for j in range(k)}
        t = _table(cols, objects)
        specs = {name: ScaleSpec(name, "ordinal",
                                 direction=rng.choice(["ascending", "descending"]))
                 for name in cols}
        ctx = apply_scaling(t, specs)
        poset, class_of = product_order(to_ordinal_structure(t, specs))
        for g in objects:
            for h in objects:
                dominated = ctx.rows[objects.index(g)] | ctx.rows[objects.index(h)] \
                    == ctx.rows[objects.index(h)]
                assert dominated == poset.leq(class_of[g], class_of[h])


def test_csv_reader():
    t = read_table_csv('name,A,B\nx,"1,5",2\ny,3,4\n')
    assert t.objects == ("x", "y")
    assert t.column("A").values == ("1,5", "3")
    assert t.column("B").numeric


def test_spec_values_must_be_a_list():
    with pytest.raises(ParseError):
        read_scaling_spec('{"x": {"kind": "ordinal", "values": 5}}')


def test_nan_cells_make_a_text_column():
    col = Column("c", ("1", "sNaN"))
    assert not col.numeric
    ctx = apply_scaling(ManyValuedTable(("r1", "r2"), (col,)),
                        {"c": ScaleSpec("c", "ordinal")})
    assert ctx.attributes == ("c:>=:sNaN",)
    assert ctx.rows == (0, 1)


@pytest.mark.parametrize("values", [[["x"]], ["1", "1", "2", "3"], [1, 2]])
def test_spec_values_must_be_distinct_strings(values):
    with pytest.raises(ParseError):
        read_scaling_spec(json.dumps({"c": {"kind": "ordinal", "values": values}}))


def test_spec_nested_too_deep_and_bad_csv_are_parse_errors():
    with pytest.raises(ParseError):
        read_scaling_spec("[" * 100_000)
    with pytest.raises(ParseError):
        read_table_csv("name,c\rx,1\n")
