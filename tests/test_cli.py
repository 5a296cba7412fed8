import functools
import json
from decimal import Decimal

import pytest

import odsk.cli
import odsk.completion
import odsk.fca
import odsk.layout
from odsk import BudgetExceeded, ParseError, concepts
from odsk.cli import _read, run
from odsk.fixtures import fixture_path

from conftest import fence

REMBRANDT = str(fixture_path("rembrandt.cxt"))
AIRLINES = str(fixture_path("airlines.cxt"))
AIRDIST = str(fixture_path("airlines_dist.csv"))
BUNDES_CSV = str(fixture_path("bundesliga.csv"))
BUNDES_TSV = str(fixture_path("bundesliga.tsv"))
BUNDES_SPEC = str(fixture_path("bundesliga_scales.json"))
SOCIAL = str(fixture_path("socialnet.cxt"))


def out_of(capsys) -> str:
    return capsys.readouterr().out


def test_concepts_empty_context(tmp_path, capsys):
    empty = tmp_path / "empty.cxt"
    empty.write_text("B\n\n0\n0\n\n", encoding="utf-8")
    assert run(["concepts", str(empty)]) == 0
    assert "concept_count: 1" in out_of(capsys)


def test_concepts_rembrandt(capsys):
    assert run(["concepts", REMBRANDT]) == 0
    assert "concept_count: 9" in out_of(capsys)


def test_implications_rembrandt(capsys):
    assert run(["implications", REMBRANDT]) == 0
    text = out_of(capsys)
    assert "implication_count: 6" in text
    assert "≥1660\tCanvas" in text


def test_guttman_command(tmp_path, capsys):
    stair = tmp_path / "stair.cxt"
    stair.write_text("B\n\n2\n2\n\ng1\ng2\nm1\nm2\nX.\nXX\n", encoding="utf-8")
    assert run(["guttman", str(stair)]) == 0
    assert "guttman: true" in out_of(capsys)


def test_complete_command(tmp_path, capsys):
    poset = tmp_path / "anti.tsv"
    poset.write_text("a\nb\n", encoding="utf-8")
    assert run(["complete", str(poset)]) == 0
    text = out_of(capsys)
    assert "completion_size: 4" in text
    assert "new_nodes: 2" in text


def test_dimension_bundesliga_tsv(capsys):
    assert run(["dimension", BUNDES_TSV]) == 0
    text = out_of(capsys)
    assert "dimension: 3" in text
    assert "realizer:" in text


def test_dimension_csv_quotient_vs_strict(capsys):
    assert run(["dimension", BUNDES_CSV, "--spec", BUNDES_SPEC]) == 0
    assert "dimension: 2" in out_of(capsys)
    assert run(["dimension", BUNDES_CSV, "--spec", BUNDES_SPEC,
                "--no-quotient"]) == 0
    assert "dimension: 3" in out_of(capsys)


def test_dimension_verify_points(capsys):
    assert run(["dimension", BUNDES_CSV, "--spec", BUNDES_SPEC,
                "--verify-points"]) == 0
    assert "points_verified: true" in out_of(capsys)


def test_dimension_budget_exit_code(tmp_path, capsys):
    anti = tmp_path / "anti.tsv"
    anti.write_text("a\nb\nc\n", encoding="utf-8")
    assert run(["dimension", str(anti), "--max-k", "1"]) == 3
    text = out_of(capsys)
    assert "lower_bound: 2" in text
    assert "upper_bound: 2" in text


def test_pareto_bundesliga(capsys):
    assert run(["pareto", BUNDES_CSV, "--spec", BUNDES_SPEC]) == 0
    text = out_of(capsys)
    assert "FC Bayern München" in text and "Borussia Dortmund" in text
    assert "maxima_count: 2" in text


def test_scale_roundtrip(tmp_path, capsys):
    out = tmp_path / "derived.cxt"
    assert run(["scale", BUNDES_CSV, "--spec", BUNDES_SPEC, "-o", str(out)]) == 0
    from odsk import read_cxt
    ctx = read_cxt(out.read_text(encoding="utf-8"))
    assert len(ctx.objects) == 18
    assert all(":" in m for m in ctx.attributes)


def test_scale_contranominal(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("name,c\nx,1\ny,2\nz,1\n", encoding="utf-8")
    spec = tmp_path / "spec.json"
    spec.write_text('{"c": {"kind": "contranominal"}}', encoding="utf-8")
    out = tmp_path / "derived.cxt"
    assert run(["scale", str(table), "--spec", str(spec), "-o", str(out)]) == 0
    from odsk import read_cxt
    ctx = read_cxt(out.read_text(encoding="utf-8"))
    assert ctx.attributes == ("c:!=:1", "c:!=:2")
    assert ctx.rows == (0b10, 0b01, 0b10)


def test_factors_socialnet(capsys):
    assert run(["factors", SOCIAL, "-k", "2"]) == 0
    text = out_of(capsys)
    assert "uncovered_count: 5" in text
    assert "TikTok\ttimeline" in text
    assert "axis_1_objects:" in text


def test_omspace_mediate_airlines(capsys):
    assert run(["omspace", "mediate", AIRLINES, AIRDIST]) == 0
    text = out_of(capsys)
    row = next(ln for ln in text.splitlines() if ln.startswith("Scandinavian"))
    cells = row.split("\t")
    header = next(ln for ln in text.splitlines() if ln.startswith("attribute"))
    idx = header.split("\t").index("Austrian A.")
    assert cells[idx] == "1563"


def test_omspace_distortion(tmp_path, capsys):
    poset = tmp_path / "p.tsv"
    poset.write_text("a\tb\n", encoding="utf-8")
    dist = tmp_path / "d.csv"
    dist.write_text(",a,b\na,0,1\nb,1,0\n", encoding="utf-8")
    assert run(["omspace", "distortion", str(poset), str(dist)]) == 0
    assert "distortion: 0" in out_of(capsys)


def test_json_writes_decimals_as_numbers(tmp_path, capsys):
    poset = tmp_path / "p.tsv"
    poset.write_text("a\tc\nb\tc\n", encoding="utf-8")
    dist = tmp_path / "d.csv"
    dist.write_text(",a,b,c\na,0,1.5,1\nb,1.5,0,0.75\nc,1,0.75,0\n", encoding="utf-8")
    assert run(["--json", "omspace", "distortion", str(poset), str(dist)]) == 0
    # images {a,c} and {b,c} lie at Hausdorff distance 1 against d(a,b) = 1.5
    assert out_of(capsys) == '{\n  "distortion": 0.5,\n  "witness": "a,b"\n}\n'


def test_json_report_bytes_are_json_dumps():
    rep = odsk.cli.Report()
    rep.add("count", 3)
    rep.add("name", "Mü\t\"x\"")
    rep.add_table("rows", ["a", "b"], [[1, "ß"], [Decimal("2.50"), None]])
    rep.add_table("empty", ["a"], [])
    doc = {"count": 3, "name": "Mü\t\"x\"",
           "rows": [{"a": "1", "b": "ß"}, {"a": "2.50", "b": "None"}], "empty": []}
    assert rep.emit(True) == json.dumps(doc, ensure_ascii=False, indent=2) + "\n"
    assert odsk.cli.Report().emit(True) == "{}\n"


def test_draw_svg_and_dot(tmp_path, capsys):
    svg = tmp_path / "out.svg"
    assert run(["draw", BUNDES_TSV, "--algo", "layered", "-o", str(svg)]) == 0
    assert svg.read_text(encoding="utf-8").startswith("<?xml")
    dot = tmp_path / "out.dot"
    assert run(["draw", REMBRANDT, "--algo", "dimdraw", "--reduced-labels",
                "-o", str(dot)]) == 0
    assert dot.read_text(encoding="utf-8").startswith("digraph")


def test_draw_quality_only_for_the_report(tmp_path, monkeypatch, capsys):
    calls = []
    measure = odsk.layout.quality

    def counted(drawing):
        calls.append(drawing)
        return measure(drawing)

    monkeypatch.setattr(odsk.layout, "quality", counted)
    assert run(["draw", BUNDES_TSV, "--algo", "layered"]) == 0
    assert out_of(capsys).startswith("<?xml")
    assert calls == []
    assert run(["draw", BUNDES_TSV, "--algo", "layered",
                "-o", str(tmp_path / "out.svg")]) == 0
    assert out_of(capsys).startswith("crossings: ")
    assert len(calls) == 1


def test_dimension_fence_beyond_the_recursion_limit(tmp_path, capsys):
    p = fence(40)
    path = tmp_path / "fence.tsv"
    path.write_text("".join(f"{a}\t{b}\n" for a, b in p.covers), encoding="utf-8")
    assert run(["dimension", str(path)]) == 0
    assert "dimension: 2" in out_of(capsys)


def test_json_mode(capsys):
    assert run(["--json", "concepts", REMBRANDT]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["concept_count"] == 9
    assert len(doc["concepts"]) == 9


def test_usage_error_exit_1(capsys):
    assert run(["not-a-command"]) == 1


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cxt"
    bad.write_text("not a context\n", encoding="utf-8")
    assert run(["concepts", str(bad)]) == 2


def test_antisymmetry_violation_exit_2(tmp_path):
    cyc = tmp_path / "cyc.tsv"
    cyc.write_text("a\tb\nb\ta\n", encoding="utf-8")
    assert run(["dimension", str(cyc)]) == 2


def test_determinism_repeated_runs(capsys):
    assert run(["dimension", BUNDES_TSV]) == 0
    first = out_of(capsys)
    assert run(["dimension", BUNDES_TSV]) == 0
    assert out_of(capsys) == first


def test_read_non_utf8_is_parse_error(tmp_path):
    bad = tmp_path / "latin1.tsv"
    bad.write_bytes("caf\xe9\tb\n".encode("latin-1"))
    with pytest.raises(ParseError):
        _read(str(bad))


def test_read_missing_input_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.cxt")
    with pytest.raises(odsk.OdskError, match="^cannot read "):
        _read(missing)
    assert run(["concepts", missing]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")


@pytest.mark.parametrize("argv", [
    ["concepts", REMBRANDT],
    ["--json", "dimension", BUNDES_TSV],
    ["scale", BUNDES_CSV, "--spec", BUNDES_SPEC],
    ["draw", BUNDES_TSV, "--algo", "layered"],
], ids=["report", "json-report", "scale", "draw"])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    target = str(tmp_path / "no-such-dir" / "out.txt")
    assert run(argv + ["-o", target]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


def test_dimension_reports_quotient_classes(tmp_path, capsys):
    (tmp_path / "t.csv").write_text("name,c\nx,1\ny,1\nz,2\n", encoding="utf-8")
    (tmp_path / "s.json").write_text('{"c": {"kind": "ordinal"}}', encoding="utf-8")
    assert run(["dimension", str(tmp_path / "t.csv"), "--spec", str(tmp_path / "s.json")]) == 0
    assert out_of(capsys) == ("elements: 2\nquotient_classes: x->x+y; y->x+y\ndimension: 1\n"
                              "realizer:\nextension\nx+y,z\n")


def test_mediate_reports_empty_extents(tmp_path, capsys):
    (tmp_path / "c.cxt").write_text("B\n\n2\n2\n\ng1\ng2\nm1\nm2\nX.\nX.\n", encoding="utf-8")
    (tmp_path / "d.csv").write_text(",g1,g2\ng1,0,1\ng2,1,0\n", encoding="utf-8")
    assert run(["omspace", "mediate", str(tmp_path / "c.cxt"), str(tmp_path / "d.csv")]) == 0
    assert out_of(capsys) == ("empty_extents: m2\nmediated_distances:\nattribute\tm1\tm2\n"
                              "m1\t0\tundefined\nm2\tundefined\tundefined\n")


@pytest.mark.parametrize("argv, files", [
    (["omspace", "distortion", "p.tsv", "d.csv"],
     {"p.tsv": b"a\tb\n", "d.csv": b",a\na,0\nb,1\n"}),
    (["pareto", BUNDES_CSV, "--spec", "s.json"],
     {"s.json": b'{"Pts": {"kind": "ordinal", "values": 5}}'}),
    (["concepts", "c.cxt"], {"c.cxt": b"B\n\n-1\n2\n\nm1\nm2\n"}),
    (["complete", "p.tsv"], {"p.tsv": "caf\xe9\tb\n".encode("latin-1")}),
], ids=["distance-rows", "spec-values", "cxt-count", "non-utf8"])
def test_malformed_inputs_exit_2(tmp_path, capsys, argv, files):
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, files", [
    (["omspace", "distortion", "p.tsv", "d.csv"],
     {"p.tsv": b"a\tb\n", "d.csv": b",a,b\na,0,Infinity\nb,Infinity,0\n"}),
    (["omspace", "distortion", "p.tsv", "d.csv"],
     {"p.tsv": b"a\tb\n", "d.csv": b",a,b\na,0,sNaN\nb,sNaN,0\n"}),
    (["omspace", "distortion", "p.tsv", "d.csv"],
     {"p.tsv": b"a\tb\n", "d.csv": b",a,b\na,0,NaN\nb,NaN,0\n"}),
    (["pareto", BUNDES_CSV, "--spec", "s.json"],
     {"s.json": b'{"Pts": {"kind": "ordinal", "values": [["x"]]}}'}),
    (["scale", "t.csv", "--spec", "s.json"],
     {"t.csv": b",c\nr1,1\nr2,2\nr3,3\n",
      "s.json": b'{"c": {"kind": "ordinal", "values": ["1", "1", "2", "3"]}}'}),
    (["scale", "t.csv", "--spec", "s.json"],
     {"t.csv": b",c\nr1," + b"1" * 200_000 + b"\n", "s.json": b'{"c": {"kind": "ordinal"}}'}),
    (["dimension", "t.csv", "--spec", "s.json", "--verify-points"],
     {"t.csv": b"team,W,D,Pts\nA,x,1,4\nB,1,0,3\n", "s.json": b'{"W": {"kind": "ordinal"}}'}),
], ids=["distance-infinity", "distance-snan", "distance-nan", "spec-nested-values",
        "spec-repeated-values", "csv-field-too-large", "verify-points-text"])
def test_reader_crashes_exit_2(tmp_path, capsys, argv, files):
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "asymmetric" not in err


@pytest.mark.parametrize("command", ["scale", "pareto", "dimension"])
def test_nan_cells_scale_as_text(tmp_path, capsys, command):
    table = tmp_path / "t.csv"
    table.write_text(",c\nr1,1\nr2,sNaN\n", encoding="utf-8")
    spec = tmp_path / "s.json"
    spec.write_text('{"c": {"kind": "ordinal"}}', encoding="utf-8")
    assert run([command, str(table), "--spec", str(spec)]) == 0


def test_budget_report_names_the_reason(monkeypatch, capsys):
    monkeypatch.setattr(odsk.fca, "concepts", functools.partial(concepts, budget=2))
    assert run(["concepts", REMBRANDT]) == 3
    assert out_of(capsys) == "error: budget exceeded\ndetail: more than 2 closed sets\n"
    assert run(["--json", "concepts", REMBRANDT]) == 3
    assert json.loads(out_of(capsys)) == {"error": "budget exceeded",
                                          "detail": "more than 2 closed sets"}


def test_budget_report_goes_to_the_output_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(odsk.fca, "concepts", functools.partial(concepts, budget=2))
    out = tmp_path / "c.txt"
    assert run(["concepts", REMBRANDT, "-o", str(out)]) == 3
    assert out_of(capsys) == ""
    assert out.read_text(encoding="utf-8") == \
        "error: budget exceeded\ndetail: more than 2 closed sets\n"


def test_csv_poset_input_is_read_only_by_dimension(tmp_path, capsys):
    (tmp_path / "t.csv").write_text("name,c\nx,1\ny,2\n", encoding="utf-8")
    assert run(["complete", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr() == \
        ("", "error: only dimension reads a .csv table, with --spec\n")


def test_budget_report_keeps_bounds_when_set(monkeypatch, capsys):
    def over_budget(poset):
        raise BudgetExceeded("too many cuts", lower=2, upper=5)
    monkeypatch.setattr(odsk.completion, "dedekind_macneille", over_budget)
    assert run(["complete", BUNDES_TSV]) == 3
    assert out_of(capsys) == ("error: budget exceeded\ndetail: too many cuts\n"
                              "lower_bound: 2\nupper_bound: 5\n")


def test_dimension_budget_report_bytes(tmp_path, capsys):
    anti = tmp_path / "anti.tsv"
    anti.write_text("a\nb\nc\n", encoding="utf-8")
    assert run(["dimension", str(anti), "--max-k", "1"]) == 3
    assert out_of(capsys) == ("elements: 3\ndimension: unknown\n"
                              "lower_bound: 2\nupper_bound: 2\n")


@pytest.mark.filterwarnings("default")
def test_warnings_are_plain_stderr_lines(tmp_path, capsys):
    # the standard example S_3 (dimension 3) plus 15 isolated elements: too
    # many elements to sample extensions, so dimdraw falls back to layered
    s3 = [f"a{i}\tb{j}\n" for i in range(3) for j in range(3) if i != j]
    (tmp_path / "s3.tsv").write_text("".join(s3) + "".join(f"c{k}\n" for k in range(15)),
                                     encoding="utf-8")
    assert run(["draw", str(tmp_path / "s3.tsv"), "-o", str(tmp_path / "s3.svg")]) == 0
    assert capsys.readouterr().err == \
        "warning: dimdraw budget exceeded; falling back to layered layout\n"
    (tmp_path / "p.tsv").write_text("a\tb\nb\tc\n", encoding="utf-8")
    (tmp_path / "d.csv").write_text(",a,b,c\na,0,1,5\nb,1,0,1\nc,5,1,0\n", encoding="utf-8")
    assert run(["omspace", "distortion", str(tmp_path / "p.tsv"),
                str(tmp_path / "d.csv")]) == 0
    assert capsys.readouterr() == ("distortion: 0\nwitness: a,b\n",
                                   "warning: triangle inequality violated at ('a', 'b', 'c')\n")
