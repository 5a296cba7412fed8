"""Command-line surface.

Output is line-oriented "key: value" text with TSV blocks for tables;
--json emits the same data as one JSON document. Exit codes: 0 success,
1 usage, 2 input parse/validation, 3 budget exceeded (bounds printed).
Each subcommand imports the modules it uses when it runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal
from pathlib import Path

from . import __getattr__  # odsk.cli.concepts and the like: the package's names
from .errors import BudgetExceeded, OdskError, ParseError


class Report:
    """Ordered key/value scalars plus named TSV tables."""

    def __init__(self):
        self.items: list[tuple[str, object]] = []

    def add(self, key: str, value):
        self.items.append((key, value))

    def add_table(self, key: str, header: list[str], rows: list[list]):
        self.items.append((key, {"header": header, "rows": rows}))

    def emit(self, as_json: bool, out=None) -> str:
        if as_json:
            doc = {}
            for key, value in self.items:
                if isinstance(value, dict) and "header" in value:
                    doc[key] = [dict(zip(value["header"], map(str, row)))
                                for row in value["rows"]]
                else:
                    doc[key] = value
            # json.dumps(doc, indent=2) field by field, because the json
            # module cannot write a Decimal as a number
            fields = [f"  {json.dumps(key, ensure_ascii=False)}: " + (
                str(value) if isinstance(value, Decimal) else
                json.dumps(value, ensure_ascii=False, indent=2).replace("\n", "\n  "))
                for key, value in doc.items()]
            text = ("{\n" + ",\n".join(fields) + "\n}\n") if fields else "{}\n"
        else:
            lines = []
            for key, value in self.items:
                if isinstance(value, dict) and "header" in value:
                    lines.append(f"{key}:")
                    lines.append("\t".join(value["header"]))
                    for row in value["rows"]:
                        lines.append("\t".join(str(c) for c in row))
                else:
                    lines.append(f"{key}: {value}")
            text = "\n".join(lines) + "\n"
        if out:
            Path(out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return text


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OdskError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc}") from exc


def _load_context(path: str):
    from .fca import read_cxt
    return read_cxt(_read(path))


def _load_poset_arg(path: str, spec: str | None, no_quotient: bool):
    """A poset from an edge-list .tsv, or from a .csv plus scaling spec
    (the domination order of the ordinal columns)."""
    from .order import poset_from_tsv, product_order
    if path.endswith(".csv"):
        if not spec:
            raise OdskError("a .csv input needs --spec for the domination order")
        from .scaling import read_scaling_spec, read_table_csv, to_ordinal_structure
        table = read_table_csv(_read(path))
        specs = read_scaling_spec(_read(spec))
        structure = to_ordinal_structure(table.select(list(specs)), specs)
        return product_order(structure,
                             ties="incomparable" if no_quotient else "quotient")
    poset = poset_from_tsv(_read(path))
    return poset, {e: e for e in poset.elements}


def _cmd_concepts(args) -> int:
    from .fca import concepts
    ctx = _load_context(args.context)
    lat = concepts(ctx)
    rep = Report()
    rep.add("objects", len(ctx.objects))
    rep.add("attributes", len(ctx.attributes))
    rep.add("concept_count", len(lat))
    rows = [[i, ",".join(c.extent), ",".join(c.intent)]
            for i, c in enumerate(lat.concepts)]
    rep.add_table("concepts", ["index", "extent", "intent"], rows)
    rep.emit(args.json, args.output)
    return 0


def _cmd_implications(args) -> int:
    from .fca import canonical_base
    ctx = _load_context(args.context)
    base = canonical_base(ctx)
    rep = Report()
    rep.add("implication_count", len(base))
    rows = [[",".join(sorted(i.premise)), ",".join(sorted(i.conclusion))]
            for i in base]
    rep.add_table("implications", ["premise", "conclusion"], rows)
    rep.emit(args.json, args.output)
    return 0


def _cmd_guttman(args) -> int:
    from .fca import is_guttman
    ctx = _load_context(args.context)
    res = is_guttman(ctx)
    rep = Report()
    rep.add("guttman", str(res.is_guttman).lower())
    if res.witness is not None:
        rep.add_table("object_ranks", ["object", "s"],
                      [[g, r] for g, r in res.witness.s])
        rep.add_table("attribute_ranks", ["attribute", "e"],
                      [[m, r] for m, r in res.witness.e])
    rep.emit(args.json, args.output)
    return 0


def _cmd_complete(args) -> int:
    from .completion import dedekind_macneille
    poset, _ = _load_poset_arg(args.poset, None, False)
    comp = dedekind_macneille(poset)
    rep = Report()
    rep.add("elements", len(poset))
    rep.add("completion_size", len(comp))
    rep.add("new_nodes", len(comp.new_nodes))
    rows = [[i, ",".join(c.extent)] for i, c in enumerate(comp.lattice.concepts)]
    rep.add_table("cuts", ["index", "extent"], rows)
    rep.add_table("embedding", ["element", "cut"],
                  [[e, i] for e, i in comp.embedding])
    rep.emit(args.json, args.output)
    return 0


def _verify_points(table) -> bool:
    """Pts column check: three points per win plus one per draw."""
    try:
        w = table.column("W").values
        d = table.column("D").values
        pts = table.column("Pts").values
    except OdskError as exc:
        raise OdskError("--verify-points needs W, D and Pts columns") from exc
    try:
        return all(3 * int(wi) + int(di) == int(pi) for wi, di, pi in zip(w, d, pts))
    except ValueError as exc:
        raise ParseError(f"--verify-points needs integer W, D and Pts: {exc}") from exc


def _cmd_dimension(args) -> int:
    from .completion import order_dimension
    poset, classes = _load_poset_arg(args.poset, args.spec, args.no_quotient)
    rep = Report()
    if args.verify_points:
        if not args.poset.endswith(".csv"):
            raise OdskError("--verify-points needs a .csv table input")
        from .scaling import read_table_csv
        rep.add("points_verified",
                str(_verify_points(read_table_csv(_read(args.poset)))).lower())
    rep.add("elements", len(poset))
    merged = [f"{orig}->{cls}" for orig, cls in classes.items() if orig != cls]
    if merged:
        rep.add("quotient_classes", "; ".join(sorted(merged)))
    try:
        result = order_dimension(poset, max_k=args.max_k, budget_ms=args.budget_ms)
    except BudgetExceeded as exc:
        rep.add("dimension", "unknown")
        rep.add("lower_bound", exc.lower)
        rep.add("upper_bound", exc.upper)
        rep.emit(args.json, args.output)
        return 3
    rep.add("dimension", result.dim)
    rep.add_table("realizer", ["extension"],
                  [[",".join(ext.order)] for ext in result.realizer.extensions])
    rep.emit(args.json, args.output)
    return 0


def _cmd_pareto(args) -> int:
    from .order import pareto_maxima
    from .scaling import read_scaling_spec, read_table_csv, to_ordinal_structure
    table = read_table_csv(_read(args.table))
    specs = read_scaling_spec(_read(args.spec))
    structure = to_ordinal_structure(table.select(list(specs)), specs)
    maxima = sorted(pareto_maxima(structure))
    rep = Report()
    rep.add("criteria", ",".join(name for name, _ in structure.orders))
    rep.add("maxima_count", len(maxima))
    rep.add_table("maxima", ["element"], [[m] for m in maxima])
    rep.emit(args.json, args.output)
    return 0


def _cmd_scale(args) -> int:
    from .fca import write_cxt
    from .scaling import apply_scaling, read_scaling_spec, read_table_csv
    table = read_table_csv(_read(args.table))
    specs = read_scaling_spec(_read(args.spec))
    scoped = table.select([c.name for c in table.columns if c.name in specs])
    ctx = apply_scaling(scoped, specs)
    text = write_cxt(ctx)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_factors(args) -> int:
    from .factors import biplot, ordinal_factorization
    ctx = _load_context(args.context)
    fz = ordinal_factorization(ctx, args.k)
    rep = Report()
    rep.add("factor_count", len(fz.factors))
    for fi, factor in enumerate(fz.factors, 1):
        rows = [[li, ",".join(c.extent), ",".join(c.intent)]
                for li, c in enumerate(factor.chain, 1)]
        rep.add_table(f"factor_{fi}", ["level", "extent", "intent"], rows)
    if len(fz.factors) == 2:
        bp = biplot(ctx, fz)
        for ai, axis in enumerate(bp.axes, 1):
            rep.add_table(f"axis_{ai}_objects", ["object", "coordinate"],
                          [[g, c] for g, c in axis.object_coord])
            rep.add_table(f"axis_{ai}_attributes", ["attribute", "coordinate"],
                          [[m, c] for m, c in axis.attribute_coord])
    rep.add("covered", len(fz.covered))
    rep.add("uncovered_count", len(fz.uncovered))
    rep.add_table("uncovered", ["object", "attribute"],
                  [[g, m] for g, m in sorted(fz.uncovered)])
    rep.emit(args.json, args.output)
    return 0


def _cmd_distortion(args) -> int:
    from .omspace import OmSpace, read_distance_csv, relational_distortion
    from .order import Relation
    poset, _ = _load_poset_arg(args.poset, None, False)
    metric = read_distance_csv(_read(args.distances))
    if sorted(metric.elements) != sorted(poset.elements):
        raise OdskError("distance table and order cover different elements")
    pairs = ((a, b) for a in poset.elements for b in poset.order_filter([a]))
    space = OmSpace(Relation.from_named_pairs(metric.elements, pairs), metric)
    res = relational_distortion(space, reflexive_close=args.reflexive_close)
    rep = Report()
    rep.add("distortion", res.value)
    if res.witness:
        rep.add("witness", f"{res.witness[0]},{res.witness[1]}")
    rep.emit(args.json, args.output)
    return 0


def _cmd_mediate(args) -> int:
    from .omspace import mediated_metric, read_distance_csv
    ctx = _load_context(args.context)
    metric = read_distance_csv(_read(args.distances))
    med = mediated_metric(ctx, metric)
    rep = Report()
    if med.empty_extents:
        rep.add("empty_extents", ",".join(med.empty_extents))
    header = ["attribute"] + list(med.attributes)
    rows = [[m] + ["undefined" if v is None else v for v in row]
            for m, row in zip(med.attributes, med.table)]
    rep.add_table("mediated_distances", header, rows)
    rep.emit(args.json, args.output)
    return 0


def _reduced_labels(lat) -> dict[str, str]:
    """Reduced diagram labels: an attribute marks its introducing
    concept, an object its lowest concept."""
    ctx = lat.context
    labels: dict[str, list[str]] = {f"c{i}": [] for i in range(len(lat))}
    for j, m in enumerate(ctx.attributes):
        i = lat.extent_index[ctx._extent_of(1 << j)]
        labels[f"c{i}"].append(m)
    for g, row in zip(ctx.objects, ctx.rows):
        i = lat.extent_index[ctx._extent_of(row)]
        labels[f"c{i}"].append(g)
    return {k: ",".join(v) for k, v in labels.items()}


def _cmd_draw(args) -> int:
    from .fca import concepts
    from .layout import dimdraw, layered, quality, render
    labels = None
    if args.input.endswith(".cxt"):
        lat = concepts(_load_context(args.input))
        poset = lat.to_poset()
        if args.reduced_labels:
            labels = _reduced_labels(lat)
        else:
            labels = {
                f"c{i}": "{" + ",".join(c.extent) + "}|{" + ",".join(c.intent) + "}"
                for i, c in enumerate(lat.concepts)}
    else:
        poset, _ = _load_poset_arg(args.input, None, False)
    drawing = dimdraw(poset, budget_ms=args.budget_ms) \
        if args.algo == "dimdraw" else layered(poset)
    fmt = "dot" if (args.output or "").endswith(".dot") else "svg"
    doc = render(drawing, fmt=fmt, labels=labels)
    if not args.output:
        sys.stdout.write(doc)
        return 0
    Path(args.output).write_text(doc, encoding="utf-8")
    metrics = quality(drawing)
    rep = Report()
    rep.add("crossings", metrics.crossings)
    rep.add("distinct_slopes", metrics.distinct_slopes)
    rep.add("min_node_edge_distance", round(metrics.min_node_edge_distance, 4))
    rep.emit(args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="odsk", description="Ordinal data analysis toolkit")
    top.add_argument("--json", action="store_true", help="emit JSON output")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("concepts", help="enumerate formal concepts")
    p.add_argument("context")
    common(p)
    p.set_defaults(func=_cmd_concepts)

    p = sub.add_parser("implications", help="Duquenne-Guigues canonical base")
    p.add_argument("context")
    common(p)
    p.set_defaults(func=_cmd_implications)

    p = sub.add_parser("guttman", help="Ferrers/Guttman scale test")
    p.add_argument("context")
    common(p)
    p.set_defaults(func=_cmd_guttman)

    p = sub.add_parser("complete", help="Dedekind-MacNeille completion")
    p.add_argument("poset")
    common(p)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("dimension", help="order dimension with realizer")
    p.add_argument("poset")
    p.add_argument("--spec", default=None, help="scaling spec for .csv input")
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--budget-ms", type=int, default=None)
    p.add_argument("--no-quotient", action="store_true",
                   help="leave scale ties incomparable (strict domination)")
    p.add_argument("--verify-points", action="store_true",
                   help="check Pts = 3*W + D on a .csv table input")
    common(p)
    p.set_defaults(func=_cmd_dimension)

    p = sub.add_parser("pareto", help="Pareto maxima of a scaled table")
    p.add_argument("table")
    p.add_argument("--spec", required=True)
    common(p)
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("scale", help="conceptual scaling to a CXT context")
    p.add_argument("table")
    p.add_argument("--spec", required=True)
    common(p)
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("factors", help="ordinal factorization")
    p.add_argument("context")
    p.add_argument("-k", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_factors)

    om = sub.add_parser("omspace", help="ordered metric space analytics")
    omsub = om.add_subparsers(dest="subcommand", required=True)
    p = omsub.add_parser("distortion", help="relational distortion")
    p.add_argument("poset")
    p.add_argument("distances")
    p.add_argument("--reflexive-close", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_distortion)
    p = omsub.add_parser("mediate", help="context-mediated attribute metric")
    p.add_argument("context")
    p.add_argument("distances")
    common(p)
    p.set_defaults(func=_cmd_mediate)

    p = sub.add_parser("draw", help="order diagram to SVG/DOT")
    p.add_argument("input", help="poset .tsv or context .cxt")
    p.add_argument("--algo", choices=("dimdraw", "layered"), default="dimdraw")
    p.add_argument("--budget-ms", type=int, default=None)
    p.add_argument("--reduced-labels", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_draw)

    return top


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    import warnings
    try:
        with warnings.catch_warnings():  # shown as plain "warning: <message>" lines
            warnings.showwarning = lambda message, *_: sys.stderr.write(f"warning: {message}\n")
            return args.func(args)
    except BudgetExceeded as exc:
        rep = Report()
        rep.add("error", "budget exceeded")
        rep.add("detail", str(exc))
        for key, bound in (("lower_bound", exc.lower), ("upper_bound", exc.upper)):
            if bound is not None:
                rep.add(key, bound)
        rep.emit(getattr(args, "json", False))
        return 3
    except OdskError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
