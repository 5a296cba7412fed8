"""The subcommands' bodies, one ``_cmd_<name>`` function each.

``odsk.cli.run`` imports this module once the arguments have parsed and
calls the function that the chosen subparser names. Each function
imports the modules it uses when it runs and returns its output: a
Report, or a document's text, paired with the exit code when that is
not 0.
"""

from .cli import Report, _read, _write
from .errors import BudgetExceeded, OdskError, ParseError


def _load_context(path: str):
    from .fca import read_cxt
    return read_cxt(_read(path))


def _load_table(path: str, spec: str):
    """A .csv table and its scaling spec."""
    from .scaling import read_scaling_spec, read_table_csv
    return read_table_csv(_read(path)), read_scaling_spec(_read(spec))


def _load_poset_arg(path: str, spec: str | None = None, no_quotient: bool = False):
    """(poset, class map, table): a poset from an edge-list .tsv (table
    None), or the domination order of the ordinal columns of a .csv
    table plus scaling spec."""
    from .order import poset_from_tsv, product_order
    if path.endswith(".csv"):
        if not spec:
            raise OdskError("only dimension reads a .csv table, with --spec")
        from .scaling import to_ordinal_structure
        table, specs = _load_table(path, spec)
        structure = to_ordinal_structure(table.select(list(specs)), specs)
        return (*product_order(structure, ties="incomparable" if no_quotient else "quotient"),
                table)
    poset = poset_from_tsv(_read(path))
    return poset, {e: e for e in poset.elements}, None


def _cmd_concepts(args) -> Report:
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
    return rep


def _cmd_implications(args) -> Report:
    from .fca import canonical_base
    ctx = _load_context(args.context)
    base = canonical_base(ctx)
    rep = Report()
    rep.add("implication_count", len(base))
    rows = [[",".join(sorted(i.premise)), ",".join(sorted(i.conclusion))]
            for i in base]
    rep.add_table("implications", ["premise", "conclusion"], rows)
    return rep


def _cmd_guttman(args) -> Report:
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
    return rep


def _cmd_complete(args) -> Report:
    from .completion import dedekind_macneille
    poset = _load_poset_arg(args.poset)[0]
    comp = dedekind_macneille(poset)
    rep = Report()
    rep.add("elements", len(poset))
    rep.add("completion_size", len(comp))
    rep.add("new_nodes", len(comp.new_nodes))
    rows = [[i, ",".join(c.extent)] for i, c in enumerate(comp.lattice.concepts)]
    rep.add_table("cuts", ["index", "extent"], rows)
    rep.add_table("embedding", ["element", "cut"],
                  [[e, i] for e, i in comp.embedding])
    return rep


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


def _cmd_dimension(args) -> Report | tuple[Report, int]:
    from .completion import order_dimension
    poset, classes, table = _load_poset_arg(args.poset, args.spec, args.no_quotient)
    rep = Report()
    if args.verify_points:
        if table is None:
            raise OdskError("--verify-points needs a .csv table input")
        rep.add("points_verified", str(_verify_points(table)).lower())
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
        return rep, 3
    rep.add("dimension", result.dim)
    rep.add_table("realizer", ["extension"],
                  [[",".join(ext.order)] for ext in result.realizer.extensions])
    return rep


def _cmd_pareto(args) -> Report:
    from .order import pareto_maxima
    from .scaling import to_ordinal_structure
    table, specs = _load_table(args.table, args.spec)
    structure = to_ordinal_structure(table.select(list(specs)), specs)
    maxima = sorted(pareto_maxima(structure))
    rep = Report()
    rep.add("criteria", ",".join(name for name, _ in structure.orders))
    rep.add("maxima_count", len(maxima))
    rep.add_table("maxima", ["element"], [[m] for m in maxima])
    return rep


def _cmd_scale(args) -> str:
    from .fca import write_cxt
    from .scaling import apply_scaling
    table, specs = _load_table(args.table, args.spec)
    scoped = table.select([c.name for c in table.columns if c.name in specs])
    return write_cxt(apply_scaling(scoped, specs))


def _cmd_factors(args) -> Report:
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
    return rep


def _cmd_distortion(args) -> Report:
    from .omspace import OmSpace, read_distance_csv, relational_distortion
    from .order import Relation
    poset = _load_poset_arg(args.poset)[0]
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
    return rep


def _cmd_mediate(args) -> Report:
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
    return rep


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


def _cmd_draw(args) -> Report | str:
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
        poset = _load_poset_arg(args.input)[0]
    drawing = dimdraw(poset, budget_ms=args.budget_ms) \
        if args.algo == "dimdraw" else layered(poset)
    fmt = "dot" if (args.drawing or "").endswith(".dot") else "svg"
    doc = render(drawing, fmt=fmt, labels=labels)
    if not args.drawing:
        return doc
    _write(doc, args.drawing)
    metrics = quality(drawing)
    rep = Report()
    rep.add("crossings", metrics.crossings)
    rep.add("distinct_slopes", metrics.distinct_slopes)
    rep.add("min_node_edge_distance", round(metrics.min_node_edge_distance, 4))
    return rep
