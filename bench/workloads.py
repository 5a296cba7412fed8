"""Seeded workload generators.

A builder writes one input set of a workload from a seed and returns its
cycle of CLI jobs over those files; a run builds one set per cycle, each
from its own seed derived from the workload seed. Every job carries a
checker built from the benchmark's own reference computations (ref.py);
odsk is never imported here.

Random inputs are drawn shape by shape and accepted only when a property
that sets their cost (concept count, cover-edge count), computed by the
reference code, falls in a fixed range. So two seeds give different
inputs of the same size, and the figures of a run depend little on which
seed it got.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import ref
from ref import need

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "odsk" / "fixtures"
DIMENSION_BUDGET_MS = 500  # orders: the seed cannot finish some ladder rungs in this
DRAW_BUDGET_MS = 300


@dataclass
class Job:
    name: str  # unique within the workload
    cmd: str  # subcommand, for failure accounting
    argv: list[str]
    check: Callable[[int, str, str | None], None]  # (exit code, stdout, file)
    out: Path | None = None  # file the job writes, read back for the check
    may_exceed: bool = False  # exit 3 (budget exceeded) is a valid answer


class Files:
    """Writes generated inputs and names job outputs under one directory."""

    def __init__(self, root: Path):
        self.inputs = root / "inputs"
        self.outputs = root / "out"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.outputs.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = self.inputs / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def copy_fixture(self, name: str) -> tuple[str, str]:
        text = (FIXTURES / name).read_text(encoding="utf-8")
        return self.write(name, text), text

    def out(self, name: str) -> Path:
        return self.outputs / name


def _doc(stdout: str, as_json: bool) -> dict:
    return ref.parse_json(stdout) if as_json else ref.parse_text(stdout)


def _fmt_flag(as_json: bool) -> list[str]:
    return ["--json"] if as_json else []


# -- random structures -------------------------------------------------------


def random_context(rng: random.Random, g: int, m: int, density: float) -> ref.Context:
    rows = [sum(1 << j for j in range(m) if rng.random() < density) for _ in range(g)]
    return ref.Context([f"g{i}" for i in range(g)], [f"m{j}" for j in range(m)], rows)


def sized_context(rng, shape, lo, hi, measure, tries=400) -> ref.Context:
    """First random context of ``shape`` whose measure lies in [lo, hi]."""
    for _ in range(tries):
        ctx = random_context(rng, *shape)
        if lo <= measure(ctx) <= hi:
            return ctx
    raise RuntimeError(f"no context of shape {shape} with measure in [{lo}, {hi}]")


def concept_count(ctx: ref.Context) -> int:
    return len(ctx.intents())


def cover_edges(ctx: ref.Context) -> int:
    return len(ref.lattice_covers([ctx.extent(b) for b in ctx.intents()]))


def random_dag(rng: random.Random, n: int, p: float):
    """conftest.random_poset's construction: upward edges with probability p."""
    elements = [f"e{i}" for i in range(n)]
    pairs = [(elements[i], elements[j])
             for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return elements, pairs


def planted_dag(rng: random.Random, n: int, p: float):
    """random_dag plus a disjoint standard example S_4 (a_i < b_j iff i != j)."""
    elements, pairs = random_dag(rng, n, p)
    elements += [f"a{i}" for i in range(4)] + [f"b{i}" for i in range(4)]
    pairs += [(f"a{i}", f"b{j}") for i in range(4) for j in range(4) if i != j]
    return elements, pairs


def sized_dag(rng, n, p, ideals, covers, tries=2000):
    """First random_dag with a down-set count within 15% of ``ideals`` and
    a cover count within 1 of ``covers``."""
    for _ in range(tries):
        elements, pairs = random_dag(rng, n, p)
        order = ref.Order.from_pairs(elements, pairs)
        if abs(len(order.covers()) - covers) <= 1 \
                and abs(order.ideal_count() - ideals) <= 0.15 * ideals:
            return elements, pairs, order
    raise RuntimeError(f"no ({n}, {p}) poset near {ideals} down-sets and {covers} covers")


def grid_points(rng: random.Random, n: int) -> list[tuple[int, int]]:
    side = 2 * n
    return [divmod(c, side) for c in rng.sample(range(side * side), n)]


# -- checkers: contexts ----------------------------------------------------


def check_concepts(ctx: ref.Context, as_json: bool):
    expected = len(ctx.intents())
    m = len(ctx.attributes)

    def lectic(mask):
        return sum(1 << (m - 1 - j) for j in ref.bits(mask))

    def check(code, stdout, _):
        doc = _doc(stdout, as_json)
        need(int(doc["concept_count"]) == expected,
             f"concept_count {doc['concept_count']} != {expected}")
        rows = doc["concepts"]
        need(len(rows) == expected, "concept table length")
        keys = []
        for row in rows:
            ext = ctx.name_mask(ref.split_names(row["extent"]), "objects")
            itt = ctx.name_mask(ref.split_names(row["intent"]), "attributes")
            need(ctx.intent(ext) == itt and ctx.extent(itt) == ext,
                 f"concept {row['index']} is not closed")
            keys.append(lectic(itt))
        need(keys == sorted(keys) and len(set(keys)) == len(keys),
             "concepts not distinct in lectic order")
    return check


def check_implications(ctx: ref.Context, as_json: bool, entailed=()):
    def check(code, stdout, _):
        doc = _doc(stdout, as_json)
        rows = doc["implications"]
        need(int(doc["implication_count"]) == len(rows), "implication_count")
        base = []
        for row in rows:
            p = ctx.name_mask(ref.split_names(row["premise"]), "attributes")
            c = ctx.name_mask(ref.split_names(row["conclusion"]), "attributes")
            need(c and not c & p, "conclusion empty or overlapping the premise")
            need(ctx.extent(p) & ~ctx.extent(c) == 0,
                 f"implication {row} does not hold")
            base.append((p, c | p))
        for premise, conclusion in entailed:
            p = ctx.name_mask(premise, "attributes")
            c = ctx.name_mask(conclusion, "attributes")
            need(ref.close_implication(p, base) & c == c,
                 f"base does not entail {premise} -> {conclusion}")
    return check


def check_factors(ctx: ref.Context, k: int, uncovered_pinned=None):
    incidences = sum(ref.popcount(r) for r in ctx.rows)

    def check(code, stdout, _):
        doc = ref.parse_json(stdout)
        need(int(doc["factor_count"]) == k, "factor_count")
        covered = [0] * len(ctx.objects)
        for f in range(1, k + 1):
            prev_ext = -1
            for row in doc[f"factor_{f}"]:
                ext = ctx.name_mask(ref.split_names(row["extent"]), "objects")
                itt = ctx.name_mask(ref.split_names(row["intent"]), "attributes")
                need(ctx.intent(ext) == itt and ctx.extent(itt) == ext,
                     "chain member is not a concept")
                need(prev_ext < 0 or (prev_ext & ~ext == 0 and prev_ext != ext),
                     "chain extents do not strictly increase")
                prev_ext = ext
                for g in ref.bits(ext):
                    covered[g] |= itt
        n_cov = sum(ref.popcount(c) for c in covered)
        need(int(doc["covered"]) == n_cov, f"covered {doc['covered']} != {n_cov}")
        need(int(doc["covered"]) + int(doc["uncovered_count"]) == incidences,
             "covered + uncovered != incidences")
        unc = {(r["object"], r["attribute"]) for r in doc["uncovered"]}
        expect = {(ctx.objects[g], ctx.attributes[m]) for g, r in enumerate(ctx.rows)
                  for m in ref.bits(r & ~covered[g])}
        need(unc == expect, "uncovered table is not incidences minus tiles")
        if uncovered_pinned is not None:
            need(unc == uncovered_pinned, "uncovered set differs from the pinned one")
    return check


def check_guttman(ctx: ref.Context, as_json: bool):
    expected = ref.is_ferrers(ctx)

    def check(code, stdout, _):
        doc = _doc(stdout, as_json)
        need(doc["guttman"] == str(expected).lower(), "guttman verdict")
        if expected:
            s = {r["object"]: int(r["s"]) for r in doc["object_ranks"]}
            e = {r["attribute"]: int(r["e"]) for r in doc["attribute_ranks"]}
            for i, g in enumerate(ctx.objects):
                for j, m in enumerate(ctx.attributes):
                    need(bool(ctx.rows[i] >> j & 1) == (s[g] <= e[m]),
                         f"ranks misplace ({g}, {m})")
    return check


def check_mediate(ctx: ref.Context, metric_text: str, pinned=()):
    names, d = ref.parse_metric(metric_text)
    pos = [names.index(g) for g in ctx.objects]
    exts = [[pos[i] for i in ref.bits(col)] for col in ctx.cols]

    def value(i, j):
        if not exts[i] or not exts[j]:
            return "undefined"
        return str(ref.hausdorff(d, exts[i], exts[j]))

    expected = [[value(i, j) for j in range(len(exts))] for i in range(len(exts))]

    def check(code, stdout, _):
        doc = ref.parse_json(stdout)
        rows = doc["mediated_distances"]
        need(len(rows) == len(ctx.attributes), "mediated table size")
        for i, row in enumerate(rows):
            need(row["attribute"] == ctx.attributes[i], "attribute order")
            got = [row[m] for m in ctx.attributes]
            need(got == expected[i], f"mediated distances differ for {row['attribute']}")
        for a, b, v in pinned:
            need(rows[ctx.attributes.index(a)][b] == str(v), f"d({a}, {b}) != {v}")
    return check


# -- checkers: orders --------------------------------------------------------


def check_dimension(order: ref.Order, as_json: bool, pinned_dim=None):
    n = len(order.elements)
    idx = {e: k for k, e in enumerate(order.elements)}

    def check(code, stdout, _):
        doc = _doc(stdout, as_json)
        need(int(doc["elements"]) == n, "element count")
        if code == 3:
            lo, hi = int(doc["lower_bound"]), int(doc["upper_bound"])
            need(doc["dimension"] == "unknown", "exit 3 without 'unknown'")
            need(2 <= lo <= hi <= n, f"bad bounds {lo}..{hi}")
            need(pinned_dim is None, "a pinned instance exceeded its budget")
            return
        dim = int(doc["dimension"])
        exts = [ref.split_names(r["extension"]) for r in doc["realizer"]]
        need(len(exts) == dim, "realizer size != dimension")
        need((dim == 1) == order.is_chain(), "dimension 1 iff chain")
        pos = []
        for ext in exts:
            need(sorted(ext) == sorted(order.elements), "extension is not a permutation")
            p = [0] * n
            for k, e in enumerate(ext):
                p[idx[e]] = k
            pos.append(p)
        for i in range(n):
            for j in range(n):
                below = all(p[i] <= p[j] for p in pos)
                need(below == order.leq(i, j),
                     f"realizer intersection differs at ({order.elements[i]}, "
                     f"{order.elements[j]})")
        if pinned_dim is not None:
            need(dim == pinned_dim, f"dimension {dim} != pinned {pinned_dim}")
    return check


def check_complete(order: ref.Order):
    expected = order.cut_count()
    idx = {e: k for k, e in enumerate(order.elements)}

    def check(code, stdout, _):
        doc = ref.parse_json(stdout)
        need(int(doc["completion_size"]) == expected,
             f"completion_size {doc['completion_size']} != {expected}")
        cuts = []
        for row in doc["cuts"]:
            mask = sum(1 << idx[e] for e in ref.split_names(row["extent"]))
            need(order.closed_ideal(mask) == mask, "cut is not closed")
            cuts.append(mask)
        need(len(set(cuts)) == len(cuts) == expected, "cuts not distinct")
        for row in doc["embedding"]:
            i = idx[row["element"]]
            need(cuts[int(row["cut"])] == order.down[i], "embedding is not the principal ideal")
        new = sum(1 for c in cuts if c not in set(order.down))
        need(int(doc["new_nodes"]) == new, "new_nodes")
    return check


def check_distortion(order: ref.Order, metric_text: str):
    names, d = ref.parse_metric(metric_text)
    pos = [order.elements.index(x) for x in names]
    images = [[k for k in range(len(names)) if order.leq(pos[i], pos[k])]
              for i in range(len(names))]
    gaps = {}
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            gaps[(names[i], names[j])] = abs(d[i][j] - ref.hausdorff(d, images[i], images[j]))
    worst = max(gaps.values())

    def check(code, stdout, _):
        doc = ref.parse_json(stdout)
        need(doc["distortion"] == worst, f"distortion {doc['distortion']} != {worst}")
        a, b = doc["witness"].split(",")
        need(gaps.get((a, b)) == worst, "witness does not attain the distortion")
    return check


def check_pareto(table: ref.Table):
    expected = table.pareto()

    def check(code, stdout, _):
        doc = ref.parse_json(stdout)
        got = {r["element"] for r in doc["maxima"]}
        need(got == expected and int(doc["maxima_count"]) == len(expected),
             "Pareto maxima differ")
    return check


def check_scale(table: ref.Table):
    names, rows = table.scaled()

    def check(code, stdout, _):
        ctx = ref.parse_cxt(stdout)
        need(ctx.objects == table.objects, "scaled objects")
        need(ctx.attributes == names, "scaled attribute names")
        need(ctx.rows == rows, "scaled incidences")
    return check


# -- checkers: drawings ------------------------------------------------------


def check_draw(nodes: list[str], covers: set[tuple[int, int]], fmt: str,
               labels: list[str] | None):
    """``nodes`` are the DOT names in the program's order, ``covers`` index
    pairs (low, high); ``labels`` the expected label per node, or None
    when labels do not identify nodes (reduced labels). Every output of
    the job must report the crossings of the first one."""
    first_crossings = []

    def check(code, stdout, doc_text):
        doc = ref.parse_json(stdout)
        need(doc_text is not None, "no drawing written")
        dr = ref.parse_svg(doc_text) if fmt == "svg" else ref.parse_dot(doc_text)
        need(len(dr.nodes) == len(nodes), f"{len(dr.nodes)} nodes drawn, {len(nodes)} expected")
        need(len(dr.edges) == len(covers), f"{len(dr.edges)} edges drawn, {len(covers)} covers")
        pos = dict(dr.nodes)
        need(len(set(pos.values())) == len(pos), "coincident nodes")
        for a, b in dr.edges:
            need(pos[a][1] < pos[b][1], "edge does not point upward")
        if fmt == "dot":
            index = {name: k for k, name in enumerate(nodes)}
            need([k for k, _ in dr.nodes] == nodes, "DOT node names")
            drawn = {(index[a], index[b]) for a, b in dr.edges}
            need(drawn == covers, "DOT edges are not the cover relation")
        if labels is not None:
            by_label = {}
            for key, _ in dr.nodes:
                by_label[dr.labels[key]] = key
            need(sorted(by_label) == sorted(labels), "node labels")
            key_of = [by_label[lab] for lab in labels]
            drawn = {(a, b) for a, b in dr.edges}
            need(drawn == {(key_of[i], key_of[j]) for i, j in covers},
                 "edges are not the cover relation")
        need(int(doc["crossings"]) == ref.drawing_crossings(dr), "crossings")
        first_crossings[:] = first_crossings or [int(doc["crossings"])]
        need(int(doc["crossings"]) == first_crossings[0], "crossings changed between runs")
        need(int(doc["distinct_slopes"]) == ref.drawing_slopes(dr), "distinct_slopes")
    return check


def check_draw_lattice(ctx: ref.Context, reduced: bool, fmt: str):
    """check_draw for a concept lattice: nodes c0.. in lectic order, and
    full labels '{extent}|{intent}' unless reduced."""
    intents = ref.lectic_intents(ctx)
    extents = [ctx.extent(b) for b in intents]
    covers = ref.lattice_covers(extents)
    names = [f"c{i}" for i in range(len(intents))]
    if reduced:
        return check_draw(names, covers, fmt, None)
    labels = ["{" + ",".join(ctx.objects[i] for i in ref.bits(e)) + "}|{"
              + ",".join(ctx.attributes[j] for j in ref.bits(b)) + "}"
              for e, b in zip(extents, intents)]
    return check_draw(names, covers, fmt, labels)


# -- workloads -----------------------------------------------------------------

# (objects, attributes, density) and accepted concept-count range (the
# median over seeds +-10%). The tall shapes run NextClosure untransposed,
# the wide ones transposed. The shapes are graded, so the job times of a
# cycle spread evenly instead of in clusters, and job_p50_s and job_p90_s
# do not jump between clusters from seed to seed.
CONTEXT_LADDER = [
    ((24, 12, 0.5), (235, 285)),
    ((28, 14, 0.5), (415, 505)),
    ((32, 14, 0.5), (500, 615)),
    ((36, 16, 0.45), (620, 760)),
    ((40, 16, 0.5), (1170, 1430)),
    ((44, 18, 0.45), (1240, 1515)),
    ((48, 18, 0.45), (1410, 1720)),
    ((56, 20, 0.4), (1490, 1825)),
    ((64, 18, 0.45), (2240, 2740)),
    ((10, 20, 0.45), (85, 103)),
    ((12, 24, 0.45), (170, 207)),
    ((14, 28, 0.45), (312, 382)),
    ((16, 30, 0.45), (450, 550)),
]
# Alike tall contexts that get only `implications`. Per set, five
# canonical-base jobs cost more than these and two (ctx4, ctx11) about
# as much, so job_p90_s falls inside this group of alike jobs, not in
# a gap between two rungs whose order changes from seed to seed.
TAIL_SHAPE, TAIL_CONCEPTS, TAIL_COUNT = (40, 16, 0.5), (1170, 1430), 8  # as ctx4


def build_contexts(seed: int | str, files: Files) -> list[Job]:
    rng = random.Random(f"contexts/{seed}")
    jobs: list[Job] = []

    path, text = files.copy_fixture("rembrandt.cxt")
    ctx = ref.parse_cxt(text)
    jobs += [
        Job("rembrandt.concepts", "concepts", ["concepts", path],
            check_concepts(ctx, False)),
        Job("rembrandt.implications", "implications", ["--json", "implications", path],
            check_implications(ctx, True, entailed=[
                (["≥1660"], ["Canvas"]), (["Family Portrait", "Canvas"], ["≥1660"])])),
        Job("rembrandt.guttman", "guttman", ["guttman", path], check_guttman(ctx, False)),
    ]
    path, text = files.copy_fixture("socialnet.cxt")
    ctx = ref.parse_cxt(text)
    pinned = {("TikTok", "timeline"), ("WhatsApp", "stories"), ("Facebook", "timeline"),
              ("YouTube", "stories"), ("Facebook", "stories")}
    jobs += [
        Job("socialnet.factors", "factors", ["--json", "factors", path, "-k", "2"],
            check_factors(ctx, 2, uncovered_pinned=pinned)),
        Job("socialnet.concepts", "concepts", ["--json", "concepts", path],
            check_concepts(ctx, True)),
    ]
    path, text = files.copy_fixture("airlines.cxt")
    dist_path, dist_text = files.copy_fixture("airlines_dist.csv")
    ctx = ref.parse_cxt(text)
    jobs += [
        Job("airlines.mediate", "omspace mediate",
            ["--json", "omspace", "mediate", path, dist_path],
            check_mediate(ctx, dist_text, pinned=[("Scandinavian", "Austrian A.", 1563)])),
        Job("airlines.implications", "implications", ["implications", path],
            check_implications(ctx, False)),
    ]

    for k, (shape, (lo, hi)) in enumerate(CONTEXT_LADDER):
        ctx = sized_context(rng, shape, lo, hi, concept_count)
        name = f"ctx{k}"
        path = files.write(f"{name}.cxt", ref.cxt_text(ctx))
        metric = ref.metric_csv(ctx.objects, grid_points(rng, len(ctx.objects)))
        dist_path = files.write(f"{name}_dist.csv", metric)
        as_json = k % 2 == 0
        jobs += [
            Job(f"{name}.concepts", "concepts", _fmt_flag(as_json) + ["concepts", path],
                check_concepts(ctx, as_json)),
            Job(f"{name}.implications", "implications",
                _fmt_flag(not as_json) + ["implications", path],
                check_implications(ctx, not as_json)),
            Job(f"{name}.factors", "factors", ["--json", "factors", path, "-k", "2"],
                check_factors(ctx, 2)),
            Job(f"{name}.guttman", "guttman", _fmt_flag(as_json) + ["guttman", path],
                check_guttman(ctx, as_json)),
            Job(f"{name}.mediate", "omspace mediate",
                ["--json", "omspace", "mediate", path, dist_path],
                check_mediate(ctx, metric)),
        ]
    for k in range(TAIL_COUNT):
        ctx = sized_context(rng, TAIL_SHAPE, *TAIL_CONCEPTS, concept_count)
        path = files.write(f"tail{k}.cxt", ref.cxt_text(ctx))
        as_json = k % 2 == 0
        jobs.append(Job(f"tail{k}.implications", "implications",
                        _fmt_flag(as_json) + ["implications", path],
                        check_implications(ctx, as_json)))
    return jobs


# (n, p) rungs of dense random posets, which the seed code usually solves
# well within the budget, and rungs of random posets plus a planted
# standard example S_4 (8 more elements, last in element order). The
# planted rungs have dimension >= 4; the seed's lexicographic first-fit
# search must refute k = 3 over every partition of the random part first,
# so they exceed the budget on every seed. Together they keep ok_ratio
# nearly the same from seed to seed. Every ladder poset also gets
# `complete` and `omspace distortion`: with `pareto` and `scale`, these
# quick jobs make up most of the cheaper half of a set, so job_p50_s
# falls among them and not among the dimension jobs, whose time varies
# several-fold from poset to poset.
ORDER_LADDER = [(16, 0.3), (16, 0.3), (16, 0.35), (20, 0.3), (20, 0.35), (20, 0.35)]
PLANTED_LADDER = [(12, 0.2), (16, 0.15), (16, 0.2), (20, 0.15), (20, 0.2), (24, 0.2)]
# (rows, criteria, largest value) of the seeded ordinal tables; the seed
# code solves the first two well within the budget and not the third
TABLES = [(12, 3, 4), (16, 3, 5), (28, 4, 9)]


def build_orders(seed: int | str, files: Files) -> list[Job]:
    rng = random.Random(f"orders/{seed}")
    jobs: list[Job] = []
    budget = ["--budget-ms", str(DIMENSION_BUDGET_MS)]

    ladder = [(random_dag, n, p) for n, p in ORDER_LADDER] \
        + [(planted_dag, n, p) for n, p in PLANTED_LADDER]
    for k, (make, n, p) in enumerate(ladder):
        elements, pairs = make(rng, n, p)
        order = ref.Order.from_pairs(elements, pairs)
        name = f"poset{k}"
        path = files.write(f"{name}.tsv", ref.tsv_text(elements, pairs))
        as_json = k % 2 == 0
        jobs.append(Job(f"{name}.dimension", "dimension",
                           _fmt_flag(as_json) + ["dimension", path] + budget,
                           check_dimension(order, as_json), may_exceed=True))
        metric = ref.metric_csv(elements, grid_points(rng, len(elements)))
        dist_path = files.write(f"{name}_dist.csv", metric)
        jobs += [
            Job(f"{name}.complete", "complete", ["--json", "complete", path],
                check_complete(order)),
            Job(f"{name}.distortion", "omspace distortion",
                ["--json", "omspace", "distortion", path, dist_path],
                check_distortion(order, metric)),
        ]

    for k, (rows, ncrit, top) in enumerate(TABLES):
        columns = [f"c{j}" for j in range(ncrit)]
        objects = [f"r{i}" for i in range(rows)]
        values = {c: [rng.randint(0, top) for _ in objects] for c in columns}
        specs = {c: rng.choice(["ascending", "descending"]) for c in columns}
        table = ref.Table(objects, columns, values, specs)
        name = f"table{k}"
        path = files.write(f"{name}.csv", table.csv_text())
        spec = files.write(f"{name}_spec.json", table.spec_text())
        quotient, _ = table.quotient()
        jobs += [
            Job(f"{name}.pareto", "pareto", ["--json", "pareto", path, "--spec", spec],
                check_pareto(table)),
            Job(f"{name}.dimension", "dimension --spec",
                ["--json", "dimension", path, "--spec", spec] + budget,
                check_dimension(quotient, True), may_exceed=True),
            Job(f"{name}.scale", "scale", ["scale", path, "--spec", spec],
                check_scale(table)),
        ]

    tsv_path, tsv_text = files.copy_fixture("bundesliga.tsv")
    csv_path, csv_text = files.copy_fixture("bundesliga.csv")
    spec_path, spec_text = files.copy_fixture("bundesliga_scales.json")
    table = ref.parse_table(csv_text, spec_text)
    strict = ref.parse_tsv(tsv_text)
    weak, _ = table.quotient()
    jobs += [
        Job("bundesliga.dimension", "dimension", ["dimension", tsv_path] + budget,
            check_dimension(strict, False, pinned_dim=3)),
        Job("bundesliga.dimension-weak", "dimension --spec",
            ["--json", "dimension", csv_path, "--spec", spec_path] + budget,
            check_dimension(weak, True, pinned_dim=2)),
        Job("bundesliga.dimension-strict", "dimension --spec",
            ["dimension", csv_path, "--spec", spec_path, "--no-quotient"] + budget,
            check_dimension(table.strict_order(), False, pinned_dim=3)),
        Job("bundesliga.pareto", "pareto", ["--json", "pareto", csv_path, "--spec", spec_path],
            check_pareto(table)),
        Job("bundesliga.scale", "scale", ["scale", csv_path, "--spec", spec_path],
            check_scale(table)),
        Job("bundesliga.complete", "complete", ["--json", "complete", tsv_path],
            check_complete(strict)),
    ]
    return jobs


# (n, p) rungs of drawn posets, with the median over seeds of their
# down-set and cover counts, and the number of posets drawn per cycle. A
# poset is accepted when its down-set count is within 15% of the median
# (it sets the cost of dimdraw's extension sampling) and its cover count
# within 1 (quality() is quadratic in it).
#
# Job times spread over three orders of magnitude, so the rungs are
# weighted to keep the two quantiles inside groups of alike jobs: the
# twelve (18, 0.2) posets give the layered jobs around the median and the
# dimdraw jobs around the 90th percentile; the small rungs balance them.
DRAW_POSETS = [
    ((8, 0.15), 90, 4, 2), ((8, 0.2), 72, 5, 2), ((8, 0.25), 45, 7, 2),
    ((10, 0.15), 197, 6, 2), ((10, 0.2), 137, 8, 2), ((10, 0.25), 83, 9, 1),
    ((12, 0.2), 232, 11, 1), ((14, 0.2), 234, 15, 1), ((16, 0.2), 416, 19, 1),
    ((18, 0.2), 562, 23, 12), ((20, 0.2), 911, 27, 1),
]
# (objects, attributes, density) and accepted cover-edge range of the
# drawn concept lattices; the last one keeps quality() on >= 300 edges.
DRAW_LATTICES = [
    ((6, 6, 0.5), (15, 30)),
    ((7, 7, 0.5), (30, 40)),
    ((10, 9, 0.5), (85, 95)),
    ((16, 12, 0.5), (300, 310)),
]


def build_drawing(seed: int | str, files: Files) -> list[Job]:
    rng = random.Random(f"drawing/{seed}")
    jobs: list[Job] = []
    budget = ["--budget-ms", str(DRAW_BUDGET_MS)]

    rungs = [(n, p, ideals, n_covers) for (n, p), ideals, n_covers, copies in DRAW_POSETS
             for _ in range(copies)]
    for k, (n, p, ideals, n_covers) in enumerate(rungs):
        elements, pairs, order = sized_dag(rng, n, p, ideals, n_covers)
        name = f"poset{k}"
        path = files.write(f"{name}.tsv", ref.tsv_text(elements, pairs))
        covers = order.covers()
        svg, dot = files.out(f"{name}.svg"), files.out(f"{name}.dot")
        jobs += [
            Job(f"{name}.dimdraw", "draw dimdraw",
                ["--json", "draw", path, "--algo", "dimdraw", "-o", str(svg)] + budget,
                check_draw(elements, covers, "svg", elements), out=svg),
            Job(f"{name}.layered", "draw layered",
                ["--json", "draw", path, "--algo", "layered", "-o", str(dot)] + budget,
                check_draw(elements, covers, "dot", None), out=dot),
        ]

    last = len(DRAW_LATTICES) - 1
    for k, (shape, (lo, hi)) in enumerate(DRAW_LATTICES):
        ctx = sized_context(rng, shape, lo, hi, cover_edges)
        name = f"lattice{k}"
        path = files.write(f"{name}.cxt", ref.cxt_text(ctx))
        reduced = k % 2 == 1
        svg, dot = files.out(f"{name}.svg"), files.out(f"{name}.dot")
        flag = ["--reduced-labels"] if reduced else []
        jobs.append(Job(
            f"{name}.dimdraw", "draw dimdraw",
            ["--json", "draw", path, "--algo", "dimdraw", "-o", str(svg)] + flag + budget,
            check_draw_lattice(ctx, reduced, "svg"), out=svg))
        if k != last:  # one quality() call on the largest lattice per cycle
            flag = [] if reduced else ["--reduced-labels"]
            jobs.append(Job(
                f"{name}.layered", "draw layered",
                ["--json", "draw", path, "--algo", "layered", "-o", str(dot)] + flag + budget,
                check_draw_lattice(ctx, not reduced, "dot"), out=dot))
    # spread each group of alike jobs over the cycle, so that the samples
    # around a quantile come from the whole run and not from one stretch
    # of it that the machine happened to run slowly
    random.Random(f"drawing-order/{seed}").shuffle(jobs)
    return jobs


BUILDERS = {"contexts": build_contexts, "orders": build_orders, "drawing": build_drawing}
