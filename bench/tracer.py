"""Spans around calls into odsk's public functions, from outside the package.

Tracer.install() replaces every module binding of each traced function
object (for example odsk.cli.concepts, odsk.completion.concepts and
odsk.fca.concepts are one object, so all three are replaced) and the class
attribute of each traced method; uninstall() puts the originals back.
Spans live in memory as lists and are written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# The layers are odsk's modules; each entry is "<module>.<function>" or
# "<module>.<Class>.<method>".
TARGETS = (
    "fca.read_cxt", "fca.write_cxt", "fca.concepts", "fca.canonical_base",
    "fca.is_guttman", "fca.ConceptLattice.to_poset",
    "order.poset_from_tsv", "order.close_relation", "order.product_order",
    "order.pareto_maxima", "order.intersect_linear_orders",
    "order.Poset.sample_linear_extension",
    "completion.order_dimension", "completion.dimension_bounds",
    "completion.dedekind_macneille",
    "factors.ordinal_factorization", "factors.largest_ordinal_factor", "factors.biplot",
    "layout.dimdraw", "layout.layered", "layout.quality", "layout.render",
    "omspace.read_distance_csv", "omspace.mediated_metric",
    "omspace.relational_distortion",
    "scaling.read_table_csv", "scaling.read_scaling_spec", "scaling.apply_scaling",
    "scaling.to_ordinal_structure",
    "cli.Report.emit", "cli.run",
)
LAYERS = ("cli", "fca", "order", "completion", "factors", "layout", "omspace", "scaling")
DEFAULT_DRAW_BUDGET_MS = 60_000  # odsk's default search budget

# counts read off a call's arguments and result: (args, kwargs, result) -> dict
EXTRAS = {
    "fca.concepts": lambda a, kw, r: {"emitted": len(r)},
    "fca.canonical_base": lambda a, kw, r: {"implications": len(r)},
    "layout.quality": lambda a, kw, r: {
        "edge_pairs": len(a[0].edges) * (len(a[0].edges) - 1) // 2,
        "crossings": r.crossings},
    "layout.dimdraw": lambda a, kw, r: {"budget_ms": kw.get("budget_ms")},
    # rows written: one per scalar key, plus every table row
    "cli.Report.emit": lambda a, kw, r: {"rows": sum(
        len(v["rows"]) if isinstance(v, dict) and "header" in v else 1
        for _, v in a[0].items)},
}

# span fields
TARGET, START, END, PARENT, JOB, ERROR, EXTRA = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, tid: int, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        extra = EXTRAS.get(TARGETS[tid])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [tid, 0.0, 0.0, stack[-1] if stack else -1, self.job, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                span[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "odsk" or name.startswith("odsk.")]
        for tid, label in enumerate(TARGETS):
            module_name, _, attr = label.partition(".")
            module = importlib.import_module(f"odsk.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(tid, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(tid, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def write(self, path: Path):
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": TARGETS[s[TARGET]], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "job": s[JOB], "error": s[ERROR],
                    "extra": s[EXTRA]}) + "\n")


def derive(spans: list[list], cycles: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced cycle: calls and self time of every
    target, the named counts and ratios, and self time per layer."""
    child = [0.0] * len(spans)
    kids: dict[int, list[int]] = {}
    for k, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
            kids.setdefault(s[PARENT], []).append(k)
    calls = [0] * len(TARGETS)
    self_s = [0.0] * len(TARGETS)
    total_s = [0.0] * len(TARGETS)
    for k, s in enumerate(spans):
        dur = s[END] - s[START]
        calls[s[TARGET]] += 1
        self_s[s[TARGET]] += dur - child[k]
        total_s[s[TARGET]] += dur

    def tid(label):
        return TARGETS.index(label)

    def extra_sum(label, key):
        t = tid(label)
        return sum(s[EXTRA][key] for s in spans if s[TARGET] == t and s[EXTRA] is not None)

    out: dict[str, tuple[float, str]] = {}
    for t, label in enumerate(TARGETS):
        out[f"{label}.calls"] = (calls[t] / cycles, "count")
        out[f"{label}.self_s"] = (self_s[t] / cycles, "s")
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (sum(
            self_s[t] for t, label in enumerate(TARGETS)
            if label.split(".")[0] == layer) / cycles, "s")

    emitted = extra_sum("fca.concepts", "emitted")
    out["fca.concepts.emitted"] = (emitted / cycles, "count")
    out["fca.concepts.us_per_concept"] = (
        total_s[tid("fca.concepts")] / emitted * 1e6 if emitted else 0.0, "us")
    out["fca.canonical_base.implications"] = (
        extra_sum("fca.canonical_base", "implications") / cycles, "count")

    dim = [s for s in spans if s[TARGET] == tid("completion.order_dimension")]
    exceeded = sum(1 for s in dim if s[ERROR] == "BudgetExceeded")
    solved = sum(1 for s in dim if s[ERROR] is None)
    out["completion.order_dimension.budget_exceeded"] = (exceeded / cycles, "count")
    out["completion.order_dimension.solved_ratio"] = (
        solved / len(dim) if dim else 0.0, "fraction")

    paths = {"exact": 0, "sampled": 0, "layered": 0}
    over = 0
    for k, s in enumerate(spans):
        if s[TARGET] != tid("layout.dimdraw"):
            continue
        ran = {(spans[c][TARGET], spans[c][ERROR] is None) for c in kids.get(k, ())}
        if any(t == tid("layout.layered") for t, _ in ran):
            paths["layered"] += 1
        elif (tid("order.Poset.sample_linear_extension"), True) in ran:
            paths["sampled"] += 1
        elif (tid("completion.order_dimension"), True) in ran:
            paths["exact"] += 1
        budget = (s[EXTRA] or {}).get("budget_ms") or DEFAULT_DRAW_BUDGET_MS
        if (s[END] - s[START]) * 1000 > budget:
            over += 1
    for name, n in paths.items():
        out[f"layout.dimdraw.path_{name}"] = (n / cycles, "count")
    out["layout.dimdraw.over_budget"] = (over / cycles, "count")

    out["layout.quality.edge_pairs"] = (extra_sum("layout.quality", "edge_pairs") / cycles, "count")
    out["layout.quality.crossings"] = (extra_sum("layout.quality", "crossings") / cycles, "count")
    out["cli.Report.emit.rows"] = (extra_sum("cli.Report.emit", "rows") / cycles, "count")
    return out
