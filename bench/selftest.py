#!/usr/bin/env python3
"""Self-test of the benchmark: python3 bench/selftest.py

Runs the smallest rung of each workload once, requires every output to
pass its checker, then corrupts each output and requires the checker to
reject it. Also checks that the tracer restores odsk's bindings. Exits 0
when everything holds.
"""

from __future__ import annotations

import json
import re
import shutil
import sys

import run

SMALLEST = {
    "contexts": ("rembrandt.", "socialnet.", "airlines.", "ctx0.", "ctx9."),
    "orders": ("poset0.", "poset6.", "table0.", "bundesliga."),
    "drawing": ("poset0.", "lattice0."),
}


def corrupt(job, code: int, stdout: str, doc: str | None):
    """Wrong variants of a correct (stdout, file) pair."""
    if doc is not None:
        n = json.loads(stdout)["crossings"]
        yield stdout.replace(f'"crossings": {n}', f'"crossings": {n + 1}'), doc
        edge = re.compile(r"^  <line |^  \".*\" -> ", re.M)
        m = edge.search(doc)
        yield stdout, doc[:m.start()] + doc[doc.index("\n", m.start()) + 1:]
        return
    if job.cmd == "scale":
        lines = stdout.split("\n")
        g, m = int(lines[2]), int(lines[3])
        row = 5 + g + m
        lines[row] = ("." if lines[row][0] == "X" else "X") + lines[row][1:]
        yield "\n".join(lines), None
        return
    if stdout.startswith("guttman: "):
        verdict = stdout.split("\n", 1)[0]
        flipped = "guttman: true" if verdict == "guttman: false" else "guttman: false"
        yield stdout.replace(verdict, flipped, 1), None
        return
    if not stdout.startswith("{"):
        yield stdout.rstrip("\n").rsplit("\n", 1)[0] + "\n", None
        return
    d = json.loads(stdout)
    if "realizer" in d:
        ext = d["realizer"][0]["extension"].split(",")
        d["realizer"][0]["extension"] = ",".join(reversed(ext))
    elif "lower_bound" in d:
        d["lower_bound"] = 1
    elif "mediated_distances" in d:
        row = d["mediated_distances"][0]
        key = next(k for k, v in row.items() if k != "attribute" and v.isdigit())
        row[key] = str(int(row[key]) + 1)
    elif "guttman" in d:
        d["guttman"] = "true" if d["guttman"] == "false" else "false"
    elif "maxima" in d:
        d["maxima"] = d["maxima"][1:]
    else:
        key = next(k for k in ("concept_count", "implication_count", "covered",
                               "completion_size", "distortion") if k in d)
        d[key] = d[key] + 1 if isinstance(d[key], int) else str(int(d[key]) + 1)
    yield json.dumps(d, ensure_ascii=False, indent=2) + "\n", None


def check_tracer(cli):
    import odsk.completion
    import odsk.fca
    import odsk.layout
    import odsk.order
    import tracer
    before = (odsk.fca.concepts, odsk.completion.concepts, cli.concepts,
              odsk.layout.order_dimension, odsk.order.Poset.sample_linear_extension,
              cli.Report.emit, cli.run)
    tr = tracer.Tracer()
    tr.install()
    try:
        if cli.concepts is before[2] or odsk.completion.concepts is before[1]:
            raise SystemExit("tracer left a binding of concepts unwrapped")
    finally:
        tr.uninstall()
    after = (odsk.fca.concepts, odsk.completion.concepts, cli.concepts,
             odsk.layout.order_dimension, odsk.order.Poset.sample_linear_extension,
             cli.Report.emit, cli.run)
    if any(a is not b for a, b in zip(before, after)):
        raise SystemExit("tracer did not restore the original bindings")


def main() -> int:
    if not (run.SRC / "odsk" / "cli.py").is_file():
        print(f"error: odsk sources not found under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.os.chdir(run.ROOT)
    import odsk.cli
    import workloads
    from speed import Speed

    passed = rejected = 0
    for name, prefixes in SMALLEST.items():
        work = run.BENCH / ".work" / f"selftest-{name}"
        shutil.rmtree(work, ignore_errors=True)
        jobs = [j for j in workloads.BUILDERS[name](0, workloads.Files(work))
                if j.name.startswith(prefixes)]
        runner = run.Runner(odsk.cli, Speed())
        runner.add(jobs)
        for k, job in enumerate(jobs):
            runner.run_job(k)
            if runner.failed:
                raise SystemExit(f"{name}: correct output rejected: {runner.problems}")
            code, stdout, doc = runner.last
            passed += 1
            for bad_stdout, bad_doc in corrupt(job, code, stdout, doc):
                try:
                    job.check(code, bad_stdout, bad_doc)
                except Exception:
                    rejected += 1
                    continue
                raise SystemExit(f"{job.name}: checker accepted a corrupted output")
        shutil.rmtree(work, ignore_errors=True)
    check_tracer(odsk.cli)
    print(f"selftest ok: {passed} outputs passed their checks, "
          f"{rejected} corrupted outputs were rejected, tracer bindings restored")
    return 0


if __name__ == "__main__":
    sys.exit(main())
