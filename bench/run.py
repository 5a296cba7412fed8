#!/usr/bin/env python3
"""odsk CLI-job benchmark.

    python3 bench/run.py --workload contexts|orders|drawing --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. Jobs run in a closed loop by one
client: a single process and thread calls odsk.cli.run(argv) in-process,
and the next job starts when the last returns. Cycle c runs the jobs of
input set c, whose files are generated under bench/.work/ from the seed
"<--seed>.<c>" when the cycle starts. Cycles are run until at least
--seconds of job time and at least MIN_JOBS jobs have been timed. Each
job's stdout and stderr are captured in memory, and every output is
checked against the benchmark's own reference computations
(bench/ref.py). The timed end-to-end metrics are in reference seconds,
scaled by a speed kernel timed after every job and in every set-up
process (bench/speed.py).

--trace 0 reports the end-to-end metrics. --trace 1 alternates one
untraced and one traced cycle, both over input set 0, and reports
per-layer metrics per traced cycle from spans recorded around calls into
odsk (bench/tracer.py); the spans are written to spans.jsonl in the
run's work directory.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

MIN_JOBS = 100  # p90 needs at least ten samples above it
SETUP_RUNS = 9  # at the start of a run, then SETUP_RUNS_PER_CYCLE after each cycle
SETUP_RUNS_PER_CYCLE = 1
SAFETY_S = 140.0  # stop starting cycles after this much wall time
# The child times its set-up, then the speed kernel (bench/speed.py) a
# few times, so that its set-up time can be scaled by its own speed.
SETUP_CODE = """\
import time
t = time.perf_counter()
import odsk.cli
odsk.cli.build_parser()
t = time.perf_counter() - t
import statistics, speed
sp = speed.Speed()
for _ in range(7):
    sp.sample()
print(t, statistics.median(sp.samples))
"""


def measure_setup(runs: int) -> list[tuple[float, float]]:
    """(set-up time, median kernel time) of fresh interpreters that import
    odsk.cli and build its parser."""
    parts = [str(SRC), str(BENCH)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(parts))
    times = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        setup, kernel = map(float, proc.stdout.split())
        times.append((setup, kernel))
    return times


class Runner:
    """Runs jobs, times them, checks outputs and keeps per-subcommand counts.

    ``make_set(c)`` builds input set c of the workload, a list of jobs;
    cycle c runs set c, built when the cycle first needs it."""

    OUTCOMES = ("attempted", "exit0", "exit2", "exit3", "traceback", "check_failed",
                "other_exit")

    def __init__(self, cli, speed, make_set=None):
        self.cli = cli
        self.speed = speed
        self.make_set = make_set
        self.jobs = []
        self.sets: list[range] = []  # indices into jobs of each set
        self.counts: dict[str, Counter] = {}
        self.verified: list[set] = []  # digests of outputs that passed, per job
        self.problems: list[str] = []
        self.times: list[float] = []  # raw wall time per job run
        self.marks: list[int] = []  # speed sample taken right after it
        self.at_budget: list[bool] = []  # it exited 3
        self.ok = 0
        self.failed = 0
        self.last = None  # (exit code, stdout, file) of the last job that exited 0 or 3

    def add(self, jobs) -> range:
        """Append a set of jobs; returns their indices."""
        first = len(self.jobs)
        self.jobs += jobs
        self.verified += [set() for _ in jobs]
        for job in jobs:
            self.counts.setdefault(job.cmd, Counter())
        self.sets.append(range(first, len(self.jobs)))
        return self.sets[-1]

    def run_job(self, k: int) -> tuple[float, int | None]:
        job = self.jobs[k]
        if job.out is not None and job.out.exists():
            job.out.unlink()
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        tb = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.run(job.argv)
                t1 = time.perf_counter()
            except Exception:  # a crash is counted, and the loop goes on
                t1 = time.perf_counter()
                code, tb = None, traceback.format_exc()
        self.judge(k, code, out.getvalue(), err.getvalue(), tb)
        return t1 - t0, code

    def judge(self, k, code, stdout, stderr, tb):
        job = self.jobs[k]
        c = self.counts[job.cmd]
        c["attempted"] += 1
        if tb is None and "Traceback (most recent call last)" in stderr:
            tb = stderr
        if tb is not None:
            c["traceback"] += 1
            self.problem(job, tb.strip().splitlines()[-1])
            return
        if code not in (0, 2, 3):
            c["other_exit"] += 1
            self.problem(job, f"exit {code}")
            return
        c[f"exit{code}"] += 1
        if code == 2 or (code == 3 and not job.may_exceed):
            self.problem(job, f"exit {code}: {stderr.strip() or stdout.strip()}")
            return
        doc = job.out.read_text(encoding="utf-8") if job.out and job.out.exists() else None
        self.last = (code, stdout, doc)
        digest = hashlib.sha256(repr((code, stdout, doc)).encode()).digest()
        if digest not in self.verified[k]:
            # each distinct output is checked once; later identical outputs
            # of the same job pass by digest
            try:
                job.check(code, stdout, doc)
            except Exception as exc:  # CheckError, or output too malformed to parse
                c["check_failed"] += 1
                self.problem(job, f"check failed: {type(exc).__name__}: {exc}")
                return
            self.verified[k].add(digest)
        if code == 0:
            self.ok += 1

    def problem(self, job, msg):
        """Record a failed job: a crash, a wrong output or an exit code
        the job does not allow (exit 3 is allowed where budgets apply)."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{job.name}: {msg}")

    def cycle(self, c: int, tr=None) -> float:
        """Run every job of set c once; with a tracer, spans carry the
        sample index."""
        while len(self.sets) <= c:
            self.add(self.make_set(len(self.sets)))
        total = 0.0
        for k in self.sets[c]:
            if tr is not None:
                tr.job = len(self.times)
            t, code = self.run_job(k)
            self.times.append(t)
            self.marks.append(self.speed.sample())
            self.at_budget.append(code == 3)
            total += t
        return total

    def reference_times(self) -> list[float]:
        """Job times in reference seconds. A job that exited 3 ran into
        its time budget, so its wall time is the budget, whatever the
        machine's speed, and it is kept raw."""
        return [t if b else self.speed.scale(t, i)
                for t, i, b in zip(self.times, self.marks, self.at_budget)]

    def report_lines(self) -> list[str]:
        lines = ["subcommand                 " + " ".join(f"{o:>12}" for o in self.OUTCOMES)]
        for cmd, c in self.counts.items():
            lines.append(f"{cmd:26} " + " ".join(f"{c[o]:>12}" for o in self.OUTCOMES))
        return lines


def end_to_end(runner: Runner, setup_s: float, times: list[float]) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_p90_s": (statistics.quantiles(times, n=10)[8], "s"),
        "jobs_per_s": (runner.ok / sum(times), "jobs/s"),
        "ok_ratio": (runner.ok / len(times), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("contexts", "orders", "drawing"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "odsk" / "cli.py").is_file():
        print(f"error: odsk sources not found under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import workloads
    import odsk.cli
    import tracer
    from speed import REFERENCE_S as speed_ref, Speed

    work = BENCH / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)

    def make_set(c: int) -> list:
        return workloads.BUILDERS[args.workload](
            f"{args.seed}.{c}", workloads.Files(work / f"set{c}"))

    speed = Speed()
    runner = Runner(odsk.cli, speed, make_set)

    if args.trace:
        tr = tracer.Tracer()
        untraced = traced = 0.0
        pairs = 0
        while (traced + untraced < args.seconds or pairs == 0) \
                and time.monotonic() - started < SAFETY_S:
            untraced += runner.cycle(0)
            tr.install()
            try:
                traced += runner.cycle(0, tr)
            finally:
                tr.uninstall()
            pairs += 1
        metrics = tracer.derive(tr.spans, pairs)
        roots = sum(s[tracer.END] - s[tracer.START] for s in tr.spans
                    if s[tracer.PARENT] < 0)
        metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
        metrics["trace.accounted_ratio"] = (roots / traced, "ratio")
        tr.write(work / "spans.jsonl")
        header = (f"traced run: {pairs} untraced + {pairs} traced cycles of the "
                  f"{len(runner.jobs)} jobs of input set 0; per-layer figures are "
                  "per traced cycle")
    else:
        measure_setup(1)  # writes the bytecode caches
        # set-up samples are spread over the run, so that a slow spell of
        # the machine moves only some of them
        setup = measure_setup(SETUP_RUNS)
        cycle_s = []
        while (sum(cycle_s) < args.seconds or len(runner.times) < MIN_JOBS
               or not cycle_s) and time.monotonic() - started < SAFETY_S:
            cycle_s.append(runner.cycle(len(cycle_s)))
            setup += measure_setup(SETUP_RUNS_PER_CYCLE)
        setup_s = statistics.median(t * speed_ref / k for t, k in setup)
        metrics = end_to_end(runner, setup_s, runner.reference_times())
        raw = end_to_end(runner, statistics.median(t for t, _ in setup), runner.times)
        header = (f"samples: {len(runner.times)} jobs in {len(cycle_s)} cycles, each "
                  f"over its own input set, {sum(cycle_s):.2f} s timed; cycle times "
                  + " ".join(f"{t:.3f}" for t in cycle_s)
                  + f"\nspeed kernel: median {statistics.median(speed.samples) * 1e3:.3f} ms "
                  f"over {len(speed.samples)} samples, reference "
                  f"{speed_ref * 1e3:.3f} ms; raw (unscaled) figures: "
                  + ", ".join(f"{name} {raw[name][0]:.6g}"
                              for name in ("setup_s", "job_p50_s", "job_p90_s", "jobs_per_s")))

    for d in work.iterdir():
        if d.is_dir():  # inputs and drawings; spans.jsonl stays
            shutil.rmtree(d)
    print(f"workload {args.workload}, seed {args.seed}: {header}")
    print("closed loop, one client, one thread: jobs never queue or wait, "
          "so no waiting time is reported")
    for line in runner.report_lines():
        print(line)
    for p in runner.problems:
        print(f"problem: {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": len(runner.times),
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
