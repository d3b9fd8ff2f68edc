"""Time corpus generation, the structural decomposition of a 3,603-vertex
path and the default verify sweep with each of its checks in process, the
max-limit verify sweep, the perfbench workloads and the Tier-1 test suite
in child processes, count the lines of each package module, and write
``BENCH_<short-rev>.json`` at the repository root.

    python3 tools/bench_corpus.py

The package is imported from the ``src/`` directory next to this script, so
a copy of the script placed in another checkout measures that checkout.
Each timing is run ``RUNS`` times, round-robin, and the median is kept
with the samples.  ``canonical_signatures_unicyclic_10`` times the
canonical search alone on the 657 class representatives that
``unicyclic_graphs_10`` sorts by it, so the two separate keying from
canonical search.  The canonical-search count of the unicyclic streams is
taken in a separate, untimed pass by wrapping
``romandom.kernels.canonical_signature``.

``run_suite("all")`` at default limits is first run once, untimed, with
each kernel entry point wrapped by a call counter; that run also fills the
corpus caches.  It is then timed ``RUNS`` times without the counters, so
its wall time covers the checks and not corpus generation, which the
timings above cover.  The same runs time each check around its whole loop,
from the first step of its cases to the last, with the solver caches the
checks before it filled.  A wrapped entry point also counts the calls other
kernels make to it: ``canonical_signature`` calls ``canonical_permutation``.

The max-limit sweep (``romandom verify --suite all`` with ``MAX_LIMITS``)
is run ``RUNS`` times through the command line, each in a child process.
Each child's wall time, its own peak RSS (from ``os.wait4``; the
``RUSAGE_CHILDREN`` figure is the largest of every child, those of the
Tier-1 runs included) and the sha256 of its record lines (the summary
line excluded) and of its whole output are kept.  One more run in process
times each check around its whole loop.

Each perfbench workload is run ``RUNS`` times, round-robin, through
``perfbench/run.py --workload W --seed 1 --seconds 12 --trace 0``.  The
last line of each run holds the medians of its own repetitions, and the
median over the runs of its ``wall_s``, ``cpu_s`` and ``peak_rss_mb`` is
kept with the samples.

The Tier-1 suite (``python -m pytest -q --continue-on-collection-errors``
with ``PYTHONPATH=src``) is run ``RUNS`` times last, each in a fresh
interpreter, and its wall time is kept as the median.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from romandom import checks, graphs, kernels, labelled, streams  # noqa: E402
from romandom.checks import run_suite  # noqa: E402

RUNS = 3
MAX_LIMITS = checks.Limits(trees_max_n=16, graphs_max_n=7, unicyclic_n=10)
UNICYCLIC_ORDERS = range(3, 11)
KERNEL_ENTRY_POINTS = (
    "min_weight_cover", "min_cover_masks", "min_dominating_size", "min_dominating_masks",
    "max_differential", "max_differential_masks", "efficient_dominating_masks",
    "cover_scan", "differential_scan", "private_dominating_masks",
    "canonical_permutation", "canonical_signature", "connected_canonical_signatures",
)
PERFBENCH_WORKLOADS = ("verify-default", "classify-large", "corpus")
PERFBENCH_METRICS = ("wall_s", "cpu_s", "peak_rss_mb")

TIMINGS = {
    "free_trees_14": lambda: list(streams.free_trees(14)),
    "free_trees_15": lambda: list(streams.free_trees(15)),
    "free_trees_16": lambda: list(streams.free_trees(16)),
    "unicyclic_graphs_9": lambda: list(streams.unicyclic_graphs(9)),
    "unicyclic_graphs_10": lambda: list(streams.unicyclic_graphs(10)),
    "canonical_signatures_unicyclic_10":
        lambda: [kernels.canonical_signature(rows) for rows in representatives(10)],
    "connected_graphs_1_6": lambda: [list(streams.connected_graphs(n)) for n in range(1, 7)],
    "generate_script_t_16": lambda: labelled.generate_script_t(16),
    "decompose_path_3603": lambda: labelled.decompose_script_t(graphs.path_graph(3603)),
}


def short_rev() -> str:
    out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


@functools.cache
def representatives(n: int) -> list[tuple[int, ...]]:
    """The rows of the unicyclic stream's graphs of order n: the first tree
    plus chord of each class, on which the stream runs its canonical
    searches."""
    return [g.open_rows() for g in streams.unicyclic_graphs(n)]


def timed() -> dict:
    representatives(10)  # built before the timing starts
    samples = {name: [] for name in TIMINGS}
    for _ in range(RUNS):
        for name, work in TIMINGS.items():
            start = time.perf_counter()
            work()
            samples[name].append(round(time.perf_counter() - start, 4))
    return {name: {"median_s": statistics.median(s), "samples_s": s}
            for name, s in samples.items()}


def kernel_calls(work, names) -> dict:
    """Calls of each named ``romandom.kernels`` function while ``work()`` runs.
    A name the checkout's kernels lack is left out, so that the script
    measures older checkouts too."""
    reals = {name: getattr(kernels, name) for name in names if hasattr(kernels, name)}
    calls = dict.fromkeys(reals, 0)

    def counting(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return reals[name](*args, **kwargs)
        return call

    for name in reals:
        setattr(kernels, name, counting(name))
    try:
        work()
    finally:
        for name, real in reals.items():
            setattr(kernels, name, real)
    return calls


def unicyclic_canonical_searches() -> int:
    def work():
        for n in UNICYCLIC_ORDERS:
            for _ in streams.unicyclic_graphs(n):
                pass
    return kernel_calls(work, ["canonical_signature"])["canonical_signature"]


def whole_loop(cases, samples):
    """``cases`` of one check, appending to ``samples`` the seconds from
    the first step of its generator to the last: the runner runs each case
    between two steps."""
    def timed(limits):
        start = time.perf_counter()
        try:
            yield from cases(limits)
        finally:
            samples.append(round(time.perf_counter() - start, 4))
    return timed


def timed_suites(limits, runs):
    """The seconds of ``runs`` suites at ``limits``, the instances of the
    last, and the seconds of each check in each run."""
    samples, per_check = [], {cid: [] for cid in checks.CHECK_IDS}
    real = dict(checks.REGISTRY)
    for cid, check in real.items():
        checks.REGISTRY[cid] = dataclasses.replace(check, cases=whole_loop(check.cases, per_check[cid]))
    try:
        for _ in range(runs):
            start = time.perf_counter()
            report = run_suite("all", limits)
            samples.append(round(time.perf_counter() - start, 4))
            if not report.all_passed:
                raise RuntimeError(f"verify at {limits} failed")
    finally:
        checks.REGISTRY.update(real)
    return samples, report.total, per_check


def verify_default() -> dict:
    reports = []
    calls = kernel_calls(lambda: reports.append(run_suite()), KERNEL_ENTRY_POINTS)
    if not reports[0].all_passed:  # a wrapper that breaks a call shows here, not in the counts
        raise RuntimeError("the counted verify at default limits failed")
    samples, total, per_check = timed_suites(checks.Limits(), RUNS)
    return {"median_s": statistics.median(samples), "samples_s": samples,
            "instances": total, "kernel_calls": calls,
            "check_s": {cid: {"median_s": statistics.median(s), "samples_s": s}
                        for cid, s in per_check.items()}}


def verify_max() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["verify", "--suite", "all", "--trees-max-n", str(MAX_LIMITS.trees_max_n),
            "--graphs-max-n", str(MAX_LIMITS.graphs_max_n),
            "--unicyclic-n", str(MAX_LIMITS.unicyclic_n)]
    walls, rss, digests = [], [], set()
    for _ in range(RUNS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-m", "romandom.cli", *argv], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE) as proc:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        walls.append(round(time.perf_counter() - start, 2))
        rss.append(round(usage.ru_maxrss / 1024, 1))
        if proc.returncode != 0:
            raise RuntimeError("verify at the largest limits failed")
        records = [line for line in out.splitlines(keepends=True) if b'"summary": true' not in line]
        digests.add((len(records), hashlib.sha256(b"".join(records)).hexdigest(),
                     hashlib.sha256(out).hexdigest()))
    if len(digests) != 1:
        raise RuntimeError("verify at the largest limits wrote different output")
    (records, records_sha, stdout_sha), = digests
    _, _, per_check = timed_suites(MAX_LIMITS, 1)
    return {"argv": argv, "median_s": statistics.median(walls), "samples_s": walls,
            "peak_rss_mb": {"median": statistics.median(rss), "samples": rss},
            "records": records, "records_sha256": records_sha, "stdout_sha256": stdout_sha,
            "check_s": {cid: s[0] for cid, s in per_check.items()}}


def perfbench() -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--seed", "1",
               "--seconds", "12", "--trace", "0"]
    samples = {name: {m: [] for m in PERFBENCH_METRICS} for name in PERFBENCH_WORKLOADS}
    for _ in range(RUNS):
        for name, runs in samples.items():
            done = subprocess.run([*command, "--workload", name], cwd=ROOT, capture_output=True,
                                  text=True)
            lines = done.stdout.splitlines()
            last = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not last.get("correct"):
                raise RuntimeError(f"perfbench {name} failed:\n" + done.stdout[-2000:])
            for metric, values in runs.items():
                values.append(last["metrics"][metric]["value"])
    return {name: {metric: {"median": statistics.median(values), "samples": values}
                   for metric, values in runs.items()}
            for name, runs in samples.items()}


def tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    samples = []
    for _ in range(RUNS):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
        samples.append(round(time.perf_counter() - start, 2))
        if done.returncode != 0:
            raise RuntimeError("Tier-1 failed:\n" + done.stdout[-2000:])
    return {"median_s": statistics.median(samples), "samples_s": samples,
            "passed": int(re.search(r"(\d+) passed", done.stdout).group(1))}


def src_lines() -> dict:
    """Line count of each ``src/romandom`` module, and their total."""
    modules = {path.name: len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((ROOT / "src" / "romandom").glob("*.py"))}
    return {"modules": modules, "total": sum(modules.values())}


def main() -> int:
    rev = short_rev()
    record = {
        "rev": rev,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "runs": RUNS,
        "src_lines": src_lines(),
        "timings": timed(),
        "unicyclic_canonical_searches": {
            "orders": [UNICYCLIC_ORDERS.start, UNICYCLIC_ORDERS.stop - 1],
            "calls": unicyclic_canonical_searches(),
        },
        "verify_default": verify_default(),
        "verify_max": verify_max(),
        "perfbench": perfbench(),
        "tier1": tier1(),
    }
    path = ROOT / f"BENCH_{rev}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="ascii")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
