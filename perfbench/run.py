#!/usr/bin/env python3
"""The romandom benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports the package from its ``src``
directory.  Every repetition runs in a fresh single-threaded interpreter
(child.py), because ``romandom.checks`` keeps corpus caches alive across
suites in one process.

With ``--trace 0`` it measures set-up at least 20 times, then runs rounds of
repetitions, one per usable CPU and at most two at once, in the number of
whole rounds that comes closest to ``--seconds`` (at least one).  A stall of
one core then shows in one sample only.  It checks every output and prints
the medians of the end-to-end metrics.  With ``--trace 1`` it runs the workload once plain
and once with every layer wrapped (layertrace.py), one at a time, and prints
the per-layer metrics, the tracing overhead and the time no layer accounts
for.
``--inject-fault`` corrupts the Roman domination solver to show the gate
catches it: such a run prints no metrics and exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit and sample count, the failed fraction and
the stamp.  A correct run also writes its full record, stamp included, to
``.perfbench_out/`` for compare.py.  Metric names and units are those of
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 20
# Repetitions run at once: one per usable CPU, at most two.  compare.py
# refuses records taken with different numbers of usable CPUs.
PARALLEL = max(1, min(2, len(os.sched_getaffinity(0))))
# Every run, the first one included, must end within 180 s.
DEADLINE_S = 170.0
# A traced run fails when more wall time than this escapes every layer.
UNATTRIBUTED_SHARE = 0.05
UNATTRIBUTED_SLACK_S = 0.05
OUT_DIR = ROOT / ".perfbench_out"
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1"}


class BenchError(Exception):
    def __init__(self, message, attempted=1, failed=1):
        super().__init__(message)
        self.attempted, self.failed = attempted, failed


def _children(job: dict, deadline: float, count: int = PARALLEL) -> list[dict]:
    """Run ``count`` repetitions of ``job`` at once, each in its own interpreter."""
    argv = [sys.executable, str(HERE / "child.py"), json.dumps(job)]
    procs = [subprocess.Popen(argv, cwd=ROOT, env={**os.environ, **CHILD_ENV}, text=True,
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
             for _ in range(count)]
    try:
        results = []
        for proc in procs:
            try:
                out, err = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"repetition ({job['mode']}) exceeded the time limit") from exc
            if proc.returncode != 0:
                raise BenchError(f"repetition ({job['mode']}) exited {proc.returncode}:\n" + err[-2000:])
            results.append(json.loads(out.splitlines()[-1]))
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp(spec: dict, backend: str) -> dict:
    return {
        "workload": spec["workload"], "size": spec["size"], "seed": spec["seed"],
        "input_sha256": spec["input_sha256"], "backend": backend,
        "git_rev": _git_rev(), "src_sha256": _src_sha256(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def _declared(kind: str) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


def _check_output(rep: dict) -> None:
    if rep["problems"]:
        raise BenchError("; ".join(rep["problems"]), rep["attempted"], rep["failed"])


def measure(job: dict, seconds: float, deadline: float):
    """Set-up samples and timed repetitions; returns (metrics, samples, reps)."""
    _children(dict(job, mode="setup"), deadline)  # warm-up: bytecode caches
    setups = []
    while len(setups) < SETUP_SAMPLES:
        setups += [r["setup_s"] for r in _children(dict(job, mode="setup"), deadline)]
    reps = []
    rounds = wanted = 0
    while rounds < max(wanted, 1):
        began = time.monotonic()
        batch = _children(dict(job, mode="work"), deadline)
        for rep in batch:
            _check_output(rep)
        reps += batch
        setups += [r["setup_s"] for r in batch]
        rounds += 1
        took = time.monotonic() - began
        if rounds == 1:
            # The number of whole rounds that comes closest to the measuring time.
            wanted = round(seconds / took)
        if time.monotonic() + 1.5 * took > deadline:
            break
    samples = {
        "setup_s": setups,
        "wall_s": [r["wall_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "items_per_s": [r["items"] / r["wall_s"] for r in reps],
        "peak_rss_mb": [r["rss_mb"] for r in reps],
    }
    return {k: statistics.median(v) for k, v in samples.items()}, samples, reps


def measure_traced(job: dict, deadline: float):
    plain, = _children(dict(job, mode="work"), deadline, 1)
    _check_output(plain)
    traced, = _children(dict(job, mode="trace"), deadline, 1)
    _check_output(traced)
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers["trace.unattributed_s"] = traced["wall_s"] - traced["attributed_s"]
    allowed = UNATTRIBUTED_SHARE * traced["wall_s"] + UNATTRIBUTED_SLACK_S
    if layers["trace.unattributed_s"] > allowed:
        raise BenchError(
            f"{layers['trace.unattributed_s']:.3f} s of {traced['wall_s']:.3f} s traced wall "
            f"time is in no layer (allowed {allowed:.3f} s): a layer is not wrapped")
    samples = {k: [v] for k, v in layers.items()}
    return layers, samples, [plain, traced]


def inject_fault(job: dict, deadline: float) -> int:
    """One repetition with the solver corrupted: the gate must catch it."""
    rep, = _children(dict(job, mode="work", fault=True), deadline, 1)
    print(f"fault {workloads.FAULT}: failed_frac {rep['failed'] / rep['attempted']:.6f} "
          f"({rep['failed']}/{rep['attempted']}); problems: {rep['problems']}")
    if not rep["problems"] or not rep["failed"]:
        sys.stderr.write("error: the injected fault was not detected\n")
        return 3
    print(_result_line(False, rep["attempted"], rep["failed"], {}, {}))
    return 1


def _result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="romandom benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny runs the smoke-test sizes")
    parser.add_argument("--inject-fault", action="store_true",
                        help=f"run once with the {workloads.FAULT} fault; the gate must fail")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "romandom" / "__init__.py").is_file():
        sys.stderr.write(f"error: no romandom sources under {ROOT / 'src'}\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    spec = workloads.make_spec(args.workload, args.seed, args.size)
    job = {"spec": spec, "reference": str(HERE / "reference.json")}

    kind = "per_layer" if args.trace else "end_to_end"
    units = _declared(kind)
    try:
        if args.inject_fault:
            return inject_fault(job, deadline)
        if args.trace:
            metrics, samples, reps = measure_traced(job, deadline)
        else:
            metrics, samples, reps = measure(job, args.seconds, deadline)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        print(_result_line(False, exc.attempted, exc.failed, {}, {}))
        return 1
    if set(metrics) != set(units):
        sys.stderr.write(f"error: metrics {sorted(set(metrics) ^ set(units))} "
                         f"differ from BENCHMARK.json {kind}\n")
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    record = {
        "stamp": stamp(spec, reps[0]["backend"]), "trace": args.trace,
        "seconds": args.seconds, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "digest": reps[0]["digest"],
        "digest_checked": reps[0]["digest_checked"],
        "metrics": {k: {"value": metrics[k], "unit": units[k], "samples": samples[k]}
                    for k in sorted(metrics)},
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{spec['workload']}-{spec['size']}-t{args.trace}-s{args.seed}-{time.time_ns()}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for k in sorted(metrics):
        print(f"{k:<44} {metrics[k]:>14.6g} {units[k]:<8} n={len(samples[k])}")
    print(f"{'failed_frac':<44} {record['failed_frac']:>14.6g} ratio    n={len(reps)}")
    print("stamp " + json.dumps(record["stamp"], sort_keys=True))
    print(_result_line(True, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
