"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload emits every metric of BENCHMARK.json with its
unit, that the gate catches an injected fault, that the benchmark refuses
to run without the package sources, that compare.py refuses to compare
different kernel backends or usable CPU counts, and that the tracer notices
a traced function it could not wrap.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--size", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


@pytest.mark.parametrize("workload", ["verify-default", "classify-large"])
def test_injected_fault_is_caught_and_records_no_numbers(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--inject-fault")
    assert proc.returncode == 1, proc.stderr
    result = last_json(proc)
    assert result["correct"] is False
    assert result["failed"] > 0 and result["metrics"] == {}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("key, values, what", [
    ("backend", ("pure", "compiled"), "backends"),
    ("cpus_usable", (1, 2), "usable CPU counts"),
])
def test_compare_refuses_mixed_hosts(tmp_path, key, values, what):
    for side, value in zip("ab", values):
        (tmp_path / side).mkdir()
        stamp = {"workload": "corpus", "size": "tiny", "backend": "pure", "cpus_usable": 2}
        record = {"stamp": dict(stamp, **{key: value}), "trace": 0, "metrics": {}}
        (tmp_path / side / "r.json").write_text(json.dumps(record))
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"),
                           str(tmp_path / "a"), str(tmp_path / "b")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and what in proc.stderr


def test_tracer_notices_an_unwrapped_reference():
    # A traced function held where install() cannot rebind it (here a
    # tuple) must stop the traced run instead of leaking its time.
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import romandom.checks, romandom.graphs, layertrace\n"
        "romandom.checks._held = (romandom.graphs.connected_components,)\n"
        "layertrace.Tracer().install()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(HERE), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "romandom.checks._held" in proc.stderr
