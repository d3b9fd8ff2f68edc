"""The benchmark's workloads: inputs made from a seed, the work one
repetition does, and the correctness gate on its output.

Inputs are made here, without importing romandom, so the program receives
only the generated inputs.  ``prepare`` (set-up: the imports), ``run`` (the
timed work) and ``gate`` (the check) run inside the fresh interpreter of one
repetition.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys

WORKLOADS = ("verify-default", "classify-large", "corpus")
SIZES = ("full", "tiny")

# Independent oracles for the corpus counts, indexed by order.
OEIS_A000055_TREES = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320)
OEIS_A001349_CONNECTED = (1, 1, 1, 2, 6, 21, 112, 853)
OEIS_A001429_UNICYCLIC = (0, 0, 0, 1, 2, 5, 13, 33, 89, 240, 657)

VERIFY_LIMITS = {
    "full": {"trees_max_n": 12, "graphs_max_n": 6, "unicyclic_n": 8},
    "tiny": {"trees_max_n": 6, "graphs_max_n": 4, "unicyclic_n": 5},
}

CORPUS_ORDERS = {
    "full": {"trees": [1, 16], "connected": [1, 6], "unicyclic": [3, 10], "script_t": 16},
    "tiny": {"trees": [1, 8], "connected": [1, 4], "unicyclic": [3, 6], "script_t": 9},
}

# classify-large: a fixed number of graphs in every (order, density) cell,
# each with an exact edge count, so that seeds change the graphs but hardly
# the amount of work.  The split inputs exercise the per-component combine.
CLASSIFY_SHAPE = {
    "full": {"orders": [14, 15, 16], "densities": [0.2, 0.3, 0.45], "per_cell": 4,
             "split": [[10, 4], [11, 4], [12, 4], [12, 4]]},
    "tiny": {"orders": [7, 8], "densities": [0.3, 0.45], "per_cell": 1,
             "split": [[5, 3]]},
}

FAULT = "gamma-r-plus-one"

# reference.json holds the classify-large output digest of every seed below
# this; other seeds are checked by the invariants alone.
CLASSIFY_REFERENCE_SEEDS = 256


# -- inputs ---------------------------------------------------------------


def _graph6(n: int, edges) -> str:
    """graph6 text of a graph on n < 63 vertices."""
    adj = set(edges)
    bitlist = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    bitlist += [0] * (-len(bitlist) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bitlist[k:k + 6])), 2))
        for k in range(0, len(bitlist), 6)
    )
    return chr(63 + n) + body


def _random_edges(rng: random.Random, n: int, density: float, offset: int = 0):
    """A random Hamiltonian cycle plus random chords, round(density * n(n-1)/2)
    edges in all (at least the cycle).  No vertex is a cut vertex, so every single-vertex deletion
    leaves one component and the scan sizes do not depend on the seed."""
    ring = list(range(n))
    rng.shuffle(ring)
    cycle = {tuple(sorted((ring[k], ring[k - 1]))) for k in range(n)}
    chords = [(i, j) for j in range(n) for i in range(j) if (i, j) not in cycle]
    m = max(n, round(density * n * (n - 1) / 2))
    edges = sorted(cycle) + rng.sample(chords, m - len(cycle))
    return [(i + offset, j + offset) for i, j in edges]


def classify_graphs(seed: int, size: str) -> list[str]:
    shape = CLASSIFY_SHAPE[size]
    rng = random.Random(seed)
    lines = []
    for n in shape["orders"]:
        for p in shape["densities"]:
            for _ in range(shape["per_cell"]):
                lines.append(_graph6(n, _random_edges(rng, n, p)))
    for k, (a, b) in enumerate(shape["split"]):
        p = shape["densities"][k % len(shape["densities"])]
        edges = _random_edges(rng, a, p) + _random_edges(rng, b, 0.6, offset=a)
        lines.append(_graph6(a + b, edges))
    rng.shuffle(lines)
    return lines


def make_spec(workload: str, seed: int, size: str) -> dict:
    """Everything one repetition needs, as plain JSON data.

    verify-default and corpus are exhaustive sweeps, so their inputs are the
    same for every seed; the seed shapes classify-large only.
    """
    if workload == "verify-default":
        lim = VERIFY_LIMITS[size]
        argv = ["verify", "--suite", "all",
                "--trees-max-n", str(lim["trees_max_n"]),
                "--graphs-max-n", str(lim["graphs_max_n"]),
                "--unicyclic-n", str(lim["unicyclic_n"])]
        spec = {"argv": argv}
    elif workload == "classify-large":
        spec = {"argv": ["classify", "--no-bondage", "-"],
                "graph6": classify_graphs(seed, size)}
    elif workload == "corpus":
        spec = {"orders": CORPUS_ORDERS[size]}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    spec.update(workload=workload, seed=seed, size=size)
    payload = json.dumps({k: v for k, v in spec.items() if k != "seed"}, sort_keys=True)
    spec["input_sha256"] = hashlib.sha256(payload.encode()).hexdigest()
    return spec


# -- set-up, work and gate (run inside a repetition's interpreter) ----------


def prepare(spec: dict) -> None:
    """Import the modules the workload uses: what set-up time measures.

    The command line parses its own arguments and standard input, so for
    verify-default and classify-large that parse is part of the timed work,
    as it is for a user of the CLI.
    """
    import romandom  # noqa: F401  (the import is part of set-up)
    from romandom import checks, cli, labelled, streams  # noqa: F401


def run(spec: dict, fault: bool = False):
    """The timed work.  Returns what ``gate`` checks."""
    workload = spec["workload"]
    if workload == "corpus":
        return _run_corpus(spec["orders"])
    from romandom import cli, solvers

    out = io.StringIO()
    saved_stdin = sys.stdin
    if "graph6" in spec:
        sys.stdin = io.StringIO("".join(line + "\n" for line in spec["graph6"]))
    argv = list(spec["argv"])
    if fault and workload == "verify-default":
        argv += ["--inject-fault", FAULT]
    elif fault:
        solvers.set_fault_injection(FAULT)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved_stdin
        solvers.set_fault_injection(None)
    return {"exit": code, "stdout": out.getvalue()}


def _run_corpus(o: dict):
    from romandom import labelled, streams

    produced = {"trees": {}, "connected": {}, "unicyclic": {}}
    makers = {"trees": streams.free_trees, "connected": streams.connected_graphs,
              "unicyclic": streams.unicyclic_graphs}
    for kind, make in makers.items():
        lo, hi = o[kind]
        for n in range(lo, hi + 1):
            produced[kind][n] = list(make(n))
    produced["script_t"] = labelled.generate_script_t(o["script_t"])
    return produced


def _sha(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def gate(spec: dict, result, reference: dict) -> dict:
    """Check one repetition's output.  Returns attempted/failed counts, the
    items handled (instances, graphs or generated items), the output digest
    and a list of problems (empty when correct)."""
    workload = spec["workload"]
    if workload == "verify-default":
        return _gate_verify(spec, result, reference)
    if workload == "classify-large":
        return _gate_classify(spec, result, reference)
    return _gate_corpus(spec, result, reference)


def _ref_for(spec: dict, reference: dict) -> dict:
    return reference.get(spec["workload"], {}).get(spec["size"], {})


def _gate_verify(spec, result, reference):
    problems = []
    lines = result["stdout"].splitlines()
    records = [json.loads(line) for line in lines]
    summary = records[-1] if records and records[-1].get("summary") else {}
    body = lines[:-1] if summary else lines
    attempted = summary.get("total", len(body))
    failed = summary.get("failed", sum(1 for r in records if r.get("ok") is False))
    if result["exit"] != 0:
        problems.append(f"exit code {result['exit']}")
    if failed:
        problems.append(f"{failed} check instances failed")
    ref = _ref_for(spec, reference)
    counts = {cid: c["instances"] for cid, c in summary.get("checks", {}).items()}
    if attempted != ref.get("total"):
        problems.append(f"instance count {attempted} != reference {ref.get('total')}")
    if counts != ref.get("checks"):
        problems.append("per-check instance counts differ from the reference")
    # The summary line names the backend, so the digest covers the results.
    digest = _sha(body)
    if digest != ref.get("digest"):
        problems.append("output digest differs from the reference")
    return {"attempted": max(attempted, 1), "failed": failed, "items": attempted,
            "digest": digest, "digest_checked": True, "problems": problems}


def _gate_classify(spec, result, reference):
    problems = []
    inputs = spec["graph6"]
    lines = result["stdout"].splitlines()
    if result["exit"] != 0:
        problems.append(f"exit code {result['exit']}")
    if len(lines) != len(inputs):
        problems.append(f"{len(lines)} records for {len(inputs)} inputs")
    bad = abs(len(inputs) - len(lines))
    for line, g6 in zip(lines, inputs):
        r = json.loads(line)
        n = r["order"]
        effects = r["per_vertex_effect"]
        ok = (
            r["graph6"] == g6
            and r["gamma"] <= r["gamma_r"] <= 2 * r["gamma"]
            and r["gamma_r"] + r["differential"] == n
            and len(effects) == n
            and r["in_r_uvr"] == all(e == "unchanged" for e in effects.values())
        )
        bad += not ok
    if bad:
        problems.append(f"{bad} records break an invariant")
    digest = _sha(lines)
    known = _ref_for(spec, reference).get("digests", {}).get(str(spec["seed"]))
    if known is not None and not digest.startswith(known):
        problems.append("output digest differs from the reference for this seed")
    return {"attempted": len(inputs), "failed": bad, "items": len(inputs),
            "digest": digest, "digest_checked": known is not None, "problems": problems}


def _gate_corpus(spec, result, reference):
    from romandom import labelled, write_graph6

    problems = []
    oracles = {"trees": OEIS_A000055_TREES, "connected": OEIS_A001349_CONNECTED,
               "unicyclic": OEIS_A001429_UNICYCLIC}
    attempted = failed = 0
    lines = []
    for kind, oracle in oracles.items():
        for n, graphs in sorted(result[kind].items()):
            attempted += 1
            if len(graphs) != oracle[n]:
                failed += 1
                problems.append(f"{kind} order {n}: {len(graphs)} != {oracle[n]}")
            lines.extend(f"{kind} {write_graph6(g)}" for g in graphs)
    ref = _ref_for(spec, reference)
    attempted += 1
    if len(result["script_t"]) != ref.get("script_t"):
        failed += 1
        problems.append(f"script_t: {len(result['script_t'])} != {ref.get('script_t')}")
    lines.extend(f"script_t {labelled.serialize_labelled(lt)}" for lt in result["script_t"])
    digest = _sha(lines)
    if digest != ref.get("digest"):
        problems.append("output digest differs from the reference")
    return {"attempted": attempted, "failed": failed, "items": len(lines),
            "digest": digest, "digest_checked": True, "problems": problems}
