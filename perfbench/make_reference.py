#!/usr/bin/env python3
"""Record the reference outputs that the benchmark's gate compares against.

    python3 perfbench/make_reference.py [--src DIR]

Writes perfbench/reference.json: for verify-default the instance count,
per-check counts and result digest; for corpus the digest and the number of
constructed-family members; for classify-large the output digest of every
seed below workloads.CLASSIFY_REFERENCE_SEEDS.  Either kernel backend may
record it, since both must give identical output; the benchmark then
confirms the agreement on every run.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(HERE), "src"))
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import romandom

    ref = {"backend": romandom.BACKEND}
    for name in workloads.WORKLOADS:
        ref[name] = {}
    for size in workloads.SIZES:
        spec = workloads.make_spec("verify-default", 0, size)
        out = workloads.run(spec)
        summary = json.loads(out["stdout"].splitlines()[-1])
        verdict = workloads.gate(spec, out, {})
        ref["verify-default"][size] = {
            "total": summary["total"],
            "checks": {c: v["instances"] for c, v in summary["checks"].items()},
            "digest": verdict["digest"],
        }
        spec = workloads.make_spec("corpus", 0, size)
        out = workloads.run(spec)
        ref["corpus"][size] = {"script_t": len(out["script_t"]),
                               "digest": workloads.gate(spec, out, {})["digest"]}
        digests = {}
        for seed in range(workloads.CLASSIFY_REFERENCE_SEEDS):
            spec = workloads.make_spec("classify-large", seed, size)
            verdict = workloads.gate(spec, workloads.run(spec), {})
            if verdict["problems"]:
                sys.exit(f"classify-large seed {seed}: {verdict['problems']}")
            digests[str(seed)] = verdict["digest"][:16]
        ref["classify-large"][size] = {"digests": digests}
        print(f"{size}: done", file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(ref, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
