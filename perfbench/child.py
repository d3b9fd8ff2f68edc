"""One repetition of a workload, in its own fresh interpreter.

Takes a job (JSON) as its one argument and prints one JSON object:

    mode "setup"  import the package, nothing more
    mode "work"   set-up, then the timed work, then the correctness gate
    mode "trace"  as "work", with every layer wrapped by layertrace.Tracer

run.py starts this file; it is not meant to be run by hand.  The package is
imported from the ``src`` directory of the checkout this file sits in.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> None:
    job = json.loads(sys.argv[1])
    spec = job["spec"]
    t0 = time.perf_counter()
    workloads.prepare(spec)
    setup_s = time.perf_counter() - t0
    import romandom

    out = {"setup_s": setup_s, "backend": romandom.BACKEND}
    if job["mode"] == "setup":
        print(json.dumps(out))
        return

    tracer = None
    if job["mode"] == "trace":
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    c0, w0 = time.process_time(), time.perf_counter()
    result = workloads.run(spec, fault=job.get("fault", False))
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = attributed_s = None
    if tracer is not None:
        from romandom import checks

        layers = tracer.metrics(checks.CHECK_IDS)
        attributed_s = tracer.attributed_s()
    with open(job["reference"], encoding="utf-8") as handle:
        reference = json.load(handle)
    verdict = workloads.gate(spec, result, reference)
    out.update(
        wall_s=wall, cpu_s=cpu, rss_mb=rss_mb, items=verdict["items"],
        attempted=verdict["attempted"], failed=verdict["failed"],
        problems=verdict["problems"], digest=verdict["digest"],
        digest_checked=verdict["digest_checked"],
        layers=layers, attributed_s=attributed_s,
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
