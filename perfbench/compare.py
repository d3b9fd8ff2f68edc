#!/usr/bin/env python3
"""Compare two sets of benchmark records, such as a parent and a change.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records run.py writes to ``.perfbench_out/``.  For
every workload and metric it prints the median of each side, the change as
a share of the base median, and, for end-to-end metrics, whether the change
is worse than the base by more than the bound in BENCHMARK.json.  Records
from different kernel backends are refused: pure against compiled kernels
would show as a 2x change that no code change made.  So are records taken
with different numbers of usable CPUs, since run.py runs one repetition per
usable CPU at once.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str):
    runs = defaultdict(list)
    hosts = set()
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        stamp = record["stamp"]
        hosts.add((stamp["backend"], stamp["cpus_usable"]))
        runs[(stamp["workload"], stamp["size"], record["trace"])].append(record)
    return runs, hosts


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    (base, base_hosts), (new, new_hosts) = load(argv[0]), load(argv[1])
    hosts = base_hosts | new_hosts
    for i, what in enumerate(("backends", "usable CPU counts")):
        seen = {host[i] for host in hosts}
        if len(seen) > 1:
            sys.stderr.write(f"refusing to compare records from {what} {sorted(seen)}\n")
            return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rules = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    for key in sorted(set(base) & set(new)):
        print(f"== {key[0]} ({key[1]}, trace {key[2]}): "
              f"{len(base[key])} base runs, {len(new[key])} new runs")
        for name in sorted(base[key][0]["metrics"]):
            b = statistics.median(r["metrics"][name]["value"] for r in base[key])
            n = statistics.median(r["metrics"][name]["value"] for r in new[key])
            rule = rules[name]
            change = (n - b) / b if b else 0.0
            worse = change if rule["better"] == "lower" else -change
            flag = ""
            if "bound" in rule and worse > rule["bound"]:
                flag = f"  WORSE than bound {rule['bound']}"
            print(f"  {name:<44} {b:>12.6g} -> {n:>12.6g} {rule['unit']:<8} {change:+8.2%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
