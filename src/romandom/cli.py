"""Command-line surface: compute, classify, generate, verify, explore.

Graphs come in as graph6 lines from a file or standard input; results go
out as JSON lines (a human-readable table for verify sits behind a flag).
Exit codes: 0 all good, 1 a verification check failed, 2 usage or parse
errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checks, classify, labelled, solvers, streams
from .errors import GraphError, LimitExceededError, RomandomError
from .graphs import write_graph6
from .kernels import BACKEND

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _input_graphs(path: str):
    """(line number, graph) pairs from a path or '-' for stdin."""
    if path == "-":
        yield from streams.iter_graph6_lines(sys.stdin)
        return
    try:
        handle = open(path, "r", encoding="ascii")
    except OSError as exc:
        raise RomandomError(f"cannot read {path}: {exc.strerror}") from exc
    with handle:
        yield from streams.iter_graph6_lines(handle)


def _cmd_compute(args) -> int:
    for lineno, g in _input_graphs(args.input):
        record = {"graph6": write_graph6(g), "order": g.order}
        if args.what == "gamma":
            record["gamma"] = solvers.domination_number(g, args.limit)
        elif args.what == "gamma-r":
            record["gamma_r"] = solvers.roman_domination_number(g, args.limit)
        elif args.what == "differential":
            record["differential"] = solvers.differential_value(g, args.limit)
        elif args.what == "eds":
            record["efficient_dominating_sets"] = [
                sorted(s) for s in solvers.efficient_dominating_sets(g, args.limit)
            ]
        else:  # bondage
            if g.order == 0 or g.max_degree() < 2:
                raise GraphError(
                    f"line {lineno}: bondage needs maximum degree at least 2"
                )
            record["bondage"] = classify.roman_bondage_number(g, limit=args.limit)
        _emit(record)
    return EXIT_OK


def _cmd_classify(args) -> int:
    for lineno, g in _input_graphs(args.input):
        try:
            report = classify.build_class_report(
                g, args.limit, with_bondage=not args.no_bondage
            )
        except LimitExceededError as exc:
            raise LimitExceededError(f"line {lineno}: {exc}") from exc
        record = {"graph6": write_graph6(g), "order": g.order}
        record.update(report.to_json_dict())
        _emit(record)
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.kind == "t-trees":
        for lt in labelled.generate_script_t(args.max_n):
            sys.stdout.write(labelled.serialize_labelled(lt) + "\n")
        return EXIT_OK
    if args.kind == "free-trees":
        stream = streams.free_trees(args.n)
    else:
        stream = streams.unicyclic_graphs(args.n)
    lines = sorted(write_graph6(g) for g in stream)
    for line in lines:
        sys.stdout.write(line + "\n")
    return EXIT_OK


def _format_table(counts: dict[str, list[int]], total: int, failed: int) -> str:
    rows = []
    for check_id, (ran, bad) in sorted(counts.items()):
        status = "ok" if bad == 0 else f"{bad} FAILED"
        rows.append(f"{check_id:<12} {ran:>6} instances  {status}")
    rows.append(
        f"{'total':<12} {total:>6} instances  "
        + ("all passed" if not failed else f"{failed} FAILED")
    )
    return "\n".join(rows)


def _cmd_verify(args) -> int:
    """Write each record as the suite makes it; keep only the per-check
    counts, and for --table the failures."""
    limits = checks.Limits(
        trees_max_n=args.trees_max_n,
        graphs_max_n=args.graphs_max_n,
        unicyclic_n=args.unicyclic_n,
    )
    counts: dict[str, list[int]] = {}  # check id -> [instances, failed]
    failures: list[checks.CheckResult] = []

    def record(r: checks.CheckResult) -> None:
        tally = counts.setdefault(r.check_id, [0, 0])
        tally[0] += 1
        tally[1] += not r.ok
        if not args.table:
            _emit(r.to_json_dict(with_timing=args.timings))
        elif not r.ok:
            failures.append(r)

    checks.run_checks(args.suite, limits, args.inject_fault, record)
    total = sum(ran for ran, _ in counts.values())
    failed = sum(bad for _, bad in counts.values())
    if args.table:
        sys.stdout.write(_format_table(counts, total, failed) + "\n")
        for r in failures:
            sys.stdout.write(f"FAIL {r.check_id} {r.instance} witness={r.witness}\n")
    else:
        summary = {
            "summary": True,
            "suite": args.suite,
            "backend": BACKEND,
            "total": total,
            "failed": failed,
            "checks": {
                cid: {"instances": ran, "failed": bad}
                for cid, (ran, bad) in sorted(counts.items())
            },
        }
        _emit(summary)
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def _cmd_explore(args) -> int:
    if args.problem == "unicyclic":
        members = [
            write_graph6(g)
            for g in streams.unicyclic_graphs(args.n)
            if classify.in_class_r_uvr(g, solvers.SWEEP_EXACT_LIMIT)
        ]
        _emit({"problem": "unicyclic", "order": args.n, "members": members,
               "exhaustive": True})
        return EXIT_OK
    # sizes: largest edge count among stable graphs of the given order and
    # Roman domination number
    n = args.n
    if n > streams.CONNECTED_GRAPH_LIMIT:
        raise GraphError(
            f"sizes exploration is exhaustive only up to order {streams.CONNECTED_GRAPH_LIMIT}"
        )
    best: dict[int, tuple[int, str]] = {}
    for g in streams.connected_graphs(n):
        if not classify.in_class_r_uvr(g, solvers.SWEEP_EXACT_LIMIT):
            continue
        k = solvers.roman_domination_number(g, solvers.SWEEP_EXACT_LIMIT)
        if k not in best or g.size > best[k][0]:
            best[k] = (g.size, write_graph6(g))
    wanted = [args.k] if args.k is not None else sorted(best)
    for k in wanted:
        record = {"problem": "sizes", "order": n, "gamma_r": k, "exhaustive": True}
        if k in best:
            record["max_size"], record["witness"] = best[k]
        else:
            record["max_size"] = None
        _emit(record)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="romandom",
        description="Exact Roman domination toolkit and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute one invariant per input graph")
    compute.add_argument(
        "what", choices=["gamma", "gamma-r", "differential", "bondage", "eds"]
    )
    compute.add_argument("input", nargs="?", default="-",
                         help="graph6 file, or - for stdin (default)")
    compute.add_argument("--limit", type=int, default=solvers.DEFAULT_EXACT_LIMIT)
    compute.set_defaults(func=_cmd_compute)

    cls = sub.add_parser("classify", help="full invariant/class report per graph")
    cls.add_argument("input", nargs="?", default="-")
    cls.add_argument("--limit", type=int, default=solvers.DEFAULT_EXACT_LIMIT)
    cls.add_argument("--no-bondage", action="store_true",
                     help="skip the bondage search")
    cls.set_defaults(func=_cmd_classify)

    gen = sub.add_parser("generate", help="emit generated instance families")
    gen.add_argument("kind", choices=["t-trees", "free-trees", "unicyclic"])
    gen.add_argument("--n", type=int, help="order (free-trees, unicyclic)")
    gen.add_argument("--max-n", type=int, dest="max_n",
                     help="maximum order (t-trees)")
    gen.set_defaults(func=_cmd_generate)

    verify = sub.add_parser("verify", help="run the theorem-check suites")
    verify.add_argument("--suite", default="all",
                        help="check id or 'all' (default)")
    verify.add_argument("--trees-max-n", type=int, default=checks.Limits.trees_max_n)
    verify.add_argument("--graphs-max-n", type=int, default=checks.Limits.graphs_max_n)
    verify.add_argument("--unicyclic-n", type=int, default=checks.Limits.unicyclic_n)
    verify.add_argument("--table", action="store_true",
                        help="human-readable summary instead of JSON lines")
    verify.add_argument("--timings", action="store_true",
                        help="include per-instance timings (breaks byte-reproducibility)")
    verify.add_argument("--inject-fault", choices=[solvers.FAULT_GAMMA_R_PLUS_ONE],
                        default=None,
                        help="corrupt the gamma_R solver to prove the harness detects it")
    verify.set_defaults(func=_cmd_verify)

    explore = sub.add_parser("explore", help="searches for the open problems "
                             "(evidence only, nothing asserted)")
    explore.add_argument("problem", choices=["unicyclic", "sizes"])
    explore.add_argument("--n", type=int, required=True)
    explore.add_argument("--k", type=int, default=None,
                         help="restrict sizes exploration to one gamma_R value")
    explore.set_defaults(func=_cmd_explore)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate":
        if args.kind == "t-trees" and args.max_n is None:
            parser.error("t-trees needs --max-n")
        if args.kind in ("free-trees", "unicyclic") and args.n is None:
            parser.error(f"{args.kind} needs --n")
    if args.command == "verify" and args.suite != "all" and args.suite not in checks.REGISTRY:
        parser.error(f"unknown check id {args.suite!r}; known: {', '.join(checks.CHECK_IDS)}")
    try:
        return args.func(args)
    except (RomandomError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
