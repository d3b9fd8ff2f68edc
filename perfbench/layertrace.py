"""Per-layer tracing from outside the package.

Every public function of the layer modules is replaced, in every layer
module that holds a reference to it, by a wrapper that records calls and
self time (time inside the call minus time inside nested traced calls).
Generators and instance streams are lazy, so their iteration is timed, one
span per item, rather than their construction.  Graph methods and the bit
helpers ``bits`` and ``mask_of`` are not wrapped: they run millions of
times per sweep, and their cost lands in the self time of their caller.

Nothing in the package changes; the wrappers live only in the traced
interpreter.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
import time
import types
from collections import Counter

LAYERS = ("cli", "checks", "classify", "labelled", "solvers", "streams", "graphs", "kernels")

KERNEL_ENTRY_POINTS = (
    "min_weight_cover", "min_cover_masks", "min_dominating_size", "min_dominating_masks",
    "max_differential", "max_differential_masks", "efficient_dominating_masks",
    "canonical_permutation", "canonical_signature", "connected_canonical_signatures",
)
SCAN_FUNCTIONS = KERNEL_ENTRY_POINTS[:7]
CANON_FUNCTIONS = KERNEL_ENTRY_POINTS[7:]
# Scans below this order count as small: compiled code pays off only above it.
SMALL_SCAN_ORDER = 12
# Solvers whose result is a single value; repeated inputs show as a low
# distinct ratio.
VALUE_SOLVERS = ("domination_number", "roman_domination_number", "differential_value")
NOT_TRACED = {"graphs": ("bits", "mask_of")}
# cli.main spans the whole run, so cli's spans cover only its own work:
# building the argument parser and emitting JSON.  The rest of main's glue
# (parse_args, the output loop) is small and shows as unattributed time.
CLI_TRACED = ("build_parser", "_emit")
# The modules that define the kernels; their own names stay unwrapped.
KERNEL_BACKENDS = ("romandom._kernels_py", "romandom._kernels")
CORPUS_CACHES = ("_connected_upto", "_trees_range", "_unicyclic_at", "_script_members")


def stale_references(originals: set[int]) -> list[str]:
    """Names in the package, outside the kernel backends that define the
    kernels, that still hold one of ``originals`` (ids of traced functions):
    module attributes and the items of module-level dicts, lists and tuples.
    A call through such a name would escape its layer's figures."""
    found = []
    for modname, mod in sorted(sys.modules.items()):
        in_package = modname == "romandom" or modname.startswith("romandom.")
        if not in_package or modname in KERNEL_BACKENDS:
            continue
        for name, value in vars(mod).items():
            items = ([value] + (list(value.values()) if isinstance(value, dict) else
                                list(value) if isinstance(value, (list, tuple)) else []))
            if any(id(item) in originals for item in items):
                found.append(f"{modname}.{name}")
    return found


class Tracer:
    def __init__(self):
        self.records = {}            # "layer.fn" -> [calls, self seconds]
        self.depth = Counter()       # layer -> open spans
        self._child = [0.0]          # nested-span seconds per open span; [0] is the root
        self.scan_subsets = 0
        self.small_scans = 0
        self.classify_outer = 0
        self.classify_scans = 0
        self.stream_items = 0
        self.value_inputs = set()
        self.value_calls = 0
        self.corpus_s = 0.0
        self.check_s = {}
        self.check_instances = 0

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        rec = self.records.setdefault(key, [0, 0.0])
        depth, child, clock = self.depth, self._child, time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            rec[0] += 1
            depth[layer] += 1
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[1] += dt - child.pop()
                child[-1] += dt
                depth[layer] -= 1

        def lazy(*args, **kwargs):
            rec[0] += 1
            return tracer._iterate(rec, layer, fn(*args, **kwargs))

        def stream(*args, **kwargs):
            out = span(*args, **kwargs)
            if hasattr(out, "_factory"):  # an InstanceStream: time its iteration
                factory = out._factory
                out._factory = lambda: tracer._iterate(rec, layer, factory())
            return out

        def scan(rows):
            n = len(rows)
            tracer.scan_subsets += 1 << n
            tracer.small_scans += n < SMALL_SCAN_ORDER
            tracer.classify_scans += depth["classify"] > 0
            return span(rows)

        def value(g, *args, **kwargs):
            tracer.value_calls += 1
            tracer.value_inputs.add((name, g))
            return span(g, *args, **kwargs)

        def classify(*args, **kwargs):
            tracer.classify_outer += not depth["classify"]
            return span(*args, **kwargs)

        if inspect.isgeneratorfunction(fn):
            traced = lazy
        elif layer == "streams":
            traced = stream
        elif layer == "kernels" and name in SCAN_FUNCTIONS:
            traced = scan
        elif layer == "solvers" and name in VALUE_SOLVERS:
            traced = value
        elif layer == "classify":
            traced = classify
        else:
            traced = span
        traced.__wrapped__ = fn
        return traced

    def _iterate(self, rec, layer, it):
        depth, child, clock = self.depth, self._child, time.perf_counter
        while True:
            depth[layer] += 1
            child.append(0.0)
            t0 = clock()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                dt = clock() - t0
                rec[1] += dt - child.pop()
                child[-1] += dt
                depth[layer] -= 1
            if layer == "streams" and not depth["streams"]:
                self.stream_items += 1
            yield item

    def _timed_total(self, fn, add):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                add(time.perf_counter() - t0)
        return timed

    # -- installing ------------------------------------------------------------

    def install(self):
        """Wrap the layers in this interpreter.  Call once, before the work."""
        import romandom

        modules = {layer: importlib.import_module(f"romandom.{layer}") for layer in LAYERS}
        checks = modules["checks"]
        wrappers = {}
        for layer, mod in modules.items():
            if layer == "kernels":
                names = KERNEL_ENTRY_POINTS
            elif layer == "cli":
                names = CLI_TRACED
            else:
                names = [n for n, f in vars(mod).items()
                         if not n.startswith("_") and isinstance(f, types.FunctionType)
                         and f.__module__ == mod.__name__
                         and n not in NOT_TRACED.get(layer, ())]
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = self._wrap(layer, name, fn)
        # Rebind every reference, including names imported from one layer
        # into another (checks imports connected_components directly) and
        # tables of functions.  Any callable is rebound, not only Python
        # functions: the compiled kernels are Cython functions.
        for mod in [romandom, *modules.values()]:
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, name, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if id(item) in wrappers:
                            value[key] = wrappers[id(item)]
        stale = stale_references(set(wrappers))
        if stale:
            raise RuntimeError("traced functions still reachable unwrapped via "
                               + ", ".join(stale))

        def add_corpus(dt):
            self.corpus_s += dt
        for name in CORPUS_CACHES:
            setattr(checks, name, self._timed_total(getattr(checks, name), add_corpus))
        for cid, check in list(checks.REGISTRY.items()):
            checks.REGISTRY[cid] = dataclasses.replace(
                check, cases=self._timed_cases(cid, check.cases))

    def _timed_cases(self, cid, cases):
        tracer = self

        def timed(limits):
            # run_suite runs each case between two steps of this generator,
            # so the span from first step to exhaustion is the whole check.
            t0 = time.perf_counter()
            try:
                for case in cases(limits):
                    tracer.check_instances += 1
                    yield case
            finally:
                tracer.check_s[cid] = tracer.check_s.get(cid, 0.0) + time.perf_counter() - t0
        return timed

    # -- results -----------------------------------------------------------------

    def layer_self(self, layer) -> float:
        return sum(r[1] for k, r in self.records.items() if k.startswith(layer + "."))

    def attributed_s(self) -> float:
        return sum(r[1] for r in self.records.values())

    def layer_calls(self, layer) -> int:
        return sum(r[0] for k, r in self.records.items() if k.startswith(layer + "."))

    def metrics(self, check_ids) -> dict:
        """Per-layer figures as plain numbers keyed by metric name."""
        out = {}
        calls = Counter({k: r[0] for k, r in self.records.items()})
        self_s = Counter({k: r[1] for k, r in self.records.items()})
        scan_self = sum(self_s[f"kernels.{f}"] for f in SCAN_FUNCTIONS)
        out["kernels.scan.calls"] = sum(calls[f"kernels.{f}"] for f in SCAN_FUNCTIONS)
        out["kernels.scan.subsets"] = self.scan_subsets
        out["kernels.scan.self_s"] = scan_self
        out["kernels.scan.ns_per_subset"] = scan_self * 1e9 / self.scan_subsets if self.scan_subsets else 0.0
        out["kernels.scan.small_calls"] = self.small_scans
        for f in KERNEL_ENTRY_POINTS:
            out[f"kernels.{f}.calls"] = calls[f"kernels.{f}"]
            out[f"kernels.{f}.self_s"] = self_s[f"kernels.{f}"]
        out["kernels.canon.calls"] = sum(calls[f"kernels.{f}"] for f in CANON_FUNCTIONS)
        out["kernels.canon.self_s"] = sum(self_s[f"kernels.{f}"] for f in CANON_FUNCTIONS)
        out["graphs.self_s"] = self.layer_self("graphs")
        out["graphs.calls"] = self.layer_calls("graphs")
        for f in ("build_graph", "connected_components", "canonical_form"):
            out[f"graphs.{f}.calls"] = calls[f"graphs.{f}"]
        out["solvers.self_s"] = self.layer_self("solvers")
        out["solvers.calls"] = self.layer_calls("solvers")
        out["solvers.is_dominating.calls"] = calls["solvers.is_dominating"]
        out["solvers.distinct_ratio"] = (
            len(self.value_inputs) / self.value_calls if self.value_calls else 0.0)
        out["classify.self_s"] = self.layer_self("classify")
        out["classify.calls"] = self.layer_calls("classify")
        out["classify.scans_per_graph"] = (
            self.classify_scans / self.classify_outer if self.classify_outer else 0.0)
        out["labelled.self_s"] = self.layer_self("labelled")
        out["labelled.calls"] = self.layer_calls("labelled")
        out["checks.self_s"] = self.layer_self("checks")
        out["checks.instances"] = self.check_instances
        out["checks.corpus_s"] = self.corpus_s
        for cid in check_ids:
            out[f"checks.{cid}.s"] = self.check_s.get(cid, 0.0)
        out["streams.self_s"] = self.layer_self("streams")
        out["streams.items"] = self.stream_items
        out["cli.self_s"] = self.layer_self("cli")
        return out
