"""Span tracing of the library's public functions, installed from outside.

The traced run replaces public functions with wrappers on every package
module that holds them, so a name re-imported elsewhere (for example
``bounds.estimate_strong_modulus`` or ``fink.quad``) is traced as well and
nested calls become child spans.  Spans stay in memory as plain lists and
are written out when the run ends.  The untraced run never calls
:meth:`Tracer.install`; :func:`installed_wrappers` lets it prove that.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

MARKER = "__bench_trace__"

# Span fields, stored as lists to keep tracing cheap.
NAME, START, END, PARENT, OP, ATTRS, ERROR = range(7)

#: Bytes the dense kernel scan touches per (node, data point) pair: four
#: float64 temporaries (branch value, ``pts - t``, its power, the product).
SCAN_BYTES_PER_ENTRY = 4 * 8


def _grid_nodes(args, kwargs, result):
    return {"grid_nodes": result.grid_size}


def _witness_flops(args, kwargs, result):
    # construct_doubly_stochastic: at most m - 1 T-steps, each a dense
    # m x m product (2 m^3 flops), plus two permutation products.
    if not (kwargs.get("with_matrix") and result.matrix is not None):
        return None
    m = int(result.matrix.shape[0])
    return {"flops": 2 * m**3 * (m - 1) + 4 * m**3}


def _chain_points(args, kwargs, result):
    # Both sides are evaluated once, plus f(alpha) and f(beta).
    return {"points": args[0].size + args[1].size + 2}


def _scan_nodes(args, kwargs, result):
    m = args[0].size + args[1].size
    nodes = result.grid_size + 2 * m  # grid joined with breaks, plus right limits
    return {"nodes": nodes, "bytes": nodes * m * SCAN_BYTES_PER_ENTRY}


def _quad_neval(args, kwargs, result):
    if kwargs.get("full_output"):
        return {"neval": int(result[2]["neval"])}
    return None


def _cli_command(args, kwargs, result):
    return {"command": args[0].command}


def _report_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


#: (span name, defining module, attribute, counter).  Counters read input
#: sizes and results only; they never call back into the library.
TARGETS = (
    ("convexity.estimate_strong_modulus", "convexity", "estimate_strong_modulus", _grid_nodes),
    ("convexity.sampled_check", "convexity", "is_n_convex", None),
    ("convexity.sampled_check", "convexity", "is_n_strongly_convex", None),
    ("majorization.verify_weighted_majorization", "majorization",
     "verify_weighted_majorization", None),
    ("majorization.majorizes", "majorization", "majorizes", _witness_flops),
    ("bounds.full_chain", "bounds", "full_chain", _chain_points),
    ("divergence.get_kernel", "divergence", "get_kernel", None),
    ("divergence.csiszar_divergence", "divergence", "csiszar_divergence", None),
    ("divergence.aggregated_divergence_bounds", "divergence",
     "aggregated_divergence_bounds", None),
    ("fink.check_kernel_condition", "fink", "check_kernel_condition", _scan_nodes),
    ("fink.quad", "fink", "quad", _quad_neval),
    ("fink.sherman_difference_identity", "fink", "sherman_difference_identity", None),
    ("fink.higher_order_sherman_bound", "fink", "higher_order_sherman_bound", None),
    ("cli.run", "cli", "run", _cli_command),
    ("cli.canonical_json", "cli", "canonical_json", _report_bytes),
)

#: Validation of every StochasticMatrix, traced through its dataclass hook.
MATRIX_SPAN = "majorization.StochasticMatrix"

#: Layers whose errors come from spans; ``import`` is reported by run.py.
LAYERS = ("cli", "convexity", "majorization", "bounds", "divergence", "fink")


def _package_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "sherman_bounds" or name.startswith("sherman_bounds."))
    ]


def installed_wrappers() -> list[str]:
    """Names of trace wrappers currently reachable from the package."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if getattr(value, MARKER, False):
                found.append(f"{mod.__name__}.{attr}")
    majorization = sys.modules.get("sherman_bounds.majorization")
    if majorization is not None:
        hook = majorization.StochasticMatrix.__dict__.get("__post_init__")
        if getattr(hook, MARKER, False):
            found.append(MATRIX_SPAN)
    return found


class Tracer:
    """Collects spans of one traced phase; one instance per phase."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                span[ERROR] = exc
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if counter is not None:
                span[ATTRS] = counter(args, kwargs, result)
            return result

        setattr(wrapper, MARKER, True)
        return wrapper

    def install(self) -> None:
        """Wrap every target in the package modules imported so far."""
        modules = _package_modules()
        for span_name, module, attr, counter in TARGETS:
            owner = sys.modules.get(f"sherman_bounds.{module}")
            if owner is None:
                continue  # cli is traced only where it is imported
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, original))
        matrix_cls = sys.modules["sherman_bounds.majorization"].StochasticMatrix
        original = matrix_cls.__dict__["__post_init__"]
        setattr(matrix_cls, "__post_init__", self._wrap(MATRIX_SPAN, original, None))
        self._patched.append((matrix_cls, "__post_init__", original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def export(self) -> list[list]:
        """Spans as JSON-ready lists.

        An error becomes its type name, suffixed ``:origin`` when no child
        span raised the same exception object.
        """
        raised_below = {
            (span[PARENT], id(span[ERROR])) for span in self.spans if span[ERROR] is not None
        }
        out = []
        for index, span in enumerate(self.spans):
            row = list(span)
            if row[ERROR] is not None:
                origin = (index, id(row[ERROR])) not in raised_below
                row[ERROR] = type(row[ERROR]).__name__ + (":origin" if origin else "")
            out.append(row)
        return out


def per_layer_metrics(spans: list[list], ops: int, cli_commands=()) -> dict[str, tuple[float, str]]:
    """Aggregate exported spans of one traced phase into per-layer metrics.

    ``self_ms`` and counts are per op; ``cli.*_ms`` and ``cli.report_bytes``
    are medians per call.  ``<layer>.errors`` counts spans where an error
    originated.
    """
    # Op -1 is the untimed warm-up; its spans stay in the list (parents are
    # list indices) but are not counted.
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(lambda: defaultdict(float))
    inclusive = defaultdict(list)
    errors = defaultdict(int)
    for index, span in enumerate(spans):
        if span[OP] < 0:
            continue
        name = span[NAME]
        calls[name] += 1
        self_s[name] += span[END] - span[START] - child_time[index]
        if span[ATTRS]:
            for key, value in span[ATTRS].items():
                if isinstance(value, (int, float)):
                    attrs[name][key] += value
        if name == "cli.run":
            inclusive[f"cli.run_ms.{span[ATTRS]['command']}"].append(span[END] - span[START])
        elif name == "cli.canonical_json":
            inclusive["cli.canonical_json_ms"].append(span[END] - span[START])
            inclusive["cli.report_bytes"].append(span[ATTRS]["bytes"])
        if span[ERROR] and span[ERROR].endswith(":origin"):
            errors[name.split(".")[0]] += 1

    per_op = 1.0 / max(ops, 1)
    metrics: dict[str, tuple[float, str]] = {}

    def self_ms(name):
        metrics[f"{name}.self_ms"] = (self_s[name] * 1e3 * per_op, "ms/op")

    def call_count(name):
        metrics[f"{name}.calls"] = (calls[name] * per_op, "count/op")

    def median(key, scale, unit):
        values = inclusive.get(key)
        metrics[key] = (statistics.median(values) * scale if values else 0.0, unit)

    for command in cli_commands:
        median(f"cli.run_ms.{command}", 1e3, "ms")
    median("cli.canonical_json_ms", 1e3, "ms")
    median("cli.report_bytes", 1, "B")

    for name in ("convexity.estimate_strong_modulus", "convexity.sampled_check"):
        self_ms(name)
        call_count(name)
    metrics["convexity.modulus_grid_nodes"] = (
        attrs["convexity.estimate_strong_modulus"]["grid_nodes"] * per_op, "count/op")

    self_ms("majorization.verify_weighted_majorization")
    call_count("majorization.verify_weighted_majorization")
    self_ms("majorization.majorizes")
    metrics["majorization.witness_flops_computed"] = (
        attrs["majorization.majorizes"]["flops"] * per_op, "flop/op")
    self_ms(MATRIX_SPAN)

    self_ms("bounds.full_chain")
    call_count("bounds.full_chain")
    metrics["bounds.evaluated_points"] = (attrs["bounds.full_chain"]["points"] * per_op, "count/op")

    self_ms("divergence.get_kernel")
    call_count("divergence.get_kernel")
    self_ms("divergence.csiszar_divergence")
    self_ms("divergence.aggregated_divergence_bounds")

    self_ms("fink.check_kernel_condition")
    call_count("fink.check_kernel_condition")
    scan = attrs["fink.check_kernel_condition"]
    metrics["fink.kernel_scan_nodes"] = (scan["nodes"] * per_op, "count/op")
    metrics["fink.kernel_scan_bytes_computed"] = (scan["bytes"] * per_op, "B/op")
    metrics["fink.quad.calls"] = (calls["fink.quad"] * per_op, "count/op")
    metrics["fink.quad.neval"] = (attrs["fink.quad"]["neval"] * per_op, "count/op")
    self_ms("fink.quad")
    self_ms("fink.sherman_difference_identity")
    self_ms("fink.higher_order_sherman_bound")
    scans, quads = _work_under_bound(spans)
    bounds = calls["fink.higher_order_sherman_bound"]
    metrics["fink.kernel_scans_per_bound"] = (scans / bounds if bounds else 0.0, "count")
    metrics["fink.quad_calls_per_bound"] = (quads / bounds if bounds else 0.0, "count")

    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (float(errors[layer]), "count")
    return metrics


def _work_under_bound(spans) -> tuple[int, int]:
    """Kernel scans and quad calls made inside higher_order_sherman_bound."""
    scans = quads = 0
    for span in spans:
        if span[OP] < 0 or span[NAME] not in ("fink.check_kernel_condition", "fink.quad"):
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != "fink.higher_order_sherman_bound":
            parent = spans[parent][PARENT]
        if parent >= 0:
            if span[NAME] == "fink.quad":
                quads += 1
            else:
                scans += 1
    return scans, quads
