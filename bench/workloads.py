"""The benchmark's workloads: seeded inputs, the timed op and its checks.

Every workload is a closed loop with one caller.  Input ``i`` comes from
``default_rng([seed, i + 1])``, so a seed fixes every input no matter how
many ops a run completes.  Sizes follow fixed schedules and only values
depend on the seed, which keeps the cost mix equal across seeds.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
import sherman_bounds as sb

BENCH_DIR = Path(__file__).resolve().parent

#: Catalog functions whose order-2 modulus the oracles know in closed form.
FUNCTIONS = ("square", "exp", "xlogx", "neg_log", "pow:3")

#: Strongly convex divergence kernels with closed-form moduli.
KERNELS = ("kl", "hellinger", "triangular", "chi_square", "bhattacharya", "renyi:2")

#: Data range of chain instances; positive so every catalog function applies.
POINT_RANGE = (0.5, 3.0)

#: Fixed intervals of the specs and kernels that bulk_large and identity reuse.
UNIT_INTERVAL = (0.0, 1.0)
RATIO_INTERVAL = (0.05, 20.0)
BULK_KERNELS = ("kl", "hellinger", "triangular")

CLI_COMMANDS = ("chain", "divergence", "majorize", "verify-identity")


def build_fixtures(name: str) -> dict:
    """Specs, kernels and certificates that a workload builds once and reuses."""
    if name == "cli":
        import sherman_bounds.cli  # noqa: F401  (the CLI module is not part of the package import)

        return {}
    if name == "bulk_large":
        spec = sb.function_from_name("exp", UNIT_INTERVAL)
        return {
            "spec": spec,
            "certificate": sb.estimate_strong_modulus(spec, 2),
            "kernels": {key: sb.get_kernel(key, RATIO_INTERVAL) for key in BULK_KERNELS},
        }
    if name == "identity":
        spec = sb.function_from_name("exp", UNIT_INTERVAL)
        return {"spec": spec, "moduli": {n: sb.estimate_strong_modulus(spec, n).modulus for n in (2, 4)}}
    return {}


def child_env() -> dict:
    """Environment for child interpreters: ``src/`` first on the path."""
    env = dict(os.environ)
    src = str(BENCH_DIR.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i + 1])


def _probability(rng, size):
    raw = rng.uniform(0.05, 1.0, size)
    return raw / raw.sum()


def _row_stochastic(rng, rows, cols):
    raw = rng.uniform(0.01, 1.0, (rows, cols))
    return raw / raw.sum(axis=1, keepdims=True)


def _column_stochastic(rng, rows, cols):
    raw = rng.uniform(0.01, 1.0, (rows, cols))
    return raw / raw.sum(axis=0, keepdims=True)


def _doubly_stochastic(rng, size):
    """Convex combination of ``size + 2`` random permutation matrices."""
    out = np.zeros((size, size))
    for coeff in rng.dirichlet(np.ones(size + 2)):
        out[np.arange(size), rng.permutation(size)] += coeff
    return out


def _weighted_pair(rng, rows, cols, point_range):
    """Verified weighted-majorized pair ``(x, a), (y, b)`` with witness ``W``."""
    witness = _row_stochastic(rng, rows, cols)
    x = rng.uniform(*point_range, cols)
    b = rng.uniform(0.1, 2.0, rows)
    return x, b @ witness, witness @ x, b, witness


def _hull(*arrays):
    return float(min(a.min() for a in arrays)), float(max(a.max() for a in arrays))


def _vectors(x, a, y, b, interval):
    return sb.WeightedVector(x, a, interval), sb.WeightedVector(y, b, interval)


class BulkLarge:
    """One large dataset per op; the divergence kernel cycles through three.

    The majorized pair has one size, so every op costs about the same and
    the median latency sits inside one cluster of op times, not on the
    edge between two.
    """

    name = "bulk_large"
    DIVERGENCE_SIZE = 100_000
    AGGREGATE_ROWS = 16
    CHAIN_SHAPE = (500, 2000)
    MAJORIZE_SIZE = 250

    def __init__(self, seed, fixtures, workdir):
        self.seed = seed
        self.fixtures = fixtures

    def make_input(self, i):
        rng = _rng(self.seed, i)
        kernel = BULK_KERNELS[i % len(BULK_KERNELS)]
        m = self.DIVERGENCE_SIZE
        p = _probability(rng, m)
        scaled = p * rng.uniform(0.25, 4.0, m)
        q = scaled / scaled.sum()
        x, a, y, b, witness = _weighted_pair(rng, *self.CHAIN_SHAPE, UNIT_INTERVAL)
        mx = rng.uniform(0.0, 1.0, self.MAJORIZE_SIZE)
        return {
            "kernel": kernel, "p": p, "q": q,
            "R": _column_stochastic(rng, self.AGGREGATE_ROWS, m),
            "x": x, "a": a, "y": y, "b": b, "W": witness,
            "mx": mx, "my": _doubly_stochastic(rng, self.MAJORIZE_SIZE) @ mx,
        }

    def run(self, inp):
        kernel = self.fixtures["kernels"][inp["kernel"]]
        pair = sb.DistributionPair(inp["p"], inp["q"])
        value = sb.csiszar_divergence(pair, kernel)
        total = sb.divergence_bounds(pair, kernel)
        merged = sb.aggregated_divergence_bounds(
            pair, sb.StochasticMatrix(inp["R"], "column"), kernel)
        xv, yv = _vectors(inp["x"], inp["a"], inp["y"], inp["b"], UNIT_INTERVAL)
        chain = sb.full_chain(
            xv, yv, sb.StochasticMatrix(inp["W"], "row"), self.fixtures["spec"],
            certificate=self.fixtures["certificate"],
        )
        return value, total, merged, chain, sb.majorizes(inp["mx"], inp["my"], with_matrix=True)

    def check(self, inp, out):
        value, total, merged, chain, cert = out
        name, p, q = inp["kernel"], inp["p"], inp["q"]
        lo, hi = RATIO_INTERVAL
        problems = oracles.check_divergence(value, name, p, q)
        problems += oracles.check_sandwich(total, name, p, q, np.ones((1, p.size)), lo, hi,
                                           sb.CHAIN_SLACK)
        problems += oracles.check_sandwich(merged, name, p, q, inp["R"], lo, hi, sb.CHAIN_SLACK)
        problems += oracles.check_chain(chain, "exp", inp["x"], inp["a"], inp["y"], inp["b"],
                                        *UNIT_INTERVAL, sb.CHAIN_SLACK)
        if not cert.holds or cert.matrix is None:
            return problems + [f"majorized pair reported {cert.relation} without a witness"]
        return problems + oracles.check_witness(cert.matrix.entries, inp["mx"], inp["my"])


class Identity:
    """Order-n identity, higher-order bounds and a large kernel-sign scan."""

    name = "identity"
    PAIR_SHAPE = (50, 200)
    SCAN_SHAPE = (500, 1000)

    def __init__(self, seed, fixtures, workdir):
        self.seed = seed
        self.spec = fixtures["spec"]
        self.moduli = fixtures["moduli"]

    def make_input(self, i):
        rng = _rng(self.seed, i)
        x, a, y, b, _ = _weighted_pair(rng, *self.PAIR_SHAPE, UNIT_INTERVAL)
        sx, sa, sy, sbw, _ = _weighted_pair(rng, *self.SCAN_SHAPE, UNIT_INTERVAL)
        return {"pair": (x, a, y, b), "scan": (sx, sa, sy, sbw)}

    def run(self, inp):
        xv, yv = _vectors(*inp["pair"], UNIT_INTERVAL)
        bounds = {n: sb.higher_order_sherman_bound(xv, yv, self.spec, n, self.moduli[n])
                  for n in (2, 4)}
        report = sb.sherman_difference_identity(xv, yv, self.spec, 3)
        sx, sy = _vectors(*inp["scan"], UNIT_INTERVAL)
        return bounds, report, sb.check_kernel_condition(sx, sy, 4)

    def check(self, inp, out):
        bounds, report, scan = out
        x, a, y, b = inp["pair"]
        lo, hi = UNIT_INTERVAL
        problems = []
        for n, bound in bounds.items():
            c = self.moduli[n]
            problems += oracles.check_exact_modulus(f"order-{n} exp", c, math.exp(lo) / math.factorial(n))
            problems += oracles.check_exp_identity(
                f"order-{n} bound", bound.lhs_with_correction, bound.rhs_boundary,
                x, a, y, b, lo, hi, n, c)
            if (bound.kernel_condition != "nonnegative" or not bound.holds
                    or bound.lhs_with_correction < bound.rhs_boundary - 1e-9):
                problems.append(f"order-{n} bound: {bound}")
        problems += oracles.check_exp_identity(
            "order-3 identity", report.lhs, report.boundary_terms, x, a, y, b, lo, hi, 3)
        integral = oracles.exp_identity_integral(x, a, y, b, lo, hi, 3)
        budget = oracles.RESIDUAL_FACTOR * oracles.QUAD_TOL
        if abs(report.integral_term - integral) > budget:
            problems.append(f"identity integral {report.integral_term!r}, oracle {integral!r}")
        if abs(report.residual) > budget or abs(report.lhs - report.boundary_terms - integral) > budget:
            problems.append(f"identity residual {report.residual!r} exceeds {budget}")
        if scan.classification != "nonnegative":
            problems.append(f"even-order kernel on a verified pair classified {scan.classification}")
        return problems


class Cli:
    """One ``python -m sherman_bounds.cli`` subprocess per op.

    Subcommands rotate round-robin; every sixth op reruns an earlier input
    of its cycle and must reproduce that report byte for byte.  In the
    traced phase each op runs ``cli_child.py`` instead, which traces the
    same entry point and hands its spans back through a file.
    """

    name = "cli"
    SCHEDULE = ("chain", "divergence-json", "divergence-csv", "majorize", "verify-identity", "rerun")

    def __init__(self, seed, fixtures, workdir):
        self.seed = seed
        self.workdir = workdir
        self.root = BENCH_DIR.parent
        self.env = child_env()
        self.reports: dict[int, bytes] = {}
        self.inputs: dict[int, dict] = {}
        self.traced = False
        self.spans: list[list] = []

    def _write(self, i, kind, data, suffix=".json"):
        path = self.workdir / f"{i + 1}-{kind}{suffix}"
        path.write_text(data if suffix == ".csv" else json.dumps(data), encoding="utf-8")
        return str(path.relative_to(self.root))

    def make_input(self, i):
        self.current_op = i
        slot = (i + 1) % len(self.SCHEDULE)
        kind = self.SCHEDULE[slot]
        cycle = (i + 1) // len(self.SCHEDULE)
        if kind == "rerun":
            target = i - slot + cycle % (len(self.SCHEDULE) - 1)
            return dict(self.inputs[target], rerun_of=target)
        rng = _rng(self.seed, i)
        if kind == "chain":
            x, a, y, b, witness = _weighted_pair(rng, 4, 8, POINT_RANGE)
            function = FUNCTIONS[cycle % len(FUNCTIONS)]
            path = self._write(i, kind, {"x": x.tolist(), "b": b.tolist(), "A": witness.tolist()})
            inp = {"argv": ["chain", "--input", path, "--kernel", function],
                   "function": function, "x": x, "b": b, "W": witness}
        elif kind.startswith("divergence"):
            m = 64
            p, q = _probability(rng, m), _probability(rng, m)
            lo, hi = _hull(q / p)
            kernel = KERNELS[cycle % len(KERNELS)]
            if kind == "divergence-csv":
                rows = np.ones((1, m))
                text = "p,q\n" + "".join(f"{pi!r},{qi!r}\n" for pi, qi in zip(p.tolist(), q.tolist()))
                path = self._write(i, kind, text, ".csv")
            else:
                rows = _column_stochastic(rng, 4, m)
                path = self._write(i, kind, {"p": p.tolist(), "q": q.tolist(), "R": rows.tolist()})
            inp = {"argv": ["divergence", "--input", path, "--kernel", kernel,
                            "--interval", f"{lo!r},{hi!r}"],
                   "kernel": kernel, "p": p, "q": q, "R": rows, "ratio_hull": (lo, hi)}
        elif kind == "majorize":
            x = rng.uniform(0.0, 1.0, 64)
            y = _doubly_stochastic(rng, 64) @ x
            path = self._write(i, kind, {"x": x.tolist(), "y": y.tolist()})
            inp = {"argv": ["majorize", "--input", path], "x": x, "y": y}
        else:
            x, a, y, b, witness = _weighted_pair(rng, 4, 8, POINT_RANGE)
            path = self._write(i, kind, {"x": x.tolist(), "a": a.tolist(), "y": y.tolist(),
                                         "b": b.tolist(), "A": witness.tolist()})
            inp = {"argv": ["verify-identity", "--input", path, "--kernel", "exp", "--order", "3"],
                   "x": x, "a": a, "y": y, "b": b}
        inp.update(kind=kind, op=i)
        self.inputs[i] = inp
        self.inputs.pop(i - 2 * len(self.SCHEDULE), None)
        return inp

    def run(self, inp):
        if self.traced:
            spans_path = self.workdir / "spans.json"
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans_path), *inp["argv"]]
        else:
            cmd = [sys.executable, "-m", "sherman_bounds.cli", *inp["argv"]]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, timeout=120)
        if self.traced:
            self._collect_spans(spans_path)
        return proc.returncode, proc.stdout, proc.stderr

    def _collect_spans(self, path):
        from tracing import OP, PARENT

        offset = len(self.spans)
        for span in json.loads(path.read_text(encoding="utf-8")):
            if span[PARENT] >= 0:
                span[PARENT] += offset
            span[OP] = self.current_op
            self.spans.append(span)
        path.unlink()

    def check(self, inp, out):
        code, stdout, stderr = out
        if code != 0:
            return [f"{' '.join(inp['argv'])} exited {code}: {stderr.decode(errors='replace')[-300:]}"]
        if "rerun_of" in inp:
            if stdout != self.reports.get(inp["rerun_of"]):
                return [f"rerun of op {inp['rerun_of']} gave a different report"]
            return []
        self.reports[inp["op"]] = stdout
        self.reports.pop(inp["op"] - 2 * len(self.SCHEDULE), None)
        report = json.loads(stdout)
        result = report["result"]
        kind = inp["kind"]
        if kind == "chain":
            y, a = np.asarray(result["y"]), np.asarray(result["a"])
            problems = []
            if (np.abs(y - inp["W"] @ inp["x"]).max() > 1e-12
                    or np.abs(a - inp["b"] @ inp["W"]).max() > 1e-12):
                problems.append("chain report's generated pair differs from y = A x, a = b A")
            problems += oracles.check_chain(result, inp["function"], inp["x"], a, y, inp["b"],
                                            *_hull(inp["x"], y), sb.CHAIN_SLACK)
        elif kind.startswith("divergence"):
            problems = oracles.check_sandwich(result, inp["kernel"], inp["p"], inp["q"], inp["R"],
                                              *inp["ratio_hull"], sb.CHAIN_SLACK)
        elif kind == "majorize":
            if result["relation"] != "holds" or result["matrix"] is None:
                problems = [f"majorized pair reported {result['relation']}"]
            else:
                problems = oracles.check_witness(result["matrix"], inp["x"], inp["y"])
        else:
            x, a, y, b = inp["x"], inp["a"], inp["y"], inp["b"]
            problems = oracles.check_exp_identity(
                "identity", result["lhs"], result["boundary_terms"], x, a, y, b, *_hull(x, y), 3)
            budget = oracles.RESIDUAL_FACTOR * oracles.QUAD_TOL
            if not result["residual_ok"] or abs(result["residual"]) > budget:
                problems.append(f"identity residual {result['residual']!r} exceeds {budget}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Cli, BulkLarge, Identity)}
