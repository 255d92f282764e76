"""Benchmark of the sherman_bounds library and its CLI.

Run from the repository root:

    python3 bench/run.py --workload bulk_large --seed 1 --seconds 33 --trace 0
    python3 bench/run.py --self-check

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` spends half of ``--seconds`` untraced and half with trace
wrappers on the library's public functions, and prints the per-layer
metrics with the tracing overhead.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
whole record, spans included, goes to ``bench/out/``.  Workloads,
metrics and what each layer should move are described in
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: BLAS threads for this process and every child it starts.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 5

#: The tail percentile is the highest one with this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10

WORKLOAD_NAMES = ("cli", "bulk_large", "identity")


def setup_child(name: str) -> None:
    """Time import plus the workload's reusable fixtures in this fresh interpreter."""
    start = time.perf_counter()
    import sherman_bounds  # noqa: F401

    imported = time.perf_counter()
    import workloads  # the benchmark's own module; its import is not set-up

    built = time.perf_counter()
    workloads.build_fixtures(name)
    done = time.perf_counter()
    print(json.dumps({"setup_s": (imported - start) + (done - built)}))


def _importtime(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` in ms from ``-X importtime`` output."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e3
    raise RuntimeError(f"no import time reported for {module}")


def setup_sample(name: str, importtime: bool, env: dict) -> dict:
    """Time set-up once, in a fresh interpreter."""
    flags = ["-X", "importtime"] if importtime else []
    proc = subprocess.run(
        [sys.executable, *flags, str(BENCH_DIR / "run.py"), "--setup-child", name],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr[-500:]}")
    sample = json.loads(proc.stdout.splitlines()[-1])
    if importtime:
        sample["sherman_bounds_ms"] = _importtime(proc.stderr, "sherman_bounds")
        sample["scipy_integrate_ms"] = _importtime(proc.stderr, "scipy.integrate")
    return sample


def run_phase(workload, seconds: float, tracer=None, pause=None, pauses: int = 0) -> dict:
    """One untimed warm-up op, then ops until ``seconds`` of wall time pass.

    Only the op itself is timed; input generation and checks are not.
    ``pause`` is called ``pauses`` times, spread evenly over the phase, and
    the deadline moves back by the time each call takes.
    """
    latencies: list[float] = []
    failures: list[tuple[int, list[str]]] = []
    attempted = 0
    deadline = None
    paused = 0
    i = -1
    while deadline is None or time.perf_counter() < deadline:
        inp = workload.make_input(i)
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            out = workload.run(inp)
        except Exception as exc:  # any unexpected error fails the op, the run goes on
            elapsed = time.perf_counter() - start
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - start
            problems = workload.check(inp, out)
        attempted += 1
        if problems:
            failures.append((i, problems))
        if deadline is None:
            deadline = time.perf_counter() + seconds
        else:
            latencies.append(elapsed)
        if paused < pauses and deadline - time.perf_counter() <= seconds * (1 - paused / pauses):
            began = time.perf_counter()
            pause()
            deadline += time.perf_counter() - began
            paused += 1
        i += 1
    for _ in range(paused, pauses):  # the phase ended before every pause was due
        pause()
    return {"latencies": latencies, "attempted": attempted, "failures": failures}


def tail(latencies: list[float]) -> tuple[float, float]:
    """Value and level of the highest percentile with ten samples beyond it.

    That is the eleventh-largest latency, at level ``100 (n - 10) / n``.
    Unlike a fixed ladder of levels, it moves smoothly with the sample
    count.  When that level would fall below 50, the median is returned
    as level 50.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_SAMPLES_BEYOND  # 1-based
    if 2 * rank < n:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / n


def ops_per_s(phase: dict) -> float:
    return len(phase["latencies"]) / sum(phase["latencies"])


def blas_threads() -> int:
    """Threads OpenBLAS reports, or the value this benchmark set."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("libscipy_openblas*.so")) if libs.is_dir() else []:
        try:
            getter = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        return int(getter())
    return BLAS_THREADS


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def run_metadata(args) -> dict:
    import numpy
    import scipy

    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "setup_repeats": SETUP_REPEATS,
        "closed_loop_clients": 1,
    }


def end_to_end(phase: dict, setup: list[dict], peak_rss_kb: int) -> tuple[dict, dict]:
    latencies = phase["latencies"]
    tail_value, tail_pct = tail(latencies)
    failed = len(phase["failures"])
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
        "ops_per_s": (ops_per_s(phase), "1/s"),
        "latency_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "latency_ms_tail": (tail_value * 1e3, "ms"),
        "ok_ratio": (1.0 - failed / phase["attempted"], "ratio"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    notes = {
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(latencies),
        "failed_ratio": failed / phase["attempted"],
    }
    return metrics, notes


def per_layer(workload, phases: dict, tracer, setup: list[dict], cli_commands) -> tuple[dict, list]:
    spans = workload.spans if workload.name == "cli" else tracer.export()
    traced, untraced = phases["traced"], phases["untraced"]
    metrics = {
        "import.sherman_bounds_ms": (statistics.median(s["sherman_bounds_ms"] for s in setup), "ms"),
        "import.scipy_integrate_ms": (statistics.median(s["scipy_integrate_ms"] for s in setup), "ms"),
        "import.errors": (0.0, "count"),  # a failed set-up interpreter aborts the run
    }
    metrics.update(tracing.per_layer_metrics(spans, len(traced["latencies"]), cli_commands))
    metrics["trace.untraced_ops_per_s"] = (ops_per_s(untraced), "1/s")
    metrics["trace.traced_ops_per_s"] = (ops_per_s(traced), "1/s")
    metrics["trace.overhead_ops_per_s"] = (ops_per_s(traced) - ops_per_s(untraced), "1/s")
    return metrics, spans


def benchmark(args) -> int:
    if not (SRC / "sherman_bounds" / "__init__.py").is_file():
        print(f"error: {SRC / 'sherman_bounds'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    # Set-up is timed in fresh interpreters spread over the first phase, so
    # its median covers the same stretch of machine time as the ops.
    setup: list[dict] = []
    env = workloads.child_env()

    def time_setup():
        setup.append(setup_sample(args.workload, bool(args.trace), env))

    meta = run_metadata(args)
    workdir = BENCH_DIR / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cls = workloads.WORKLOADS[args.workload]
        workload = cls(args.seed, workloads.build_fixtures(args.workload), workdir)
        tracer = None
        if args.trace:
            phases = {"untraced": run_phase(workload, args.seconds / 2, pause=time_setup, pauses=SETUP_REPEATS)}
            tracer = tracing.Tracer()
            if workload.name == "cli":
                workload.traced = True
            else:
                tracer.install()
            try:
                phases["traced"] = run_phase(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
        else:
            phases = {"untraced": run_phase(workload, args.seconds, pause=time_setup, pauses=SETUP_REPEATS)}
            meta["trace_wrappers_during_untraced"] = tracing.installed_wrappers()
            if meta["trace_wrappers_during_untraced"]:
                raise RuntimeError("trace wrappers were installed during an untraced run")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only succeeds once no other run uses it

    attempted = sum(p["attempted"] for p in phases.values())
    meta["setup_s_samples"] = [s["setup_s"] for s in setup]
    failures = [f for p in phases.values() for f in p["failures"]]
    spans = []
    if args.trace:
        metrics, spans = per_layer(workload, phases, tracer, setup, workloads.CLI_COMMANDS)
    else:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics, notes = end_to_end(phases["untraced"], setup, resource.getrusage(who).ru_maxrss)
        meta.update(notes)

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"meta": meta, "metrics": metrics, "failures": failures[:50], "spans": spans}
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record), encoding="utf-8")

    for i, problems in failures[:10]:
        print(f"op {i} failed: {'; '.join(problems)[:500]}", file=sys.stderr)
    print("run metadata: " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:16.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def self_check() -> int:
    """Run each workload briefly, traced and untraced, and check the output."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "2", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}: {proc.stderr[-500:]}")
            else:
                lines = proc.stdout.splitlines()
                result = json.loads(lines[-1])
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                wrong = sorted(k for k in units.keys() | expected[trace].keys()
                               if units.get(k) != expected[trace].get(k))
                if wrong:
                    problems.append(f"metrics or units differ from BENCHMARK.json: {wrong}")
                if result["failed"] or not result["correct"]:
                    problems.append(f"failed_ratio is {result['failed']}/{result['attempted']}")
                meta = json.loads(next(l for l in lines if l.startswith("run metadata: "))[14:])
                wrappers = meta.get("trace_wrappers_during_untraced")
                if trace == 0 and wrappers != []:
                    problems.append(f"trace wrappers during the untraced run: {wrappers}")
            ok &= not problems
            print(f"{workload:12s} trace={trace}: {'ok' if not problems else 'FAILED ' + '; '.join(problems)}")
    return 0 if ok else 1


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def main() -> int:
    for name in THREAD_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_nonnegative_int, default=0)
    parser.add_argument("--seconds", type=_positive_float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="run every workload briefly and check the output")
    parser.add_argument("--setup-child", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_child:
        setup_child(args.setup_child)
        return 0
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
