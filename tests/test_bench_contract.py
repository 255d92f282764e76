"""What the benchmark under ``bench/`` reads from the library, checked here.

``bench/tracing.py`` wraps library functions by module and attribute name,
hooks ``StochasticMatrix.__post_init__``, and ``bench/run.py::_importtime``
reads the import time of ``scipy.integrate`` from ``-X importtime``.  A
library change that removes one of these breaks every traced benchmark
run, so it fails here first.  ROADMAP item 2 (``scipy.integrate`` off the
import path) and item 8 (retiring the sampled convexity checks) change
this contract: each lands together with the benchmark change that
follows it, and updates this file.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import sherman_bounds
from sherman_bounds.majorization import StochasticMatrix

BENCH = Path(__file__).resolve().parents[1] / "bench"
PACKAGE_ROOT = str(Path(sherman_bounds.__file__).resolve().parent.parent)


def load_bench_module(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setitem(sys.modules, name, module)  # the bench modules import each other by name
    return module


def test_every_trace_target_resolves(monkeypatch):
    tracing = load_bench_module("tracing", monkeypatch)
    assert tracing.TARGETS
    for _, module, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(f"sherman_bounds.{module}")
        assert callable(getattr(owner, attr, None)), f"sherman_bounds.{module}.{attr}"


def test_stochastic_matrix_defines_its_own_post_init():
    assert "__post_init__" in StochasticMatrix.__dict__


def test_import_loads_scipy_integrate(monkeypatch):
    load_bench_module("tracing", monkeypatch)
    run = load_bench_module("run", monkeypatch)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import sherman_bounds"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert run._importtime(proc.stderr, "sherman_bounds") > 0.0
    assert run._importtime(proc.stderr, "scipy.integrate") > 0.0
