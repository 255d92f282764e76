"""Command line front end producing deterministic JSON reports.

Four subcommands cover the library surface:

* ``chain``: evaluate the full two-sided inequality chain on a weighted
  instance (``x``, ``b``, witness ``A``, optional ``y``/``a``).
* ``divergence``: certified sandwich around a Csiszar divergence, with
  optional aggregation matrix ``R``.
* ``majorize``: check plain majorization and attach a doubly stochastic
  witness when it holds.
* ``verify-identity``: decompose a Sherman-type difference by the
  order-n identity and compare the residual with the quadrature budget.

Reports carry ``"schema": 1``, echo every tolerance and knob, and are
serialized with sorted keys and shortest round-trip floats so reruns
are byte-identical.  Exit codes: 0 ok, 1 an asserted inequality failed
beyond its slack, 2 parse/validation trouble, 3 domain errors, 4
quadrature failure.  ``SHERMAN_BOUNDS_LOG`` selects the stderr log level.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Any, Optional

import numpy as np

from .bounds import CHAIN_SLACK, MIN_INTERVAL_WIDTH, full_chain
from .convexity import ModulusCertificate, function_from_name
from .divergence import (
    DistributionPair,
    aggregated_divergence_bounds,
    divergence_bounds,
    get_kernel,
)
from .errors import (
    DegenerateInterval,
    DomainError,
    ParseError,
    QuadratureFailure,
    ValidationError,
)
from .fink import sherman_difference_identity
from .majorization import (
    DEFAULT_TOL,
    StochasticMatrix,
    VerificationResult,
    WeightedVector,
    generate_weighted_pair,
    majorizes,
    verify_weighted_majorization,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_QUADRATURE = 4

#: Fixed tolerance of the majorize subcommand and every witness check, echoed in reports.
MAJORIZE_TOL = DEFAULT_TOL

#: Identity residuals are accepted up to this multiple of the quad budget.
RESIDUAL_BUDGET_FACTOR = 10.0

logger = logging.getLogger("sherman_bounds")


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation depends on, echoed into the report."""

    command: str
    input_path: str
    output_path: Optional[str] = None
    kernel: Optional[str] = None
    interval: Optional[tuple[float, float]] = None
    modulus: Optional[float] = None  # None selects auto-certification
    order: int = 2
    quad_tol: float = 1e-9


def _plain(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    raise ValidationError(f"cannot serialize value of type {type(value).__name__}")


def canonical_json(value: Any) -> str:
    """Deterministic rendering: sorted keys, shortest round-trip floats."""
    try:
        return json.dumps(value, sort_keys=True, indent=2, allow_nan=False, default=_plain) + "\n"
    except ValueError as exc:  # raised for NaN and the infinities
        raise ValidationError(f"non-finite value in report: {exc}") from None


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _require_numbers(items: list, label: str) -> None:
    for item in items:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ParseError(f"{label} must contain numbers only, got {item!r}")
        # False for NaN, the infinities and integers beyond the float range
        if not abs(item) <= sys.float_info.max:
            raise ValidationError(f"{label} must contain finite numbers only, got {item!r}")


def _numeric_vector(data: Any, label: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ParseError(f"{label} must be a nonempty array of numbers")
    _require_numbers(data, label)
    return np.asarray(data, dtype=float)


def _numeric_matrix(data: Any, label: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ParseError(f"{label} must be a nonempty array of rows")
    width = None
    for row in data:
        if not isinstance(row, list) or not row:
            raise ParseError(f"{label} rows must be nonempty arrays")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{label} rows have inconsistent lengths")
        _require_numbers(row, label)
    return np.asarray(data, dtype=float)


def _require_keys(data: Any, keys: list[str], command: str) -> None:
    if not isinstance(data, dict):
        raise ParseError(f"{command} input must be a JSON object")
    missing = [key for key in keys if key not in data]
    if missing:
        raise ParseError(f"{command} input misses keys: {', '.join(missing)}")


def _load_divergence_csv(path: str) -> dict:
    """Strict two-column CSV of (p, q) rows; one header line is allowed."""
    p_vals: list[float] = []
    q_vals: list[float] = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            for lineno, row in enumerate(csv.reader(handle), start=1):
                cells = [cell.strip() for cell in row]
                if not cells or all(cell == "" for cell in cells):
                    continue
                if len(cells) != 2:
                    raise ParseError(
                        f"{path}: line {lineno}: expected 2 columns, got {len(cells)}"
                    )
                try:
                    p_vals.append(float(cells[0]))
                    q_vals.append(float(cells[1]))
                except ValueError:
                    if lineno == 1 and not p_vals:
                        continue  # header line
                    raise ParseError(
                        f"{path}: line {lineno}: non-numeric cell in {cells!r}"
                    ) from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not p_vals:
        raise ParseError(f"{path}: no data rows")
    return {"p": p_vals, "q": q_vals}


def _nonnegative_weights(arr: np.ndarray, label: str) -> np.ndarray:
    if np.any(arr < 0.0):
        raise ValidationError(f"{label} weights must be nonnegative")
    return arr


def _cert_dict(cert: ModulusCertificate) -> dict:
    grid_min = cert.grid_min if math.isfinite(cert.grid_min) else None
    return dict(asdict(cert), grid_min=grid_min)


def _verification_dict(result: VerificationResult) -> dict:
    return {"weight_residual": result.weight_residual, "point_residual": result.point_residual,
            "tol": MAJORIZE_TOL}


def _hull_interval(config: RunConfig, points: np.ndarray) -> tuple[float, float]:
    if config.interval is not None:
        return config.interval
    lo, hi = float(points.min()), float(points.max())
    if hi - lo < MIN_INTERVAL_WIDTH:
        raise DegenerateInterval(
            f"data hull [{lo}, {hi}] is degenerate; pass --interval explicitly"
        )
    return (lo, hi)


def _require_kernel(config: RunConfig) -> str:
    if config.kernel is None:
        raise ValidationError(f"--kernel is required for {config.command}")
    return config.kernel


def _pinned_instance(config: RunConfig, x, a, y, b):
    """The catalog spec on the data hull (or ``--interval``) and the two sides on it."""
    interval = _hull_interval(config, np.concatenate([x, y]))
    spec = function_from_name(_require_kernel(config), interval)
    return spec, WeightedVector(x, a, interval), WeightedVector(y, b, interval)


def _run_chain(config: RunConfig):
    data = _load_json(config.input_path)
    _require_keys(data, ["x", "b", "A"], "chain")
    x = _numeric_vector(data["x"], "x")
    b = _nonnegative_weights(_numeric_vector(data["b"], "b"), "b")
    matrix = StochasticMatrix(_numeric_matrix(data["A"], "A"), "row")
    generated = False
    if "y" in data or "a" in data:
        _require_keys(data, ["y", "a"], "chain")
        y = _numeric_vector(data["y"], "y")
        a = _nonnegative_weights(_numeric_vector(data["a"], "a"), "a")
    else:
        y, a = generate_weighted_pair(x, b, matrix)
        generated = True
    spec, xv, yv = _pinned_instance(config, x, a, y, b)
    chain = full_chain(xv, yv, matrix, spec, config.modulus)
    logger.info("chain: modulus certificate %s", chain.certificate)
    result = chain.to_dict()
    result["generated_pair"] = generated
    if generated:
        result["y"] = y.tolist()
        result["a"] = a.tolist()
    certificates = {
        "modulus": _cert_dict(chain.certificate),
        "majorization": _verification_dict(chain.verification),
    }
    return result, certificates, list(chain.warnings), chain.chain_holds


def _run_divergence(config: RunConfig):
    if config.input_path.lower().endswith(".csv"):
        data = _load_divergence_csv(config.input_path)
    else:
        data = _load_json(config.input_path)
    _require_keys(data, ["p", "q"], "divergence")
    pair = DistributionPair(_numeric_vector(data["p"], "p"), _numeric_vector(data["q"], "q"))
    if config.interval is not None:
        interval = config.interval
    else:
        lo = float(pair.ratios.min())
        hi = float(pair.ratios.max())
        interval = (max(lo - 1e-9, 0.5 * lo), hi + 1e-9)
    kernel = get_kernel(_require_kernel(config), interval)
    logger.info("divergence: kernel %s on %s", kernel.name, kernel.interval)
    if "R" in data:
        matrix = StochasticMatrix(_numeric_matrix(data["R"], "R"), "column")
        sandwich = aggregated_divergence_bounds(pair, matrix, kernel, config.modulus)
    else:
        sandwich = divergence_bounds(pair, kernel, config.modulus)
    certificate = kernel.modulus_certificate
    certificates = {} if certificate is None else {"modulus": _cert_dict(certificate)}
    return sandwich.to_dict(), certificates, list(sandwich.warnings), sandwich.holds


def _run_majorize(config: RunConfig):
    data = _load_json(config.input_path)
    _require_keys(data, ["x", "y"], "majorize")
    x = _numeric_vector(data["x"], "x")
    y = _numeric_vector(data["y"], "y")
    cert = majorizes(x, y, MAJORIZE_TOL, with_matrix=True)
    result: dict[str, Any] = {
        "relation": cert.relation,
        "witness_k": cert.witness_k,
        "matrix": None,
        "construction_residual": None,
        "tol": MAJORIZE_TOL,
    }
    if cert.matrix is not None:
        result["matrix"] = cert.matrix.entries.tolist()
        result["construction_residual"] = cert.residual
    return result, {}, [], cert.holds


def _run_verify_identity(config: RunConfig):
    data = _load_json(config.input_path)
    _require_keys(data, ["x", "a", "y", "b"], "verify-identity")
    x = _numeric_vector(data["x"], "x")
    a = _nonnegative_weights(_numeric_vector(data["a"], "a"), "a")
    y = _numeric_vector(data["y"], "y")
    b = _nonnegative_weights(_numeric_vector(data["b"], "b"), "b")
    spec, xv, yv = _pinned_instance(config, x, a, y, b)
    certificates: dict[str, Any] = {}
    if "A" in data:
        matrix = StochasticMatrix(_numeric_matrix(data["A"], "A"), "row")
        verification = verify_weighted_majorization(xv, yv, matrix)
        certificates["majorization"] = _verification_dict(verification)
    report = sherman_difference_identity(xv, yv, spec, config.order, config.quad_tol)
    budget = RESIDUAL_BUDGET_FACTOR * config.quad_tol
    ok = abs(report.residual) <= budget
    result = report.to_dict()
    result["residual_budget"] = budget
    result["residual_ok"] = ok
    return result, certificates, [], ok


_HANDLERS = {
    "chain": _run_chain,
    "divergence": _run_divergence,
    "majorize": _run_majorize,
    "verify-identity": _run_verify_identity,
}


def _report(config: RunConfig, **fields: Any) -> dict:
    """A report of ``config.command``: the schema, the config echo and ``fields``."""
    echo = {
        "input": config.input_path,
        "output": config.output_path,
        "kernel": config.kernel,
        "interval": None if config.interval is None else list(config.interval),
        "modulus": "auto" if config.modulus is None else config.modulus,
        "order": config.order,
        "quad_tol": config.quad_tol,
        "chain_slack": CHAIN_SLACK,
        "majorize_tol": MAJORIZE_TOL,
        "residual_budget_factor": RESIDUAL_BUDGET_FACTOR,
    }
    return {"schema": 1, "command": config.command, "config": echo, **fields}


def run(config: RunConfig) -> tuple[dict, int]:
    """Execute one command and return (report, exit code).

    Raises the package's typed errors; :func:`main` maps them to exit
    codes and an error report.
    """
    result, certificates, warnings, ok = _HANDLERS[config.command](config)
    report = _report(
        config, certificates=certificates, result=result, warnings=warnings,
        exit_status="ok" if ok else "violated",
    )
    return report, EXIT_OK if ok else EXIT_VIOLATED


def _interval_argument(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected a,b, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"interval bounds must be numbers, got {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise argparse.ArgumentTypeError(f"interval must satisfy a < b, got {text!r}")
    return (lo, hi)


def _modulus_argument(text: str) -> Optional[float]:
    if text.strip().lower() == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"modulus must be 'auto' or a number, got {text!r}")
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"modulus must be nonnegative, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _order_argument(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"order must be an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"order must be >= 1, got {text!r}")
    return value


#: Options besides ``--input`` and ``--output``; absent, they keep the RunConfig default.
_OPTIONS = {
    "--kernel": dict(help="function or divergence kernel name, e.g. pow:3 or renyi:2"),
    "--interval": dict(type=_interval_argument, metavar="A,B",
                       help="working interval; defaults to the data hull"),
    "--modulus": dict(type=_modulus_argument, metavar="AUTO|C",
                      help="strong-convexity modulus; 'auto' (default) certifies it"),
    "--order": dict(type=_order_argument, help="identity order n"),
    "--quad-tol": dict(type=_positive_float, help="absolute quadrature budget"),
}

#: Each subcommand with its summary and the options its handler reads.
_SUBCOMMANDS = [
    ("chain", "evaluate the two-sided inequality chain on a weighted instance",
     ("--kernel", "--interval", "--modulus")),
    ("divergence", "certified sandwich around a Csiszar f-divergence",
     ("--kernel", "--interval", "--modulus")),
    ("majorize", "check majorization and build a doubly stochastic witness", ()),
    ("verify-identity", "decompose a difference by the order-n identity",
     ("--kernel", "--interval", "--order", "--quad-tol")),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sherman-bounds",
        description="Certified inequality chains, identity checks, and divergence bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, options in _SUBCOMMANDS:
        cmd = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        cmd.add_argument("--input", required=True, dest="input_path", metavar="PATH",
                         help="input JSON (or CSV for divergence)")
        cmd.add_argument("--output", dest="output_path", metavar="PATH",
                         help="write the report here instead of stdout")
        for option in options:
            cmd.add_argument(option, **_OPTIONS[option])
    return parser


def _configure_logging() -> None:
    name = os.environ.get("SHERMAN_BOUNDS_LOG", "WARNING")
    level = getattr(logging, name.upper(), None)
    if not isinstance(level, int):
        sys.stderr.write(f"SHERMAN_BOUNDS_LOG={name!r} is not a log level; using WARNING\n")
        level = logging.WARNING
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    logger.setLevel(level)


def _write_report(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def main(argv: Optional[list[str]] = None) -> int:
    _configure_logging()
    config = RunConfig(**vars(build_parser().parse_args(argv)))
    try:
        report, code = run(config)
        text = canonical_json(report)  # a non-finite value raises ValidationError
    except (ParseError, ValidationError) as exc:
        return _emit_failure(config, exc, EXIT_PARSE)
    except QuadratureFailure as exc:
        return _emit_failure(config, exc, EXIT_QUADRATURE)
    except DomainError as exc:
        return _emit_failure(config, exc, EXIT_DOMAIN)
    _write_report(config.output_path, text)
    return code


def _emit_failure(config: RunConfig, exc: Exception, code: int) -> int:
    logger.error("%s: %s", type(exc).__name__, exc)
    report = _report(config, error=str(exc), error_type=type(exc).__name__, exit_status="error")
    _write_report(config.output_path, canonical_json(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
