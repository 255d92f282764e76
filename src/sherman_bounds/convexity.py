"""Function specs, divided differences, and n-convexity certification.

A function enters the package as a :class:`FunctionSpec`: an evaluator, a
tuple of derivative evaluators, and the closed interval the function is
defined on.  On top of that this module provides

* divided differences with repeated nodes (``[z,...,z; f]`` of ``j+1``
  copies resolves to ``f^(j)(z)/j!``),
* grid certification of the strong-convexity modulus of order ``n``
  (the largest ``c`` with ``f^(n) >= c * n!`` on the interval, i.e. the
  largest ``c`` such that ``f(t) - c*t^n`` stays n-convex), from which
  :func:`resolve_modulus` decides the modulus of every bound,
* refutation-only sampling checks of n-convexity via random divided
  differences, and
* the shift ``f -> f - c*t^n`` that turns an n-strongly convex function
  into a plain n-convex one.

A named catalog of common functions (``square``, ``exp``, ``xlogx``,
``neg_log``, ``linear``, ``pow:a``) supports the command line.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateInterval,
    EmptyPoints,
    MissingDerivative,
    ModulusNotCertified,
    PointOutOfInterval,
    ValidationError,
)

Evaluator = Callable[[float], float]

#: Divided differences this close to zero (or to the modulus) count as ties.
DIVIDED_DIFFERENCE_TOL = 1e-10

#: Number of grid nodes of every modulus certificate.
DEFAULT_MODULUS_GRID = 10001

#: An explicit modulus may exceed the certified one by at most this much.
MODULUS_SLACK = 1e-12

#: Default number of random node tuples drawn by the sampling checks.
DEFAULT_SAMPLE_COUNT = 200

#: Highest derivative order the built-in catalog provides.
CATALOG_ORDER = 6


@dataclass(frozen=True, slots=True)
class FunctionSpec:
    """A real function on a closed interval, with optional derivatives.

    Attributes:
        name: Human-readable identifier used in reports and error messages.
        evaluator: Callable returning ``f(t)`` for ``t`` in ``interval``,
            elementwise when ``t`` is an array (see :meth:`evaluate`).
        derivatives: Tuple of callables; ``derivatives[k-1]`` evaluates
            the k-th derivative, with the same contract.  May be empty.
        interval: Closed interval ``(alpha, beta)`` with ``alpha < beta``.
    """

    name: str
    evaluator: Evaluator
    derivatives: tuple[Evaluator, ...]
    interval: tuple[float, float]

    def __post_init__(self) -> None:
        lo, hi = float(self.interval[0]), float(self.interval[1])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DegenerateInterval(f"interval bounds must be finite, got {self.interval}")
        if not lo < hi:
            raise DegenerateInterval(f"interval must satisfy alpha < beta, got {self.interval}")
        object.__setattr__(self, "derivatives", tuple(self.derivatives))
        object.__setattr__(self, "interval", (lo, hi))

    @property
    def alpha(self) -> float:
        return self.interval[0]

    @property
    def beta(self) -> float:
        return self.interval[1]

    @property
    def max_order(self) -> int:
        """Highest derivative order available (0 = evaluator only)."""
        return len(self.derivatives)

    def derivative(self, order: int) -> Evaluator:
        """Return the evaluator of the given derivative order.

        Order 0 returns the function itself.

        Raises:
            MissingDerivative: if the spec does not carry that order.
        """
        if order == 0:
            return self.evaluator
        if order < 0 or order > len(self.derivatives):
            raise MissingDerivative(
                f"{self.name}: derivative of order {order} requested, "
                f"only orders 0..{len(self.derivatives)} available"
            )
        return self.derivatives[order - 1]

    def evaluate(self, points, order: int = 0) -> np.ndarray:
        """Values of the derivative of the given order (0 = f) at every point.

        The callable is called once on the whole array.  One that rejects
        arrays (``TypeError``/``ValueError``) or returns another shape, such
        as ``math.exp``, is called point by point instead.
        """
        fn = self.derivative(order)
        pts = np.asarray(points, dtype=float)
        try:
            values = np.asarray(fn(pts), dtype=float)
        except (TypeError, ValueError):
            values = None
        if values is None or values.shape != pts.shape:
            values = np.array([fn(t) for t in pts.ravel().tolist()], dtype=float)
        return values.reshape(pts.shape)

    def require_inside(self, points) -> None:
        """Raise :class:`PointOutOfInterval` unless all points lie in the interval.

        A relative slack of ``1e-12`` absorbs representation rounding; NaN
        is outside.  The message names the first offending point.
        """
        lo, hi = self.interval
        t = _first_outside(points, lo, hi)
        if t is not None:
            raise PointOutOfInterval(
                f"point {t!r} outside interval [{lo}, {hi}] of {self.name}"
            )


def _first_outside(points, lo: float, hi: float):
    """First point outside ``[lo, hi]`` widened by ``1e-12 * max(1, |lo|, |hi|)``, else None.

    The slack absorbs representation rounding; NaN counts as outside.
    """
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    pts = np.asarray(points, dtype=float).ravel()
    inside = (lo - slack <= pts) & (pts <= hi + slack)
    return None if inside.all() else pts[np.argmin(inside)]


def divided_difference(points, spec: FunctionSpec) -> float:
    """Divided difference of ``spec`` over the given nodes.

    Nodes are sorted first, so the result is symmetric in the arguments
    by construction.  Exactly equal nodes are treated as confluent:
    a run of ``j+1`` equal nodes contributes ``f^(j)(z)/j!`` wherever the
    recursion hits a zero denominator, which requires derivatives up to
    the run length minus one.

    Args:
        points: One or more nodes inside ``spec.interval``.
        spec: Function with enough derivatives for any coincident runs.

    Returns:
        The divided difference ``[points; f]``.

    Raises:
        EmptyPoints: if no nodes are given.
        PointOutOfInterval: if a node leaves the interval.
        MissingDerivative: if coincident nodes need an unavailable order.
    """
    pts = np.sort(np.asarray(points, dtype=float).ravel())
    if not pts.size:
        raise EmptyPoints("divided_difference needs at least one node")
    return float(_divided_differences(pts[None, :], spec)[0])


def _divided_differences(nodes: np.ndarray, spec: FunctionSpec) -> np.ndarray:
    """``[row; f]`` for every increasingly sorted row of ``nodes``, column-wise."""
    spec.require_inside(nodes)
    col = spec.evaluate(nodes)
    for j in range(1, nodes.shape[1]):
        lo, hi = nodes[:, :-j], nodes[:, j:]
        tie = hi == lo
        with np.errstate(divide="ignore", invalid="ignore"):
            col = (col[:, 1:] - col[:, :-1]) / (hi - lo)
        if tie.any():
            # j+1 coincident copies of lo: confluent limit f^(j)(lo)/j!
            if spec.max_order < j:
                raise MissingDerivative(
                    f"{j + 1} coincident nodes at {lo[tie][0]} need derivative "
                    f"order {j}; {spec.name} provides {spec.max_order}"
                )
            col[tie] = spec.evaluate(lo[tie], j) / math.factorial(j)
    return col[:, 0]


@dataclass(frozen=True, slots=True)
class ModulusCertificate:
    """Outcome of grid certification of a strong-convexity modulus.

    Attributes:
        order: Convexity order ``n`` the certificate refers to.
        modulus: Certified modulus, ``max(0, min f^(n)/n! over the grid)``.
        grid_size: Number of grid nodes inspected (endpoints included).
        verdict: ``"certified"`` when the grid minimum is nonnegative,
            ``"failed"`` when it is negative (then ``modulus == 0``),
            ``"indeterminate"`` when a non-finite value appeared.
        grid_min: Raw grid minimum of ``f^(n)/n!`` (NaN if indeterminate).
    """

    order: int
    modulus: float
    grid_size: int
    verdict: str
    grid_min: float


def estimate_strong_modulus(spec: FunctionSpec, n: int) -> ModulusCertificate:
    """Certify a modulus of n-strong convexity from an endpoint-inclusive grid.

    The returned modulus is ``max(0, min f^(n)(t)/n!)`` over
    :data:`DEFAULT_MODULUS_GRID` evenly spaced nodes.  For functions whose
    n-th derivative is monotone or has interior minima resolved by the
    grid this equals the exact modulus up to grid resolution.

    Certificates are memoized per spec and order (the last 128), so the
    same spec returns the same certificate object and its grid is
    evaluated once per process; the spec's callables must therefore be
    pure.  A spec that holds an unhashable callable is certified afresh on
    every call.  Errors are not memoized.

    Raises:
        MissingDerivative: if ``spec`` lacks the n-th derivative.
        ValueError: on ``n < 1``.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    # The hex ends tell apart the signed zeros that == identifies.
    key = (spec, n, spec.alpha.hex(), spec.beta.hex())
    try:
        hash(key)
    except TypeError:  # a callable with __eq__ but no __hash__
        return _grid_certificate.__wrapped__(key)
    return _grid_certificate(key)


@functools.lru_cache(maxsize=128)
def _grid_certificate(key) -> ModulusCertificate:
    spec, n = key[:2]
    grid = np.linspace(spec.alpha, spec.beta, DEFAULT_MODULUS_GRID)
    vals = spec.evaluate(grid, n) / math.factorial(n)
    if not np.all(np.isfinite(vals)):
        return ModulusCertificate(n, 0.0, grid.size, "indeterminate", float("nan"))
    gmin = float(vals.min())
    verdict = "certified" if gmin >= 0.0 else "failed"
    return ModulusCertificate(n, max(0.0, gmin), grid.size, verdict, gmin)


def resolve_modulus(
    spec: FunctionSpec,
    c: Optional[float],
    certificate: Optional[ModulusCertificate] = None,
    *,
    unchecked: bool = False,
    order: int = 2,
) -> tuple[float, Optional[ModulusCertificate]]:
    """Resolve the modulus of order ``order`` a bound uses, certifying when needed.

    ``c=None`` auto-certifies (or reuses the given certificate) and uses
    the certified modulus.  An explicit ``c`` may sit anywhere at or
    below the certified value (a smaller modulus only weakens the bound,
    which stays valid); exceeding it raises unless ``unchecked`` is set,
    in which case the caller vouches for ``c`` and no certificate is
    consulted.

    Returns:
        ``(modulus, certificate)``; the certificate is None only on the
        unchecked path when none was supplied.

    Raises:
        ModulusNotCertified: when certification fails or an explicit
            modulus exceeds the certified one.
        ValueError: on an explicit modulus that is negative, NaN or infinite.
    """
    if c is not None and not (math.isfinite(c) and c >= 0):
        raise ValueError(f"modulus must be finite and nonnegative, got {c}")
    if unchecked:
        if c is None:
            raise ValueError("unchecked modulus requires an explicit value")
        return float(c), certificate
    cert = certificate or estimate_strong_modulus(spec, order)
    if cert.order != order:
        raise ModulusNotCertified(
            f"certificate order {cert.order} does not match required order {order}"
        )
    if cert.verdict != "certified":
        raise ModulusNotCertified(
            f"modulus certification for {spec.name} returned {cert.verdict!r} "
            f"(grid minimum {cert.grid_min})"
        )
    if c is None:
        return cert.modulus, cert
    if c > cert.modulus + MODULUS_SLACK:
        raise ModulusNotCertified(
            f"requested modulus {c} exceeds certified {cert.modulus} for {spec.name}"
        )
    return float(c), cert


@dataclass(frozen=True, slots=True)
class SampleVerdict:
    """Result of a sampled divided-difference check.

    ``passed`` verdicts are one-sided: sampling can refute a convexity
    claim (the witness tuple is a counterexample) but never prove it.

    Attributes:
        passed: True when no sampled tuple fell below the threshold.
        witness: Worst offending node tuple when the check failed.
        worst_value: Smallest divided difference seen.
        samples: Number of tuples drawn.
        threshold: Acceptance threshold the values were compared against.
    """

    passed: bool
    witness: Optional[tuple[float, ...]]
    worst_value: float
    samples: int
    threshold: float


def is_n_convex(
    spec: FunctionSpec,
    n: int,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
) -> SampleVerdict:
    """Sample random node tuples and test ``[z_0..z_n; f] >= -1e-10``.

    Nodes are drawn one per stratum of the interval, so tuples stay well
    separated and rounding in the divided-difference table cannot fake a
    violation for a genuinely n-convex function.
    """
    return is_n_strongly_convex(spec, n, 0.0, sample_count, seed)


def is_n_strongly_convex(
    spec: FunctionSpec,
    n: int,
    c: float,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
) -> SampleVerdict:
    """Sample random node tuples and test ``[z_0..z_n; f] >= c - 1e-10``.

    Refutation only: a pass proves nothing, as the strata keep the nodes
    away from the interval ends.  Bounds decide ``c`` with :func:`resolve_modulus`.
    """
    if c < 0:
        raise ValueError(f"modulus must be nonnegative, got {c}")
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    threshold = c - DIVIDED_DIFFERENCE_TOL
    # One node per equal-width stratum, kept 10% away from stratum edges:
    # enforces pairwise gaps >= 0.2*(hi-lo)/(n+1) so the divided-difference
    # table stays well conditioned near a zero of [z_0..z_n; f] - c.
    width = (spec.beta - spec.alpha) / (n + 1)
    edges = spec.alpha + np.arange(n + 2) * width
    pad = 0.1 * width
    nodes = np.random.default_rng(seed).uniform(
        edges[:-1] + pad, edges[1:] - pad, (sample_count, n + 1)
    )
    # The first minimum is the witness; NaN never is.
    values = _divided_differences(nodes, spec)
    values[np.isnan(values)] = math.inf
    index = int(np.argmin(values))
    worst = float(values[index])
    passed = worst >= threshold
    return SampleVerdict(
        passed=passed,
        witness=None if passed else tuple(nodes[index].tolist()),
        worst_value=worst,
        samples=sample_count,
        threshold=threshold,
    )


def shift_to_convex(spec: FunctionSpec, n: int, c: float) -> FunctionSpec:
    """Return the spec of ``g(t) = f(t) - c*t^n`` on the same interval.

    ``g`` is n-convex exactly when ``f`` is n-strongly convex with
    modulus ``c``.  Derivatives carry over: order ``k <= n`` subtracts
    ``c * n!/(n-k)! * t^(n-k)``, orders above ``n`` are unchanged.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if c < 0:
        raise ValueError(f"modulus must be nonnegative, got {c}")
    f = spec.evaluator

    def g(t: float, _f=f, _c=c, _n=n) -> float:
        return _f(t) - _c * t**_n

    derivs: list[Evaluator] = []
    for k in range(1, spec.max_order + 1):
        fk = spec.derivative(k)
        if k <= n:
            coeff = c * math.factorial(n) / math.factorial(n - k)
            power = n - k

            def gk(t: float, _fk=fk, _coeff=coeff, _p=power) -> float:
                return _fk(t) - _coeff * t**_p

            derivs.append(gk)
        else:
            derivs.append(fk)
    return FunctionSpec(
        name=f"{spec.name}-{c:g}*t^{n}",
        evaluator=g,
        derivatives=tuple(derivs),
        interval=spec.interval,
    )


def check_derivative_consistency(
    spec: FunctionSpec, grid_size: int = 33, rel_tol: float = 1e-5
) -> bool:
    """Self-test each derivative against central differences of the previous one.

    Uses step ``h = (beta-alpha)*1e-5`` on an interior grid and accepts
    when ``|central - exact| <= rel_tol * (|exact| + 1)`` everywhere.
    Intended as a sanity check for hand-written derivative tuples.
    """
    lo, hi = spec.interval
    h = (hi - lo) * 1e-5
    ts = np.linspace(lo + 2.0 * h, hi - 2.0 * h, grid_size)
    for k in range(1, spec.max_order + 1):
        approx = (spec.evaluate(ts + h, k - 1) - spec.evaluate(ts - h, k - 1)) / (2.0 * h)
        exact = spec.evaluate(ts, k)
        if np.any(np.abs(approx - exact) > rel_tol * (np.abs(exact) + 1.0)):
            return False
    return True


def _power_spec(name: str, exponent: float, interval, order: int) -> FunctionSpec:
    is_integer = float(exponent).is_integer() and exponent >= 0
    if not is_integer and float(interval[0]) <= 0.0:
        raise ValidationError(
            f"{name} with non-integer exponent {exponent} needs a positive interval"
        )
    terms = _power_terms(1.0, exponent, order + 1)
    return FunctionSpec(name, terms[0], tuple(terms[1:]), tuple(interval))


def constant(value: float) -> Evaluator:
    """Evaluator of the constant ``value``, returning arrays for arrays."""

    def const(t: float, _v=value) -> float:
        return 0.0 * t + _v  # +0.0 for _v = 0, whatever the sign of t

    return const


def _power_terms(
    scale: float, exponent: float, count: int, shift: float = -0.0
) -> list[Evaluator]:
    """Derivatives of orders ``0..count-1`` of ``scale * (t + shift)**exponent``.

    Order k is ``scale * exponent * ... * (exponent - k + 1)`` times
    ``(t + shift)**(exponent - k)``; a zero coefficient gives
    ``constant(0.0)``.  The default shift ``-0.0`` keeps ``t + shift == t``
    for every ``t``, a signed zero included.
    """
    terms: list[Evaluator] = []
    coeff = scale
    for k in range(count):

        def term(t: float, _c=coeff, _s=shift, _p=exponent - k) -> float:
            return _c * (t + _s) ** _p

        terms.append(term if coeff != 0.0 else constant(0.0))
        coeff *= exponent - k
    return terms


def _exp_spec(interval, order: int) -> FunctionSpec:
    derivs = tuple(np.exp for _ in range(order))
    return FunctionSpec(name="exp", evaluator=np.exp, derivatives=derivs, interval=tuple(interval))


def _xlogx_spec(interval, order: int) -> FunctionSpec:
    if float(interval[0]) <= 0.0:
        raise ValidationError("xlogx needs a positive interval")

    def ev(t: float) -> float:
        return t * np.log(t)

    def d1(t: float) -> float:
        return np.log(t) + 1.0

    # orders >= 2 differentiate 1/t
    derivs = [d1] + _power_terms(1.0, -1.0, order - 1)
    return FunctionSpec(name="xlogx", evaluator=ev, derivatives=tuple(derivs), interval=tuple(interval))


def _neg_log_spec(interval, order: int) -> FunctionSpec:
    if float(interval[0]) <= 0.0:
        raise ValidationError("neg_log needs a positive interval")

    def ev(t: float) -> float:
        return -np.log(t)

    derivs = tuple(_power_terms(-1.0, -1.0, order))  # orders >= 1 differentiate -1/t
    return FunctionSpec(name="neg_log", evaluator=ev, derivatives=derivs, interval=tuple(interval))


def function_from_name(
    name: str, interval: tuple[float, float], order: int = CATALOG_ORDER
) -> FunctionSpec:
    """Build a catalog function by name on the given interval.

    Known names: ``square``, ``exp``, ``xlogx``, ``neg_log``, ``linear``,
    and ``pow:a`` for a float exponent ``a``.  Derivatives are provided
    up to ``order``.

    Raises:
        ValidationError: on an unknown name or an interval the function
            is not defined on.
    """
    key = name.strip().lower()
    if key == "square":
        # keep t*t so the c=1 shift cancels bitwise
        return replace(_power_spec("square", 2.0, interval, order), evaluator=lambda t: t * t)
    if key == "linear":
        return _power_spec("linear", 1.0, interval, order)
    if key == "exp":
        return _exp_spec(interval, order)
    if key == "xlogx":
        return _xlogx_spec(interval, order)
    if key == "neg_log":
        return _neg_log_spec(interval, order)
    if key.startswith("pow:"):
        try:
            exponent = float(key.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad exponent in function name {name!r}") from exc
        return _power_spec(key, exponent, interval, order)
    raise ValidationError(
        f"unknown function {name!r}; known: square, exp, xlogx, neg_log, linear, pow:<a>"
    )
