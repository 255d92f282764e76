"""Function specs, divided differences, and n-convexity certification.

A function enters the package as a :class:`FunctionSpec`: an evaluator, a
tuple of derivative evaluators, and the closed interval the function is
defined on.  On top of that this module provides

* divided differences with repeated nodes (``[z,...,z; f]`` of ``j+1``
  copies resolves to ``f^(j)(z)/j!``),
* the strong-convexity modulus of order ``n`` (the largest ``c`` with
  ``f^(n) >= c * n!`` on the interval, i.e. the largest ``c`` such that
  ``f(t) - c*t^n`` stays n-convex), from which :func:`resolve_modulus`
  takes the modulus of every bound,
* refutation-only sampling checks of n-convexity via random divided
  differences, and
* the shift ``f -> f - c*t^n`` that turns an n-strongly convex function
  into a plain n-convex one.

A named catalog of common functions (``square``, ``exp``, ``xlogx``,
``neg_log``, ``linear``, ``pow:a``) supports the command line.  Each
entry, like each divergence generator of :mod:`.divergence`, is declared
once in a table: its ``f``, any hand-written low derivative, and the law
``s*(t + shift)**e`` or ``exp`` that gives every higher order.  One
builder turns an entry into a spec with :data:`CATALOG_ORDER` derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

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

#: Number of grid nodes of the modulus sampled for a user callable.
DEFAULT_MODULUS_GRID = 10001

#: An explicit modulus may exceed the certified one by at most this much.
MODULUS_SLACK = 1e-12

#: Default number of random node tuples drawn by the sampling checks.
DEFAULT_SAMPLE_COUNT = 200

#: Highest derivative order the built-in catalog provides.
CATALOG_ORDER = 6

#: Interior nodes and relative tolerance of :func:`check_derivative_consistency`.
CONSISTENCY_GRID = 33
CONSISTENCY_REL_TOL = 1e-5


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
    # where every derivative is smallest; set for catalog specs only, dropped by replace()
    _min_nodes: Optional[tuple[float, ...]] = field(default=None, init=False, repr=False)

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
        as ``math.exp``, is called point by point instead; a point whose
        call raises ``OverflowError`` is NaN there, since the sign of the
        lost value is unknown.
        """
        fn = self.derivative(order)
        pts = np.asarray(points, dtype=float)
        try:
            values = np.asarray(fn(pts), dtype=float)
        except (TypeError, ValueError):
            values = None
        if values is None or values.shape != pts.shape:
            values = np.array([_value_or_nan(fn, t) for t in pts.ravel().tolist()], dtype=float)
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


def _value_or_nan(fn: Evaluator, t: float) -> float:
    try:
        return fn(t)
    except OverflowError:
        return math.nan


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
    """Outcome of the certification of a strong-convexity modulus.

    Attributes:
        order: Convexity order ``n`` the certificate refers to.
        modulus: ``max(0, min f^(n)/n!)`` over the nodes evaluated.
        grid_size: Number of nodes evaluated: 2 or 3 for a catalog spec,
            :data:`DEFAULT_MODULUS_GRID` for a user callable.
        verdict: ``"certified"`` (catalog) or ``"sampled"`` (user callable)
            when the minimum is nonnegative, ``"failed"`` when it is
            negative (then ``modulus == 0``), ``"indeterminate"`` when a
            non-finite value appeared.
        grid_min: Raw minimum of ``f^(n)/n!`` (NaN if indeterminate).
    """

    order: int
    modulus: float
    grid_size: int
    verdict: str
    grid_min: float


def estimate_strong_modulus(spec: FunctionSpec, n: int) -> ModulusCertificate:
    """The modulus of n-strong convexity: ``max(0, min f^(n)(t)/n!)`` over nodes.

    A catalog spec is evaluated at the nodes where its n-th derivative is
    smallest, so its nonnegative minimum is ``"certified"``: by the
    mean-value theorem for divided differences, ``[x_0..x_n; f] =
    f^(n)(xi)/n!`` is at least that minimum.  It is exact up to the
    rounding of one evaluation of ``f^(n)`` at a node and of the division
    by ``n!``.  A user callable is evaluated on
    :data:`DEFAULT_MODULUS_GRID` evenly spaced nodes, endpoints included;
    a minimum between two nodes escapes the grid, so its nonnegative
    minimum is only ``"sampled"``.

    Raises:
        MissingDerivative: if ``spec`` lacks the n-th derivative.
        ValueError: on ``n < 1``.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    nodes, verdict = spec._min_nodes, "certified"
    if nodes is None:
        nodes, verdict = np.linspace(spec.alpha, spec.beta, DEFAULT_MODULUS_GRID), "sampled"
    with np.errstate(all="ignore"):  # an overflow is the "indeterminate" verdict below
        vals = spec.evaluate(nodes, n) / math.factorial(n)
    if not np.all(np.isfinite(vals)):
        return ModulusCertificate(n, 0.0, len(nodes), "indeterminate", float("nan"))
    gmin = float(vals.min())
    verdict = verdict if gmin >= 0.0 else "failed"
    return ModulusCertificate(n, max(0.0, gmin), len(nodes), verdict, gmin)


def resolve_modulus(
    spec: FunctionSpec,
    c: Optional[float],
    *,
    order: int = 2,
) -> tuple[float, ModulusCertificate]:
    """Resolve the modulus of order ``order`` a bound uses, certifying it.

    The certificate is always :func:`estimate_strong_modulus`'s for
    ``spec`` and ``order``, ``"certified"`` or (for a user callable)
    ``"sampled"``; no caller can supply one.  ``c=None`` uses its modulus.
    An explicit ``c`` may sit anywhere at or below it (a smaller modulus
    only weakens the bound, which stays valid); exceeding it raises.

    Returns:
        ``(modulus, certificate)``.

    Raises:
        ModulusNotCertified: when certification fails or an explicit
            modulus exceeds the certified one.
        ValueError: on an explicit modulus that is negative, NaN or infinite.
    """
    _require_valid_modulus(c)
    cert = estimate_strong_modulus(spec, order)
    return _certified_modulus(spec.name, cert, c), cert


def _require_valid_modulus(c: Optional[float]) -> None:
    if c is not None and not (math.isfinite(c) and c >= 0):
        raise ValueError(f"modulus must be finite and nonnegative, got {c}")


def _certified_modulus(name: str, cert: ModulusCertificate, c: Optional[float]) -> float:
    """The modulus of :func:`resolve_modulus` from the certificate ``cert`` of spec ``name``."""
    if cert.verdict not in ("certified", "sampled"):
        raise ModulusNotCertified(
            f"modulus certification for {name} returned {cert.verdict!r} "
            f"(minimum {cert.grid_min})"
        )
    if c is None:
        return cert.modulus
    if c > cert.modulus + MODULUS_SLACK:
        raise ModulusNotCertified(
            f"requested modulus {c} exceeds certified {cert.modulus} for {name}"
        )
    return float(c)


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
    _require_valid_modulus(c)
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
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"modulus must be finite and nonnegative, got {c}")
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


def check_derivative_consistency(spec: FunctionSpec) -> bool:
    """Self-test each derivative against central differences of the previous one.

    Uses step ``h = (beta-alpha)*1e-5`` on :data:`CONSISTENCY_GRID` interior
    nodes and accepts when ``|central - exact| <= tol * (|exact| + 1)``
    everywhere, for ``tol =`` :data:`CONSISTENCY_REL_TOL`.  Intended as a
    sanity check for hand-written derivative tuples.
    """
    lo, hi = spec.interval
    h = (hi - lo) * 1e-5
    ts = np.linspace(lo + 2.0 * h, hi - 2.0 * h, CONSISTENCY_GRID)
    for k in range(1, spec.max_order + 1):
        approx = (spec.evaluate(ts + h, k - 1) - spec.evaluate(ts - h, k - 1)) / (2.0 * h)
        exact = spec.evaluate(ts, k)
        if np.any(np.abs(approx - exact) > CONSISTENCY_REL_TOL * (np.abs(exact) + 1.0)):
            return False
    return True


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


class _CatalogEntry(NamedTuple):
    """A catalog function: ``f`` (None: the law's order-0 term), hand-written
    low derivatives, and the law whose term of order ``k - lag`` is every
    higher derivative ``k``: ``(scale, exponent, shift)`` as in
    :func:`_power_terms`, ``"exp"``, or None for a function without derivatives.
    """

    f: Optional[Evaluator]
    law: object
    low: tuple[Evaluator, ...] = ()
    lag: int = 0


def _catalog_spec(name: str, entry: _CatalogEntry, interval) -> FunctionSpec:
    """The spec of a catalog entry with :data:`CATALOG_ORDER` derivatives (none without a law)."""
    count = CATALOG_ORDER + 1 - entry.lag
    shift = math.nan  # no interior node
    if entry.law is None:
        terms = []
    elif entry.law == "exp":
        terms = [np.exp] * count
    else:
        scale, exponent, shift = entry.law
        terms = _power_terms(scale, exponent, count, shift)
    derivs = entry.low + tuple(terms[len(entry.low) + 1 - entry.lag:])
    spec = FunctionSpec(name, entry.f or terms[0], derivs, tuple(interval))
    lo, hi = spec.interval
    object.__setattr__(spec, "_min_nodes", (lo, -shift, hi) if lo < -shift < hi else (lo, hi))
    return spec


#: The named functions; ``pow:a`` builds its entry from the exponent.  Every derivative
#: of an entry here or in ``divergence._GENERATORS`` is smallest at an end or at ``t = -shift``,
#: the nodes of its certificate: a law term ``s*u**p`` (``u = t + shift``) is monotone on each
#: side of ``u = 0``, ``exp`` increases, and so does each hand-written ``f'`` (``log t + 1`` here).
_FUNCTIONS = {
    "square": _CatalogEntry(lambda t: t * t, (1.0, 2.0, -0.0)),  # t*t: the c=1 shift cancels bitwise
    "linear": _CatalogEntry(None, (1.0, 1.0, -0.0)),
    "exp": _CatalogEntry(np.exp, "exp"),
    # orders >= 2 differentiate 1/t
    "xlogx": _CatalogEntry(lambda t: t * np.log(t), (1.0, -1.0, -0.0), (lambda t: np.log(t) + 1.0,), 2),
    # orders >= 1 differentiate -1/t
    "neg_log": _CatalogEntry(lambda t: -np.log(t), (-1.0, -1.0, -0.0), lag=1),
}


def _catalog_exponent(name: str) -> float:
    """The exponent ``a`` of ``pow:a`` or ``renyi:a``; ValidationError unless a finite number."""
    try:
        exponent = float(name.partition(":")[2])
    except ValueError as exc:
        raise ValidationError(f"bad exponent in name {name!r}") from exc
    if not math.isfinite(exponent):
        raise ValidationError(f"exponent {exponent} of name {name!r} is not finite")
    return exponent


def function_from_name(name: str, interval: tuple[float, float]) -> FunctionSpec:
    """Build a catalog function by name on the given interval.

    Known names: ``square``, ``exp``, ``xlogx``, ``neg_log``, ``linear``,
    and ``pow:a`` for a finite float exponent ``a``.  Derivatives are
    provided up to :data:`CATALOG_ORDER`.

    Raises:
        ValidationError: on an unknown name, a non-finite exponent or an
            interval the function is not defined on.
    """
    key = name.strip().lower()
    entry = _FUNCTIONS.get(key)
    if key.startswith("pow:"):
        exponent = _catalog_exponent(key)
        if not (exponent.is_integer() and exponent >= 0) and float(interval[0]) <= 0.0:
            raise ValidationError(
                f"{key} with non-integer exponent {exponent} needs a positive interval"
            )
        entry = _CatalogEntry(None, (1.0, exponent, -0.0))
    elif entry is None:
        raise ValidationError(
            f"unknown function {name!r}; known: square, exp, xlogx, neg_log, linear, pow:<a>"
        )
    elif key in ("xlogx", "neg_log") and float(interval[0]) <= 0.0:
        raise ValidationError(f"{key} needs a positive interval")
    return _catalog_spec(key, entry, interval)
