"""The strongly convex inequality chain around weighted majorization.

For a function ``f`` that is strongly convex with modulus ``c`` on
``[alpha, beta]`` and a weighted-majorized pair ``(y, b) ≺ (x, a)`` the
chain reads, writing ``S_b f(y)`` for ``sum_i b_i f(y_i)`` and so on::

    S_b f(y)  <=  S_a f(x) - c * (S_a x^2 - S_b y^2)   (strong bound)
              <=  S_a f(x)                             (plain bound)
              <=  [(B beta - S_a x) f(alpha) + (S_a x - B alpha) f(beta)]
                    / (beta - alpha)
                  - c * S_a (beta - x)(x - alpha)      (converse bound)

with ``B = sum_i b_i = sum_j a_j``.  Setting ``c = 0`` recovers the
classical majorization and endpoint bounds; a larger certified ``c``
tightens both ends.  Each link has one evaluator, shared by
``sherman_strong``, ``converse_sherman_strong`` and the ``full_chain``
driver, which verifies the witness, resolves the modulus and reports
every link.  The links read each side's weighted sums from one lazy
helper, which a divergence pair keeps per generator, and reject a sum
that overflowed.  Of the one-row special cases, the endpoint chord
bound is the converse at total weight one; the mean-versus-average
bound keeps its own centred spread ``S_a (x - xbar)^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .convexity import (
    MODULUS_SLACK,
    FunctionSpec,
    ModulusCertificate,
    resolve_modulus,
)
from .errors import (
    DegenerateInterval,
    MajorizationNotVerified,
    ValidationError,
    WeightsNotNormalized,
)
from .majorization import (
    StochasticMatrix,
    VerificationResult,
    WeightedVector,
    verify_weighted_majorization,
)

#: An inequality of the chain counts as violated only beyond this slack.
CHAIN_SLACK = 1e-9

#: Weights meant to be a probability vector may deviate from 1 by this much.
WEIGHT_SUM_TOL = 1e-12

#: Interval width below this is treated as degenerate for endpoint bounds.
MIN_INTERVAL_WIDTH = 1e-14


class JensenBound(NamedTuple):
    """Mean-value bound ``f(xbar) <= S_a f(x) - c * S_a (x - xbar)^2``.

    ``variance_term`` is the unscaled weighted spread ``S_a (x - xbar)^2``.
    """

    lhs: float
    rhs: float
    variance_term: float


class LahRibaricBound(NamedTuple):
    """Endpoint chord bound for normalized weights.

    ``lhs = S_a f(x)``; ``rhs`` is the chord value at the weighted mean
    minus ``c * S_a (beta - x)(x - alpha)``.
    """

    lhs: float
    rhs: float


@dataclass(frozen=True)
class BoundChain:
    """Every link of the two-sided chain for one instance.

    Attributes:
        lhs: ``S_b f(y)``.
        strong_bound: ``plain_bound - correction_quadratic``.
        plain_bound: ``S_a f(x)``.
        converse_bound: Endpoint upper bound, None when not requested.
        correction_quadratic: ``c * (S_a x^2 - S_b y^2)``.
        correction_converse: ``c * S_a (beta - x)(x - alpha)``, None when
            the converse was not requested.
        modulus: The strong-convexity modulus used.
        chain_holds: True when every computed link holds within
            :data:`CHAIN_SLACK`.
        fuchs_case: True when both sides have equally many points and all
            weights share one value (the classical equal-weight setting).
        warnings: Human-readable notes (degenerate weights and similar).
        verification: The witness check of :func:`full_chain`; None for
            an aggregated divergence, whose witness holds by construction.
            Not reported.
    """

    lhs: float
    strong_bound: float
    plain_bound: float
    converse_bound: Optional[float]
    correction_quadratic: float
    correction_converse: Optional[float]
    modulus: float
    chain_holds: bool
    fuchs_case: bool = False
    warnings: tuple[str, ...] = ()
    verification: Optional[VerificationResult] = None

    def to_dict(self) -> dict:
        """Flat JSON-ready mapping of every field but ``verification``."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "verification"}
        return dict(out, warnings=list(self.warnings))


def _check_normalized(weights: np.ndarray) -> None:
    total = math.fsum(weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightsNotNormalized(f"weights sum to {total}, expected 1 within {WEIGHT_SUM_TOL}")


def _require_passed(result: VerificationResult) -> None:
    if not result.passed:
        raise MajorizationNotVerified(
            f"witness residuals (weights {result.weight_residual}, "
            f"points {result.point_residual}) exceed {result.tol}"
        )


def _endpoint_width(spec: FunctionSpec) -> float:
    width = spec.beta - spec.alpha
    if width < MIN_INTERVAL_WIDTH:
        raise DegenerateInterval(
            f"interval width {width} too small for endpoint bounds"
        )
    return width


class _SideSums:
    """The weighted sums of one side ``(x, a)`` of the chain, each computed on first use.

    ``f`` is ``S_a f(x)``, ``linear`` is ``S_a x``, ``square`` is
    ``S_a x^2`` and ``spread`` is ``S_a (beta - x)(x - alpha)``.  A sum
    that overflows is ``inf`` or NaN, without a warning; the links reject it.
    """

    def __init__(self, points: np.ndarray, weights: np.ndarray, spec: FunctionSpec) -> None:
        self.points, self.weights, self.spec = points, weights, spec

    def _sum(self, term) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self.weights @ term(self.points))

    f = cached_property(lambda self: self._sum(self.spec.evaluate))
    linear = cached_property(lambda self: self._sum(lambda x: x))
    square = cached_property(lambda self: self._sum(lambda x: x * x))
    spread = cached_property(
        lambda self: self._sum(lambda x: (self.spec.beta - x) * (x - self.spec.alpha))
    )


def _finite(*values: float) -> tuple[float, ...]:
    """``values``, unless a sum behind one of them overflowed."""
    for value in values:
        if not math.isfinite(value):
            raise ValidationError(
                f"non-finite value {value} in a chain link: a sum overflows the float range"
            )
    return values


def _sherman_link(x: _SideSums, y: _SideSums, modulus: float) -> tuple[float, ...]:
    """``(S_b f(y), strong bound, S_a f(x), c * (S_a x^2 - S_b y^2))``: the strong Sherman link."""
    correction = modulus * (x.square - y.square)
    return _finite(y.f, x.f - correction, x.f, correction)


def _converse_link(x: _SideSums, total: float, modulus: float) -> tuple[float, ...]:
    """``(endpoint bound, c * S_a (beta - x)(x - alpha))`` at total weight ``total``."""
    spec = x.spec
    width = _endpoint_width(spec)
    al, be = spec.interval
    correction = modulus * x.spread
    with np.errstate(over="ignore", invalid="ignore"):  # the path S_a f(x) takes
        f_al, f_be = spec.evaluate(spec.interval).tolist()
    numerator = (total * be - x.linear) * f_al + (x.linear - total * al) * f_be
    return _finite(numerator / width - correction, correction)


def jensen_strong(
    x: WeightedVector,
    spec: FunctionSpec,
    c: Optional[float] = None,
    *,
    certificate: Optional[ModulusCertificate] = None,
    unchecked: bool = False,
) -> JensenBound:
    """Mean-value lower bound with quadratic strengthening.

    For normalized weights ``a`` and points in the interval,
    ``f(S_a x) <= S_a f(x) - c * S_a (x - S_a x)^2``.

    Raises:
        WeightsNotNormalized: if the weights do not sum to one.
        PointOutOfInterval: if a point leaves the interval.
        ModulusNotCertified: per :func:`resolve_modulus`.
    """
    _check_normalized(x.weights)
    spec.require_inside(x.points)
    modulus, _ = resolve_modulus(spec, c, certificate, unchecked=unchecked)
    pts = x.points
    wts = x.weights
    xbar = float(wts @ pts)
    # Centred on purpose: the one-row chain with y = xbar would compute
    # S_a x^2 - xbar^2, which cancels when |xbar| is large next to the spread.
    variance = float(wts @ ((pts - xbar) ** 2))
    return JensenBound(
        lhs=float(spec.evaluator(xbar)),
        rhs=float(wts @ spec.evaluate(pts)) - modulus * variance,
        variance_term=variance,
    )


def lah_ribaric_strong(
    x: WeightedVector,
    spec: FunctionSpec,
    c: Optional[float] = None,
    *,
    certificate: Optional[ModulusCertificate] = None,
    unchecked: bool = False,
) -> LahRibaricBound:
    """Endpoint chord upper bound with quadratic strengthening.

    For normalized weights, ``S_a f(x)`` is at most the chord of ``f``
    over ``[alpha, beta]`` evaluated at the weighted mean, minus
    ``c * S_a (beta - x)(x - alpha)``: the bound of
    :func:`converse_sherman_strong` at total weight one.

    Raises:
        WeightsNotNormalized: if the weights do not sum to one.
        DegenerateInterval: if the interval is numerically a point.
        ModulusNotCertified: per :func:`resolve_modulus`.
    """
    _check_normalized(x.weights)
    rhs = converse_sherman_strong(x, 1.0, spec, c, certificate=certificate, unchecked=unchecked)
    return LahRibaricBound(lhs=_SideSums(x.points, x.weights, spec).f, rhs=rhs)


def converse_sherman_strong(
    x: WeightedVector,
    total_weight: float,
    spec: FunctionSpec,
    c: Optional[float] = None,
    *,
    certificate: Optional[ModulusCertificate] = None,
    unchecked: bool = False,
) -> float:
    """Endpoint upper bound on ``S_a f(x)`` for arbitrary total weight.

    ``total_weight`` is the common total ``B = sum_i b_i = sum_j a_j`` of
    the weighted-majorized pair (for normalized weights this reduces to
    the chord bound of :func:`lah_ribaric_strong`).

    Raises:
        ValueError: unless ``total_weight`` is finite and nonnegative.
        DegenerateInterval: if the interval is numerically a point.
        ModulusNotCertified: per :func:`resolve_modulus`.
    """
    if not (math.isfinite(total_weight) and total_weight >= 0):
        raise ValueError(f"total weight must be finite and nonnegative, got {total_weight}")
    spec.require_inside(x.points)
    modulus, _ = resolve_modulus(spec, c, certificate, unchecked=unchecked)
    return _converse_link(_SideSums(x.points, x.weights, spec), total_weight, modulus)[0]


class ShermanBound(NamedTuple):
    """Lower link of the chain: ``lhs <= strong_bound <= plain_bound``."""

    lhs: float
    strong_bound: float
    plain_bound: float
    correction_quadratic: float
    modulus: float


def sherman_strong(
    x: WeightedVector,
    y: WeightedVector,
    spec: FunctionSpec,
    c: Optional[float] = None,
    *,
    matrix: Optional[StochasticMatrix] = None,
    certificate: Optional[ModulusCertificate] = None,
    unchecked_modulus: bool = False,
    assume_majorized: bool = False,
    tol: float = 1e-9,
) -> ShermanBound:
    """Strongly convex majorization bound ``S_b f(y) <= S_a f(x) - c*(S_a x^2 - S_b y^2)``.

    The weighted majorization of ``(y, b)`` by ``(x, a)`` must either be
    verified here (pass the row-stochastic witness ``matrix``) or be
    vouched for by the caller with ``assume_majorized=True``.

    Raises:
        MajorizationNotVerified: if no witness is given and the caller
            did not assume majorization, or the witness fails to verify.
        ModulusNotCertified: per :func:`resolve_modulus`.
    """
    spec.require_inside(x.points)
    spec.require_inside(y.points)
    if matrix is not None:
        _require_passed(verify_weighted_majorization(x, y, matrix, tol))
    elif not assume_majorized:
        raise MajorizationNotVerified(
            "pass a stochastic witness matrix or set assume_majorized=True"
        )
    modulus, _ = resolve_modulus(spec, c, certificate, unchecked=unchecked_modulus)
    lhs, strong, plain, correction = _sherman_link(
        _SideSums(x.points, x.weights, spec), _SideSums(y.points, y.weights, spec), modulus
    )
    return ShermanBound(
        lhs=lhs,
        strong_bound=strong,
        plain_bound=plain,
        correction_quadratic=correction,
        modulus=modulus,
    )


def full_chain(
    x: WeightedVector,
    y: WeightedVector,
    matrix: StochasticMatrix,
    spec: FunctionSpec,
    c: Optional[float] = None,
    *,
    certificate: Optional[ModulusCertificate] = None,
    unchecked_modulus: bool = False,
    tol: float = 1e-9,
) -> BoundChain:
    """Verify the witness and evaluate every link of the two-sided chain.

    Args:
        x: Majorant side ``(x, a)``.
        y: Majorized side ``(y, b)``.
        matrix: Row-stochastic witness with ``a = b A`` and ``y = A x``.
        spec: Function, strongly convex on its interval.
        c: Optional explicit modulus; None auto-certifies at order 2.
        certificate: Optional precomputed modulus certificate to reuse.
        unchecked_modulus: Accept ``c`` without certification.
        tol: Witness verification tolerance.

    Returns:
        A :class:`BoundChain`; ``chain_holds`` reports whether each of
        the three inequalities holds within :data:`CHAIN_SLACK`.

    Raises:
        MajorizationNotVerified: if the witness fails verification.
        ModulusNotCertified: per :func:`resolve_modulus`.
        DegenerateInterval: if the interval is numerically a point.
    """
    spec.require_inside(x.points)
    spec.require_inside(y.points)
    result = verify_weighted_majorization(x, y, matrix, tol)
    _require_passed(result)
    modulus, _ = resolve_modulus(spec, c, certificate, unchecked=unchecked_modulus)
    chain = _chain_links(
        _SideSums(x.points, x.weights, spec), _SideSums(y.points, y.weights, spec), modulus
    )
    weights = np.concatenate([x.weights, y.weights])
    fuchs = x.size == y.size and float(np.ptp(weights)) <= 1e-12 * max(1.0, float(weights.max()))
    return replace(chain, fuchs_case=fuchs, verification=result)


def _chain_links(x: _SideSums, y: _SideSums, modulus: float) -> BoundChain:
    """The links of :func:`full_chain` for a majorized pair inside the interval.

    Raises:
        ValidationError: if a link is not finite because a sum overflows.
    """
    total = math.fsum(y.weights)
    warnings = ("all weights are zero; every sum in the chain is vacuous",) if total <= 0.0 else ()
    # The converse link first: a degenerate interval fails before f is evaluated.
    converse, correction_converse = _converse_link(x, total, modulus)
    lhs, strong, plain, correction_quadratic = _sherman_link(x, y, modulus)
    chain_holds = (
        lhs <= strong + CHAIN_SLACK
        and strong <= plain + CHAIN_SLACK
        and plain <= converse + CHAIN_SLACK
    )
    return BoundChain(
        lhs=lhs,
        strong_bound=strong,
        plain_bound=plain,
        converse_bound=converse,
        correction_quadratic=correction_quadratic,
        correction_converse=correction_converse,
        modulus=modulus,
        chain_holds=chain_holds,
        warnings=warnings,
    )
