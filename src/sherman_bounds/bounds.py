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
tightens both ends.  Each link has one evaluator and one public entry
point: :func:`full_chain` verifies the witness, certifies the modulus and
reports every link, and :func:`converse_sherman_strong` is the endpoint
bound alone, at the total weight of its own side.  The links read each
side's weighted sums from one lazy helper, which a divergence pair keeps
per generator, and reject a sum that overflowed.  Of the one-row special
cases, the strong Lah-Ribaric bound is the converse at total weight one;
the mean-versus-average bound keeps its own centred spread
``S_a (x - xbar)^2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .convexity import (
    FunctionSpec,
    ModulusCertificate,
    resolve_modulus,
)
from .errors import (
    DegenerateInterval,
    MajorizationNotVerified,
    ModulusNotCertified,
    WeightsNotNormalized,
)
from .majorization import (
    DEFAULT_TOL,
    StochasticMatrix,
    VerificationResult,
    WeightedVector,
    _finite,
    _fsum,
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


@dataclass(frozen=True)
class BoundChain:
    """Every link of the two-sided chain for one instance.

    Attributes:
        lhs: ``S_b f(y)``.
        strong_bound: ``plain_bound - correction_quadratic``.
        plain_bound: ``S_a f(x)``.
        converse_bound: Endpoint upper bound.
        correction_quadratic: ``c * (S_a x^2 - S_b y^2)``.
        correction_converse: ``c * S_a (beta - x)(x - alpha)``.
        modulus: The strong-convexity modulus used.
        chain_holds: True when every computed link holds within
            :data:`CHAIN_SLACK`.
        fuchs_case: True when both sides have equally many points and all
            weights share one value (the classical equal-weight setting).
        warnings: Human-readable notes (degenerate weights and similar).
        verification: The witness check of :func:`full_chain`; None for
            an aggregated divergence, whose witness holds by construction.
            Not reported.
        certificate: The modulus certificate that :func:`full_chain`
            resolved and set; None elsewhere.  Not reported.
    """

    lhs: float
    strong_bound: float
    plain_bound: float
    converse_bound: float
    correction_quadratic: float
    correction_converse: float
    modulus: float
    chain_holds: bool
    fuchs_case: bool = False
    warnings: tuple[str, ...] = ()
    verification: Optional[VerificationResult] = None
    certificate: Optional[ModulusCertificate] = field(default=None, init=False)

    def to_dict(self) -> dict:
        """Flat JSON-ready mapping of every field but ``verification`` and ``certificate``."""
        unreported = ("verification", "certificate")
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in unreported}
        return dict(out, warnings=list(self.warnings))


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
        with np.errstate(all="ignore"):
            return float(self.weights @ term(self.points))

    f = cached_property(lambda self: self._sum(self.spec.evaluate))
    linear = cached_property(lambda self: self._sum(lambda x: x))
    square = cached_property(lambda self: self._sum(lambda x: x * x))
    spread = cached_property(
        lambda self: self._sum(lambda x: (self.spec.beta - x) * (x - self.spec.alpha))
    )


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
    with np.errstate(all="ignore"):  # the path S_a f(x) takes
        f_al, f_be = spec.evaluate(spec.interval).tolist()
    numerator = (total * be - x.linear) * f_al + (x.linear - total * al) * f_be
    return _finite(numerator / width - correction, correction)


def jensen_strong(
    x: WeightedVector,
    spec: FunctionSpec,
    c: Optional[float] = None,
) -> JensenBound:
    """Mean-value lower bound with quadratic strengthening.

    For normalized weights ``a`` and points in the interval,
    ``f(S_a x) <= S_a f(x) - c * S_a (x - S_a x)^2``.

    Raises:
        WeightsNotNormalized: if the weights do not sum to one.
        PointOutOfInterval: if a point leaves the interval.
        ModulusNotCertified: per :func:`resolve_modulus`.
        ValidationError: if a value is not finite because a sum overflows.
    """
    if abs(x.weight_sum - 1.0) > WEIGHT_SUM_TOL:  # the fsum converse_sherman_strong reads
        raise WeightsNotNormalized(f"weights sum to {x.weight_sum}, expected 1 within {WEIGHT_SUM_TOL}")
    spec.require_inside(x.points)
    modulus, _ = resolve_modulus(spec, c)
    pts = x.points
    wts = x.weights
    with np.errstate(all="ignore"):  # a non-finite value raises below
        xbar = float(wts @ pts)
        # Centred on purpose: the one-row chain with y = xbar would compute
        # S_a x^2 - xbar^2, which cancels when |xbar| is large next to the spread.
        variance = float(wts @ ((pts - xbar) ** 2))
        lhs = float(spec.evaluate([xbar])[0])  # the path S_a f(x) takes
        rhs = float(wts @ spec.evaluate(pts)) - modulus * variance
    return JensenBound(*_finite(lhs, rhs, variance))


def converse_sherman_strong(
    x: WeightedVector,
    spec: FunctionSpec,
    c: Optional[float] = None,
) -> float:
    """Endpoint upper bound on ``S_a f(x)``: the converse link of the chain.

    The bound is the chord of ``f`` over ``[alpha, beta]`` at total weight
    ``A = sum_j a_j`` (``x.weight_sum``), minus
    ``c * S_a (beta - x)(x - alpha)``.  In a chain ``A`` equals the total
    ``B = sum_i b_i`` of the majorized side; at ``A = 1`` the bound is the
    strong Lah-Ribaric inequality.

    Raises:
        PointOutOfInterval: if a point leaves the interval.
        DegenerateInterval: if the interval is numerically a point.
        ModulusNotCertified: per :func:`resolve_modulus`.
        ValidationError: if the bound is not finite because a sum overflows.
    """
    spec.require_inside(x.points)
    modulus, _ = resolve_modulus(spec, c)
    return _converse_link(_SideSums(x.points, x.weights, spec), x.weight_sum, modulus)[0]


def full_chain(
    x: WeightedVector,
    y: WeightedVector,
    matrix: StochasticMatrix,
    spec: FunctionSpec,
    c: Optional[float] = None,
    *,
    certificate: Optional[ModulusCertificate] = None,
) -> BoundChain:
    """Verify the witness and evaluate every link of the two-sided chain.

    The witness is checked at :data:`.majorization.DEFAULT_TOL`.

    Args:
        x: Majorant side ``(x, a)``.
        y: Majorized side ``(y, b)``.
        matrix: Row-stochastic witness with ``a = b A`` and ``y = A x``.
        spec: Function, strongly convex on its interval.
        c: Optional explicit modulus; None auto-certifies at order 2.
        certificate: Checked, never trusted: the chain resolves its own
            certificate and raises if this one differs.  The keyword stays
            because the benchmark's ``bulk_large`` workload passes it.

    Returns:
        A :class:`BoundChain`; ``chain_holds`` reports whether each of
        the three inequalities holds within :data:`CHAIN_SLACK`.

    Raises:
        PointOutOfInterval: if a point of either side leaves the interval.
        MajorizationNotVerified: if the witness fails verification.
        ModulusNotCertified: per :func:`resolve_modulus`, or if
            ``certificate`` differs from the one resolved for ``spec``.
        DegenerateInterval: if the interval is numerically a point.
        ValidationError: if a link is not finite because a sum overflows.
    """
    spec.require_inside(x.points)
    spec.require_inside(y.points)
    result = verify_weighted_majorization(x, y, matrix)
    if not result.passed:
        raise MajorizationNotVerified(
            f"witness residuals (weights {result.weight_residual}, "
            f"points {result.point_residual}) exceed {DEFAULT_TOL}"
        )
    modulus, resolved = resolve_modulus(spec, c)
    if certificate is not None and certificate != resolved:
        raise ModulusNotCertified(f"the given certificate is not the one of {spec.name}")
    weights = np.concatenate([x.weights, y.weights])
    fuchs = x.size == y.size and float(np.ptp(weights)) <= 1e-12 * max(1.0, float(weights.max()))
    x_sums, y_sums = _SideSums(x.points, x.weights, spec), _SideSums(y.points, y.weights, spec)
    chain = replace(_chain_links(x_sums, y_sums, modulus), fuchs_case=fuchs, verification=result)
    object.__setattr__(chain, "certificate", resolved)
    return chain


def _chain_links(x: _SideSums, y: _SideSums, modulus: float) -> BoundChain:
    """The links of :func:`full_chain` for a majorized pair inside the interval.

    Raises:
        ValidationError: if a link is not finite because a sum overflows.
    """
    total = _fsum(y.weights)
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
