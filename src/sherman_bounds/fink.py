"""Identity-based representations of f and of Sherman-type differences.

For an n-times differentiable ``f`` on ``[alpha, beta]`` the n-th order
two-point Taylor-like identity (Fink's identity) represents ``f(x)``
through the interval mean of ``f``, endpoint derivatives up to order
``n - 2``, and one weighted integral of ``f^(n)`` against the kernel
``(x - t)^(n-1) * k(t, x)`` with::

    k(t, x) = t - alpha  if t <= x,   t - beta  otherwise.

Summing the identity over a weighted-majorized pair cancels the mean and
first-order terms and yields an exact representation of the difference
``S_a f(x) - S_b f(y)``; dropping the integral gives computable bounds
whenever the combined kernel weight has one sign on the interval, which
holds in particular for even ``n`` on verified pairs.  Applying that to
the shift ``g = f - c*t^n`` of an n-strongly convex ``f`` produces the
higher-order analogue of the quadratically corrected bound.

Integrals are split into smooth pieces, which QUADPACK's first 21-point
Gauss-Kronrod step integrates in one array evaluation; ``quad`` gets only
the pieces whose first estimate QUADPACK would not accept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.integrate import quad

from .convexity import (
    FunctionSpec,
    is_n_convex,
    is_n_strongly_convex,
    shift_to_convex,
)
from .errors import (
    KernelConditionIndefinite,
    MajorizationNotVerified,
    ModulusNotCertified,
    OutOfInterval,
    QuadratureFailure,
)
from .majorization import WeightedVector

#: Sign classification threshold for the combined kernel weight.
KERNEL_SIGN_TOL = 1e-12

#: Default number of grid nodes for the kernel sign scan.
DEFAULT_KERNEL_GRID = 1001

#: Residual slack for the higher-order bound verdict.
BOUND_SLACK = 1e-9


@dataclass(frozen=True, slots=True)
class QuadratureConfig:
    """Tolerances and budget for the adaptive integrator.

    Attributes:
        abs_tol: Total absolute error budget, split across smooth pieces.
        rel_tol: Relative error target per piece.
        max_subdivisions: Subdivision limit per piece.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not self.abs_tol > 0 or not self.rel_tol > 0:
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


def fink_kernel(t: float, x: float, alpha: float, beta: float) -> float:
    """The two-branch kernel ``t - alpha`` (for ``t <= x``) or ``t - beta``.

    Raises:
        OutOfInterval: if ``t`` or ``x`` leaves ``[alpha, beta]``.
    """
    slack = 1e-12 * max(1.0, abs(alpha), abs(beta))
    if not (alpha - slack <= t <= beta + slack):
        raise OutOfInterval(f"t={t} outside [{alpha}, {beta}]")
    if not (alpha - slack <= x <= beta + slack):
        raise OutOfInterval(f"x={x} outside [{alpha}, {beta}]")
    return t - alpha if t <= x else t - beta


#: QUADPACK's dqk21 rule (Piessens et al. 1983): the 21 nodes on [-1, 1],
#: their Kronrod weights, and the 10-point Gauss weights (0 at Kronrod-only
#: nodes), from the nonnegative abscissae in decreasing order.
_XGK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
        0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
        0.2943928627014602, 0.14887433898163122, 0.0)
_WGK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
        0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
        0.14277593857706009, 0.14773910490133849, 0.1494455540029169)
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
       0.29552422471475287)
_GK_NODES = np.concatenate([np.negative(_XGK), _XGK[-2::-1]])
_GK_KRONROD = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_GAUSS = np.zeros(21)
_GK_GAUSS[1::2] = _WG + _WG[::-1]
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def _first_step(integrand, cuts: np.ndarray, cfg: QuadratureConfig):
    """QUADPACK's first step on every piece ``[cuts[i], cuts[i+1]]`` at once.

    Returns dqk21's result and error estimate per piece, and whether dqagse
    accepts them: ``max_subdivisions > 1``, and the error zero, or within
    ``max(abs_tol / pieces, rel_tol |result|)`` and not ``resasc`` (dqagse's
    round-off flag needs a larger error, so it rejects as well).
    ``integrand(t, i)`` takes nodes and piece indices that broadcast, and is
    called once for all pieces.
    """
    lo, hi = cuts[:-1], cuts[1:]
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (lo + hi)[:, None] + half[:, None] * _GK_NODES
    values = integrand(nodes, np.arange(lo.size)[:, None])
    with np.errstate(all="ignore"):  # non-finite pieces are rejected and go to quad
        resk = values @ _GK_KRONROD
        resabs = np.abs(values) @ _GK_KRONROD * half
        resasc = np.abs(values - 0.5 * resk[:, None]) @ _GK_KRONROD * half
        result = resk * half
        abserr = np.abs((resk - values @ _GK_GAUSS) * half)
        scaled = resasc * np.minimum(1.0, (200.0 * abserr / resasc) ** 1.5)
        abserr = np.where((resasc != 0.0) & (abserr != 0.0), scaled, abserr)
        floor = np.where(resabs > _TINY / (50.0 * _EPS), 50.0 * _EPS * resabs, 0.0)
        abserr = np.maximum(floor, abserr)
        bound = np.maximum(cfg.abs_tol / lo.size, cfg.rel_tol * np.abs(result))
        accepted = ((abserr <= bound) & (abserr != resasc)) | (abserr == 0.0)
    return result, abserr, accepted & (cfg.max_subdivisions > 1)


def _integrate_pieces(integrand, cuts: np.ndarray, cfg: QuadratureConfig) -> float:
    """Sum of the integrals of ``integrand(t, i)`` over increasing ``cuts``.

    Pieces that :func:`_first_step` rejects go, in order, to ``quad`` with
    ``epsabs = abs_tol / pieces``: every piece meets what ``quad`` requires.
    """
    if cuts.size < 2:
        return 0.0
    result, abserr, accepted = _first_step(integrand, cuts, cfg)
    for i in np.flatnonzero(~accepted).tolist():
        lo, hi = float(cuts[i]), float(cuts[i + 1])
        out = quad(integrand, lo, hi, args=(i,), epsabs=cfg.abs_tol / result.size,
                   epsrel=cfg.rel_tol, limit=cfg.max_subdivisions, full_output=1)
        if len(out) == 4:
            raise QuadratureFailure(f"integration on [{lo}, {hi}] failed: {out[3].strip()}")
        result[i], abserr[i] = out[0], out[1]
    total, err_total = float(result.sum()), float(abserr.sum())
    budget = max(10.0 * cfg.abs_tol, 10.0 * cfg.rel_tol * abs(total))
    if err_total > budget:
        raise QuadratureFailure(f"integration error estimate {err_total} exceeds budget {budget}")
    return total


def _interior_cuts(alpha: float, beta: float, interior) -> np.ndarray:
    pts = np.asarray(interior, dtype=float)
    pts = pts[(pts > alpha) & (pts < beta)]
    return np.unique(np.concatenate([[alpha], pts, [beta]]))


def fink_identity_check(
    spec: FunctionSpec,
    x: float,
    n: int,
    quad_cfg: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Residual of the n-th order identity at one point.

    Evaluates ``f(x)`` minus the identity's right-hand side (interval
    mean, endpoint-derivative sum, kernel integral of ``f^(n)``); the
    result should vanish up to quadrature error.

    Raises:
        MissingDerivative: if derivatives up to order ``n`` are missing.
        PointOutOfInterval: if ``x`` leaves the interval.
        QuadratureFailure: if the integrator gives up.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    spec.require_inside([x])
    spec.derivative(n)  # fail fast if unavailable
    al, be = spec.interval
    width = be - al
    f = spec.evaluator
    x = float(x)

    mean = _integrate_pieces(lambda t, i: spec.evaluate(t), np.array([al, be]), quad_cfg)
    boundary = 0.0
    for w in range(1, n):
        dw = spec.derivative(w - 1)
        boundary += (
            (n - w)
            / math.factorial(w)
            * (dw(al) * (x - al) ** w - dw(be) * (x - be) ** w)
            / width
        )
    cuts = _interior_cuts(al, be, [x])
    # k(t, x) = t - alpha on the pieces left of x, t - beta right of it
    offsets = np.where(cuts[:-1] < x, al, be)

    def integrand(t, i):
        return (x - t) ** (n - 1) * (t - offsets[i]) * spec.evaluate(t, order=n)

    kernel_term = _integrate_pieces(integrand, cuts, quad_cfg) / (math.factorial(n - 1) * width)
    return float(f(x) - (n / width * mean - boundary + kernel_term))


@dataclass(frozen=True, slots=True)
class KernelCondition:
    """Sign scan of the combined kernel weight over the interval.

    The weight is the piecewise polynomial of :func:`check_kernel_condition`,
    evaluated at the scan nodes only: the even grid joined with every data
    point, where both the value and the right limit count.

    Attributes:
        classification: ``"nonnegative"``, ``"nonpositive"``, or
            ``"indefinite"`` at tolerance :data:`KERNEL_SIGN_TOL`.
        min_value: Smallest weight seen at the scan nodes.
        max_value: Largest weight seen at the scan nodes.
        grid_size: Number of evenly spaced scan nodes requested.
    """

    classification: str
    min_value: float
    max_value: float
    grid_size: int


def _horner(coeffs, r):
    """``sum_k coeffs[k] * r^(K-1-k)`` for ``K`` coefficients.

    Each coefficient may be a float or an array matching ``r``.
    """
    acc = 0.0
    for c in coeffs:
        acc = acc * r + c
    return acc


class _KernelWeight:
    """The combined kernel weight ``W`` of a pair, as a piecewise polynomial.

    Between consecutive data points the set of points on the ``t - alpha``
    branch is fixed, so each side of ``W`` is
    ``(t - alpha) P_suf(t) + (t - beta) P_pre(t)``, where ``P`` sums
    ``a_j (x_j - t)^(n-1)`` over the points at or after ``t`` (suffix) or
    before it (prefix).  With ``u = (x - c)/h`` and ``r = (c - t)/h``, for
    the midpoint ``c`` and half-width ``h`` of the interval, that sum is
    ``h^(n-1) sum_{p<n} C(n-1, p) M_p r^(n-1-p)`` in the scaled moments
    ``M_p = sum a_j u_j^p``.  Prefix and suffix sums of the moments over the
    sorted points give the coefficients of every piece.  ``W``'s
    coefficients are the difference of the two sides' coefficients, so
    identical sides give exact zeros.
    """

    def __init__(
        self, x: WeightedVector, y: WeightedVector, n: int, alpha: float, beta: float
    ) -> None:
        self.alpha = alpha
        self.beta = beta
        self.center = 0.5 * (alpha + beta)
        self.half = 0.5 * (beta - alpha) or 1.0  # a one-point hull has W = 0
        scale = self.half ** (n - 1) * np.array([math.comb(n - 1, p) for p in range(n)])
        self.sides = [self._moment_sums(v, n, scale) for v in (x, y)]

    def _moment_sums(self, v: WeightedVector, n: int, scale: np.ndarray):
        order = np.argsort(v.points, kind="stable")
        pts = v.points[order]
        u = (pts - self.center) / self.half
        terms = v.weights[order, None] * u[:, None] ** np.arange(n) * scale
        zero = np.zeros((1, n))
        suffix = np.concatenate([np.cumsum(terms[::-1], axis=0)[::-1], zero])
        prefix = np.concatenate([zero, np.cumsum(terms, axis=0)])
        return pts, suffix, prefix

    def coefficients(self, t: np.ndarray, side: str) -> tuple[np.ndarray, np.ndarray]:
        """Suffix and prefix coefficients of ``W`` at ``t``, each ``(n, len(t))``.

        With ``side="left"`` a point ``x_j = t`` is on the ``t - alpha``
        branch (the value at ``t``); with ``side="right"`` it is on the
        ``t - beta`` branch (the right limit, and the piece starting at ``t``).
        """
        (px, sx, qx), (py, sy, qy) = self.sides
        i = np.searchsorted(px, t, side=side)
        j = np.searchsorted(py, t, side=side)
        return (sx[i] - sy[j]).T, (qx[i] - qy[j]).T

    def values(self, t: np.ndarray, side: str = "left") -> np.ndarray:
        """``W`` at the nodes ``t``, or its right limits with ``side="right"``."""
        return self.polynomial(t, *self.coefficients(t, side))

    def polynomial(self, t, suffix, prefix):
        """``W`` at ``t`` from piece coefficients that broadcast against ``t``."""
        r = (self.center - t) / self.half
        return (t - self.alpha) * _horner(suffix, r) + (t - self.beta) * _horner(prefix, r)


def check_kernel_condition(
    x: WeightedVector,
    y: WeightedVector,
    n: int,
    t_grid_size: int = DEFAULT_KERNEL_GRID,
    *,
    interval: Optional[tuple[float, float]] = None,
) -> KernelCondition:
    """Classify the sign of the combined kernel weight for a pair.

    The weight ``W(t) = S_a (x-t)^(n-1) k(t,x) - S_b (y-t)^(n-1) k(t,y)``
    is a polynomial of degree ``n`` between consecutive data points.  It is
    built once from prefix sums of the weighted power moments and scanned
    on an even grid joined with every data point, where both the value and
    the right limit are inspected (the kernel jumps there).  The cost is
    ``O(m log m + (m + t_grid_size) n)`` for ``m`` data points; a dip
    between scan nodes goes unseen.  A one-signed weight is what turns the
    difference identity into a bound.

    Args:
        x: Majorant side.
        y: Majorized side.
        n: Identity order (the kernel uses the ``n-1`` power).
        t_grid_size: Number of evenly spaced scan nodes.
        interval: Scan interval; defaults to the hull of the data points.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if t_grid_size < 2:
        raise ValueError(f"t_grid_size must be >= 2, got {t_grid_size}")
    if interval is None:
        lo = float(min(x.points.min(), y.points.min()))
        hi = float(max(x.points.max(), y.points.max()))
    else:
        lo, hi = float(interval[0]), float(interval[1])
    breaks = np.concatenate([x.points, y.points])
    breaks = breaks[(breaks >= lo) & (breaks <= hi)]
    grid = np.unique(np.concatenate([np.linspace(lo, hi, t_grid_size), breaks]))
    weight = _KernelWeight(x, y, n, lo, hi)
    values = weight.values(grid)
    right = weight.values(breaks, side="right")
    lo_val = float(min(values.min(), right.min())) if right.size else float(values.min())
    hi_val = float(max(values.max(), right.max())) if right.size else float(values.max())
    if lo_val >= -KERNEL_SIGN_TOL:
        label = "nonnegative"
    elif hi_val <= KERNEL_SIGN_TOL:
        label = "nonpositive"
    else:
        label = "indefinite"
    return KernelCondition(label, lo_val, hi_val, t_grid_size)


@dataclass(frozen=True, slots=True)
class FinkReport:
    """Exact decomposition of a Sherman-type difference.

    ``lhs = boundary_terms + integral_term + residual`` with residual at
    quadrature-noise level when the identity applies.

    Attributes:
        order: Identity order ``n``.
        lhs: ``S_a f(x) - S_b f(y)``.
        boundary_terms: Endpoint-derivative sum (orders 1..n-2).
        integral_term: Kernel integral of ``f^(n)``.
        residual: ``lhs - boundary_terms - integral_term``.
        kernel_condition: Sign classification of the kernel weight.
    """

    order: int
    lhs: float
    boundary_terms: float
    integral_term: float
    residual: float
    kernel_condition: str

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "lhs": self.lhs,
            "boundary_terms": self.boundary_terms,
            "integral_term": self.integral_term,
            "residual": self.residual,
            "kernel_condition": self.kernel_condition,
        }


def sherman_difference_identity(
    x: WeightedVector,
    y: WeightedVector,
    spec: FunctionSpec,
    n: int,
    quad_cfg: QuadratureConfig = QuadratureConfig(),
    *,
    kernel_grid_size: int = DEFAULT_KERNEL_GRID,
) -> FinkReport:
    """Decompose ``S_a f(x) - S_b f(y)`` by the n-th order identity.

    Requires the two moment conditions that weighted majorization
    guarantees, ``S_a 1 = S_b 1`` and ``S_a x = S_b y``; under them the
    interval-mean and first-order endpoint terms cancel exactly and::

        lhs = sum_{w=2}^{n-1} (n-w)/w! * [f^(w-1)(beta) S_w(beta)
                                          - f^(w-1)(alpha) S_w(alpha)]
                / (beta - alpha)
              + integral of W(t) f^(n)(t) / ((n-1)! (beta - alpha))

    with ``S_w(z) = S_a (x-z)^w - S_b (y-z)^w`` and ``W`` the combined
    kernel weight.

    Each piece between consecutive data points is integrated against that
    piece's polynomial of ``W``: one 21-point Gauss-Kronrod pass over all
    pieces, with ``quad`` only for the pieces QUADPACK would subdivide.

    Raises:
        MajorizationNotVerified: if either moment condition fails.
        MissingDerivative: if derivatives up to order ``n`` are missing.
        QuadratureFailure: if the integrator gives up.
    """
    lhs, boundary = _difference_terms(x, y, spec, n)
    al, be = spec.interval
    cuts = _interior_cuts(al, be, np.concatenate([x.points, y.points]))
    weight = _KernelWeight(x, y, n, al, be)
    suffix, prefix = weight.coefficients(cuts[:-1], "right")

    def integrand(t, i):
        return weight.polynomial(t, suffix[:, i], prefix[:, i]) * spec.evaluate(t, order=n)

    integral = _integrate_pieces(integrand, cuts, quad_cfg) / (math.factorial(n - 1) * (be - al))

    condition = check_kernel_condition(
        x, y, n, kernel_grid_size, interval=spec.interval
    ).classification
    return FinkReport(
        order=n,
        lhs=lhs,
        boundary_terms=boundary,
        integral_term=integral,
        residual=lhs - boundary - integral,
        kernel_condition=condition,
    )


def _difference_terms(
    x: WeightedVector, y: WeightedVector, spec: FunctionSpec, n: int
) -> tuple[float, float]:
    """``lhs`` and the endpoint sum of :func:`sherman_difference_identity`.

    Checks everything the identity checks, without integrating.

    Raises:
        MajorizationNotVerified: if either moment condition fails.
        MissingDerivative: if derivatives up to order ``n`` are missing.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    spec.require_inside(x.points)
    spec.require_inside(y.points)
    spec.derivative(n)  # fail fast if unavailable
    al, be = spec.interval
    width = be - al

    sa = math.fsum(x.weights)
    sb = math.fsum(y.weights)
    max1 = math.fsum((x.weights * x.points).tolist())
    may1 = math.fsum((y.weights * y.points).tolist())
    guard = 1e-9 * max(1.0, abs(sa), abs(max1))
    if abs(sa - sb) > guard:
        raise MajorizationNotVerified(f"total weights differ: {sa} vs {sb}")
    if abs(max1 - may1) > guard:
        raise MajorizationNotVerified(f"first moments differ: {max1} vs {may1}")

    lhs = float(x.weights @ spec.evaluate(x.points)) - float(y.weights @ spec.evaluate(y.points))

    boundary = 0.0
    for w in range(2, n):
        dw = spec.derivative(w - 1)
        s_beta = float(x.weights @ (x.points - be) ** w) - float(y.weights @ (y.points - be) ** w)
        s_alpha = float(x.weights @ (x.points - al) ** w) - float(y.weights @ (y.points - al) ** w)
        boundary += (n - w) / math.factorial(w) * (dw(be) * s_beta - dw(al) * s_alpha) / width
    return lhs, float(boundary)


class HigherOrderBound(NamedTuple):
    """Higher-order one-sided bound derived from the difference identity.

    For a nonnegative kernel weight the claim is
    ``lhs_with_correction >= rhs_boundary`` (reversed for nonpositive),
    where ``lhs_with_correction`` is the difference of the shifted
    function ``g = f - c*t^n`` and ``rhs_boundary`` its endpoint sum.
    """

    lhs_with_correction: float
    rhs_boundary: float
    holds: bool
    kernel_condition: str


def higher_order_sherman_bound(
    x: WeightedVector,
    y: WeightedVector,
    spec: FunctionSpec,
    n: int,
    c: float,
    *,
    kernel_grid_size: int = DEFAULT_KERNEL_GRID,
    sample_count: int = 200,
    seed: int = 0,
    unchecked_modulus: bool = False,
) -> HigherOrderBound:
    """Bound the Sherman difference through the order-n identity.

    The modulus claim (``f`` n-strongly convex with modulus ``c``; plain
    n-convexity for ``c = 0``) is screened by sampled divided differences
    unless ``unchecked_modulus`` is set.  The kernel weight of the pair
    must be one-signed on the interval; dropping the integral of
    ``g^(n) >= 0`` against it then leaves a valid inequality between the
    shifted difference and its endpoint-derivative sum.  Nothing is
    integrated: one kernel scan decides the sign, and the two sides come
    from the identity's endpoint terms.

    Raises:
        KernelConditionIndefinite: if the kernel weight changes sign.
        ModulusNotCertified: if sampling refutes the modulus claim.
        MajorizationNotVerified: if either moment condition of
            :func:`sherman_difference_identity` fails.
        MissingDerivative: if derivatives up to order ``n`` are missing.
    """
    if c < 0:
        raise ValueError(f"modulus must be nonnegative, got {c}")
    condition = check_kernel_condition(x, y, n, kernel_grid_size, interval=spec.interval)
    if condition.classification == "indefinite":
        raise KernelConditionIndefinite(
            f"kernel weight spans [{condition.min_value}, {condition.max_value}]; "
            "no one-sided bound follows"
        )
    if not unchecked_modulus:
        if c > 0:
            verdict = is_n_strongly_convex(spec, n, c, sample_count, seed)
        else:
            verdict = is_n_convex(spec, n, sample_count, seed)
        if not verdict.passed:
            raise ModulusNotCertified(
                f"sampling refutes modulus {c} at order {n}: divided difference "
                f"{verdict.worst_value} at nodes {verdict.witness}"
            )
    lhs, boundary = _difference_terms(x, y, shift_to_convex(spec, n, c), n)
    if condition.classification == "nonnegative":
        holds = lhs >= boundary - BOUND_SLACK
    else:
        holds = lhs <= boundary + BOUND_SLACK
    return HigherOrderBound(
        lhs_with_correction=lhs,
        rhs_boundary=boundary,
        holds=holds,
        kernel_condition=condition.classification,
    )
