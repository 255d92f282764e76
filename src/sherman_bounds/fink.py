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


def _integrate_pieces(pieces, cfg: QuadratureConfig) -> float:
    """Integrate each ``(fn, lo, hi)`` piece, budgeting abs_tol across them."""
    pieces = [(fn, float(lo), float(hi)) for fn, lo, hi in pieces if hi > lo]
    if not pieces:
        return 0.0
    per_piece = cfg.abs_tol / len(pieces)
    total = 0.0
    err_total = 0.0
    for fn, lo, hi in pieces:
        out = quad(
            fn,
            lo,
            hi,
            epsabs=per_piece,
            epsrel=cfg.rel_tol,
            limit=cfg.max_subdivisions,
            full_output=1,
        )
        if len(out) == 4:
            raise QuadratureFailure(f"integration on [{lo}, {hi}] failed: {out[3].strip()}")
        total += out[0]
        err_total += out[1]
    budget = max(10.0 * cfg.abs_tol, 10.0 * cfg.rel_tol * abs(total))
    if err_total > budget:
        raise QuadratureFailure(
            f"integration error estimate {err_total} exceeds budget {budget}"
        )
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

    mean_term = n / width * _integrate_pieces([(f, al, be)], quad_cfg)
    boundary = 0.0
    for w in range(1, n):
        dw = spec.derivative(w - 1)
        boundary += (
            (n - w)
            / math.factorial(w)
            * (dw(al) * (x - al) ** w - dw(be) * (x - be) ** w)
            / width
        )
    fn = spec.derivative(n)

    def integrand(t: float) -> float:
        return (x - t) ** (n - 1) * fink_kernel(t, x, al, be) * fn(t)

    cuts = _interior_cuts(al, be, [x])
    kernel_term = _integrate_pieces(
        [(integrand, lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])], quad_cfg
    ) / (math.factorial(n - 1) * width)
    return float(f(x) - (mean_term - boundary + kernel_term))


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
        suffix, prefix = self.coefficients(t, side)
        r = (self.center - t) / self.half
        return (t - self.alpha) * _horner(suffix, r) + (t - self.beta) * _horner(prefix, r)

    def integrands(self, fn, cuts: np.ndarray) -> list:
        """``(t -> W(t) fn(t), lo, hi)`` for each piece between consecutive cuts.

        The cuts must include every data point inside the interval, so that
        ``W`` is one polynomial on each piece.
        """
        alpha, beta, center, half = self.alpha, self.beta, self.center, self.half

        def piece(suffix: list, prefix: list):
            def integrand(t: float) -> float:
                r = (center - t) / half
                return ((t - alpha) * _horner(suffix, r) + (t - beta) * _horner(prefix, r)) * fn(t)

            return integrand

        suffix, prefix = self.coefficients(cuts[:-1], "right")
        return [
            (piece(suf, pre), lo, hi)
            for suf, pre, lo, hi in zip(suffix.T.tolist(), prefix.T.tolist(), cuts[:-1], cuts[1:])
        ]


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
    piece's polynomial of ``W``.

    Raises:
        MajorizationNotVerified: if either moment condition fails.
        MissingDerivative: if derivatives up to order ``n`` are missing.
        QuadratureFailure: if the integrator gives up.
    """
    lhs, boundary = _difference_terms(x, y, spec, n)
    al, be = spec.interval
    cuts = _interior_cuts(al, be, np.concatenate([x.points, y.points]))
    pieces = _KernelWeight(x, y, n, al, be).integrands(spec.derivative(n), cuts)
    integral = _integrate_pieces(pieces, quad_cfg) / (math.factorial(n - 1) * (be - al))

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
