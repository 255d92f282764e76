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

The kernel weight is a polynomial between consecutive data points; its
sign is proved piece by piece from Bernstein coefficients.  Integrals are
split into the same pieces, which QUADPACK's first 21-point Gauss-Kronrod
step integrates in one array evaluation; ``quad`` gets only the pieces
whose first estimate QUADPACK would not accept.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.integrate import quad

from .convexity import (
    FunctionSpec,
    _first_outside,
    resolve_modulus,
    shift_to_convex,
)
from .errors import (
    KernelConditionIndefinite,
    MajorizationNotVerified,
    OutOfInterval,
    PointOutOfInterval,
    QuadratureFailure,
)
from .majorization import WeightedVector

#: Sign classification threshold for the combined kernel weight.
KERNEL_SIGN_TOL = 1e-12

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
    for label, value in (("t", t), ("x", x)):
        if _first_outside(value, alpha, beta) is not None:
            raise OutOfInterval(f"{label}={value} outside [{alpha}, {beta}]")
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

#: dqk21 adds the node pairs in this order: the Gauss nodes, then the others.
_DQK21_ORDER = [1, 3, 5, 7, 9, 0, 2, 4, 6, 8]


def _first_step(integrand, cuts: np.ndarray, cfg: QuadratureConfig):
    """QUADPACK's first step on every piece ``[cuts[i], cuts[i+1]]`` at once.

    Returns dqk21's result and error estimate per piece, and whether dqagse
    accepts them: ``max_subdivisions > 1``, and the error zero, or within
    ``max(abs_tol / pieces, rel_tol |result|)`` and not ``resasc`` (dqagse's
    round-off flag needs a larger error, so it rejects as well).
    ``integrand(t, i)`` takes nodes ``(21, pieces)`` and piece indices that
    broadcast, and is called once for all pieces.  Sums run in dqk21's order
    and so match ``quad`` bit for bit, as the error estimate can amplify one
    ulp of the Gauss-Kronrod difference to a relative ``1e-4``.
    """
    lo, hi = cuts[:-1], cuts[1:]
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (lo + hi) + half * _GK_NODES[:, None]
    values = integrand(nodes, np.arange(lo.size))
    with np.errstate(all="ignore"):  # non-finite pieces are rejected and go to quad
        center, left, right = values[10], values[:10], values[:10:-1]
        kronrod, middle, pairs = _GK_KRONROD[:10, None], _GK_KRONROD[10] * center, left + right
        resk = functools.reduce(np.add, (kronrod * pairs)[_DQK21_ORDER], middle)
        resg = functools.reduce(np.add, (_GK_GAUSS[:10, None] * pairs)[1::2])
        pair_abs = (kronrod * (np.abs(left) + np.abs(right)))[_DQK21_ORDER]
        resabs = functools.reduce(np.add, pair_abs, np.abs(middle)) * half
        mean = 0.5 * resk
        spread = kronrod * (np.abs(left - mean) + np.abs(right - mean))
        resasc = functools.reduce(np.add, spread, _GK_KRONROD[10] * np.abs(center - mean)) * half
        result = resk * half
        abserr = np.abs((resk - resg) * half)
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
    """``alpha``, the sorted ``interior`` points strictly inside, and ``beta``, each once."""
    pts = np.asarray(interior, dtype=float)
    cuts = np.concatenate([[alpha], pts[(pts > alpha) & (pts < beta)], [beta]])
    return cuts[np.concatenate([[True], np.diff(cuts) != 0.0])]


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
    """Sign certificate of the combined kernel weight over the interval.

    Attributes:
        classification: ``"nonnegative"`` or ``"nonpositive"`` when every
            piece is proved to stay on that side of ``-/+`` :data:`KERNEL_SIGN_TOL`,
            else ``"indefinite"``.
        min_value: Smallest weight at the nodes the certificate evaluated.
        max_value: Largest weight at those nodes.
        grid_size: Number of polynomial pieces examined, subdivisions
            included; 0 for a one-point hull.
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


@functools.lru_cache(maxsize=None)
def _bernstein_from_values(n: int) -> np.ndarray:
    """Inverse collocation matrix ``B_j^n(k/n)``: values at ``k/n`` to Bernstein coefficients."""
    out = np.linalg.inv([[math.comb(n, j) * (k / n) ** j * (1 - k / n) ** (n - j)
                          for j in range(n + 1)] for k in range(n + 1)])
    out.setflags(write=False)
    return out


#: Deepest halving of a piece whose sign the Bernstein test leaves open;
#: a piece still open there makes the weight ``"indefinite"``.
MAX_SIGN_DEPTH = 30


class _Layout(NamedTuple):
    """The order-independent part of a pair's kernel weight on an interval."""

    points: np.ndarray  # both sides' points, in one stable sort
    sides: np.ndarray  # (2, m) masks of the majorant's points and of its partner's
    weights: np.ndarray
    u: np.ndarray  # (points - center) / half
    cuts: np.ndarray
    starts: np.ndarray  # merged index at which each piece starts
    empty: list  # per side: prefix columns before its first point, suffix after its last


def _pair_layout(x: WeightedVector, y: WeightedVector, alpha: float, beta: float,
                 center: float, half: float) -> _Layout:
    """The layout of ``(x, y)`` on ``[alpha, beta]``, memoized on ``x``.

    Entries are keyed by a weak reference to ``y`` and by the interval's
    exact bits, so the memo never keeps ``y`` alive.
    """
    layouts = x._memoized("kernel_layouts", weakref.WeakKeyDictionary).setdefault(y, {})
    key = (float(alpha).hex(), float(beta).hex())
    if key not in layouts:
        merged = np.concatenate([x.points, y.points])
        order = np.argsort(merged, kind="stable")
        points, on_x = merged[order], order < x.size
        cuts = _interior_cuts(alpha, beta, points)
        sides = np.stack([on_x, ~on_x])
        layouts[key] = _Layout(
            points, sides, np.concatenate([x.weights, y.weights])[order],
            (points - center) / half, cuts, np.searchsorted(points, cuts[:-1], side="right"),
            [(mask.argmax() + 1, mask.size - mask[::-1].argmax()) for mask in sides],
        )
    return layouts[key]


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
    identical sides give exact zeros.  ``pieces`` holds the coefficients
    of the piece starting at each of ``cuts`` (the ends and interior data
    points) but the last.

    Both sides are sorted together, once per pair and interval: the sort,
    the cuts and ``u`` are memoized on ``x`` (see :func:`_pair_layout`).
    Each side's moment rows fill one ``(2, n, m)`` block over the merged
    points, padded with ``-0.0`` where the other side's points sit; as
    ``s + -0.0 == s`` for every ``s``, one prefix and one suffix ``cumsum``
    give each side's partial sums exactly as a sort of that side alone
    would, and sums over no point of a side are ``+0.0``.
    """

    def __init__(
        self, x: WeightedVector, y: WeightedVector, n: int, alpha: float, beta: float
    ) -> None:
        self.alpha = alpha
        self.beta = beta
        self.center = 0.5 * (alpha + beta)
        self.half = 0.5 * (beta - alpha) or 1.0  # a one-point hull has W = 0
        layout = _pair_layout(x, y, alpha, beta, self.center, self.half)
        self.points, self.cuts = layout.points, layout.cuts
        scale = self.half ** (n - 1) * np.array([math.comb(n - 1, p) for p in range(n)])
        terms = np.empty((n, layout.points.size))
        terms[0] = layout.weights
        for p in range(1, n):
            np.multiply(terms[p - 1], layout.u, out=terms[p])
        terms *= scale[:, None]
        block = np.where(layout.sides[:, None, :], terms, -0.0)
        shape = (2, n, layout.points.size + 1)
        self.prefix, self.suffix = np.zeros(shape), np.zeros(shape)
        np.cumsum(block, axis=2, out=self.prefix[:, :, 1:])
        np.cumsum(block[:, :, ::-1], axis=2, out=self.suffix[:, :, -2::-1])
        for side, (before, after) in enumerate(layout.empty):
            # sums over the other side's points only are -0.0; a side sorted alone has +0.0
            self.prefix[side, :, :before] = 0.0
            self.suffix[side, :, after:] = 0.0
        self.pieces = self._gather(layout.starts)

    def coefficients(self, t: np.ndarray, side: str) -> tuple[np.ndarray, np.ndarray]:
        """Suffix and prefix coefficients of ``W`` at ``t``, each ``(n, len(t))``.

        With ``side="left"`` a point ``x_j = t`` is on the ``t - alpha``
        branch (the value at ``t``); with ``side="right"`` it is on the
        ``t - beta`` branch (the right limit, and the piece starting at ``t``).
        """
        return self._gather(np.searchsorted(self.points, t, side=side))

    def _gather(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients of ``W`` where ``k`` merged points precede ``t``."""
        suffix, prefix = self.suffix.take(k, axis=2), self.prefix.take(k, axis=2)
        return suffix[0] - suffix[1], prefix[0] - prefix[1]

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
    *,
    interval: Optional[tuple[float, float]] = None,
    weight: Optional[_KernelWeight] = None,
) -> KernelCondition:
    """Prove the sign of the combined kernel weight for a pair.

    The weight ``W(t) = S_a (x-t)^(n-1) k(t,x) - S_b (y-t)^(n-1) k(t,y)``
    is a polynomial of degree ``n`` between consecutive data points, built
    once from prefix sums of the weighted power moments.  Each piece is
    evaluated at ``n + 1`` even nodes, its ends included (each data point's
    value and right limit), and mapped to its Bernstein coefficients, which
    bound it (Farouki & Rajan 1987): all ``>= -tol`` prove ``W``
    nonnegative, all ``<= tol`` nonpositive (``tol =`` :data:`KERNEL_SIGN_TOL`).
    Open pieces are halved and evaluated again, at most :data:`MAX_SIGN_DEPTH`
    times; values below ``-tol`` and above ``tol`` prove a sign change, and
    a piece open at the cap makes ``W`` ``"indefinite"``.  A coefficient's
    rounding error is that of the values times the inverse collocation
    matrix's infinity norm (under 90 for ``n <= 6``), plus the rounding of
    the product.  Without halving, the cost is ``O(m log m + m n^2)`` for
    ``m`` data points.  A one-signed weight turns the identity into a bound.

    Args:
        x: Majorant side.
        y: Majorized side.
        n: Identity order (the kernel uses the ``n-1`` power).
        interval: Interval of ``W``; defaults to the hull of the data points.
        weight: The pair's weight on that interval, if already built.

    Raises:
        PointOutOfInterval: if a data point leaves the explicit interval.
        ValueError: if ``n < 1`` or the explicit interval is empty.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if weight is None:
        first = float(min(x.points.min(), y.points.min()))
        last = float(max(x.points.max(), y.points.max()))
        lo, hi = (first, last) if interval is None else map(float, interval)
        if interval is not None and not lo < hi:
            raise ValueError(f"interval must have lo < hi, got {interval}")
        if _first_outside([first, last], lo, hi) is not None:
            raise PointOutOfInterval(f"data points span [{first}, {last}], outside [{lo}, {hi}]")
        weight = _KernelWeight(x, y, n, lo, hi)
    suffix, prefix = weight.pieces
    if suffix.shape[1] == 0:
        return KernelCondition("nonnegative", 0.0, 0.0, 0)
    n, lo, hi = suffix.shape[0], weight.cuts[:-1], weight.cuts[1:]
    w_min, w_max, count, tol = math.inf, -math.inf, 0, KERNEL_SIGN_TOL
    for depth in range(MAX_SIGN_DEPTH + 1):
        t = lo + (hi - lo) * (np.arange(n + 1) / n)[:, None]
        t[-1] = hi
        values = weight.polynomial(t, suffix, prefix)
        coeffs = _bernstein_from_values(n) @ values
        w_min, w_max = min(w_min, float(values.min())), max(w_max, float(values.max()))
        count += lo.size
        maybe_nonneg, maybe_nonpos = w_min >= -tol, w_max <= tol
        low, high = coeffs.min(axis=0) < -tol, coeffs.max(axis=0) > tol
        if maybe_nonneg and not low.any():
            return KernelCondition("nonnegative", w_min, w_max, count)
        if maybe_nonpos and not high.any():
            return KernelCondition("nonpositive", w_min, w_max, count)
        if not (maybe_nonneg or maybe_nonpos) or depth == MAX_SIGN_DEPTH:
            return KernelCondition("indefinite", w_min, w_max, count)
        # pieces proved for every sign still possible drop out; the rest are halved
        keep = (low & maybe_nonneg) | (high & maybe_nonpos)
        mid = 0.5 * (lo[keep] + hi[keep])
        lo, hi = np.concatenate([lo[keep], mid]), np.concatenate([mid, hi[keep]])
        suffix, prefix = np.tile(suffix[:, keep], 2), np.tile(prefix[:, keep], 2)


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
        return asdict(self)


def sherman_difference_identity(
    x: WeightedVector,
    y: WeightedVector,
    spec: FunctionSpec,
    n: int,
    quad_cfg: QuadratureConfig = QuadratureConfig(),
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
    ``kernel_condition`` is proved on the same pieces; ``W`` is built once.

    Raises:
        MajorizationNotVerified: if either moment condition fails.
        MissingDerivative: if derivatives up to order ``n`` are missing.
        QuadratureFailure: if the integrator gives up.
    """
    lhs, boundary = _difference_terms(x, y, spec, n)
    al, be = spec.interval
    weight = _KernelWeight(x, y, n, al, be)
    suffix, prefix = weight.pieces

    def integrand(t, i):
        return weight.polynomial(t, suffix[:, i], prefix[:, i]) * spec.evaluate(t, order=n)

    integral = _integrate_pieces(integrand, weight.cuts, quad_cfg)
    integral /= math.factorial(n - 1) * (be - al)
    condition = check_kernel_condition(x, y, n, weight=weight).classification
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

    sa, sb = x.weight_sum, y.weight_sum
    max1, may1 = x._first_moment, y._first_moment
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
    unchecked_modulus: bool = False,
) -> HigherOrderBound:
    """Bound the Sherman difference through the order-n identity.

    The modulus claim (``f`` n-strongly convex with modulus ``c``; plain
    n-convexity for ``c = 0``) is checked against the order-n grid
    certificate, as in the order-2 chain, unless ``unchecked_modulus`` is
    set.  The kernel weight of the pair must be one-signed on the
    interval; dropping the integral of ``g^(n) >= 0`` against it then
    leaves a valid inequality between the shifted difference and its
    endpoint-derivative sum.  Nothing is integrated: one Bernstein
    certificate of :func:`check_kernel_condition` proves the sign, and the
    two sides come from the identity's endpoint terms.

    Raises:
        ValueError: unless ``c`` is finite and nonnegative.
        KernelConditionIndefinite: if the certificate cannot prove one sign.
        ModulusNotCertified: per :func:`.convexity.resolve_modulus`.
        MajorizationNotVerified: if either moment condition of
            :func:`sherman_difference_identity` fails.
        MissingDerivative: if derivatives up to order ``n`` are missing.
    """
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"modulus must be finite and nonnegative, got {c}")
    condition = check_kernel_condition(x, y, n, interval=spec.interval)
    if condition.classification == "indefinite":
        raise KernelConditionIndefinite(
            f"kernel weight spans [{condition.min_value}, {condition.max_value}]; "
            "no one-sided bound follows"
        )
    resolve_modulus(spec, c, unchecked=unchecked_modulus, order=n)
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
