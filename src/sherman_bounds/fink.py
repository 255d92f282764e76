"""Sherman-type differences through the order-n identity, and the bounds it gives.

For an n-times differentiable ``f`` on ``[alpha, beta]`` the n-th order
two-point Taylor-like identity (Fink's identity) represents ``f(x)``
through the interval mean of ``f``, endpoint derivatives up to order
``n - 2``, and one weighted integral of ``f^(n)`` against the kernel
``(x - t)^(n-1) * k(t, x)`` with::

    k(t, x) = t - alpha  if t <= x,   t - beta  otherwise.

The module uses the identity only summed over a weighted-majorized pair,
where the mean and first-order terms cancel: the result is an exact
representation of the difference ``S_a f(x) - S_b f(y)``
(:func:`sherman_difference_identity`).  Dropping the integral gives
computable bounds whenever the combined kernel weight has one sign on the
interval, which holds in particular for even ``n`` on verified pairs.
Applying that to the shift ``g = f - c*t^n`` of an ``f`` certified
n-strongly convex with modulus ``c`` produces the higher-order analogue
of the corrected bound (:func:`higher_order_sherman_bound`), whose left
side is the strong link of :mod:`.bounds` at order ``n``; the shift
``g^(k) = f^(k) - c n!/(n-k)! t^(n-k)`` applies at the interval's ends only.

The kernel weight is a polynomial between consecutive data points; its
sign is proved piece by piece from Bernstein coefficients.  Integrals are
split into the same pieces, which QUADPACK's first 21-point Gauss-Kronrod
step integrates in one array evaluation; ``quad`` gets only the pieces
whose first estimate QUADPACK would not accept.  A weight, a piece or a
sum outside the float range raises ``ValidationError``, never a warning.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.integrate import quad

from .bounds import _SideSums, _sherman_link
from .convexity import FunctionSpec, _first_outside, resolve_modulus
from .errors import (
    KernelConditionIndefinite,
    MajorizationNotVerified,
    PointOutOfInterval,
    QuadratureFailure,
    ValidationError,
)
from .majorization import WeightedVector, _finite

#: Sign classification threshold for the combined kernel weight.
KERNEL_SIGN_TOL = 1e-12

#: Residual slack for the higher-order bound verdict.
BOUND_SLACK = 1e-9


#: Subdivision limit of ``quad`` per piece; with a limit of 1, dqagse
#: accepts no first step.
MAX_SUBDIVISIONS = 200


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


def _first_step(integrand, cuts: np.ndarray, tol: float):
    """QUADPACK's first step on every piece ``[cuts[i], cuts[i+1]]`` at once.

    Returns dqk21's result and error estimate per piece, and whether dqagse
    accepts them: :data:`MAX_SUBDIVISIONS` ``> 1``, and the error zero, or
    within ``max(tol / pieces, tol |result|)`` and not ``resasc`` (dqagse's
    round-off flag needs a larger error, so it rejects as well).
    ``integrand(t, i)`` is called once, on nodes ``(21, pieces)`` and
    ``i = slice(None)``, which selects every piece without a copy.  Sums run
    in dqk21's order and so match ``quad`` bit for bit, as the error estimate
    can amplify one ulp of the Gauss-Kronrod difference to a relative ``1e-4``.
    """
    lo, hi = cuts[:-1], cuts[1:]
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (lo + hi) + half * _GK_NODES[:, None]
    values = integrand(nodes, slice(None))
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
        bound = np.maximum(tol / lo.size, tol * np.abs(result))
        accepted = ((abserr <= bound) & (abserr != resasc)) | (abserr == 0.0)
    return result, abserr, accepted & (MAX_SUBDIVISIONS > 1)


@np.errstate(all="ignore")  # quad's integrand calls too: a non-finite piece or result raises
def _integrate_pieces(integrand, cuts: np.ndarray, tol: float) -> float:
    """Sum of the integrals of ``integrand(t, i)`` over increasing ``cuts`` (two or more).

    Pieces that :func:`_first_step` rejects go, in order, to ``quad`` with
    ``epsabs = tol / pieces`` and ``epsrel = tol``: every piece meets what
    ``quad`` requires.  A non-finite integrand value there raises
    ``ValidationError``.  The summed error estimate must stay within
    ``max(10 tol, 10 tol |total|)``.
    """
    result, abserr, accepted = _first_step(integrand, cuts, tol)
    if not np.isfinite(result).all():
        raise ValidationError("an integral over a piece overflows the float range")

    def finite_integrand(t, i):
        value = integrand(t, i)
        if not math.isfinite(value):
            raise ValidationError(f"the integrand is {value} at {t}: it overflows the float range")
        return value

    for i in np.flatnonzero(~accepted).tolist():
        lo, hi = float(cuts[i]), float(cuts[i + 1])
        out = quad(finite_integrand, lo, hi, args=(i,), epsabs=tol / result.size,
                   epsrel=tol, limit=MAX_SUBDIVISIONS, full_output=1)
        if len(out) == 4:
            raise QuadratureFailure(f"integration on [{lo}, {hi}] failed: {out[3].strip()}")
        result[i], abserr[i] = out[0], out[1]
    total, err_total = float(result.sum()), float(abserr.sum())
    budget = max(10.0 * tol, 10.0 * tol * abs(total))
    if err_total > budget:
        raise QuadratureFailure(f"integration error estimate {err_total} exceeds budget {budget}")
    return total


def _interior_cuts(alpha: float, beta: float, interior) -> np.ndarray:
    """``alpha``, the sorted ``interior`` points strictly inside, and ``beta``, each once."""
    pts = np.asarray(interior, dtype=float)
    cuts = np.concatenate([[alpha], pts[(pts > alpha) & (pts < beta)], [beta]])
    return cuts[np.concatenate([[True], cuts[1:] != cuts[:-1]])]


@dataclass(frozen=True, slots=True)
class KernelCondition:
    """Sign certificate of the combined kernel weight over the interval.

    Attributes:
        classification: ``"nonnegative"`` or ``"nonpositive"`` when every
            piece is proved to stay on that side of ``-/+`` :data:`KERNEL_SIGN_TOL`,
            else ``"indefinite"``.
        min_value: Smallest weight at the nodes the certificate evaluated;
            NaN when a value or a Bernstein coefficient is not finite.
        max_value: Largest weight at those nodes; NaN likewise.
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
        with np.errstate(all="ignore"):  # an overflow makes the sign certificate "indefinite"
            half_power = np.float64(self.half) ** (n - 1)  # inf, where a float raises OverflowError
            scale = half_power * np.array([math.comb(n - 1, p) for p in range(n)])
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

    @np.errstate(all="ignore")  # non-finite nodes, values and coefficients are refused below
    def sign_certificate(self) -> KernelCondition:
        """The sign certificate of :func:`check_kernel_condition` for this weight."""
        suffix, prefix = self.pieces
        if suffix.shape[1] == 0:
            return KernelCondition("nonnegative", 0.0, 0.0, 0)
        n, lo, hi = suffix.shape[0], self.cuts[:-1], self.cuts[1:]
        w_min, w_max, count, tol = math.inf, -math.inf, 0, KERNEL_SIGN_TOL
        for depth in range(MAX_SIGN_DEPTH + 1):
            t = lo + (hi - lo) * (np.arange(n + 1) / n)[:, None]
            t[-1] = hi
            values = self.polynomial(t, suffix, prefix)
            coeffs = _bernstein_from_values(n) @ values
            count += lo.size
            if not (np.isfinite(values).all() and np.isfinite(coeffs).all()):
                return KernelCondition("indefinite", math.nan, math.nan, count)
            w_min, w_max = min(w_min, float(values.min())), max(w_max, float(values.max()))
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


def check_kernel_condition(
    x: WeightedVector,
    y: WeightedVector,
    n: int,
    *,
    interval: Optional[tuple[float, float]] = None,
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
    a piece open at the cap makes ``W`` ``"indefinite"``, as does any value
    or coefficient that overflows to ``inf`` or NaN.  A coefficient's
    rounding error is that of the values times the inverse collocation
    matrix's infinity norm (under 90 for ``n <= 6``), plus the rounding of
    the product.  Without halving, the cost is ``O(m log m + m n^2)`` for
    ``m`` data points.  A one-signed weight turns the identity into a bound.

    Args:
        x: Majorant side.
        y: Majorized side.
        n: Identity order (the kernel uses the ``n-1`` power).
        interval: Interval of ``W``; defaults to the hull of the data points.

    Raises:
        PointOutOfInterval: if a data point leaves the explicit interval.
        ValueError: if ``n < 1`` or the explicit interval is empty.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    first = float(min(x.points.min(), y.points.min()))
    last = float(max(x.points.max(), y.points.max()))
    lo, hi = (first, last) if interval is None else map(float, interval)
    if interval is not None and not lo < hi:
        raise ValueError(f"interval must have lo < hi, got {interval}")
    if _first_outside([first, last], lo, hi) is not None:
        raise PointOutOfInterval(f"data points span [{first}, {last}], outside [{lo}, {hi}]")
    return _KernelWeight(x, y, n, lo, hi).sign_certificate()


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
    quad_tol: float = 1e-9,
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
    pieces, with ``quad`` only for the pieces QUADPACK would subdivide, all
    within the one budget ``quad_tol`` (see :func:`_integrate_pieces`).
    ``kernel_condition`` is proved on the same pieces; ``W`` is built once.

    Raises:
        ValueError: if ``n < 1`` or ``quad_tol`` is not finite and positive.
        MajorizationNotVerified: if either moment condition fails.
        MissingDerivative: if derivatives up to order ``n`` are missing.
        ValidationError: if ``lhs``, the endpoint sum, the kernel weight, a
            piece's first integral estimate, an integrand value ``quad``
            meets or the residual is not finite.
        QuadratureFailure: if the integrator gives up.
    """
    if not (math.isfinite(quad_tol) and quad_tol > 0):
        raise ValueError(f"quad_tol must be finite and positive, got {quad_tol}")
    lhs, boundary = _difference_terms(x, y, spec, n)
    al, be = spec.interval
    weight = _KernelWeight(x, y, n, al, be)
    condition = weight.sign_certificate()
    _finite(condition.min_value)  # NaN extremes: the kernel weight overflows
    suffix, prefix = weight.pieces

    def integrand(t, i):
        return weight.polynomial(t, suffix[:, i], prefix[:, i]) * spec.evaluate(t, order=n)

    integral = _integrate_pieces(integrand, weight.cuts, quad_tol)
    integral /= math.factorial(n - 1) * (be - al)
    return FinkReport(
        order=n,
        lhs=lhs,
        boundary_terms=boundary,
        integral_term=integral,
        residual=_finite(lhs - boundary - integral)[0],
        kernel_condition=condition.classification,
    )


def _difference_terms(
    x: WeightedVector, y: WeightedVector, spec: FunctionSpec, n: int, c: float = 0.0
) -> tuple[float, float]:
    """``lhs`` and the endpoint sum of :func:`sherman_difference_identity` for ``f - c*t^n``.

    Checks everything the identity checks, without integrating.  ``lhs`` is the
    strong link of :func:`.bounds._sherman_link` at order ``n`` minus ``S_b f(y)``;
    ``S_w(z)`` are its power sums, and ``g^(k)`` is shifted at the ends only.

    Raises:
        MajorizationNotVerified: if either moment condition fails.
        MissingDerivative: if derivatives up to order ``n`` are missing.
        ValidationError: if ``lhs`` or the endpoint sum is not finite.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    spec.require_inside(x.points)
    spec.require_inside(y.points)
    spec.derivative(n)  # fail fast if unavailable
    al, be = spec.interval

    sa, sb = x.weight_sum, y.weight_sum
    max1, may1 = x._first_moment, y._first_moment
    guard = 1e-9 * max(1.0, abs(sa), abs(max1))
    if abs(sa - sb) > guard:
        raise MajorizationNotVerified(f"total weights differ: {sa} vs {sb}")
    if abs(max1 - may1) > guard:
        raise MajorizationNotVerified(f"first moments differ: {max1} vs {may1}")

    xs, ys = _SideSums(x.points, x.weights, spec), _SideSums(y.points, y.weights, spec)
    with np.errstate(all="ignore"):  # a non-finite result raises below
        lhs_y, strong, _, _ = _sherman_link(xs, ys, c, n)
        boundary = 0.0
        for w in range(2, n):
            g = spec.evaluate(spec.interval, w - 1)  # g^(k) = f^(k) - c n!/(n-k)! t^(n-k)
            if c:
                g = g - c * math.perm(n, w - 1) * np.array(spec.interval) ** (n - w + 1)
            s_al = xs.power(w, al) - ys.power(w, al)  # S_w(z) = S_a (x-z)^w - S_b (y-z)^w
            s_be = xs.power(w, be) - ys.power(w, be)
            boundary += (n - w) / math.factorial(w) * (g[1] * s_be - g[0] * s_al) / (be - al)
    return _finite(strong - lhs_y, float(boundary))


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
) -> HigherOrderBound:
    """Bound the Sherman difference through the order-n identity.

    The modulus claim (``f`` n-strongly convex with modulus ``c``; plain
    n-convexity for ``c = 0``) is checked first, against the order-n
    certificate, as in the order-2 chain.  The kernel weight of the pair
    must be one-signed on the interval; dropping the integral of
    ``g^(n) >= 0`` against it then leaves a valid inequality between the
    shifted difference and its endpoint-derivative sum.  Nothing is
    integrated: one Bernstein certificate of :func:`check_kernel_condition`
    proves the sign.  The sides are ``S_a f(x) - c (S_a x^n - S_b y^n) - S_b f(y)``
    and the identity's endpoint terms with ``c * n!/(n-k)! * t^(n-k)``
    subtracted from ``f^(k)`` at both ends (nothing for ``c = 0``).

    Raises:
        ValueError: unless ``c`` is finite and nonnegative.
        ModulusNotCertified: per :func:`.convexity.resolve_modulus`.
        KernelConditionIndefinite: if the certificate cannot prove one sign.
        MajorizationNotVerified: if either moment condition of
            :func:`sherman_difference_identity` fails.
        MissingDerivative: if derivatives up to order ``n`` are missing.
        ValidationError: if either side is not finite.
    """
    resolve_modulus(spec, c, order=n)
    condition = check_kernel_condition(x, y, n, interval=spec.interval)
    if condition.classification == "indefinite":
        raise KernelConditionIndefinite(
            f"kernel weight spans [{condition.min_value}, {condition.max_value}]; "
            "no one-sided bound follows"
        )
    lhs, boundary = _difference_terms(x, y, spec, n, c)
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
