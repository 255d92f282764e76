"""Csiszar f-divergences with certified two-sided bounds.

A divergence kernel is a generator ``f`` on a positive ratio interval
together with its convexity classification and, when strongly convex, a
certified modulus.  For strictly positive ``p, q`` the divergence is
``D_f(q, p) = S_j p_j f(q_j / p_j)``.

Aggregating the pair through a column-stochastic matrix ``R`` (rows of
``R`` merge probability mass) produces a weighted-majorized instance:
with ``b_i = <p, R_i>``, ``y_i = <q, R_i> / b_i``, ``a = p`` and
``A_ij = p_j R_ij / b_i`` the chain of bounds applies.  The witness is
checked in factored form, never built: ``a = bA`` reads
``p_j = p_j S_i R_ij`` and ``y = Ax`` reads ``y_i = (R(p x))_i / b_i``.
The chain yields

* ``lower_ck``: the aggregated divergence (total-mass chord point),
* ``lower_strong``: ``lower_ck`` plus the quadratic ratio-spread term,
* ``value``: the divergence itself,
* ``upper_converse``: the endpoint bound minus its quadratic correction,

with ``lower_ck <= lower_strong <= value <= upper_converse``.  The
single-row aggregation recovers the classical total-mass lower bound.
Shannon entropy and Kullback-Leibler divergence are provided directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bounds import BoundChain, _chain_links
from .convexity import (
    FunctionSpec,
    ModulusCertificate,
    constant,
    estimate_strong_modulus,
    function_from_name,
)
from .errors import (
    DimensionMismatch,
    ModulusNotCertified,
    NotAProbabilityVector,
    RatioOutOfDomain,
    ShermanBoundsError,
    ValidationError,
    ZeroAggregateWeight,
)
from .majorization import StochasticMatrix, VerificationResult, WeightedVector

#: Default ratio interval for catalog kernels.
DEFAULT_KERNEL_INTERVAL = (0.1, 10.0)

#: A generator counts as normalized when |f(1)| is below this.
NORMALIZED_TOL = 1e-14

#: Probability vectors may deviate from total mass one by this much.
PROBABILITY_SUM_TOL = 1e-12

_STRONGLY_CONVEX = "strongly_convex"
_CONVEX_ONLY = "convex_only"
_NONCONVEX = "nonconvex"


@dataclass(frozen=True)
class DivergenceKernel:
    """A named generator with convexity classification.

    Attributes:
        name: Catalog name, e.g. ``"kl"`` or ``"renyi:2"``.
        generator: The function spec of ``f`` on the ratio interval.
        normalized: True when ``f(1) = 0`` (so ``D_f(p, p) = 0``).
        convexity_class: ``"strongly_convex"``, ``"convex_only"``, or
            ``"nonconvex"``.
        modulus_certificate: Order-2 certificate; present exactly for
            strongly convex kernels.
    """

    name: str
    generator: FunctionSpec
    normalized: bool
    convexity_class: str
    modulus_certificate: Optional[ModulusCertificate] = None

    @property
    def interval(self) -> tuple[float, float]:
        return self.generator.interval

    @property
    def modulus(self) -> Optional[float]:
        cert = self.modulus_certificate
        return None if cert is None else cert.modulus


@dataclass(frozen=True, eq=False)
class DistributionPair:
    """Two strictly positive vectors of equal length, with their ratios.

    ``p`` and ``q`` are copied and stored read-only; ``ratios = q / p`` is
    derived, not passed.  They need not be normalized; operations that
    require probability vectors check that themselves.  Equality and
    hashing go by identity.
    """

    p: np.ndarray
    q: np.ndarray
    ratios: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        # Copies, so freezing them leaves the caller's arrays writable.
        p = np.array(self.p, dtype=float)
        q = np.array(self.q, dtype=float)
        if p.ndim != 1 or q.ndim != 1 or p.size == 0 or p.shape != q.shape:
            raise ValidationError(
                f"p and q must be equal-length nonempty vectors, got shapes {p.shape}, {q.shape}"
            )
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise ValidationError("p and q must be finite")
        if np.any(p <= 0.0) or np.any(q <= 0.0):
            raise ValidationError("p and q must be strictly positive")
        ratios = q / p
        for arr in (p, q, ratios):
            arr.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "ratios", ratios)

    @property
    def size(self) -> int:
        return int(self.p.size)


def _shifted_reciprocal_derivs(scale: float, order: int):
    # k-th derivative of scale/(1+t): scale * (-1)^k k! (1+t)^(-k-1)
    out = []
    for k in range(1, order + 1):
        coeff = scale * (-1.0) ** k * math.factorial(k)

        def dk(t: float, _c=coeff, _p=-(k + 1)) -> float:
            return _c * (1.0 + t) ** _p

        out.append(dk)
    return out


def _sqrt_derivs(scale: float, order: int):
    # k-th derivative of scale * sqrt(t)
    out = []
    for k in range(1, order + 1):
        coeff = scale
        for i in range(k):
            coeff *= 0.5 - i

        def dk(t: float, _c=coeff, _p=0.5 - k) -> float:
            return _c * t**_p

        out.append(dk)
    return out


def _build_generator(key: str, interval: tuple[float, float], order: int = 6):
    """Return (spec, convexity_class) for a catalog kernel key."""
    lo = float(interval[0])
    if lo <= 0.0:
        raise ValidationError("divergence kernels need a positive ratio interval")
    if key == "kl":
        return function_from_name("xlogx", interval, order), _STRONGLY_CONVEX
    if key == "chi_square":

        def chi(t: float) -> float:
            return (t - 1.0) * (t - 1.0)

        derivs = [lambda t: 2.0 * (t - 1.0), constant(2.0)]
        derivs += [constant(0.0)] * (order - 2)
        spec = FunctionSpec("chi_square", chi, tuple(derivs), interval)
        return spec, _STRONGLY_CONVEX
    if key == "hellinger":

        def hel(t: float) -> float:
            s = np.sqrt(t) - 1.0
            return 0.5 * s * s

        def hel1(t: float) -> float:
            return 0.5 * (1.0 - 1.0 / np.sqrt(t))

        derivs = [hel1] + _sqrt_derivs(-1.0, order)[1:]
        spec = FunctionSpec("hellinger", hel, tuple(derivs), interval)
        return spec, _STRONGLY_CONVEX
    if key == "bhattacharya":

        def bha(t: float) -> float:
            return -np.sqrt(t)

        spec = FunctionSpec("bhattacharya", bha, tuple(_sqrt_derivs(-1.0, order)), interval)
        return spec, _STRONGLY_CONVEX
    if key == "triangular":

        def tri(t: float) -> float:
            return (t - 1.0) ** 2 / (1.0 + t)

        def tri1(t: float) -> float:
            return 1.0 - 4.0 / (1.0 + t) ** 2

        # orders >= 2 differentiate the 4/(1+t) term only
        derivs = [tri1] + _shifted_reciprocal_derivs(4.0, order)[1:]
        spec = FunctionSpec("triangular", tri, tuple(derivs), interval)
        return spec, _STRONGLY_CONVEX
    if key == "variational":

        def var(t: float) -> float:
            return abs(t - 1.0)

        spec = FunctionSpec("variational", var, (), interval)
        return spec, _CONVEX_ONLY
    if key == "harmonic":

        def har(t: float) -> float:
            return 2.0 * t / (1.0 + t)

        spec = FunctionSpec(
            "harmonic", har, tuple(_shifted_reciprocal_derivs(-2.0, order)), interval
        )
        return spec, _NONCONVEX
    raise ValidationError(f"unknown divergence kernel {key!r}")


def get_kernel(
    name: str,
    interval: Optional[tuple[float, float]] = None,
    *,
    alpha: Optional[float] = None,
    grid_size: int = 10001,
) -> DivergenceKernel:
    """Build a catalog kernel by name on a ratio interval.

    Known names: ``kl``, ``hellinger``, ``variational``, ``harmonic``,
    ``bhattacharya``, ``triangular``, ``chi_square``, and ``renyi``
    (``alpha > 1`` via the keyword or a ``renyi:a`` suffix).  Strongly
    convex kernels get an order-2 modulus certificate on construction.

    Raises:
        ValidationError: on an unknown name, a nonpositive interval, or
            a Renyi exponent not above one.
        ModulusNotCertified: if grid certification unexpectedly fails.
    """
    key = name.strip().lower().replace("-", "_")
    if interval is None:
        interval = DEFAULT_KERNEL_INTERVAL
    lo, hi = float(interval[0]), float(interval[1])
    if not (0.0 < lo < hi):
        raise ValidationError(f"ratio interval must satisfy 0 < lo < hi, got {interval}")
    interval = (lo, hi)

    if key.startswith("renyi"):
        if ":" in key:
            try:
                alpha = float(key.split(":", 1)[1])
            except ValueError as exc:
                raise ValidationError(f"bad exponent in kernel name {name!r}") from exc
        if alpha is None:
            raise ValidationError("renyi kernel needs an exponent alpha > 1")
        if not alpha > 1.0:
            raise ValidationError(f"renyi exponent must exceed 1, got {alpha}")
        spec = function_from_name(f"pow:{alpha}", interval)
        key = f"renyi:{alpha:g}"
        spec = FunctionSpec(key, spec.evaluator, spec.derivatives, spec.interval)
        convexity_class = _STRONGLY_CONVEX
    else:
        spec, convexity_class = _build_generator(key, interval)

    certificate = None
    if convexity_class == _STRONGLY_CONVEX:
        certificate = estimate_strong_modulus(spec, 2, grid_size)
        if certificate.verdict != "certified":
            raise ModulusNotCertified(
                f"kernel {key}: certification returned {certificate.verdict!r}"
            )
    normalized = bool(abs(spec.evaluator(1.0)) <= NORMALIZED_TOL)
    return DivergenceKernel(
        name=key,
        generator=spec,
        normalized=normalized,
        convexity_class=convexity_class,
        modulus_certificate=certificate,
    )


def catalog(
    interval: Optional[tuple[float, float]] = None, *, grid_size: int = 10001
) -> list[DivergenceKernel]:
    """All catalog kernels on one ratio interval (Renyi with alpha = 2)."""
    names = [
        "kl",
        "hellinger",
        "variational",
        "harmonic",
        "bhattacharya",
        "triangular",
        "chi_square",
        "renyi:2",
    ]
    return [get_kernel(name, interval, grid_size=grid_size) for name in names]


def _require_ratios_inside(values: np.ndarray, kernel: DivergenceKernel) -> None:
    lo, hi = kernel.generator.interval
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    if np.any(values < lo - slack) or np.any(values > hi + slack):
        raise RatioOutOfDomain(
            f"ratios span [{values.min()}, {values.max()}], outside the "
            f"{kernel.name} interval [{lo}, {hi}]"
        )


def csiszar_divergence(pair: DistributionPair, kernel: DivergenceKernel) -> float:
    """``D_f(q, p) = S_j p_j f(q_j / p_j)`` for the kernel's generator.

    Raises:
        RatioOutOfDomain: if a ratio leaves the generator's interval.
    """
    _require_ratios_inside(pair.ratios, kernel)
    return float(pair.p @ kernel.generator.evaluate(pair.ratios))


def _require_probability(values, label: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise NotAProbabilityVector(f"{label} must be a nonempty vector")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise NotAProbabilityVector(f"{label} must be strictly positive and finite")
    total = math.fsum(arr)
    if abs(total - 1.0) > PROBABILITY_SUM_TOL:
        raise NotAProbabilityVector(f"{label} sums to {total}, expected 1")
    return arr


def shannon_entropy(p) -> float:
    """Shannon entropy ``H(p) = S_i p_i ln(1/p_i)`` in nats.

    Cross-checked internally against the divergence identity
    ``H(p) = -D_f(e, p)`` with ``f(t) = -ln t`` and ``e = (1, ..., 1)``,
    then clamped to ``[0, inf)`` against rounding.

    Raises:
        NotAProbabilityVector: if ``p`` is not strictly positive with
            total mass one.
    """
    arr = _require_probability(p, "p")
    h = float(arr @ np.log(1.0 / arr))
    divergence_route = float(arr @ np.log(arr))  # D_f(e, p) for f = -ln
    if abs(h + divergence_route) > 1e-9 * max(1.0, abs(h)):
        raise ShermanBoundsError(
            f"entropy routes disagree: {h} vs {-divergence_route}"
        )
    return max(h, 0.0)


def kl_divergence(pair: DistributionPair) -> float:
    """Kullback-Leibler divergence ``S_i q_i ln(q_i / p_i)`` in nats."""
    return float(pair.q @ np.log(pair.ratios))


@dataclass(frozen=True)
class DivergenceSandwich:
    """Certified two-sided bounds around one divergence value.

    ``lower_ck <= lower_strong <= value <= upper_converse`` within the
    chain slack whenever ``holds`` is True.

    Attributes:
        kernel_name: Catalog name of the generator.
        lower_ck: Aggregated (total-mass) lower bound.
        lower_strong: ``lower_ck`` plus the quadratic ratio-spread term.
        value: The divergence ``D_f(q, p)``.
        upper_converse: Endpoint upper bound with quadratic correction.
        modulus: Strong-convexity modulus used.
        holds: True when every inequality holds within the slack.
        warnings: Notes forwarded from the chain evaluation.
    """

    kernel_name: str
    lower_ck: float
    lower_strong: float
    value: float
    upper_converse: float
    modulus: float
    holds: bool
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel_name,
            "lower_ck": self.lower_ck,
            "lower_strong": self.lower_strong,
            "value": self.value,
            "upper_converse": self.upper_converse,
            "modulus": self.modulus,
            "holds": self.holds,
            "warnings": list(self.warnings),
        }


def _sandwich_from_chain(kernel: DivergenceKernel, chain: BoundChain) -> DivergenceSandwich:
    return DivergenceSandwich(
        kernel_name=kernel.name,
        lower_ck=chain.lhs,
        lower_strong=chain.lhs + chain.correction_quadratic,
        value=chain.plain_bound,
        upper_converse=chain.converse_bound,
        modulus=chain.modulus,
        holds=chain.chain_holds,
        warnings=chain.warnings,
    )


def aggregated_divergence_bounds(
    pair: DistributionPair,
    matrix: StochasticMatrix,
    kernel: DivergenceKernel,
    c: Optional[float] = None,
    *,
    tol: float = 1e-9,
) -> DivergenceSandwich:
    """Two-sided bounds comparing a divergence with its aggregation.

    Each row ``R_i`` of the column-stochastic ``matrix`` merges mass into
    ``b_i = <p, R_i>`` and aggregated ratio ``y_i = <q, R_i> / b_i``; the
    chain then runs on the weighted-majorized instance with witness
    ``A_ij = p_j R_ij / b_i``.  That witness is checked from its factors
    without being built: the chain's ``verification`` holds
    ``max_j |p_j - p_j S_i R_ij|`` (``a = bA``) and
    ``max_i |y_i - (R(p x))_i / b_i|`` (``y = Ax``), both compared with
    ``tol``.  ``lower_ck`` is the aggregated divergence ``S_i b_i f(y_i)``.

    Args:
        pair: Strictly positive vectors with ratios inside the kernel's
            interval.
        matrix: Column-stochastic aggregation matrix with ``pair.size``
            columns (doubly stochastic qualifies).
        kernel: A strongly convex kernel.
        c: Optional explicit modulus at or below the certified one; None
            uses the certificate.
        tol: Witness verification tolerance.

    Raises:
        ModulusNotCertified: for kernels without strong convexity, or an
            explicit modulus above the certified one.
        ZeroAggregateWeight: if a row of ``matrix`` carries no mass.
        RatioOutOfDomain: if a ratio leaves the generator's interval.
        DimensionMismatch: if the matrix width differs from the pair.
        MajorizationNotVerified: if a residual of the witness check
            exceeds ``tol``.
    """
    if kernel.convexity_class != _STRONGLY_CONVEX:
        raise ModulusNotCertified(
            f"kernel {kernel.name} is {kernel.convexity_class}; "
            "two-sided bounds need a certified strong-convexity modulus"
        )
    if matrix.kind == "row":
        raise ValidationError("aggregation needs a column-stochastic matrix")
    rows, cols = matrix.shape
    if cols != pair.size:
        raise DimensionMismatch(
            f"aggregation matrix has {cols} columns for {pair.size} outcomes"
        )
    weights = matrix.entries @ pair.p
    if np.any(weights <= 0.0):
        raise ZeroAggregateWeight("an aggregation row carries zero probability mass")
    aggregated_ratios = (matrix.entries @ pair.q) / weights
    _require_ratios_inside(pair.ratios, kernel)
    _require_ratios_inside(aggregated_ratios, kernel)

    # A = pR/b is nonnegative and row-stochastic by construction: R >= 0 was
    # validated and b = Rp > 0 was checked, so only a = bA and y = Ax remain.
    weight_residual = float(np.abs(pair.p - pair.p * matrix.entries.sum(axis=0)).max())
    point_residual = float(
        np.abs(aggregated_ratios - (matrix.entries @ (pair.p * pair.ratios)) / weights).max()
    )
    result = VerificationResult(
        weight_residual <= tol and point_residual <= tol, weight_residual, point_residual, tol
    )
    interval = kernel.generator.interval
    x = WeightedVector(pair.ratios, pair.p, interval)
    y = WeightedVector(aggregated_ratios, weights, interval)
    chain = _chain_links(
        x, y, result, kernel.generator, c,
        certificate=kernel.modulus_certificate, unchecked_modulus=False,
    )
    return _sandwich_from_chain(kernel, chain)


def divergence_bounds(
    pair: DistributionPair,
    kernel: DivergenceKernel,
    c: Optional[float] = None,
    *,
    tol: float = 1e-9,
) -> DivergenceSandwich:
    """Two-sided bounds on ``D_f(q, p)`` from total mass alone.

    This is the single-row aggregation: ``lower_ck`` becomes the
    classical total-mass bound ``S_j p_j * f(S q / S p)``.  See
    :func:`aggregated_divergence_bounds` for arguments and errors.
    """
    ones = StochasticMatrix(np.ones((1, pair.size)), "column")
    return aggregated_divergence_bounds(pair, ones, kernel, c, tol=tol)
