"""Csiszar f-divergences with certified two-sided bounds.

A divergence kernel is a generator ``f`` on a positive ratio interval
together with its convexity classification and, when strongly convex, a
certified modulus.  For strictly positive ``p, q`` the divergence is
``D_f(q, p) = S_j p_j f(q_j / p_j)``.

Aggregating the pair through a column-stochastic matrix ``R`` (rows of
``R`` merge probability mass) produces a weighted-majorized instance:
with ``b_i = <p, R_i>``, ``y_i = <q, R_i> / b_i``, ``a = p`` and
``A_ij = p_j R_ij / b_i`` the chain of bounds applies.  The witness
holds by construction (Csiszar 1967), so it is neither built nor
re-checked.  The chain yields

* ``lower_ck``: the aggregated divergence (total-mass chord point),
* ``lower_strong``: ``lower_ck`` plus the quadratic ratio-spread term,
* ``value``: the divergence itself,
* ``upper_converse``: the endpoint bound minus its quadratic correction,

with ``lower_ck <= lower_strong <= value <= upper_converse``.  The
single-row aggregation recovers the classical total-mass lower bound.
Every link comes from the chain's own evaluators in :mod:`.bounds`, and
the generators' power-law derivatives from the catalog's power rule.
Shannon entropy and Kullback-Leibler divergence are provided directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .bounds import _chain_links, _finite, _SideSums
from .convexity import (
    FunctionSpec,
    ModulusCertificate,
    _first_outside,
    _power_terms,
    function_from_name,
    resolve_modulus,
)
from .errors import (
    DimensionMismatch,
    ModulusNotCertified,
    NotAProbabilityVector,
    RatioOutOfDomain,
    ValidationError,
    ZeroAggregateWeight,
)
from .majorization import StochasticMatrix

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

    Every divergence quantity of the pair under one generator reads the
    same majorant side, ratios ``q / p`` with weights ``p``.  The pair
    memoizes that side per generator spec (the same kernel on another
    interval gets its own entry): the ratio check on first use, then each
    sum when a caller first needs it.  No entry can go stale, because the
    pair, its read-only arrays and the spec are all frozen.
    """

    p: np.ndarray
    q: np.ndarray
    ratios: np.ndarray = field(init=False)
    _sums: dict[FunctionSpec, _SideSums] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        # Copies, so freezing them leaves the caller's arrays writable.
        p = np.array(self.p, dtype=float)
        q = np.array(self.q, dtype=float)
        if p.ndim != 1 or q.ndim != 1 or p.size == 0 or p.shape != q.shape:
            raise ValidationError(
                f"p and q must be equal-length nonempty vectors, got shapes {p.shape}, {q.shape}"
            )
        ends = (p.min(), p.max(), q.min(), q.max())  # NaN propagates into both
        if not all(math.isfinite(end) for end in ends):
            raise ValidationError("p and q must be finite")
        if min(ends) <= 0.0:
            raise ValidationError("p and q must be strictly positive")
        with np.errstate(over="ignore"):
            ratios = q / p
        if not math.isfinite(ratios.max()):
            i = int(ratios.argmax())
            raise ValidationError(
                f"non-finite ratio q/p = {ratios[i]} at index {i}: "
                f"{float(q[i])!r}/{float(p[i])!r} overflows the float range"
            )
        for arr in (p, q, ratios):
            arr.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "ratios", ratios)

    @property
    def size(self) -> int:
        return int(self.p.size)

    def __getstate__(self) -> dict:
        # The memo keys are specs, whose callables need not pickle.
        return {**vars(self), "_sums": {}}

    def _majorant_sums(self, kernel: DivergenceKernel) -> _SideSums:
        """The memo entry of the kernel's generator; a failed ratio check stores nothing.

        Raises:
            RatioOutOfDomain: if a ratio leaves the generator's interval.
        """
        sums = self._sums.get(kernel.generator)
        if sums is None:
            _require_ratios_inside(self.ratios, kernel)
            sums = self._sums[kernel.generator] = _SideSums(self.ratios, self.p, kernel.generator)
        return sums


def _build_generator(key: str, interval: tuple[float, float], order: int = 6):
    """Return (spec, convexity_class) for a catalog kernel key on a positive interval."""
    if key == "kl":
        return function_from_name("xlogx", interval, order), _STRONGLY_CONVEX
    if key == "chi_square":

        def chi(t: float) -> float:
            return (t - 1.0) * (t - 1.0)  # a product, as pow(u, 2.0) may differ from u*u

        derivs = _power_terms(1.0, 2.0, order + 1, shift=-1.0)[1:]
        spec = FunctionSpec("chi_square", chi, tuple(derivs), interval)
        return spec, _STRONGLY_CONVEX
    if key == "hellinger":

        def hel(t: float) -> float:
            s = np.sqrt(t) - 1.0
            return 0.5 * s * s

        def hel1(t: float) -> float:
            return 0.5 * (1.0 - 1.0 / np.sqrt(t))

        derivs = [hel1] + _power_terms(-1.0, 0.5, order + 1)[2:]  # orders >= 2 of -sqrt(t)
        spec = FunctionSpec("hellinger", hel, tuple(derivs), interval)
        return spec, _STRONGLY_CONVEX
    if key == "bhattacharya":

        def bha(t: float) -> float:
            return -np.sqrt(t)

        derivs = _power_terms(-1.0, 0.5, order + 1)[1:]
        spec = FunctionSpec("bhattacharya", bha, tuple(derivs), interval)
        return spec, _STRONGLY_CONVEX
    if key == "triangular":

        def tri(t: float) -> float:
            return (t - 1.0) ** 2 / (1.0 + t)

        def tri1(t: float) -> float:
            return 1.0 - 4.0 / (1.0 + t) ** 2

        # orders >= 2 differentiate the 4/(1+t) term only
        derivs = [tri1] + _power_terms(4.0, -1.0, order + 1, shift=1.0)[2:]
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

        # 2t/(1+t) = 2 - 2/(1+t)
        derivs = _power_terms(-2.0, -1.0, order + 1, shift=1.0)[1:]
        spec = FunctionSpec("harmonic", har, tuple(derivs), interval)
        return spec, _NONCONVEX
    raise ValidationError(f"unknown divergence kernel {key!r}")


def get_kernel(
    name: str,
    interval: Optional[tuple[float, float]] = None,
    *,
    alpha: Optional[float] = None,
) -> DivergenceKernel:
    """Build a catalog kernel by name on a ratio interval.

    Known names: ``kl``, ``hellinger``, ``variational``, ``harmonic``,
    ``bhattacharya``, ``triangular``, ``chi_square``, and ``renyi``
    (``alpha > 1`` via the keyword or a ``renyi:a`` suffix, or both if
    equal).  Strongly convex kernels get the order-2 modulus certificate
    of :func:`.convexity.resolve_modulus` on construction.

    Raises:
        ValidationError: on an unknown name, a nonpositive interval, a
            Renyi exponent not above one, or an ``alpha`` it would ignore.
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
                suffix = float(key.split(":", 1)[1])
            except ValueError as exc:
                raise ValidationError(f"bad exponent in kernel name {name!r}") from exc
            if alpha is not None and alpha != suffix:
                raise ValidationError(f"alpha={alpha} differs from the exponent of {name!r}")
            alpha = suffix
        if alpha is None:
            raise ValidationError("renyi kernel needs an exponent alpha > 1")
        if not alpha > 1.0:
            raise ValidationError(f"renyi exponent must exceed 1, got {alpha}")
        key = f"renyi:{alpha:g}"
        spec = replace(function_from_name(f"pow:{alpha}", interval), name=key)
        convexity_class = _STRONGLY_CONVEX
    elif alpha is not None:
        raise ValidationError(f"alpha applies to the renyi kernel only, not {name!r}")
    else:
        spec, convexity_class = _build_generator(key, interval)

    certificate = None
    if convexity_class == _STRONGLY_CONVEX:
        _, certificate = resolve_modulus(spec, None)
    normalized = bool(abs(spec.evaluator(1.0)) <= NORMALIZED_TOL)
    return DivergenceKernel(
        name=key,
        generator=spec,
        normalized=normalized,
        convexity_class=convexity_class,
        modulus_certificate=certificate,
    )


def catalog(interval: Optional[tuple[float, float]] = None) -> list[DivergenceKernel]:
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
    return [get_kernel(name, interval) for name in names]


def _require_ratios_inside(values: np.ndarray, kernel: DivergenceKernel) -> None:
    lo, hi = kernel.generator.interval
    if _first_outside(values, lo, hi) is not None:
        raise RatioOutOfDomain(
            f"ratios span [{values.min()}, {values.max()}], outside the "
            f"{kernel.name} interval [{lo}, {hi}]"
        )


def csiszar_divergence(pair: DistributionPair, kernel: DivergenceKernel) -> float:
    """``D_f(q, p) = S_j p_j f(q_j / p_j)`` for the kernel's generator.

    Raises:
        RatioOutOfDomain: if a ratio leaves the generator's interval.
        ValidationError: if the sum overflows the float range.
    """
    return _finite(pair._majorant_sums(kernel).f)[0]


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

    Clamped to ``[0, inf)``: the total mass may exceed one by
    :data:`PROBABILITY_SUM_TOL`, and an entry above one adds a tiny
    negative term.

    Raises:
        NotAProbabilityVector: if ``p`` is not strictly positive with
            total mass one.
    """
    arr = _require_probability(p, "p")
    return max(float(arr @ np.log(1.0 / arr)), 0.0)


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


def aggregated_divergence_bounds(
    pair: DistributionPair,
    matrix: StochasticMatrix,
    kernel: DivergenceKernel,
    c: Optional[float] = None,
) -> DivergenceSandwich:
    """Two-sided bounds comparing a divergence with its aggregation.

    Each row ``R_i`` of the column-stochastic ``matrix`` merges mass into
    ``b_i = <p, R_i>`` and aggregated ratio ``y_i = <q, R_i> / b_i``; the
    chain then runs on the weighted-majorized instance with witness
    ``A_ij = p_j R_ij / b_i``, which holds by construction and is neither
    built nor re-checked.  ``lower_ck`` is the aggregated divergence
    ``S_i b_i f(y_i)``.

    Args:
        pair: Strictly positive vectors with ratios inside the kernel's
            interval.
        matrix: Column-stochastic aggregation matrix with ``pair.size``
            columns (doubly stochastic qualifies).
        kernel: A strongly convex kernel.
        c: Optional explicit modulus at or below the certified one; None
            uses the certificate.

    Raises:
        ModulusNotCertified: for kernels without strong convexity, or an
            explicit modulus above the certified one.
        ZeroAggregateWeight: if a row of ``matrix`` carries no mass.
        RatioOutOfDomain: if a ratio leaves the generator's interval.
        DimensionMismatch: if the matrix width differs from the pair.
    """
    return _aggregated_sandwich(pair, matrix.entries, matrix.kind, kernel, c)


def divergence_bounds(
    pair: DistributionPair,
    kernel: DivergenceKernel,
    c: Optional[float] = None,
) -> DivergenceSandwich:
    """Two-sided bounds on ``D_f(q, p)`` from total mass alone.

    This is the single-row aggregation: ``lower_ck`` becomes the
    classical total-mass bound ``S_j p_j * f(S q / S p)``.  See
    :func:`aggregated_divergence_bounds` for arguments and errors.
    """
    return _aggregated_sandwich(pair, np.ones((1, pair.size)), "column", kernel, c)


def _aggregated_sandwich(
    pair: DistributionPair, entries: np.ndarray, kind: str,
    kernel: DivergenceKernel, c: Optional[float],
) -> DivergenceSandwich:
    """The body of :func:`aggregated_divergence_bounds` for validated ``entries``."""
    if kernel.convexity_class != _STRONGLY_CONVEX:
        raise ModulusNotCertified(
            f"kernel {kernel.name} is {kernel.convexity_class}; "
            "two-sided bounds need a certified strong-convexity modulus"
        )
    if kind == "row":
        raise ValidationError("aggregation needs a column-stochastic matrix")
    cols = entries.shape[1]
    if cols != pair.size:
        raise DimensionMismatch(
            f"aggregation matrix has {cols} columns for {pair.size} outcomes"
        )
    weights = entries @ pair.p
    if np.any(weights <= 0.0):
        raise ZeroAggregateWeight("an aggregation row carries zero probability mass")
    aggregated_ratios = (entries @ pair.q) / weights
    x = pair._majorant_sums(kernel)
    _require_ratios_inside(aggregated_ratios, kernel)
    # A = pR/b needs no check: R >= 0 and b = Rp > 0 make it nonnegative and
    # row-stochastic, (bA)_j = p_j S_i R_ij is a to R's validated column sums,
    # and (Ax)_i = S_j (p_j R_ij / b_i)(q_j / p_j) = (Rq)_i / b_i = y_i exactly.
    y = _SideSums(aggregated_ratios, weights, kernel.generator)
    modulus, _ = resolve_modulus(kernel.generator, c, kernel.modulus_certificate)
    chain = _chain_links(x, y, modulus)
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
