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
Every link comes from the chain's own evaluators in :mod:`.bounds`.  Each
generator is declared once, as an entry of the catalog table form of
:mod:`.convexity`, and built by its builder; ``kl`` and ``renyi`` reuse
the catalog functions ``xlogx`` and ``pow:a``.  The Kullback-Leibler
divergence is the ``kl`` kernel's (``f(t) = t log t``).  Totals of ``p``,
``q`` or their aggregated rows that overflow raise ``ValidationError``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .bounds import _chain_links, _SideSums
from .convexity import (
    FunctionSpec,
    ModulusCertificate,
    _CatalogEntry,
    _catalog_exponent,
    _catalog_spec,
    _certified_modulus,
    _first_outside,
    _require_valid_modulus,
    estimate_strong_modulus,
    function_from_name,
)
from .errors import (
    DimensionMismatch,
    ModulusNotCertified,
    RatioOutOfDomain,
    ValidationError,
    ZeroAggregateWeight,
)
from .majorization import StochasticMatrix, _finite

#: Default ratio interval for catalog kernels.
DEFAULT_KERNEL_INTERVAL = (0.1, 10.0)

#: A generator counts as normalized when |f(1)| is below this.
NORMALIZED_TOL = 1e-14

_STRONGLY_CONVEX = "strongly_convex"
_CONVEX_ONLY = "convex_only"
_NONCONVEX = "nonconvex"


@dataclass(frozen=True)
class DivergenceKernel:
    """A named generator with convexity classification.

    The modulus certificate is not a field: it is derived from the
    generator on first read and kept, so no kernel can carry another spec's certificate.

    Attributes:
        name: Catalog name, e.g. ``"kl"`` or ``"renyi:2"``.
        generator: The function spec of ``f`` on the ratio interval.
        normalized: True when ``f(1) = 0`` (so ``D_f(p, p) = 0``).
        convexity_class: ``"strongly_convex"``, ``"convex_only"``, or
            ``"nonconvex"``.
    """

    name: str
    generator: FunctionSpec
    normalized: bool
    convexity_class: str

    @property
    def interval(self) -> tuple[float, float]:
        return self.generator.interval

    @cached_property
    def modulus_certificate(self) -> Optional[ModulusCertificate]:
        """The generator's order-2 certificate; None unless strongly convex."""
        if self.convexity_class != _STRONGLY_CONVEX:
            return None
        return estimate_strong_modulus(self.generator, 2)


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


def _hellinger(t: float) -> float:
    s = np.sqrt(t) - 1.0
    return 0.5 * s * s


#: Every generator but ``kl`` and ``renyi``, which reuse ``xlogx`` and ``pow:a``,
#: with its convexity class.  ``convexity._FUNCTIONS``'s minimum rule holds: the
#: ``f'`` of hellinger and of triangular increase.
_GENERATORS = {
    # orders >= 2 of -sqrt(t)
    "hellinger": (_CatalogEntry(_hellinger, (-1.0, 0.5, -0.0),
                                (lambda t: 0.5 * (1.0 - 1.0 / np.sqrt(t)),)), _STRONGLY_CONVEX),
    "variational": (_CatalogEntry(lambda t: abs(t - 1.0), None), _CONVEX_ONLY),
    # 2t/(1+t) = 2 - 2/(1+t)
    "harmonic": (_CatalogEntry(lambda t: 2.0 * t / (1.0 + t), (-2.0, -1.0, 1.0)), _NONCONVEX),
    "bhattacharya": (_CatalogEntry(lambda t: -np.sqrt(t), (-1.0, 0.5, -0.0)), _STRONGLY_CONVEX),
    # orders >= 2 differentiate the 4/(1+t) term only
    "triangular": (_CatalogEntry(lambda t: (t - 1.0) ** 2 / (1.0 + t), (4.0, -1.0, 1.0),
                                 (lambda t: 1.0 - 4.0 / (1.0 + t) ** 2,)), _STRONGLY_CONVEX),
    # (t-1)*(t-1): a product, as pow(u, 2.0) may differ from u*u
    "chi_square": (_CatalogEntry(lambda t: (t - 1.0) * (t - 1.0), (1.0, 2.0, -1.0)), _STRONGLY_CONVEX),
}


def get_kernel(name: str, interval: Optional[tuple[float, float]] = None) -> DivergenceKernel:
    """Build a catalog kernel by name on a ratio interval.

    Known names: ``kl``, ``hellinger``, ``variational``, ``harmonic``,
    ``bhattacharya``, ``triangular``, ``chi_square``, and ``renyi:a`` for
    a finite exponent ``a > 1``.  A kernel's name rebuilds it: ``renyi:a``
    spells ``a`` as ``f"{a:g}"`` when that parses back to ``a``, else as
    ``repr(a)``.  A strongly convex kernel's certificate is computed on
    construction and must be ``"certified"`` or ``"sampled"``.

    Raises:
        ValidationError: on an unknown name, a nonpositive interval, or a
            Renyi exponent that is not a number, not finite or not above one.
        ModulusNotCertified: if certification fails.
    """
    stem, colon, suffix = name.strip().lower().partition(":")
    key = stem.replace("-", "_") + colon + suffix  # "-" in an exponent is a sign
    if interval is None:
        interval = DEFAULT_KERNEL_INTERVAL
    lo, hi = float(interval[0]), float(interval[1])
    if not (0.0 < lo < hi):
        raise ValidationError(f"ratio interval must satisfy 0 < lo < hi, got {interval}")
    interval = (lo, hi)

    if stem == "renyi":
        alpha = _catalog_exponent(key)
        if not alpha > 1.0:
            raise ValidationError(f"renyi exponent must exceed 1, got {alpha}")
        key = f"renyi:{alpha:g}" if float(f"{alpha:g}") == alpha else f"renyi:{alpha!r}"
        # the pow:a entry under the kernel's name; replace() would drop its nodes
        spec = _catalog_spec(key, _CatalogEntry(None, (1.0, alpha, -0.0)), interval)
        convexity_class = _STRONGLY_CONVEX
    elif key == "kl":
        spec, convexity_class = function_from_name("xlogx", interval), _STRONGLY_CONVEX
    elif key in _GENERATORS:
        entry, convexity_class = _GENERATORS[key]
        spec = _catalog_spec(key, entry, interval)
    else:
        raise ValidationError(f"unknown divergence kernel {key!r}")

    normalized = bool(abs(spec.evaluate(1.0)) <= NORMALIZED_TOL)
    kernel = DivergenceKernel(key, spec, normalized, convexity_class)
    if convexity_class == _STRONGLY_CONVEX:
        _certified_modulus(spec.name, kernel.modulus_certificate, None)
    return kernel


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
    with np.errstate(all="ignore"):  # an overflowing sum raises below
        return _finite(pair._majorant_sums(kernel).f)[0]


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
        """Every field, ``kernel_name`` as ``kernel`` and ``warnings`` as a list."""
        out = asdict(self)
        return dict(out, kernel=out.pop("kernel_name"), warnings=list(self.warnings))


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
        ValidationError: if a total overflows the float range.
    """
    if matrix.kind == "row":
        raise ValidationError("aggregation needs a column-stochastic matrix")
    cols = matrix.shape[1]
    if cols != pair.size:
        raise DimensionMismatch(
            f"aggregation matrix has {cols} columns for {pair.size} outcomes"
        )
    with np.errstate(all="ignore"):  # a zero or overflowing total raises below
        weights = matrix.entries @ pair.p
        ratios = (matrix.entries @ pair.q) / weights
    if np.any(weights <= 0.0):
        raise ZeroAggregateWeight("an aggregation row carries zero probability mass")
    _finite(weights.max(), ratios.max())
    # A = pR/b needs no check: R >= 0 and b = Rp > 0 make it nonnegative and
    # row-stochastic, (bA)_j = p_j S_i R_ij is a to R's validated column sums,
    # and (Ax)_i = S_j (p_j R_ij / b_i)(q_j / p_j) = (Rq)_i / b_i = y_i exactly.
    return _aggregated_sandwich(pair, weights, ratios, kernel, c)


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
    with np.errstate(over="ignore"):  # an overflowing total raises below
        total, merged = _finite(pair.p.sum(), pair.q.sum())
    return _aggregated_sandwich(pair, np.array([total]), np.array([merged / total]), kernel, c)


def _aggregated_sandwich(
    pair: DistributionPair, weights: np.ndarray, aggregated_ratios: np.ndarray,
    kernel: DivergenceKernel, c: Optional[float],
) -> DivergenceSandwich:
    """The sandwich of a strongly convex kernel at the aggregated ``weights`` and ratios."""
    if kernel.convexity_class != _STRONGLY_CONVEX:
        raise ModulusNotCertified(
            f"kernel {kernel.name} is {kernel.convexity_class}; "
            "two-sided bounds need a certified strong-convexity modulus"
        )
    x = pair._majorant_sums(kernel)
    _require_ratios_inside(aggregated_ratios, kernel)
    y = _SideSums(aggregated_ratios, weights, kernel.generator)
    _require_valid_modulus(c)
    modulus = _certified_modulus(kernel.generator.name, kernel.modulus_certificate, c)
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
