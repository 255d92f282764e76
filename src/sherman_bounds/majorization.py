"""Majorization checks, T-transform constructions, and weighted majorization.

Plain majorization ``y ≺ x`` is checked through decreasing-order partial
sums; a certificate either reports the first violated prefix or carries
an explicit doubly stochastic matrix with ``y = A x``, built from at most
``m - 1`` T-transforms.  Weighted majorization of ``(y, b)`` by ``(x, a)``
is witnessed by a row-stochastic matrix ``A`` with ``a = b A`` and
``y = A x``; this module verifies such witnesses and generates consistent
pairs from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .convexity import _first_outside
from .errors import (
    DimensionMismatch,
    LengthMismatch,
    NotMajorized,
    PointOutOfInterval,
    ValidationError,
)

#: Default absolute tolerance for partial-sum and residual comparisons.
DEFAULT_TOL = 1e-9

#: Row/column sums of a stochastic matrix may deviate by this much.
MATRIX_SUM_TOL = 1e-12

#: Entries in [-1e-14, 0) are clamped to zero; anything lower is rejected.
ENTRY_CLAMP_TOL = 1e-14

#: A stochastic matrix is validated in blocks of about this many bytes.
_BLOCK_BYTES = 1 << 20


def _as_vector(values, label: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{label} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{label} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{label} must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class WeightedVector:
    """Points with nonnegative weights, optionally pinned to an interval.

    Equality and hashing go by identity.

    The vector keeps a private memo of what is derived from it alone (its
    weight and first-moment ``fsum``) or from it and a partner (the sorted
    layout of a kernel weight, see :mod:`.fink`).  No entry can go stale:
    the vector is frozen and its arrays are read-only copies.  Pickling
    drops the memo.

    Attributes:
        points: Real data points.
        weights: Nonnegative weights, same length as ``points``.
        interval: Optional closed interval every point must lie in.
    """

    points: np.ndarray
    weights: np.ndarray
    interval: Optional[tuple[float, float]] = None
    _memo: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        pts = _as_vector(self.points, "points")
        wts = _as_vector(self.weights, "weights")
        if pts.shape != wts.shape:
            raise ValidationError(
                f"points and weights must have equal length, got {pts.size} and {wts.size}"
            )
        if np.any(wts < 0.0):
            raise ValidationError("weights must be nonnegative")
        if self.interval is not None:
            lo, hi = float(self.interval[0]), float(self.interval[1])
            if not lo <= hi:
                raise ValidationError(f"interval must satisfy lo <= hi, got {self.interval}")
            if _first_outside(pts, lo, hi) is not None:
                raise PointOutOfInterval(
                    f"points leave interval [{lo}, {hi}]: "
                    f"range [{pts.min()}, {pts.max()}]"
                )
            object.__setattr__(self, "interval", (lo, hi))
        pts = pts.copy()
        wts = wts.copy()
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def size(self) -> int:
        return int(self.points.size)

    def __getstate__(self) -> dict:
        # Partner entries hold weak references, which do not pickle.
        return {**vars(self), "_memo": {}}

    def _memoized(self, key, compute):
        """The memo entry ``key``, filled by ``compute()`` on first use."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def weight_sum(self) -> float:
        return self._memoized("weight_sum", lambda: float(math.fsum(self.weights)))

    @property
    def _first_moment(self) -> float:
        """``fsum`` of ``weights * points``."""
        return self._memoized(
            "first_moment", lambda: math.fsum((self.weights * self.points).tolist())
        )


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """A validated row-, column-, or doubly stochastic matrix.

    Entries in ``[-1e-14, 0)`` are clamped to zero on construction;
    anything more negative is rejected.  The relevant sums must equal
    one within ``1e-12``.  Equality and hashing go by identity.

    Validation reads the input once, copying it in blocks of about 1 MB
    (column blocks for a ``"column"`` matrix of at most 128 rows or one
    column, row blocks otherwise) and taking each block's minimum and sums
    while it is in cache.  The sums add in the order of numpy's
    whole-matrix ``entries.sum(axis)``, so they equal it.

    Attributes:
        entries: The matrix, stored read-only.
        kind: ``"row"``, ``"column"``, or ``"doubly"``.
    """

    entries: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("row", "column", "doubly"):
            raise ValidationError(f"kind must be row, column, or doubly, got {self.kind!r}")
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValidationError(f"matrix must be two-dimensional and nonempty, got shape {arr.shape}")
        rows, cols = arr.shape
        out = np.empty((rows, cols))
        # Column blocks only while they span >= 1024 columns, as narrower
        # strided blocks run slower in numpy's loops than the passes they
        # save, or for one column, which numpy sums pairwise, not row by row.
        by_column = self.kind == "column" and (cols == 1 or 1024 * 8 * rows <= _BLOCK_BYTES)
        step = max(1, _BLOCK_BYTES // (8 * (rows if by_column else cols)))
        lows, row_sums, col_sums = [], [], []
        for start in range(0, cols if by_column else rows, step):
            index = np.s_[:, start:start + step] if by_column else np.s_[start:start + step]
            block = out[index]
            block[...] = arr[index]
            lows.append(block.min())
            if lows[-1] < 0.0:  # -0.0 is not below zero and is kept
                block[block < 0.0] = 0.0
            if by_column:
                col_sums.append(block.sum(axis=0))
                continue
            if self.kind != "column":
                row_sums.append(block.sum(axis=1))
            if self.kind != "row":
                # Axis-0 sums add row after row; stacking the running sums on
                # top of the next row block keeps that order across blocks.
                stacked = np.vstack(col_sums + [block]) if col_sums else block
                col_sums = [stacked.sum(axis=0)]
        low = np.min(lows)  # NaN anywhere propagates, as in one min over all entries
        if low < -ENTRY_CLAMP_TOL:
            raise ValidationError(f"matrix entry {low} below clamping tolerance -{ENTRY_CLAMP_TOL}")
        for label, parts in (("row", row_sums), ("column", col_sums)):
            if self.kind not in (label, "doubly"):
                continue
            # max |s - 1| without a temporary: rounding s - 1 is monotone in s.
            dev = float(np.max([np.maximum(s.max() - 1.0, 1.0 - s.min()) for s in parts]))
            # A NaN or infinite entry makes its sum, and so dev, non-finite;
            # NaN would pass the comparison below.
            if not math.isfinite(dev):
                raise ValidationError("matrix entries must be finite")
            if dev > MATRIX_SUM_TOL:
                raise ValidationError(f"{label} sums deviate from 1 by {dev} > {MATRIX_SUM_TOL}")
        out.setflags(write=False)
        object.__setattr__(self, "entries", out)

    @property
    def shape(self) -> tuple[int, int]:
        return tuple(self.entries.shape)


@dataclass(frozen=True)
class MajorizationCert:
    """Certificate returned by :func:`majorizes`.

    Attributes:
        relation: ``"holds"`` or ``"fails"``.
        witness_k: On failure, the smallest prefix length whose partial
            sums violate the relation; the full length signals a total-sum
            mismatch.  None when the relation holds.
        matrix: Doubly stochastic witness with ``y = A x`` when requested.
        residual: ``max_i |y_i - (A x)_i|`` of that witness, as its
            construction checked it; None without a witness.
    """

    relation: str
    witness_k: Optional[int]
    matrix: Optional[StochasticMatrix]
    residual: Optional[float] = None

    @property
    def holds(self) -> bool:
        return self.relation == "holds"


def majorizes(x, y, tol: float = DEFAULT_TOL, *, with_matrix: bool = False) -> MajorizationCert:
    """Check whether ``x`` majorizes ``y`` (``y ≺ x``).

    Both vectors are sorted in decreasing order; the relation holds when
    every prefix sum of ``y`` stays below the matching prefix sum of
    ``x`` plus ``tol`` and the totals agree within ``tol``.

    Args:
        x: Candidate majorant.
        y: Candidate majorized vector, same length.
        tol: Absolute slack for the partial-sum comparisons.
        with_matrix: When True and the relation holds, attach a doubly
            stochastic matrix ``A`` with ``y = A x``.

    Raises:
        ValueError: unless ``tol`` is finite and nonnegative.
        LengthMismatch: if the vectors differ in length.
        ValidationError: if a vector has a NaN or infinite entry or its sum overflows.
        NotMajorized: with ``with_matrix``, if the witness misses ``y``
            by more than ``1e-10 * max(1, max_i |x_i|)``.
    """
    # a NaN or infinite tol would let every comparison against it pass
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or ya.ndim != 1 or xa.size != ya.size or xa.size == 0:
        raise LengthMismatch(
            f"majorization needs equal-length vectors, got shapes {xa.shape} and {ya.shape}"
        )
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise ValidationError("majorization needs finite vectors")
    with np.errstate(over="ignore"):
        cx = np.cumsum(np.sort(xa)[::-1])
        cy = np.cumsum(np.sort(ya)[::-1])
    # an overflowed cumsum ends non-finite, and inf - inf is NaN, which no `> tol` catches
    if not (math.isfinite(cx[-1]) and math.isfinite(cy[-1])):
        raise ValidationError("majorization partial sums overflow the float range")
    violated = np.flatnonzero(cy[:-1] > cx[:-1] + tol)
    if violated.size:
        return MajorizationCert("fails", int(violated[0]) + 1, None)
    if abs(cx[-1] - cy[-1]) > tol:
        return MajorizationCert("fails", xa.size, None)
    matrix, residual = _t_transform_witness(xa, ya) if with_matrix else (None, None)
    return MajorizationCert("holds", None, matrix, residual)


def _t_transform_witness(xa: np.ndarray, ya: np.ndarray) -> tuple[StochasticMatrix, float]:
    """A doubly stochastic ``A`` with ``y = A x`` for a checked majorized pair, with its residual.

    Classical construction: sort both vectors in decreasing order, then
    apply at most ``m - 1`` T-transforms (convex mixtures of the identity
    and a transposition), each matching at least one more coordinate of
    the working vector to ``y``.  The pair each step acts on is found by
    two pointers that only move forward, so the search is amortised O(1)
    per step, and a step mixes the row carried over from the previous
    step with a unit row.  The carried row is kept as a scalar times a
    base row; the row the step finishes is written once, in O(m), straight
    into ``A`` in the original coordinate order, so the witness costs
    O(m^2).
    """
    m = xa.size
    ordx = np.argsort(-xa, kind="stable")
    ordy = np.argsort(-ya, kind="stable")
    v = xa[ordx].tolist()
    target = ya[ordy].tolist()
    rows = ordy.tolist()
    cols = ordx.tolist()
    # Sorted row i is row rows[i] of the result; rows no step touches stay unit.
    matrix = np.zeros((m, m))
    matrix[ordy, ordx] = 1.0
    scale = max(1.0, float(np.abs(xa).max()))
    eps = 1e-13 * scale
    # j is the first donor (v > target + eps), k the first receiver after j
    # (v < target - eps).  A step moves delta <= min(surplus_j, deficit_k),
    # so no donor drops below its target, no receiver rises above it, and
    # coordinates before j are matched and never touched again: neither
    # pointer moves back, and the whole search costs O(m).
    #
    # So each step mixes the row carried over from the previous step, held
    # as c * base at sorted index `held`, with a unit row; one of the two is
    # then final and written once.  Rescaling at c < 1e-150 keeps c from
    # underflowing: lam >= 5e-14 (delta > eps, v[j] - v[k] <= 2 * scale).
    held, c, base = -1, 1.0, None
    j = k = 0
    for _ in range(m - 1):
        while j < m and v[j] - target[j] <= eps:
            j += 1
        if k <= j:
            k = j + 1
        while k < m and v[k] - target[k] >= -eps:
            k += 1
        if k >= m:
            break
        surplus = v[j] - target[j]
        deficit = target[k] - v[k]
        delta = surplus if surplus < deficit else deficit
        lam = delta / (v[j] - v[k])  # v[j] > target[j] >= target[k] > v[k]
        v[j] -= delta
        v[k] += delta
        if held != j and held != k:
            if held >= 0:
                np.multiply(base, c, out=matrix[rows[held]])
            held, c, base = j, 1.0, np.zeros(m)
            base[cols[j]] = 1.0
        fresh = j + k - held
        # The step leaves the held row at (1 - lam) * c * base + lam * e_fresh
        # and the fresh row at lam * c * base + (1 - lam) * e_fresh.  The donor
        # stays held unless matched; then the receiver is (written next step
        # if matched too).  The row written now is a * c * base + b * e_fresh,
        # and the row held next is b * c * base + a * e_fresh.
        keep = k if v[j] - target[j] <= eps else j
        a, b = (lam, 1.0 - lam) if keep == held else (1.0 - lam, lam)
        row = matrix[rows[j + k - keep]]
        np.multiply(base, c * a, out=row)
        row[cols[fresh]] = b
        held, c = keep, c * b
        base[cols[fresh]] = a / c
        if c < 1e-150:
            base *= c
            c = 1.0
    if held >= 0:
        np.multiply(base, c, out=matrix[rows[held]])
    residual = float(np.abs(ya - matrix @ xa).max())
    bound = 1e-10 * scale
    if not residual <= bound:
        raise NotMajorized(
            f"construction residual {residual} exceeds {bound}; "
            "pair is not majorized to working precision"
        )
    return StochasticMatrix(matrix, "doubly"), residual


@dataclass(frozen=True)
class VerificationResult:
    """Residuals of a weighted-majorization witness check.

    Attributes:
        passed: True when both residuals fall within :data:`DEFAULT_TOL`.
        weight_residual: ``max_j |a_j - (b A)_j|``.
        point_residual: ``max_i |y_i - (A x)_i|``.
    """

    passed: bool
    weight_residual: float
    point_residual: float


def verify_weighted_majorization(
    x: WeightedVector, y: WeightedVector, matrix: StochasticMatrix
) -> VerificationResult:
    """Check that ``matrix`` witnesses weighted majorization of ``(y, b)`` by ``(x, a)``.

    The witness must be row-stochastic (doubly stochastic also qualifies)
    with shape ``(len(y), len(x))`` and satisfy ``a = b A`` and
    ``y = A x`` within :data:`DEFAULT_TOL` in the max norm.

    Raises:
        ValidationError: if ``matrix`` is only column-stochastic.
        DimensionMismatch: if the shape does not match the vectors.
    """
    if matrix.kind == "column":
        raise ValidationError("weighted majorization needs a row-stochastic witness")
    rows, cols = matrix.shape
    if y.size != rows or x.size != cols:
        raise DimensionMismatch(
            f"witness shape {matrix.shape} incompatible with sizes ({y.size}, {x.size})"
        )
    weight_residual = float(np.abs(x.weights - y.weights @ matrix.entries).max())
    point_residual = float(np.abs(y.points - matrix.entries @ x.points).max())
    return VerificationResult(
        passed=weight_residual <= DEFAULT_TOL and point_residual <= DEFAULT_TOL,
        weight_residual=weight_residual,
        point_residual=point_residual,
    )


def generate_weighted_pair(x, b, matrix: StochasticMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``(y, a)`` so that ``(y, b)`` is weighted-majorized by ``(x, a)``.

    Sets ``y = A x`` and ``a = b A``; the result passes
    :func:`verify_weighted_majorization` by construction.

    Raises:
        ValidationError: if ``matrix`` is only column-stochastic, or ``b``
            has negative entries.
        DimensionMismatch: if the shape does not match ``x`` and ``b``.
    """
    if matrix.kind == "column":
        raise ValidationError("weighted pair generation needs a row-stochastic matrix")
    xa = _as_vector(x, "x")
    ba = _as_vector(b, "b")
    if np.any(ba < 0.0):
        raise ValidationError("weights must be nonnegative")
    rows, cols = matrix.shape
    if ba.size != rows or xa.size != cols:
        raise DimensionMismatch(
            f"matrix shape {matrix.shape} incompatible with sizes ({ba.size}, {xa.size})"
        )
    return matrix.entries @ xa, ba @ matrix.entries
