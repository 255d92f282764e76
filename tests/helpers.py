"""Shared test utilities: independent oracles and seeded instance generators.

Oracles here deliberately avoid the code paths of the package: sums use
``math.fsum`` over explicit loops, divided differences use the plain
recursive definition on distinct nodes, and integrals use fixed-order
Gauss-Legendre panels instead of adaptive quadrature.
"""

import math
import sys

import numpy as np

from sherman_bounds import StochasticMatrix, WeightedVector, generate_weighted_pair
from sherman_bounds import convexity


def fsum_dot(weights, values) -> float:
    return math.fsum(float(w) * float(v) for w, v in zip(weights, values))


def kl_fsum(p, q) -> float:
    """Kullback-Leibler divergence ``S_i q_i log(q_i / p_i)`` in nats, term by term."""
    return math.fsum(float(qi) * math.log(float(qi) / float(pi)) for pi, qi in zip(p, q))


def entropy_via_kl(p, kernel) -> float:
    """``H(p) = log n - D(p || u)`` for the uniform ``u``, with ``kernel`` a ``kl`` kernel.

    Not an oracle: the divergence is the package's ``csiszar_divergence``.
    """
    from sherman_bounds import DistributionPair, csiszar_divergence

    p = np.asarray(p, dtype=float)
    uniform = np.full(p.size, 1.0 / p.size)
    return math.log(p.size) - csiszar_divergence(DistributionPair(uniform, p), kernel)


def dd_recursive(points, f) -> float:
    """Textbook recursive divided difference; distinct nodes only."""
    pts = [float(p) for p in points]
    if len(pts) == 1:
        return f(pts[0])
    return (dd_recursive(pts[1:], f) - dd_recursive(pts[:-1], f)) / (pts[-1] - pts[0])


def gauss_legendre(f, lo: float, hi: float, nodes: int = 50) -> float:
    """Fixed-order Gauss-Legendre panel; exact for polynomials below 2*nodes."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * math.fsum(float(w) * f(mid + half * float(x)) for x, w in zip(xs, ws))


def gauss_legendre_pieces(f, cuts, nodes: int = 50) -> float:
    """Gauss-Legendre applied piecewise between consecutive cut points."""
    cuts = sorted(float(c) for c in cuts)
    return math.fsum(
        gauss_legendre(f, lo, hi, nodes) for lo, hi in zip(cuts, cuts[1:]) if hi > lo
    )


def random_row_stochastic(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.dirichlet(np.ones(cols), size=rows)


def random_doubly_stochastic(rng: np.random.Generator, size: int, terms: int = 0) -> np.ndarray:
    """Random convex combination of permutation matrices."""
    if terms <= 0:
        terms = size + 2
    lam = rng.dirichlet(np.ones(terms))
    out = np.zeros((size, size))
    for coeff in lam:
        perm = rng.permutation(size)
        out[np.arange(size), perm] += coeff
    return out


def random_chain_instance(
    rng: np.random.Generator,
    interval: tuple[float, float],
    max_rows: int = 6,
    max_cols: int = 8,
):
    """Random verified weighted-majorization instance on the interval.

    Returns (x_vector, y_vector, witness) with the pair generated from a
    random row-stochastic matrix, so verification holds by construction.
    """
    lo, hi = interval
    rows = int(rng.integers(1, max_rows + 1))
    cols = int(rng.integers(1, max_cols + 1))
    witness = StochasticMatrix(random_row_stochastic(rng, rows, cols), "row")
    x = rng.uniform(lo, hi, cols)
    b = rng.uniform(0.1, 2.0, rows)
    y, a = generate_weighted_pair(x, b, witness)
    return (
        WeightedVector(x, a, interval),
        WeightedVector(y, b, interval),
        witness,
    )


def random_probability(rng: np.random.Generator, size: int) -> np.ndarray:
    """Strictly positive probability vector, bounded away from zero."""
    raw = rng.uniform(0.05, 1.0, size)
    return raw / raw.sum()


def three_pass_stochastic(entries, kind: str) -> np.ndarray:
    """Oracle for ``StochasticMatrix``: its validation as three whole-matrix passes.

    The minimum, the (clamping) copy and the sums each read the whole
    matrix.  Returns the validated entries or raises the same
    ``ValidationError`` as the class.
    """
    from sherman_bounds import ValidationError
    from sherman_bounds.majorization import ENTRY_CLAMP_TOL, MATRIX_SUM_TOL

    if kind not in ("row", "column", "doubly"):
        raise ValidationError(f"kind must be row, column, or doubly, got {kind!r}")
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(f"matrix must be two-dimensional and nonempty, got shape {arr.shape}")
    low = arr.min()
    if low < -ENTRY_CLAMP_TOL:
        raise ValidationError(f"matrix entry {low} below clamping tolerance -{ENTRY_CLAMP_TOL}")
    arr = np.where(arr < 0.0, 0.0, arr) if low < 0.0 else arr.copy()
    for axis, label in ((1, "row"), (0, "column")):
        if kind not in (label, "doubly"):
            continue
        dev = float(np.abs(arr.sum(axis=axis) - 1.0).max())
        if not math.isfinite(dev):
            raise ValidationError("matrix entries must be finite")
        if dev > MATRIX_SUM_TOL:
            raise ValidationError(f"{label} sums deviate from 1 by {dev} > {MATRIX_SUM_TOL}")
    return arr


def two_sort_kernel_weight(x, y, n: int, alpha: float, beta: float):
    """Oracle for ``fink._KernelWeight``: its build with one sort per side.

    Each side is sorted alone and keeps its own prefix and suffix sums of
    the scaled moments (a leading or trailing ``+0.0`` column for the sums
    over no point); the cuts come from ``np.unique`` and each side gets its
    own ``searchsorted``.  ``values`` and ``polynomial`` are the class's own.
    """
    from sherman_bounds import fink

    class TwoSortKernelWeight(fink._KernelWeight):
        def __init__(self):
            self.alpha, self.beta = alpha, beta
            self.center = 0.5 * (alpha + beta)
            self.half = 0.5 * (beta - alpha) or 1.0
            scale = self.half ** (n - 1) * np.array([math.comb(n - 1, p) for p in range(n)])
            self.sides = [self._moment_sums(v, scale) for v in (x, y)]
            pts = np.concatenate([x.points, y.points])
            pts = pts[(pts > alpha) & (pts < beta)]
            self.cuts = np.unique(np.concatenate([[alpha], pts, [beta]]))
            self.pieces = self.coefficients(self.cuts[:-1], "right")

        def _moment_sums(self, v, scale):
            order = np.argsort(v.points, kind="stable")
            pts = v.points[order]
            u = (pts - self.center) / self.half
            terms = np.empty((n, pts.size))
            terms[0] = v.weights[order]
            for p in range(1, n):
                np.multiply(terms[p - 1], u, out=terms[p])
            terms *= scale[:, None]
            zero = np.zeros((n, 1))
            suffix = np.concatenate([np.cumsum(terms[:, ::-1], axis=1)[:, ::-1], zero], axis=1)
            prefix = np.concatenate([zero, np.cumsum(terms, axis=1)], axis=1)
            return pts, suffix, prefix

        def coefficients(self, t, side):
            (px, sx, qx), (py, sy, qy) = self.sides
            i = np.searchsorted(px, t, side=side)
            j = np.searchsorted(py, t, side=side)
            return sx[:, i] - sy[:, j], qx[:, i] - qy[:, j]

    return TwoSortKernelWeight()


def count_certificates(monkeypatch) -> list:
    """Route every package attribute bound to ``estimate_strong_modulus`` through a counter.

    Each module that imported the function by name holds its own binding, so
    every one is replaced, as the benchmark's tracer does.  Returns the list
    that each evaluation appends its ``(spec, n)`` to.
    """
    original, calls = convexity.estimate_strong_modulus, []

    def counting(spec, n):
        calls.append((spec, n))
        return original(spec, n)

    for name, module in list(sys.modules.items()):
        if name == "sherman_bounds" or name.startswith("sherman_bounds."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls
