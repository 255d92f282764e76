"""The order-n difference identity, kernel sign certificates, and higher-order bounds."""

import gc
import inspect
import math
import pickle
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from sherman_bounds import (
    FunctionSpec,
    KernelConditionIndefinite,
    MajorizationNotVerified,
    MissingDerivative,
    ModulusNotCertified,
    PointOutOfInterval,
    QuadratureFailure,
    ValidationError,
    WeightedVector,
    check_kernel_condition,
    estimate_strong_modulus,
    full_chain,
    function_from_name,
    higher_order_sherman_bound,
    sherman_difference_identity,
)
import sherman_bounds
from sherman_bounds import fink
from helpers import (
    fsum_dot,
    gauss_legendre_pieces,
    overflow_pair,
    random_chain_instance,
    shifted_spec,
    two_sort_kernel_weight,
)

EXP01 = function_from_name("exp", (0.0, 1.0))

#: The catalog functions and intervals of the shift tests.
SHIFT_SPECS = [
    pytest.param(name, interval, id=name)
    for name, interval in [("exp", (0.0, 1.0)), ("xlogx", (0.1, 3.0)), ("pow:6", (0.5, 2.0))]
]


def fsum_kernel_weight(t, x, y, n, alpha, beta, right_limit=False) -> float:
    """``W(t)`` point by point: every data point's term, summed by fsum."""
    terms = []
    for v, sign in ((x, 1.0), (y, -1.0)):
        for p, w in zip(v.points.tolist(), v.weights.tolist()):
            on_alpha = t < p if right_limit else t <= p
            terms.append(sign * w * (p - t) ** (n - 1) * ((t - alpha) if on_alpha else (t - beta)))
    return math.fsum(terms)


def certificate_nodes(x, y, n, interval):
    """``check_kernel_condition`` with every node it evaluated and the value there."""
    nodes, values = [], []
    real = fink._KernelWeight.polynomial

    def recording(self, t, suffix, prefix):
        out = real(self, t, suffix, prefix)
        nodes.extend(np.broadcast_to(t, out.shape).ravel().tolist())
        values.extend(out.ravel().tolist())
        return out

    with mock.patch.object(fink._KernelWeight, "polynomial", recording):
        cond = check_kernel_condition(x, y, n, interval=interval)
    return cond, nodes, values


def oracle_at_nodes(x, y, n, lo, hi, nodes, values):
    """The fsum value or right limit of ``W`` that each evaluated value stands for.

    A piece's polynomial at its left end is ``W``'s right limit there, and
    anywhere else it is ``W``'s value, so each value must match one of them.
    """
    out = []
    for t, w in zip(nodes, values):
        value = fsum_kernel_weight(t, x, y, n, lo, hi)
        limit = fsum_kernel_weight(t, x, y, n, lo, hi, right_limit=True)
        out.append(value if abs(w - value) <= abs(w - limit) else limit)
    return out


def scan_oracle(x, y, n, alpha, beta, nodes):
    """``W`` at ``nodes`` and every data point, and its right limits at the data points.

    :func:`fsum_kernel_weight` on whole arrays: the terms are formed
    elementwise and each node's terms are summed by fsum.
    """
    pts = np.concatenate([x.points, y.points])
    weights = np.concatenate([x.weights, -y.weights])
    out = []
    for t, right_limit in ((np.concatenate([nodes, pts]), False), (pts, True)):
        t = t[:, None]
        on_alpha = t < pts if right_limit else t <= pts
        terms = weights * (pts - t) ** (n - 1) * np.where(on_alpha, t - alpha, t - beta)
        out += map(math.fsum, terms.tolist())
    return out


def steep_spec(rate: float = 8.0) -> FunctionSpec:
    derivs = tuple(
        (lambda k: (lambda t, k=k: rate**k * math.exp(rate * t)))(k)
        for k in range(1, 7)
    )
    return FunctionSpec("steep", lambda t: math.exp(rate * t), derivs, (0.0, 1.0))


#: t^2.5 on [0, 1]: its second derivative has a square-root corner at 0.
ROOT01 = FunctionSpec(
    "root",
    lambda t: t**2.5,
    (lambda t: 2.5 * t**1.5, lambda t: 3.75 * np.sqrt(t)),
    (0.0, 1.0),
)


class TestQuadratureConfig:
    """The identity takes one budget, ``quad_tol``; the subdivision limit is a constant."""

    def test_defaults(self):
        assert inspect.signature(sherman_difference_identity).parameters["quad_tol"].default == 1e-9
        assert fink.MAX_SUBDIVISIONS == 200

    def test_validation(self):
        x, y, _ = random_chain_instance(np.random.default_rng(54), (0.0, 1.0))
        # an infinite budget would pass any residual
        for quad_tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="quad_tol"):
                sherman_difference_identity(x, y, EXP01, 2, quad_tol)


#: A pair whose points sit at both ends of [0, 1]: two pieces, cut at 0.5.
ENDS_X = WeightedVector([0.0, 1.0], [1.0, 1.0])
ENDS_Y = WeightedVector([0.5], [2.0])


class TestFinkIdentity:
    """Fink's identity summed over a majorized pair: exactness, oracles, guards, budget."""

    def test_linear_first_order_is_exact(self):
        lin = FunctionSpec("lin", lambda t: 2.0 * t + 1.0, (lambda t: 2.0,), (0.0, 1.0))
        rng = np.random.default_rng(55)
        for _ in range(10):
            x, y, _ = random_chain_instance(rng, (0.0, 1.0))
            assert abs(sherman_difference_identity(x, y, lin, 1).residual) <= 1e-12

    def test_square_second_order_against_quadrature_oracle(self):
        # no boundary terms at n = 2: lhs = integral of 2 W(t) over [0, 1]
        spec = function_from_name("square", (0.0, 1.0))
        x, y, _ = random_chain_instance(np.random.default_rng(56), (0.0, 1.0))
        report = sherman_difference_identity(x, y, spec, 2)
        assert abs(report.residual) <= 1e-9
        # W is a quadratic on each piece, so fixed-order panels are exact there
        cuts = [0.0, *x.points.tolist(), *y.points.tolist(), 1.0]
        oracle = gauss_legendre_pieces(
            lambda t: 2.0 * fsum_kernel_weight(t, x, y, 2, 0.0, 1.0), cuts)
        assert abs(report.integral_term - oracle) <= 1e-12
        lhs = fsum_dot(x.weights, [t * t for t in x.points]) - fsum_dot(
            y.weights, [t * t for t in y.points])
        assert abs(lhs - oracle) <= 1e-9

    def test_exp_orders_one_to_four(self):
        # data points at both interval ends and inside
        inside = (WeightedVector([0.0, 0.42, 1.0], [1.0, 2.0, 1.0]),
                  WeightedVector([0.3, 0.62], [2.0, 2.0]))
        for x, y in ((ENDS_X, ENDS_Y), inside):
            for n in range(1, 5):
                assert abs(sherman_difference_identity(x, y, EXP01, n).residual) <= 1e-7

    def test_point_outside_interval(self):
        x = WeightedVector([0.5, 1.5], [1.0, 1.0])
        with pytest.raises(PointOutOfInterval):
            sherman_difference_identity(x, WeightedVector([1.0], [2.0]), EXP01, 2)

    def test_missing_derivative(self):
        only_one = FunctionSpec("f", math.exp, (math.exp,), (0.0, 1.0))
        with pytest.raises(MissingDerivative):
            sherman_difference_identity(ENDS_X, ENDS_Y, only_one, 2)

    def test_budget_exhaustion_is_reported(self, monkeypatch):
        monkeypatch.setattr(fink, "MAX_SUBDIVISIONS", 1)
        x, y, _ = random_chain_instance(np.random.default_rng(51), (0.0, 1.0))
        with pytest.raises(QuadratureFailure):
            sherman_difference_identity(x, y, steep_spec(), 2, 1e-13)

    def test_budget_message_names_the_applied_threshold(self, monkeypatch):
        # two pieces of value 1e3 make the relative threshold 10 * 1e-9 * 2e3 = 2e-5
        # apply; one subdivision makes every piece reach the patched quad
        monkeypatch.setattr(fink, "MAX_SUBDIVISIONS", 1)
        monkeypatch.setattr(fink, "quad", lambda *args, **kwargs: (1e3, 1.0, {"neval": 21}))
        with pytest.raises(QuadratureFailure) as info:
            sherman_difference_identity(ENDS_X, ENDS_Y, EXP01, 1)
        assert f"exceeds budget {max(10 * 1e-9, 10 * 1e-9 * 2e3)}" in str(info.value)
        assert "1e-09" not in str(info.value)


class TestGaussKronrodPass:
    """The vectorised first QUADPACK step against scipy's ``quad``."""

    def test_rule_tables(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        gauss = fink._GK_GAUSS != 0.0
        assert np.abs(fink._GK_NODES[gauss] - nodes).max() <= 1e-15
        assert np.abs(fink._GK_GAUSS[gauss] - weights).max() <= 1e-15
        for k in range(32):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(fink._GK_NODES**k @ fink._GK_KRONROD - exact) <= 1e-15

    @staticmethod
    def captured_integrals(monkeypatch):
        """Every ``(integrand, cuts, tol)`` that the identities integrate."""
        captured = []
        real = fink._integrate_pieces

        def capture(integrand, cuts, tol):
            captured.append((integrand, cuts, tol))
            return real(integrand, cuts, tol)

        monkeypatch.setattr(fink, "_integrate_pieces", capture)
        rng = np.random.default_rng(51)
        for n in range(1, 6):
            for _ in range(3):
                x, y, _ = random_chain_instance(rng, (0.0, 1.0))
                sherman_difference_identity(x, y, EXP01, n)
        sherman_difference_identity(x, y, ROOT01, 2)
        for tol in (1e-9, 1e-13):
            for rate in (8.0, 40.0):
                for n in (1, 2, 3):
                    sherman_difference_identity(ENDS_X, ENDS_Y, steep_spec(rate), n, tol)
        # so steep a function that a first error estimate saturates at
        # resasc (~5e41), which dqagse never accepts, even within the budget
        sherman_difference_identity(ENDS_X, ENDS_Y, steep_spec(100.0), 2, 1e60)
        return captured

    def test_pieces_agree_with_quad(self, monkeypatch):
        rejected = saturated = 0
        for integrand, cuts, tol in self.captured_integrals(monkeypatch):
            result, abserr, accepted = fink._first_step(integrand, cuts, tol)
            rejected += int((~accepted).sum())
            # within the budget yet rejected: the estimate equals resasc
            within = abserr <= np.maximum(tol / result.size, tol * np.abs(result))
            saturated += int((within & ~accepted).sum())
            for i, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
                kwargs = dict(args=(i,), epsabs=tol / result.size, epsrel=tol, full_output=1)
                # one subdivision stops quad after its first step
                first = quad(integrand, lo, hi, limit=1, **kwargs)
                assert abs(result[i] - first[0]) <= 1e-14 * abs(first[0])
                # the estimate scales the Kronrod-Gauss difference to the 1.5th
                # power, so a last-bit difference of that cancellation grows by
                # 1.5 resabs / |resk - resg|, about 1e7 on the steepest pieces;
                # a wrong scaling or floor would move it by orders of magnitude
                assert abs(abserr[i] - first[1]) <= 1e-6 * first[1]
                full = quad(integrand, lo, hi, limit=fink.MAX_SUBDIVISIONS, **kwargs)
                assert accepted[i] == (len(full) == 3 and full[2]["neval"] == 21)
        assert rejected > saturated > 0

    def test_smooth_identity_makes_no_quad_call(self, monkeypatch):
        monkeypatch.setattr(fink, "quad", lambda *args, **kwargs: pytest.fail("quad called"))
        rng = np.random.default_rng(52)
        for n in range(1, 6):
            x, y, _ = random_chain_instance(rng, (0.0, 1.0))
            report = sherman_difference_identity(x, y, EXP01, n)
            assert abs(report.residual) <= 1e-9


class TestKernelCondition:
    def test_identical_pair_is_flat_zero(self):
        v = WeightedVector([0.2, 0.7], [1.0, 0.5])
        cond = check_kernel_condition(v, v, 2, interval=(0.0, 1.0))
        assert cond.classification == "nonnegative"
        assert cond.min_value == 0.0 and cond.max_value == 0.0

    def test_verified_pair_even_order(self):
        rng = np.random.default_rng(0)
        x, y, _ = random_chain_instance(rng, (0.0, 1.0))
        cond = check_kernel_condition(x, y, 2, interval=(0.0, 1.0))
        assert cond.classification == "nonnegative"
        assert cond.min_value >= -1e-12

    def test_swapped_pair_flips_sign(self):
        rng = np.random.default_rng(0)
        x, y, _ = random_chain_instance(rng, (0.0, 1.0))
        cond = check_kernel_condition(y, x, 2, interval=(0.0, 1.0))
        assert cond.classification == "nonpositive"

    def test_odd_order_can_be_indefinite(self):
        rng = np.random.default_rng(0)
        x, y, _ = random_chain_instance(rng, (0.0, 1.0))
        cond = check_kernel_condition(x, y, 3, interval=(0.0, 1.0))
        assert cond.classification == "indefinite"
        assert cond.min_value < -1e-12 < 1e-12 < cond.max_value

    def test_default_interval_is_data_hull(self):
        x = WeightedVector([0.3, 0.6], [1.0, 1.0])
        y = WeightedVector([0.45, 0.45], [1.0, 1.0])
        hull = check_kernel_condition(x, y, 2)
        wider = check_kernel_condition(x, y, 2, interval=(0.0, 1.0))
        assert hull.classification == wider.classification == "nonnegative"

    def test_argument_validation(self):
        v = WeightedVector([0.5], [1.0])
        with pytest.raises(ValueError):
            check_kernel_condition(v, v, 0)
        with pytest.raises(ValueError):
            check_kernel_condition(v, v, 2, interval=(1.0, 0.0))

    def test_weight_is_not_a_parameter(self):
        # the identity certifies its own weight; a caller cannot hand one in
        v = WeightedVector([0.2, 0.7], [1.0, 0.5])
        weight = fink._KernelWeight(v, v, 2, 0.0, 1.0)
        with pytest.raises(TypeError):
            check_kernel_condition(v, v, 2, weight=weight)
        assert weight.sign_certificate() == check_kernel_condition(v, v, 2, interval=(0.0, 1.0))

    def test_data_outside_the_interval_is_refused(self):
        # W is built from k(t, x) at points where k is undefined
        x = WeightedVector([0.1, 0.9], [1.0, 1.0])
        y = WeightedVector([0.5, 0.5], [1.0, 1.0])
        with pytest.raises(PointOutOfInterval):
            check_kernel_condition(x, y, 2, interval=(0.4, 0.6))
        with pytest.raises(PointOutOfInterval):
            check_kernel_condition(y, x, 2, interval=(0.4, 0.6))
        # the same relative slack as WeightedVector
        edge = WeightedVector([0.6 + 1e-13, 0.4 - 1e-13], [1.0, 1.0])
        cond = check_kernel_condition(edge, edge, 2, interval=(0.4, 0.6))
        assert cond.classification == "nonnegative"

    @pytest.mark.parametrize("scale, n", [(1e120, 3), (1e150, 4)])
    def test_overflow_is_never_a_sign(self, scale, n):
        # every value is NaN, which passes both min() and a "< -tol" test; at
        # 1e150 the Python-float power half^(n-1) overflowed before numpy ran
        x, y = overflow_pair(scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for u, v in ((x, y), (y, x)):
                cond = check_kernel_condition(u, v, n)
                assert cond.classification == "indefinite"
                assert math.isnan(cond.min_value) and math.isnan(cond.max_value)

    def test_one_point_hull_has_no_pieces(self):
        v = WeightedVector([0.5, 0.5], [1.0, 2.0])
        w = WeightedVector([0.5], [2.0])
        for n in (1, 2, 5):
            assert check_kernel_condition(v, w, n) == fink.KernelCondition(
                "nonnegative", 0.0, 0.0, 0)


class TestPiecewiseKernelWeight:
    """The piecewise-polynomial weight against a point-by-point fsum of W."""

    @staticmethod
    def pairs():
        rng = np.random.default_rng(48)
        for _ in range(12):
            x, y, _ = random_chain_instance(rng, (0.0, 1.0))
            yield x, y, (0.0, 1.0)
        # tied points across the two sides
        yield (
            WeightedVector([0.2, 0.5, 0.5, 0.8], [1.0, 0.5, 0.25, 1.0]),
            WeightedVector([0.35, 0.5, 0.8, 0.65], [0.75, 1.0, 0.5, 0.5]),
            (0.0, 1.0),
        )
        # points exactly at alpha and beta, on a wider non-unit interval
        yield (
            WeightedVector([-1.5, 0.25, 2.25], [0.5, 1.0, 0.75]),
            WeightedVector([-1.5, 0.5, 1.0, 2.25], [0.25, 0.75, 0.5, 0.75]),
            (-1.5, 2.25),
        )
        # unequal masses: at n = 1 the supremum 0.5 is only a right limit
        yield WeightedVector([0.5], [1.0]), WeightedVector([0.5], [2.0]), (0.0, 1.0)
        # the default interval: the hull of the data points
        x = WeightedVector([0.3, 0.6, 0.9], [1.0, 2.0, 0.5])
        y = WeightedVector([0.45, 0.55, 0.7], [1.0, 1.5, 1.0])
        yield x, y, None

    @staticmethod
    def hull(x, y):
        pts = np.concatenate([x.points, y.points])
        return float(pts.min()), float(pts.max())

    def test_values_and_right_limits_match_fsum(self):
        for x, y, interval in self.pairs():
            lo, hi = interval if interval is not None else self.hull(x, y)
            breaks = np.concatenate([x.points, y.points])
            nodes = np.unique(np.concatenate([np.linspace(lo, hi, 101), breaks]))
            mass = math.fsum(np.abs(x.weights)) + math.fsum(np.abs(y.weights))
            for n in range(1, 6):
                tol = 1e-13 * mass * (hi - lo) ** n
                weight = fink._KernelWeight(x, y, n, lo, hi)
                for t, w in zip(nodes.tolist(), weight.values(nodes).tolist()):
                    assert abs(w - fsum_kernel_weight(t, x, y, n, lo, hi)) <= tol
                for t, w in zip(breaks.tolist(), weight.values(breaks, "right").tolist()):
                    assert abs(w - fsum_kernel_weight(t, x, y, n, lo, hi, right_limit=True)) <= tol
                # the identity's per-piece polynomials, at each piece's midpoint
                cuts = np.unique(np.concatenate([[lo, hi], breaks[(breaks > lo) & (breaks < hi)]]))
                suffix, prefix = weight.coefficients(cuts[:-1], "right")
                mids = 0.5 * (cuts[:-1] + cuts[1:])
                for t, w in zip(mids.tolist(), weight.polynomial(mids, suffix, prefix).tolist()):
                    assert abs(w - fsum_kernel_weight(t, x, y, n, lo, hi)) <= tol

    def test_scan_extremes_match_fsum(self):
        for x, y, interval in self.pairs():
            lo, hi = interval if interval is not None else self.hull(x, y)
            breaks = np.concatenate([x.points, y.points])
            pieces = np.unique(np.concatenate([[lo, hi], breaks])).size - 1
            mass = math.fsum(np.abs(x.weights)) + math.fsum(np.abs(y.weights))
            for n in range(1, 6):
                cond, nodes, values = certificate_nodes(x, y, n, interval)
                oracle = oracle_at_nodes(x, y, n, lo, hi, nodes, values)
                tol = 1e-13 * mass * (hi - lo) ** n
                assert max(abs(w - o) for w, o in zip(values, oracle)) <= tol
                assert cond.min_value == min(values) and cond.max_value == max(values)
                assert abs(cond.min_value - min(oracle)) <= tol
                assert abs(cond.max_value - max(oracle)) <= tol
                # n + 1 nodes on every piece examined, halves included
                assert cond.grid_size >= pieces and len(nodes) == cond.grid_size * (n + 1)
                # each interior data point ends one piece (the value there)
                # and starts the next (the right limit)
                for t in breaks.tolist():
                    if lo < t < hi:
                        assert nodes.count(t) >= 2

    def test_identical_sides_are_exactly_zero(self):
        for x, _, interval in self.pairs():
            for n in range(1, 6):
                cond = check_kernel_condition(x, x, n, interval=interval)
                assert cond.min_value == cond.max_value == 0.0
                assert cond.classification == "nonnegative"


def old_grid_scan(x, y, n, lo, hi) -> str:
    """The sign scan the certificate replaced: 1001 even nodes and the data points."""
    oracle = scan_oracle(x, y, n, lo, hi, np.linspace(lo, hi, 1001))
    if min(oracle) >= -fink.KERNEL_SIGN_TOL:
        return "nonnegative"
    if max(oracle) <= fink.KERNEL_SIGN_TOL:
        return "nonpositive"
    return "indefinite"


class TestSignCertificate:
    """The per-piece Bernstein certificate against dense fsum oracles."""

    TOL = fink.KERNEL_SIGN_TOL

    def test_dip_between_old_grid_nodes(self):
        # y's weights match x's moments of order 0 to 2 exactly, so at n = 3
        # W vanishes outside [0.50011, 0.5009], between the grid nodes 0.500
        # and 0.501, and inside it is a C^1 quadratic spline
        x = WeightedVector([0.5009, 0.5007, 0.50018], [2.0, 1.7, 2.0])
        y = WeightedVector([0.50038, 0.50011, 0.50086], [401 / 270, 3776 / 3375, 3.096])
        assert old_grid_scan(x, y, 3, 0.0, 1.0) == "nonnegative"
        dip = min(scan_oracle(x, y, 3, 0.0, 1.0, np.linspace(0.5005, 0.5006, 1001)))
        assert dip < -1e3 * self.TOL
        cond = check_kernel_condition(x, y, 3, interval=(0.0, 1.0))
        assert cond.classification == "indefinite"
        assert cond.min_value < -self.TOL < self.TOL < cond.max_value
        # both moment conditions hold, so only the certificate refuses the bound
        with pytest.raises(KernelConditionIndefinite):
            higher_order_sherman_bound(x, y, EXP01, 3, 0.0)

    def test_bisection_proves_a_sign(self, monkeypatch):
        # a Bernstein coefficient of one piece is below -tol, W is not
        x = WeightedVector([0.89, 0.3], [0.9, 1.4])
        y = WeightedVector([0.26], [1.1])
        cond = check_kernel_condition(x, y, 4, interval=(0.0, 1.0))
        assert cond.classification == "nonnegative" and cond.grid_size > 4
        assert min(scan_oracle(x, y, 4, 0.0, 1.0, np.linspace(0.0, 1.0, 20001))) >= -self.TOL
        # a piece still open at the depth cap never counts as one-signed
        monkeypatch.setattr(fink, "MAX_SIGN_DEPTH", 0)
        capped = check_kernel_condition(x, y, 4, interval=(0.0, 1.0))
        assert capped.classification == "indefinite" and capped.grid_size == 4
        assert capped.min_value >= 0.0

    def test_bisection_finds_a_sign_change(self, monkeypatch):
        x, y = WeightedVector([0.65], [1.1]), WeightedVector([0.55], [1.6])
        cond = check_kernel_condition(x, y, 3, interval=(0.0, 1.0))
        assert cond.classification == "indefinite" and cond.grid_size > 3
        assert cond.min_value < -self.TOL < self.TOL < cond.max_value
        # the first nodes of every piece are all nonnegative
        monkeypatch.setattr(fink, "MAX_SIGN_DEPTH", 0)
        assert check_kernel_condition(x, y, 3, interval=(0.0, 1.0)).min_value >= 0.0

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(1, 6),
        swap=st.booleans(),
        lo=st.sampled_from([-3.0, 0.0, 0.5, 1e3]),
        width=st.sampled_from([1e-3, 0.5, 1.0, 4.0]),
    )
    def test_one_signed_verdicts_are_sound(self, seed, n, swap, lo, width):
        hi = lo + width
        x, y, _ = random_chain_instance(np.random.default_rng(seed), (lo, hi))
        if swap:
            x, y = y, x
        cond, nodes, values = certificate_nodes(x, y, n, (lo, hi))
        mass = math.fsum(np.abs(x.weights)) + math.fsum(np.abs(y.weights))
        rounding = 1e-13 * mass * width**n
        oracle = oracle_at_nodes(x, y, n, lo, hi, nodes, values)
        assert abs(cond.min_value - min(oracle)) <= rounding
        assert abs(cond.max_value - max(oracle)) <= rounding
        if cond.classification == "indefinite":
            return
        dense = scan_oracle(x, y, n, lo, hi, np.linspace(lo, hi, 20001))
        if cond.classification == "nonnegative":
            assert min(dense) >= -(self.TOL + rounding)
        else:
            assert cond.classification == "nonpositive"
            assert max(dense) <= self.TOL + rounding


class TestDifferenceIdentity:
    def test_identical_pair_vanishes(self):
        v = WeightedVector([0.2, 0.7], [1.0, 0.5])
        report = sherman_difference_identity(v, v, EXP01, 3)
        assert report.lhs == 0.0
        assert report.boundary_terms == 0.0
        assert report.integral_term == 0.0
        assert report.residual == 0.0

    def test_order_must_be_positive(self):
        v = WeightedVector([0.2, 0.7], [1.0, 0.5])
        with pytest.raises(ValueError, match="order"):
            sherman_difference_identity(v, v, EXP01, 0)

    def test_low_degree_polynomial_has_no_integral(self):
        # f''' = 0, so the whole difference sits in the boundary terms
        spec = function_from_name("square", (0.0, 1.0))
        rng = np.random.default_rng(40)
        for _ in range(20):
            x, y, _ = random_chain_instance(rng, (0.0, 1.0))
            report = sherman_difference_identity(x, y, spec, 3)
            assert report.integral_term == 0.0
            assert abs(report.residual) <= 1e-10

    def test_exp_third_order_decomposition(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            x, y, _ = random_chain_instance(rng, (0.0, 1.0))
            report = sherman_difference_identity(x, y, EXP01, 3)
            lhs = fsum_dot(x.weights, [math.exp(t) for t in x.points]) - fsum_dot(
                y.weights, [math.exp(t) for t in y.points]
            )
            assert abs(report.lhs - lhs) <= 1e-12
            assert abs(report.residual) <= 1e-9
            assert report.order == 3

    def test_boundary_terms_against_oracle(self):
        rng = np.random.default_rng(42)
        x, y, _ = random_chain_instance(rng, (0.0, 1.0))
        report = sherman_difference_identity(x, y, EXP01, 3)
        # n=3 keeps only w=2: (n-w)/w! [f'(1) S_2(1) - f'(0) S_2(0)] / width
        s2 = lambda z: fsum_dot(x.weights, [(t - z) ** 2 for t in x.points]) - fsum_dot(
            y.weights, [(t - z) ** 2 for t in y.points]
        )
        oracle = 0.5 * (math.exp(1.0) * s2(1.0) - math.exp(0.0) * s2(0.0))
        assert abs(report.boundary_terms - oracle) <= 1e-12

    def test_one_weight_per_identity(self, monkeypatch):
        built = []

        class CountingWeight(fink._KernelWeight):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(fink, "_KernelWeight", CountingWeight)
        x, y, _ = random_chain_instance(np.random.default_rng(53), (0.0, 1.0))
        for n in (2, 3):
            built.clear()
            report = sherman_difference_identity(x, y, EXP01, n)
            assert len(built) == 1
            cond = check_kernel_condition(x, y, n, interval=(0.0, 1.0))
            assert report.kernel_condition == cond.classification

    def test_moment_guards(self):
        x = WeightedVector([0.2, 0.8], [1.0, 1.0])
        heavier = WeightedVector([0.5], [2.5])
        with pytest.raises(MajorizationNotVerified):
            sherman_difference_identity(x, heavier, EXP01, 2)
        shifted = WeightedVector([0.6, 0.6], [1.0, 1.0])
        with pytest.raises(MajorizationNotVerified):
            sherman_difference_identity(x, shifted, EXP01, 2)

    def test_overflow_at_an_end_is_typed(self):
        # math.exp(1000) at beta overflows inside f'(beta); it raised a bare OverflowError
        spec = FunctionSpec("e", math.exp, (math.exp,) * 3, (0.0, 1000.0))
        x, y = WeightedVector([0.0, 600.0], [1.0, 1.0]), WeightedVector([300.0], [2.0])
        with pytest.raises(ValidationError, match="non-finite value"):
            sherman_difference_identity(x, y, spec, 3)

    def test_to_dict_keys(self):
        v = WeightedVector([0.5], [1.0])
        data = sherman_difference_identity(v, v, EXP01, 2).to_dict()
        assert set(data) == {
            "order", "lhs", "boundary_terms", "integral_term",
            "residual", "kernel_condition",
        }


class TestHigherOrderBound:
    def test_pure_power_saturates(self):
        # f = t^n with modulus 1 shifts to zero: both sides vanish
        for name, n, interval in [("square", 2, (0.0, 1.0)), ("pow:4", 4, (0.5, 1.0))]:
            spec = function_from_name(name, interval)
            rng = np.random.default_rng(43)
            x, y, _ = random_chain_instance(rng, interval)
            bound = higher_order_sherman_bound(x, y, spec, n, 1.0)
            assert bound.lhs_with_correction == 0.0
            assert bound.rhs_boundary == 0.0
            assert bound.holds

    def test_second_order_matches_quadratic_correction(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            x, y, witness = random_chain_instance(rng, (0.0, 1.0))
            bound = higher_order_sherman_bound(x, y, EXP01, 2, 0.5)
            classic = full_chain(x, y, witness, EXP01, 0.5)
            gap = classic.strong_bound - classic.lhs
            assert bound.rhs_boundary == 0.0
            assert abs(bound.lhs_with_correction - gap) <= 1e-10
            assert bound.holds
            assert bound.kernel_condition == "nonnegative"

    def test_fourth_order_sextic(self):
        spec = function_from_name("pow:6", (0.5, 1.0))
        rng = np.random.default_rng(45)
        for _ in range(10):
            x, y, _ = random_chain_instance(rng, (0.5, 1.0))
            bound = higher_order_sherman_bound(x, y, spec, 4, 3.75)
            assert bound.holds
            assert bound.kernel_condition == "nonnegative"
            # endpoint sum of the shifted function, transcribed directly
            g = lambda k: (
                lambda t: math.prod(6.0 - i for i in range(k)) * t ** (6 - k)
                - 3.75 * math.factorial(4) / math.factorial(4 - k) * t ** (4 - k)
            )
            s = lambda z, w: fsum_dot(x.weights, [(t - z) ** w for t in x.points]) - fsum_dot(
                y.weights, [(t - z) ** w for t in y.points]
            )
            oracle = math.fsum(
                (4 - w) / math.factorial(w) * (g(w - 1)(1.0) * s(1.0, w) - g(w - 1)(0.5) * s(0.5, w)) / 0.5
                for w in range(2, 4)
            )
            assert abs(bound.rhs_boundary - oracle) <= 1e-10

    def test_indefinite_kernel_is_refused(self):
        rng = np.random.default_rng(0)
        x, y, _ = random_chain_instance(rng, (0.0, 1.0))
        with pytest.raises(KernelConditionIndefinite):
            higher_order_sherman_bound(x, y, EXP01, 3, 0.0)

    def test_modulus_is_resolved_before_the_kernel_sign(self):
        # the kernel weight of this pair is indefinite at n = 3
        x, y, _ = random_chain_instance(np.random.default_rng(0), (0.0, 1.0))
        with pytest.raises(ValueError, match="modulus must be finite"):
            higher_order_sherman_bound(x, y, EXP01, 3, math.nan)
        with pytest.raises(ModulusNotCertified, match="exceeds certified"):
            higher_order_sherman_bound(x, y, EXP01, 3, 1.0)
        two = FunctionSpec("f", math.exp, (math.exp, math.exp), (0.0, 1.0))
        with pytest.raises(MissingDerivative):
            higher_order_sherman_bound(x, y, two, 3, 0.0)

    def test_certificate_refuses_inflated_modulus(self):
        # exp on [0, 1] has the certified order-2 modulus 1/2 < 2
        rng = np.random.default_rng(46)
        x, y, _ = random_chain_instance(rng, (0.0, 1.0))
        with pytest.raises(ModulusNotCertified, match="modulus 2.0 exceeds certified 0.5"):
            higher_order_sherman_bound(x, y, EXP01, 2, 2.0)

    def test_certificate_refuses_plain_convexity_at_zero_modulus(self):
        # c = 0 claims plain n-convexity; log is concave
        rng = np.random.default_rng(46)
        x, y, _ = random_chain_instance(rng, (0.5, 2.0))
        derivs = (lambda t: 1.0 / t, lambda t: -1.0 / (t * t))
        concave = FunctionSpec("log", np.log, derivs, (0.5, 2.0))
        with pytest.raises(ModulusNotCertified, match="certification for log returned 'failed'"):
            higher_order_sherman_bound(x, y, concave, 2, 0.0)

    def test_certificate_refuses_moduli_the_interior_sample_missed(self):
        # the true moduli of exp on [0, 1] sit at t = 0: e^0/2! and e^0/4!;
        # interior node tuples see divided differences up to about 0.75 at n=2
        rng = np.random.default_rng(55)
        x, y, _ = random_chain_instance(rng, (0.0, 1.0))
        for n, c in ((2, 0.6), (4, 1.03 / 24.0)):
            with pytest.raises(ModulusNotCertified, match="exceeds certified"):
                higher_order_sherman_bound(x, y, EXP01, n, c)

    def test_accepts_exactly_the_moduli_the_chain_accepts(self):
        rng = np.random.default_rng(56)
        x, y, witness = random_chain_instance(rng, (0.0, 1.0))
        moduli = np.concatenate([np.linspace(0.0, 0.75, 61), 0.5 + np.array([5e-13, 2e-12])])
        for c in moduli.tolist():
            verdicts = []
            for bound in (
                lambda: full_chain(x, y, witness, EXP01, c),
                lambda: higher_order_sherman_bound(x, y, EXP01, 2, c),
            ):
                try:
                    bound()
                    verdicts.append(True)
                except ModulusNotCertified:
                    verdicts.append(False)
            assert verdicts[0] == verdicts[1], c
            assert verdicts[0] == (c <= 0.5 + 1e-12), c

    def test_bound_makes_no_quad_call_and_one_scan(self, monkeypatch):
        counts = {"quad": 0, "scan": 0, "sampled": 0}
        epsabs = []
        real_quad, real_scan = fink.quad, fink._KernelWeight.sign_certificate

        def counting_quad(*args, **kwargs):
            counts["quad"] += 1
            epsabs.append(kwargs["epsabs"])
            return real_quad(*args, **kwargs)

        def counting_scan(weight):
            counts["scan"] += 1
            return real_scan(weight)

        def counting_sampled(real):
            def wrapper(*args, **kwargs):
                counts["sampled"] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(fink, "quad", counting_quad)
        # every sign certificate, through check_kernel_condition or not
        monkeypatch.setattr(fink._KernelWeight, "sign_certificate", counting_scan)
        # every package module that holds a sampling check, wherever it came from
        modules = (sherman_bounds.convexity, sherman_bounds.bounds, sherman_bounds.divergence, fink)
        for module in modules:
            for name in ("is_n_convex", "is_n_strongly_convex"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting_sampled(getattr(module, name)))
        rng = np.random.default_rng(49)
        x, y, _ = random_chain_instance(rng, (0.0, 1.0))
        for n, c in ((2, 0.5), (4, 1.0 / 24.0)):
            counts.update(quad=0, scan=0, sampled=0)
            assert higher_order_sherman_bound(x, y, EXP01, n, c).holds
            assert counts == {"quad": 0, "scan": 1, "sampled": 0}
        # the wrappers are live: the identity hands quad the pieces that the
        # first Gauss-Kronrod step rejects, here where f'' has a sqrt corner
        counts.update(quad=0, scan=0)
        report = sherman_difference_identity(x, y, ROOT01, 2)
        pieces = np.unique(np.concatenate([[0.0, 1.0], x.points, y.points])).size - 1
        assert 0 < counts["quad"] < pieces and counts["scan"] == 1
        assert sherman_bounds.convexity.is_n_strongly_convex(EXP01, 2, 0.4).passed
        assert counts["sampled"] == 1
        assert epsabs == [1e-9 / pieces] * counts["quad"]
        assert abs(report.residual) <= 1e-9

    def test_bound_keeps_the_identity_guards(self):
        # the moment-mismatch pairs of test_moment_guards; their order-4
        # kernel is one-signed, so the guard is what refuses them
        x = WeightedVector([0.2, 0.8], [1.0, 1.0])
        for other in (WeightedVector([0.5], [2.5]), WeightedVector([0.6, 0.6], [1.0, 1.0])):
            cond = check_kernel_condition(x, other, 4, interval=(0.0, 1.0))
            assert cond.classification == "nonnegative"
            with pytest.raises(MajorizationNotVerified):
                higher_order_sherman_bound(x, other, EXP01, 4, 0.0)
        only_one = FunctionSpec("f", math.exp, (math.exp,), (0.0, 1.0))
        rng = np.random.default_rng(50)
        x, y, _ = random_chain_instance(rng, (0.0, 1.0))
        with pytest.raises(MissingDerivative):
            higher_order_sherman_bound(x, y, only_one, 2, 0.0)

    def test_negative_modulus_rejected(self):
        v = WeightedVector([0.5], [1.0])
        with pytest.raises(ValueError):
            higher_order_sherman_bound(v, v, EXP01, 2, -1.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_non_finite_modulus_rejected(self, c):
        # NaN passes a plain ``c < 0`` test and would give NaN sides
        x, y, _ = random_chain_instance(np.random.default_rng(54), (0.0, 1.0))
        with pytest.raises(ValueError):
            higher_order_sherman_bound(x, y, EXP01, 2, c)

    def test_overflowing_sides_are_typed(self):
        # both gave a NaN bound with holds=False: f(1e100) = 1e400, and a
        # kernel weight of order 1e400 that the certificate called one-signed
        x, y = overflow_pair(1e100)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match="non-finite value"):
                higher_order_sherman_bound(
                    x, y, function_from_name("pow:4", (-1e100, 1e100)), 2, 0.0)
            x, y = overflow_pair(1e200)
            with pytest.raises(KernelConditionIndefinite):
                higher_order_sherman_bound(
                    x, y, function_from_name("pow:2", (-1e200, 1e200)), 2, 0.5)

    @pytest.mark.parametrize("name, interval", [
        ("square", (-1.0, 2.0)), ("exp", (0.0, 1.0)), ("xlogx", (0.1, 3.0)),
        ("neg_log", (0.5, 4.0)), ("pow:3", (0.0, 2.0)),
    ])
    def test_order_two_is_the_chains_strong_margin(self, name, interval):
        # both read the one strong link: its strong side minus S_b f(y), bit for bit
        spec = function_from_name(name, interval)
        certified = estimate_strong_modulus(spec, 2).modulus
        rng = np.random.default_rng(59)
        for _ in range(20):
            x, y, witness = random_chain_instance(rng, interval)
            for c in (certified, 0.0):
                chain = full_chain(x, y, witness, spec, c)
                bound = higher_order_sherman_bound(x, y, spec, 2, c)
                assert bound.lhs_with_correction == chain.strong_bound - chain.lhs
                assert bound.rhs_boundary == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("name, interval", SHIFT_SPECS)
    def test_zero_modulus_is_the_identity(self, name, interval, n):
        # c = 0 subtracts nothing, so both sides are the identity's own terms
        spec = function_from_name(name, interval)
        rng = np.random.default_rng(57)
        checked = 0
        for _ in range(10):
            x, y, _ = random_chain_instance(rng, interval)
            try:
                bound = higher_order_sherman_bound(x, y, spec, n, 0.0)
            except (KernelConditionIndefinite, ModulusNotCertified):
                continue  # odd orders are often indefinite; xlogx is not 3-convex
            report = sherman_difference_identity(x, y, spec, n)
            assert bound.lhs_with_correction.hex() == report.lhs.hex()
            assert bound.rhs_boundary.hex() == report.boundary_terms.hex()
            checked += 1
        assert checked > 0 or (name, n) == ("xlogx", 3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("name, interval", SHIFT_SPECS)
    def test_shift_matches_a_shifted_spec(self, name, interval, n):
        # the shift inside the terms against the identity of g = f - c t^n
        # written out as its own spec; the coefficient c n!/(n-k)! may round
        # differently, so the sides agree to a relative 1e-12
        spec = function_from_name(name, interval)
        cert = estimate_strong_modulus(spec, n)
        c = cert.modulus if cert.verdict == "certified" else 0.1
        g = shifted_spec(spec, n, c)
        rng = np.random.default_rng(58)
        bounds = 0
        for _ in range(10):
            x, y, _ = random_chain_instance(rng, interval)
            oracle = sherman_difference_identity(x, y, g, n)
            sides = fink._difference_terms(x, y, spec, n, c)
            assert sides == pytest.approx((oracle.lhs, oracle.boundary_terms), rel=1e-12, abs=1e-300)
            try:
                bound = higher_order_sherman_bound(x, y, spec, n, c)
            except (KernelConditionIndefinite, ModulusNotCertified):
                continue
            assert (bound.lhs_with_correction, bound.rhs_boundary) == sides
            bounds += 1
        assert bounds > 0 or (name, n) == ("xlogx", 3)

    def test_nonpositive_kernel_flips_the_inequality(self):
        rng = np.random.default_rng(47)
        x, y, _ = random_chain_instance(rng, (0.0, 1.0))
        forward = higher_order_sherman_bound(x, y, EXP01, 2, 0.0)
        backward = higher_order_sherman_bound(y, x, EXP01, 2, 0.0)
        assert forward.kernel_condition == "nonnegative" and forward.holds
        assert backward.kernel_condition == "nonpositive" and backward.holds
        assert abs(forward.lhs_with_correction + backward.lhs_with_correction) <= 1e-12


@st.composite
def memo_pairs(draw):
    """A majorized pair on [0, 1] with at most 40 points in all.

    Points are often 0, 1 or shared between the sides (a row of the witness
    that copies one point of ``x``), some weights are zero, the weights
    carry a scale 10^k, and some pairs sit on one point.
    """
    rows, cols = draw(st.integers(1, 15)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(0.0, 1.0, cols)
    shared = rng.random(cols) < 0.5
    x[shared] = rng.choice([0.0, 1.0, 0.25, 0.5], int(shared.sum()))
    witness = rng.dirichlet(np.ones(cols), rows)
    copies = rng.random(rows) < 0.4
    witness[copies] = np.eye(cols)[rng.integers(cols, size=int(copies.sum()))]
    b = rng.uniform(0.1, 2.0, rows) * 10.0 ** float(rng.integers(-3, 4))
    b[rng.random(rows) < 0.2] = 0.0
    a, y = b @ witness, witness @ x
    if draw(st.booleans()):
        x, a = np.append(x, rng.choice([0.0, 1.0, y[0]])), np.append(a, 0.0)
    if draw(st.integers(0, 5)) == 0:
        x[:], y[:] = x[0], x[0]
    return WeightedVector(x, a), WeightedVector(y, b)


def bits(value):
    """``value`` with every float as its exact bits, and exceptions as type and message."""
    if isinstance(value, BaseException):
        return type(value).__name__, str(value)
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return type(value).__name__, [bits(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return bits([getattr(value, f) for f in value.__dataclass_fields__])
    return value


def outcome(fn, *args, **kwargs):
    try:
        return bits(fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the failure is part of the outcome
        return bits(exc)


def copies(*vectors):
    return [WeightedVector(v.points, v.weights) for v in vectors]


class TestPairMemo:
    """One merged sort per pair and interval, kept on the majorant; moment sums kept per vector."""

    @settings(max_examples=60, deadline=None)
    @given(memo_pairs(), st.integers(1, 6), st.booleans())
    def test_merged_build_matches_two_sort_reference(self, pair, n, on_hull):
        x, y = pair
        pts = np.concatenate([x.points, y.points])
        lo, hi = (float(pts.min()), float(pts.max())) if on_hull else (0.0, 1.0)
        for first, second in ((x, y), (y, x)):
            weight = fink._KernelWeight(first, second, n, lo, hi)
            oracle = two_sort_kernel_weight(first, second, n, lo, hi)
            assert bits(weight.cuts) == bits(oracle.cuts)
            assert bits(weight.pieces) == bits(oracle.pieces)
            t = np.concatenate([np.linspace(lo, hi, 17), pts])
            for side in ("left", "right"):
                assert bits(weight.values(t, side)) == bits(oracle.values(t, side))
                assert bits(weight.coefficients(t, side)) == bits(oracle.coefficients(t, side))

    @settings(max_examples=30, deadline=None)
    @given(memo_pairs(), st.lists(st.integers(1, 6), min_size=1, max_size=8))
    def test_repeated_calls_equal_calls_on_fresh_copies(self, pair, orders):
        x, y = pair
        calls = [
            lambda u, v, n: check_kernel_condition(u, v, n),
            lambda u, v, n: check_kernel_condition(u, v, n, interval=(0.0, 1.0)),
            lambda u, v, n: sherman_difference_identity(u, v, EXP01, n),
            lambda u, v, n: higher_order_sherman_bound(u, v, EXP01, n, 0.0),
        ]
        for n in orders:
            for call in calls:
                assert outcome(call, x, y, n) == outcome(call, *copies(x, y), n)

    def test_memo_does_not_keep_the_partner_alive(self):
        x, y, _ = random_chain_instance(np.random.default_rng(60), (0.0, 1.0))
        check_kernel_condition(x, y, 2, interval=(0.0, 1.0))
        partner = weakref.ref(y)
        del y
        gc.collect()
        assert partner() is None
        assert len(x._memo["kernel_layouts"]) == 0

    def test_filled_memo_survives_pickling(self):
        x, y, _ = random_chain_instance(np.random.default_rng(61), (0.0, 1.0))
        before = [outcome(sherman_difference_identity, x, y, EXP01, n) for n in (2, 3)]
        assert {"weight_sum", "first_moment", "kernel_layouts"} <= set(x._memo)
        x2, y2 = pickle.loads(pickle.dumps((x, y)))
        assert x2._memo == {} and y2._memo == {}
        assert bits(x2.points) == bits(x.points) and bits(x2.weights) == bits(x.weights)
        assert [outcome(sherman_difference_identity, x2, y2, EXP01, n) for n in (2, 3)] == before

    def test_moment_sums_are_computed_once(self):
        x, y, _ = random_chain_instance(np.random.default_rng(62), (0.0, 1.0))
        with mock.patch.object(math, "fsum", wraps=math.fsum) as fsum:
            for n in (2, 3, 4):
                sherman_difference_identity(x, y, EXP01, n)
        assert fsum.call_count == 4  # weight and first moment, each side once
        assert x.weight_sum == math.fsum(x.weights)
        assert x._first_moment == math.fsum((x.weights * x.points).tolist())

    def test_one_sort_for_every_order(self):
        x, y, _ = random_chain_instance(np.random.default_rng(63), (0.0, 1.0))
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            for n in (2, 4):
                higher_order_sherman_bound(x, y, EXP01, n, 0.0)
            sherman_difference_identity(x, y, EXP01, 3)
            assert argsort.call_count == 1
            check_kernel_condition(x, y, 3)  # the hull is another interval
            assert argsort.call_count == 2
