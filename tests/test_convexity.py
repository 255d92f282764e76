"""Divided differences, modulus certification, and the function catalog."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sherman_bounds import (
    DegenerateInterval,
    EmptyPoints,
    FunctionSpec,
    MissingDerivative,
    ModulusCertificate,
    PointOutOfInterval,
    ValidationError,
    catalog,
    check_derivative_consistency,
    divided_difference,
    estimate_strong_modulus,
    function_from_name,
    get_kernel,
    is_n_convex,
    is_n_strongly_convex,
    shift_to_convex,
)
from sherman_bounds.convexity import CATALOG_ORDER, DEFAULT_MODULUS_GRID
from helpers import dd_recursive

EXP03 = function_from_name("exp", (0.0, 3.0))
SQUARE01 = function_from_name("square", (0.0, 1.0))


class TestFunctionSpec:
    def test_rejects_empty_interval(self):
        with pytest.raises(DegenerateInterval):
            FunctionSpec("f", math.exp, (), (1.0, 1.0))
        with pytest.raises(DegenerateInterval):
            FunctionSpec("f", math.exp, (), (2.0, 1.0))
        with pytest.raises(DegenerateInterval):
            FunctionSpec("f", math.exp, (), (0.0, math.inf))

    def test_derivative_orders(self):
        assert EXP03.derivative(0)(1.0) == math.exp(1.0)
        assert EXP03.derivative(3)(0.5) == math.exp(0.5)
        with pytest.raises(MissingDerivative):
            EXP03.derivative(7)
        with pytest.raises(MissingDerivative):
            EXP03.derivative(-1)

    def test_require_inside(self):
        EXP03.require_inside([0.0, 3.0, 1.5])
        with pytest.raises(PointOutOfInterval):
            EXP03.require_inside([3.5])


class TestDividedDifference:
    def test_single_node_is_value(self):
        assert divided_difference([2.0], EXP03) == math.exp(2.0)

    def test_square_slope_and_curvature(self):
        # [0,1; t^2] = 1 and [0,1,2; t^2] = 1 exactly
        sq = function_from_name("square", (0.0, 3.0))
        assert divided_difference([0.0, 1.0], sq) == 1.0
        assert divided_difference([0.0, 1.0, 2.0], sq) == 1.0

    def test_exp_three_nodes_frozen(self):
        v = divided_difference([0.0, 1.0, 2.0], EXP03)
        oracle = ((math.e**2 - math.e) - (math.e - 1.0)) / 2.0
        assert abs(v - oracle) <= 1e-12
        assert abs(v - 1.4762462210062803) <= 1e-12

    def test_matches_recursive_oracle_on_separated_nodes(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            count = int(rng.integers(2, 6))
            while True:
                pts = np.sort(rng.uniform(0.0, 3.0, count))
                if count == 1 or np.diff(pts).min() > 0.2:
                    break
            shuffled = rng.permutation(pts)
            v = divided_difference(shuffled, EXP03)
            oracle = dd_recursive(shuffled, math.exp)
            assert abs(v - oracle) <= 1e-9 * (1.0 + abs(oracle))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        points=st.lists(
            st.floats(0.0, 3.0, allow_nan=False), min_size=2, max_size=6, unique=True
        ),
        data=st.data(),
    )
    def test_permutation_invariance_is_exact(self, points, data):
        shuffled = data.draw(st.permutations(points))
        assert divided_difference(shuffled, EXP03) == divided_difference(points, EXP03)

    def test_all_coincident_uses_derivative(self):
        # j+1 equal nodes resolve to f^(j)(z)/j!
        assert divided_difference([1.0, 1.0], EXP03) == math.exp(1.0)
        assert divided_difference([1.0, 1.0, 1.0], EXP03) == math.exp(1.0) / 2.0
        cube = function_from_name("pow:3", (0.0, 2.0))
        assert divided_difference([1.0] * 3, cube) == 3.0  # f''(1)/2! = 6/2

    def test_mixed_coincident_matches_confluent_recursion(self):
        z, w = 0.5, 2.0
        v = divided_difference([z, z, w], EXP03)
        oracle = (dd_recursive([z, w], math.exp) - math.exp(z)) / (w - z)
        assert abs(v - oracle) <= 1e-12

    def test_coincident_limit_of_distinct_nodes(self):
        h = 1e-4
        for z in (0.0, 0.15, 0.3, 0.45, 0.6):
            confluent = divided_difference([z, z, z], EXP03)
            nearby = divided_difference([z, z + h, z + 2 * h], EXP03)
            assert abs(nearby - confluent) <= 1e-4

    def test_errors(self):
        with pytest.raises(EmptyPoints):
            divided_difference([], EXP03)
        with pytest.raises(PointOutOfInterval):
            divided_difference([5.0], EXP03)
        bare = FunctionSpec("bare", math.exp, (), (0.0, 1.0))
        with pytest.raises(MissingDerivative):
            divided_difference([0.5, 0.5], bare)


class TestModulusCertification:
    def test_square_is_one(self):
        cert = estimate_strong_modulus(SQUARE01, 2)
        assert cert.verdict == "certified"
        assert cert.modulus == 1.0

    def test_linear_is_zero(self):
        cert = estimate_strong_modulus(function_from_name("linear", (0.0, 1.0)), 2)
        assert cert.verdict == "certified"
        assert cert.modulus == 0.0

    def test_exp_on_unit_interval(self):
        cert = estimate_strong_modulus(function_from_name("exp", (0.0, 1.0)), 2)
        assert abs(cert.modulus - 0.5) <= 1e-12

    def test_quartic_order_two(self):
        # min of 12 t^2 / 2 on [0.5, 1]
        cert = estimate_strong_modulus(function_from_name("pow:4", (0.5, 1.0)), 2)
        assert abs(cert.modulus - 1.5) <= 1e-12

    def test_sextic_order_four(self):
        # min of 360 t^2 / 24 on [0.5, 1]
        cert = estimate_strong_modulus(function_from_name("pow:6", (0.5, 1.0)), 4)
        assert cert.order == 4
        assert abs(cert.modulus - 3.75) <= 1e-12

    def test_xlogx_on_wide_interval(self):
        cert = estimate_strong_modulus(function_from_name("xlogx", (0.1, 3.0)), 2)
        assert abs(cert.modulus - 1.0 / 6.0) <= 1e-12

    def test_concave_fails(self):
        concave = FunctionSpec(
            "neg_square", lambda t: -t * t, (lambda t: -2.0 * t, lambda t: -2.0), (0.0, 1.0)
        )
        cert = estimate_strong_modulus(concave, 2)
        assert cert.verdict == "failed"
        assert cert.modulus == 0.0
        assert cert.grid_min < 0.0

    def test_non_finite_is_indeterminate(self):
        bad = FunctionSpec(
            "bad",
            lambda t: t,
            (lambda t: 1.0, lambda t: float("nan") if t > 0.5 else 0.0),
            (0.0, 1.0),
        )
        cert = estimate_strong_modulus(bad, 2)
        assert cert.verdict == "indeterminate"
        assert cert.modulus == 0.0

    def test_overflow_is_indeterminate_without_a_warning(self):
        # f'' = 400 * 399 * t**398 overflows at t = 10; the filter turns a warning into an error
        cert = estimate_strong_modulus(function_from_name("pow:400", (0.1, 10.0)), 2)
        assert cert.verdict == "indeterminate"
        assert cert.modulus == 0.0
        # math.exp raises OverflowError past t = 709.78, where numpy returns inf
        spec = FunctionSpec("e", math.exp, (math.exp, math.exp), (0.0, 1000.0))
        cert = estimate_strong_modulus(spec, 2)
        assert cert.verdict == "indeterminate"
        assert cert.modulus == 0.0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            estimate_strong_modulus(SQUARE01, 0)

    @pytest.mark.parametrize("interval", [(-1.0, 0.3), (-0.7, 2.0)])
    def test_quartic_with_zero_between_grid_nodes(self, interval):
        # f'' = 12 t^2 vanishes at 0, which no node of a 10,001-node grid hits
        cert = estimate_strong_modulus(function_from_name("pow:4", interval), 2)
        assert cert.verdict == "certified"
        assert cert.modulus == 0.0

    def test_user_callable_minimum_between_grid_nodes_is_only_sampled(self):
        # f'' = (t - t0)^2 with t0 between two grid nodes: the grid misses its zero
        t0 = 0.5 + 0.3 / (DEFAULT_MODULUS_GRID - 1)
        spec = FunctionSpec("f", lambda t: (t - t0) ** 4 / 12.0,
                            (lambda t: (t - t0) ** 3 / 3.0, lambda t: (t - t0) ** 2), (0.0, 1.0))
        cert = estimate_strong_modulus(spec, 2)
        assert cert.verdict == "sampled"
        assert cert.modulus > 0.0  # above the true modulus 0, so never "certified"
        assert cert.grid_size == DEFAULT_MODULUS_GRID


def load_oracles():
    path = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLES = load_oracles()

SIGNED_INTERVALS = [(-1.0, 0.3), (-0.7, 2.0), (-3.0, -0.5), (0.0, 1.0)]
POSITIVE_INTERVALS = [(0.1, 10.0), (0.5, 2.0), (1e-3, 1.0), (3.0, 3.5)]
SIGNED_FUNCTIONS = ["square", "linear", "exp", "pow:0", "pow:2", "pow:3", "pow:4", "pow:5"]
POSITIVE_FUNCTIONS = ["xlogx", "neg_log", "pow:0.5", "pow:2.5", "pow:-1", "pow:-2"]
KERNEL_NAMES = ["kl", "hellinger", "harmonic", "bhattacharya", "triangular", "chi_square",
                "renyi:2", "renyi:1.5", "renyi:3"]


def node_cases():
    for interval in SIGNED_INTERVALS + POSITIVE_INTERVALS:
        for name in SIGNED_FUNCTIONS:
            yield name, interval, function_from_name(name, interval)
    for interval in POSITIVE_INTERVALS:
        for name in POSITIVE_FUNCTIONS:
            yield name, interval, function_from_name(name, interval)
        for name in KERNEL_NAMES:
            yield name, interval, get_kernel(name, interval).generator


class TestCatalogNodes:
    """Every catalog modulus is certified at the nodes where its derivative is smallest."""

    @pytest.mark.parametrize("name, interval, spec", [
        pytest.param(*case, id=f"{case[0]}-{case[1][0]}-{case[1][1]}") for case in node_cases()
    ])
    def test_no_dense_value_lies_below_the_node_minimum(self, name, interval, spec):
        dense = np.linspace(*interval, 100001)
        for n in range(1, CATALOG_ORDER + 1):
            cert = estimate_strong_modulus(spec, n)
            assert cert.verdict in ("certified", "failed"), (n, cert)
            assert cert.grid_size <= 3
            values = spec.evaluate(dense, n) / math.factorial(n)
            assert values.min() >= cert.grid_min - 4 * np.spacing(abs(cert.grid_min)), n
            if n == 2 and name in ORACLES.FUNCTIONS and interval[0] > 0.0:
                assert ORACLES.check_modulus(name, cert.modulus, *interval) == []


class CountingSecond:
    """``f'' = 2``, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return 0.0 * t + 2.0


class UnhashableSecond(CountingSecond):
    def __eq__(self, other):  # without __hash__, instances cannot be hashed
        return self is other


class TestCertificateMemo:
    @staticmethod
    def spec(second, interval=(0.0, 1.0)):
        return FunctionSpec("sq", lambda t: t * t, (lambda t: 2.0 * t, second), interval)

    def test_unhashable_callable_is_certified_without_the_memo(self):
        second = UnhashableSecond()
        spec = self.spec(second)
        with pytest.raises(TypeError):
            hash(spec)
        first, again = estimate_strong_modulus(spec, 2), estimate_strong_modulus(spec, 2)
        assert first == again == ModulusCertificate(2, 1.0, DEFAULT_MODULUS_GRID, "sampled", 1.0)
        assert second.calls == 2

    def test_errors_are_not_memoized(self):
        spec = FunctionSpec("f", math.exp, (), (0.0, 1.0))
        for _ in range(2):
            with pytest.raises(MissingDerivative):
                estimate_strong_modulus(spec, 2)


class TestSampledConvexity:
    def test_square_passes_at_its_modulus(self):
        assert is_n_strongly_convex(SQUARE01, 2, 1.0).passed

    def test_square_fails_above_its_modulus(self):
        verdict = is_n_strongly_convex(SQUARE01, 2, 1.5)
        assert not verdict.passed
        assert verdict.witness is not None
        assert verdict.worst_value < verdict.threshold
        # witness is a genuine counterexample per the recursive oracle
        oracle = dd_recursive(sorted(verdict.witness), lambda t: t * t)
        assert oracle < 1.5 - 1e-10

    def test_cube_not_convex_on_symmetric_interval(self):
        cube = function_from_name("pow:3", (-1.0, 1.0))
        verdict = is_n_convex(cube, 2)
        assert not verdict.passed
        assert dd_recursive(sorted(verdict.witness), lambda t: t**3) < -1e-10

    def test_cube_is_3_strongly_convex(self):
        # [z0..z3; t^3] = 1 for any nodes
        cube = function_from_name("pow:3", (-1.0, 1.0))
        assert is_n_convex(cube, 3).passed
        assert is_n_strongly_convex(cube, 3, 1.0).passed
        assert not is_n_strongly_convex(cube, 3, 1.1).passed

    def test_exp_below_certified_modulus(self):
        ex = function_from_name("exp", (0.0, 1.0))
        assert is_n_strongly_convex(ex, 2, 0.4).passed

    def test_certified_modulus_survives_sampling(self):
        for name, interval in [
            ("exp", (0.0, 1.0)),
            ("square", (0.0, 1.0)),
            ("xlogx", (0.1, 3.0)),
        ]:
            spec = function_from_name(name, interval)
            cert = estimate_strong_modulus(spec, 2)
            assert is_n_strongly_convex(spec, 2, cert.modulus).passed, name

    def test_rejects_bad_arguments(self):
        # a NaN threshold would fail every sample and report a fake witness
        for c in (-0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="modulus must be finite and nonnegative"):
                is_n_strongly_convex(SQUARE01, 2, c)
        with pytest.raises(ValueError):
            is_n_convex(SQUARE01, 0)
        with pytest.raises(ValueError, match="sample_count"):
            is_n_strongly_convex(SQUARE01, 2, 1.0, sample_count=0)


class TestShiftToConvex:
    def test_values_shift(self):
        ex = function_from_name("exp", (0.0, 1.0))
        g = shift_to_convex(ex, 2, 0.5)
        assert abs(g.evaluator(1.0) - (math.e - 0.5)) <= 1e-15
        assert g.interval == ex.interval

    def test_zero_modulus_is_identity(self):
        g = shift_to_convex(EXP03, 2, 0.0)
        for t in (0.0, 1.3, 2.9):
            assert g.evaluator(t) == EXP03.evaluator(t)
            assert g.derivative(2)(t) == EXP03.derivative(2)(t)

    def test_square_shift_at_modulus_vanishes(self):
        g = shift_to_convex(SQUARE01, 2, 1.0)
        for t in np.linspace(0.0, 1.0, 7):
            assert abs(g.evaluator(float(t))) <= 1e-15
            assert abs(g.derivative(1)(float(t))) <= 1e-15
            assert abs(g.derivative(2)(float(t))) <= 1e-15

    def test_orders_above_n_unchanged(self):
        ex = function_from_name("exp", (0.0, 1.0))
        g = shift_to_convex(ex, 2, 0.5)
        assert g.derivative(3)(0.7) == math.exp(0.7)

    def test_shifted_derivatives_consistent(self):
        g = shift_to_convex(function_from_name("xlogx", (0.1, 3.0)), 2, 1.0 / 6.0)
        assert check_derivative_consistency(g)

    def test_shift_at_certified_modulus_is_convex(self):
        for name, interval in [("exp", (0.0, 1.0)), ("xlogx", (0.1, 3.0))]:
            spec = function_from_name(name, interval)
            cert = estimate_strong_modulus(spec, 2)
            g = shift_to_convex(spec, 2, cert.modulus)
            assert is_n_convex(g, 2).passed, name

    def test_rejects_negative_modulus(self):
        with pytest.raises(ValueError):
            shift_to_convex(SQUARE01, 2, -1.0)
        # NaN gave a spec of NaN values named exp-nan*t^2, and inf one that evaluates to -inf
        for c in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                shift_to_convex(function_from_name("exp", (0.0, 1.0)), 2, c)

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError, match="order"):
            shift_to_convex(SQUARE01, 0, 1.0)


class TestCatalog:
    def test_known_names(self):
        for name in ("square", "exp", "xlogx", "neg_log", "linear", "pow:2.5"):
            spec = function_from_name(name, (0.5, 2.0))
            assert spec.max_order >= 6
            assert check_derivative_consistency(spec), name
        # divergence generators share the catalog's power rule
        for interval in ((0.1, 10.0), (0.5, 2.0)):
            for kernel in catalog(interval):
                assert check_derivative_consistency(kernel.generator), (kernel.name, interval)

    def test_consistency_check_catches_wrong_derivative(self):
        wrong = FunctionSpec("wrong", math.exp, (lambda t: 2.0 * math.exp(t),), (0.0, 1.0))
        assert not check_derivative_consistency(wrong)

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": math.nan}, {"rel_tol": math.inf}, {"rel_tol": 0.0}, {"grid_size": 0},
    ], ids=["nan_tol", "inf_tol", "zero_tol", "empty_grid"])
    def test_consistency_check_rejects_bad_settings(self, kwargs):
        # NaN and inf tolerances and an empty grid would each let the wrong f'
        # pass, and a zero tolerance fail every spec on rounding alone; the
        # grid and the tolerance are constants, so no call can set them
        wrong = FunctionSpec("wrong", math.exp, (lambda t: 2.0 * math.exp(t),), (0.0, 1.0))
        with pytest.raises(TypeError):
            check_derivative_consistency(wrong, **kwargs)

    def test_square_evaluates_as_plain_product(self):
        assert SQUARE01.evaluator(0.3) == 0.3 * 0.3

    def test_pow_values(self):
        p = function_from_name("pow:2.5", (0.5, 2.0))
        assert abs(p.evaluator(2.0) - 2.0**2.5) <= 1e-15
        assert abs(p.derivative(1)(2.0) - 2.5 * 2.0**1.5) <= 1e-12

    def test_neg_log_derivatives(self):
        spec = function_from_name("neg_log", (0.5, 2.0))
        assert abs(spec.derivative(1)(2.0) + 0.5) <= 1e-15
        assert abs(spec.derivative(2)(2.0) - 0.25) <= 1e-15

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            function_from_name("nosuch", (0.0, 1.0))
        with pytest.raises(ValidationError):
            function_from_name("pow:abc", (0.0, 1.0))

    def test_positive_interval_required(self):
        with pytest.raises(ValidationError):
            function_from_name("xlogx", (-1.0, 1.0))
        with pytest.raises(ValidationError):
            function_from_name("neg_log", (0.0, 1.0))
        with pytest.raises(ValidationError):
            function_from_name("pow:0.5", (-1.0, 1.0))

    @pytest.mark.parametrize("name", ["pow:nan", "pow:inf", "pow:-inf", "pow:1e400"])
    def test_non_finite_exponent_is_rejected(self, name):
        # a nan or inf exponent would build a spec that no certificate accepts
        with pytest.raises(ValidationError, match=r"exponent (nan|-?inf) .* is not finite"):
            function_from_name(name, (0.5, 2.0))

    @pytest.mark.parametrize("name", ["square", "linear", "exp", "xlogx", "neg_log", "pow:2.5"])
    def test_negative_order_is_rejected(self, name):
        # the catalog takes no order at all: every spec carries CATALOG_ORDER derivatives
        for order in (-1, CATALOG_ORDER):
            with pytest.raises(TypeError):
                function_from_name(name, (0.5, 2.0), order)

    @pytest.mark.parametrize(
        "name", ["square", "linear", "exp", "xlogx", "neg_log", "pow:0", "pow:2", "pow:2.5", "pow:-1"]
    )
    def test_derivative_count_equals_order(self, name):
        assert function_from_name(name, (0.5, 2.0)).max_order == CATALOG_ORDER


def assert_within_ulps(actual, expected, ulps=4):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    spacing = np.spacing(np.maximum(np.abs(actual), np.abs(expected)))
    assert np.all(np.abs(actual - expected) <= ulps * spacing)


def catalog_specs():
    specs = [
        function_from_name(name, (0.5, 2.0))
        for name in ("square", "exp", "xlogx", "neg_log", "linear", "pow:2.5", "pow:3")
    ]
    specs += [kernel.generator for kernel in catalog((0.1, 10.0))]
    specs.append(shift_to_convex(function_from_name("exp", (0.5, 2.0)), 4, 0.02))
    return specs


class TestArrayEvaluation:
    POINTS = np.random.default_rng(11).uniform(0.5, 2.0, 257)

    def test_array_results_match_point_results(self):
        for spec in catalog_specs():
            for order in range(spec.max_order + 1):
                fn = spec.derivative(order)
                # Every catalog callable takes the array path, not the fallback.
                assert np.shape(fn(self.POINTS)) == self.POINTS.shape, (spec.name, order)
                point_values = [fn(float(t)) for t in self.POINTS]
                assert_within_ulps(spec.evaluate(self.POINTS, order), point_values)

    def test_scalar_only_callables_fall_back(self):
        spec = FunctionSpec("f", math.exp, (math.exp, lambda t: 2.0), (0.0, 1.0))
        pts = np.linspace(0.0, 1.0, 9)
        assert np.array_equal(spec.evaluate(pts), [math.exp(t) for t in pts.tolist()])
        assert np.array_equal(spec.evaluate(pts.reshape(3, 3), 2), np.full((3, 3), 2.0))
        assert is_n_convex(spec, 2).passed
        assert estimate_strong_modulus(spec, 2).modulus == 1.0

    def test_require_inside_rejects_nan_and_names_first_bad_point(self):
        with pytest.raises(PointOutOfInterval, match="nan"):
            EXP03.require_inside(np.array([1.0, math.nan, 2.0]))
        with pytest.raises(PointOutOfInterval, match=r"point \S*5\.5\S* outside") as info:
            EXP03.require_inside([1.0, 5.5, -1.0, 7.0])
        assert "-1.0" not in str(info.value) and "7.0" not in str(info.value)


def scalar_screen(spec, n, count, seed):
    """Per-tuple transcription of the sampled screen: sequential draws, one
    stratum at a time, and the recursive divided difference of each tuple."""
    rng = np.random.default_rng(seed)
    lo, hi = spec.interval
    width = (hi - lo) / (n + 1)
    pad = 0.1 * width
    worst, witness = math.inf, None
    for _ in range(count):
        pts = tuple(
            float(rng.uniform(lo + i * width + pad, lo + (i + 1) * width - pad))
            for i in range(n + 1)
        )
        value = dd_recursive(pts, spec.evaluator)
        if value < worst:
            worst, witness = value, pts
    return worst, witness


class TestVectorisedScreen:
    CASES = [
        ("exp", (0.0, 1.0)),
        ("xlogx", (0.1, 3.0)),
        ("neg_log", (0.5, 2.0)),
    ]

    def test_matches_per_tuple_transcription(self):
        for name, interval in self.CASES:
            spec = function_from_name(name, interval)
            for n in (2, 4, 6):
                worst, witness = scalar_screen(spec, n, 200, seed=n)
                for c in (0.0, 1e3):
                    verdict = is_n_strongly_convex(spec, n, c, seed=n)
                    assert_within_ulps(verdict.worst_value, worst)
                    assert verdict.passed == (worst >= c - 1e-10), (name, n, c)
                    assert verdict.witness == (None if verdict.passed else witness)

    def test_square_witness_matches(self):
        worst, witness = scalar_screen(SQUARE01, 2, 50, seed=3)
        verdict = is_n_strongly_convex(SQUARE01, 2, 1.5, sample_count=50, seed=3)
        assert verdict.witness == witness
        assert_within_ulps(verdict.worst_value, worst)

    def test_ties_keep_the_first_tuple(self):
        # Every second divided difference of a linear function is exactly 0.
        linear = function_from_name("linear", (0.0, 1.0))
        worst, witness = scalar_screen(linear, 2, 20, seed=4)
        verdict = is_n_strongly_convex(linear, 2, 1.0, sample_count=20, seed=4)
        assert worst == verdict.worst_value == 0.0
        assert verdict.witness == witness
