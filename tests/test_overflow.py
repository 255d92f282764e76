"""The overflow contract of every public entry point.

Finite inputs of any magnitude give a typed error (a ``ShermanBoundsError``
or a ``ValueError``) or a result whose floats are all finite.  The only NaN
a result may hold is documented: the extremes of an ``"indefinite"`` kernel
certificate over a non-finite weight, and the minimum of an
``"indeterminate"`` modulus certificate.  No call lets out a bare
``OverflowError`` or a ``RuntimeWarning``.
"""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sherman_bounds import (
    DistributionPair,
    FunctionSpec,
    KernelCondition,
    ModulusCertificate,
    ShermanBoundsError,
    StochasticMatrix,
    ValidationError,
    WeightedVector,
    aggregated_divergence_bounds,
    check_kernel_condition,
    converse_sherman_strong,
    csiszar_divergence,
    divided_difference,
    divergence_bounds,
    estimate_strong_modulus,
    full_chain,
    function_from_name,
    generate_weighted_pair,
    get_kernel,
    higher_order_sherman_bound,
    jensen_strong,
    majorizes,
    sherman_difference_identity,
    verify_weighted_majorization,
)
from sherman_bounds.cli import main
from helpers import overflow_pair

#: Every catalog function (``pow:a`` at five exponents) and every kernel.
FUNCTIONS = ("square", "linear", "exp", "xlogx", "neg_log", "pow:2", "pow:3", "pow:2.5", "pow:-1", "pow:0.5")
POSITIVE = {"xlogx", "neg_log", "pow:2.5", "pow:-1", "pow:0.5"}  # need lo > 0
KERNELS = ("kl", "hellinger", "variational", "harmonic", "bhattacharya", "triangular",
           "chi_square", "renyi:2", "renyi:3.5")

#: Signed zeros, subnormals, the smallest normal and the largest float.
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308)

#: The fsum reproducers: two weights whose total passes the float range.
EXP01 = function_from_name("exp", (0.0, 1.0))
HUGE_WEIGHTS = WeightedVector([0.0, 1.0], [1e308, 1e308])


def no_warning(fn, *args):
    """``fn(*args)`` with every ``RuntimeWarning`` an error, whatever the suite's filters."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return fn(*args)


class TestReproducers:
    """Each case let a warning or a bare ``OverflowError`` out before."""

    def test_identity_refuses_an_overflowing_kernel_weight(self):
        # the integrand overflowed (inf * 0 in W f''), and quad blamed itself
        x, y = overflow_pair(1e200)
        linear = function_from_name("linear", (-1e200, 1e200))
        with pytest.raises(ValidationError, match="non-finite value nan"):
            no_warning(sherman_difference_identity, x, y, linear, 2)

    def test_identity_refuses_a_non_finite_piece_without_quad(self, monkeypatch):
        # math.exp overflows past 709.78, where W = 0: NaN there, not an OverflowError
        monkeypatch.setattr("sherman_bounds.fink.quad", None)
        spec = FunctionSpec("e", math.exp, (math.exp,) * 3, (0.0, 1000.0))
        x, y = WeightedVector([0.0, 600.0], [1.0, 1.0]), WeightedVector([300.0], [2.0])
        with pytest.raises(ValidationError, match="integral over a piece overflows"):
            no_warning(sherman_difference_identity, x, y, spec, 2)

    def test_identity_refuses_a_non_finite_integrand_in_quad(self):
        # the first step of the last piece is finite, but quad's later nodes
        # overflow math.exp to NaN: quad gave up with "roundoff error is detected"
        spec = FunctionSpec("e", math.exp, (math.exp,) * 3, (0.0, 709.9))
        x, y = WeightedVector([0.0, 600.0], [1.0, 1.0]), WeightedVector([300.0], [2.0])
        with pytest.raises(ValidationError, match="integrand is nan"):
            no_warning(sherman_difference_identity, x, y, spec, 2)

    def test_scalar_callable_that_overflows_on_a_zero_d_array_is_nan(self):
        # quad passes one float, which evaluate wraps as a 0-d array math.exp accepts
        spec = FunctionSpec("e", math.exp, (), (0.0, 1000.0))
        assert math.isnan(spec.evaluate(800.0))
        assert np.isnan(spec.evaluate(np.array([1.0, 800.0]))).tolist() == [False, True]

    def test_jensen_rejects_an_overflowing_spread(self):
        # it returned JensenBound(lhs=0.0, rhs=nan, variance_term=inf)
        square = function_from_name("square", (-1e200, 1e200))
        x = WeightedVector([-1e200, 1e200], [0.5, 0.5])
        with pytest.raises(ValidationError, match="non-finite value"):
            no_warning(jensen_strong, x, square)

    @pytest.mark.parametrize("aggregate", [False, True], ids=["total", "aggregated"])
    def test_divergence_rejects_an_overflowing_total(self, aggregate):
        # inf / inf gave NaN ratios, and RatioOutOfDomain "ratios span [nan, nan]"
        pair = DistributionPair([1e308] * 6, [0.9e308] * 6)
        kl = get_kernel("kl", (0.01, 100.0))
        if aggregate:
            call = (aggregated_divergence_bounds, pair, StochasticMatrix(np.full((2, 6), 0.5), "column"), kl)
        else:
            call = (divergence_bounds, pair, kl)
        with pytest.raises(ValidationError, match="a sum overflows"):
            no_warning(*call)

    @pytest.mark.parametrize("call", [
        lambda: converse_sherman_strong(HUGE_WEIGHTS, EXP01),
        lambda: sherman_difference_identity(HUGE_WEIGHTS, HUGE_WEIGHTS, EXP01, 2),
        lambda: higher_order_sherman_bound(HUGE_WEIGHTS, HUGE_WEIGHTS, EXP01, 2, 0.0),
        lambda: aggregated_divergence_bounds(
            DistributionPair([3e307] * 6, [3e307] * 6),
            StochasticMatrix(np.full((2, 6), 0.5), "column"), get_kernel("kl", (0.5, 2.0))),
        lambda: jensen_strong(WeightedVector([0.0, 1.0], [1e308, 1e308]), EXP01),
    ], ids=["converse", "identity", "bound", "aggregated", "jensen_normalization"])
    def test_fsum_overflow_is_a_validation_error(self, call):
        # math.fsum raised "intermediate overflow in fsum"
        with pytest.raises(ValidationError, match="a sum overflows the float range"):
            no_warning(call)

    def test_witness_check_rejects_an_overflowing_product(self):
        # b A overflowed in the matmul
        x = WeightedVector([1.0], [1e308])
        y = WeightedVector([1.0, 1.0], [1.7e308, 1.7e308])
        with pytest.raises(ValidationError, match="a sum overflows the float range"):
            no_warning(verify_weighted_majorization, x, y, StochasticMatrix([[1.0], [1.0]], "row"))

    def test_pair_generation_rejects_an_overflowing_product(self, tmp_path, capsys):
        # b A overflowed in the matmul, and the chain command went on with a = [inf]
        args = ([1.0], [1.7e308, 1.7e308], [[1.0], [1.0]])
        with pytest.raises(ValidationError, match="a sum overflows the float range"):
            no_warning(generate_weighted_pair, *args[:2], StochasticMatrix(args[2], "row"))
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(dict(zip(("x", "b", "A"), args))))
        assert no_warning(main, ["chain", "--input", str(path), "--kernel", "exp"]) == 2
        assert "a sum overflows" in capsys.readouterr().out

    def test_divided_difference_refuses_a_non_finite_value(self):
        # 0 lies within the interval's slack, where t log t is 0 * -inf
        xlogx = function_from_name("xlogx", (1e-300, 1.0))
        with pytest.raises(ValidationError, match="not finite"):
            no_warning(divided_difference, [0.0, 0.5], xlogx)

    def test_witness_construction_rejects_an_overflowing_spread(self):
        # a T-step divided by v[j] - v[k] = inf and then by zero
        with pytest.raises(ValidationError, match="non-finite value inf"):
            no_warning(lambda: majorizes([0.0, -1.7e308, 1.7e308], [0.0, 0.0, 0.0], with_matrix=True))

    def test_cli_exits_two_on_an_overflowing_kernel_weight(self, tmp_path, capsys):
        # it exited 4 with a QuadratureFailure
        path = tmp_path / "pair.json"
        path.write_text('{"x": [-1e200, 1e200], "a": [1, 1], "y": [0], "b": [2]}')
        code = main(["verify-identity", "--input", str(path), "--kernel", "linear", "--order", "2"])
        assert code == 2
        assert "ValidationError" in capsys.readouterr().out


def floats_of(value):
    """Every float a result holds, but the NaN a certificate documents."""
    if isinstance(value, KernelCondition) and value.classification == "indefinite":
        if math.isnan(value.min_value):
            return
    if isinstance(value, ModulusCertificate) and value.verdict == "indeterminate":
        value = dataclasses.replace(value, grid_min=0.0)
    if isinstance(value, (float, np.floating)):
        yield float(value)
    elif isinstance(value, np.ndarray):
        yield from value.ravel().tolist()
    elif isinstance(value, tuple):
        for item in value:
            yield from floats_of(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from floats_of(getattr(value, f.name))


def checked(fn, *args):
    """``fn(*args)``, or None on a typed error; fails on anything else or a non-finite float."""
    try:
        result = no_warning(fn, *args)
    except (ShermanBoundsError, ValueError):
        return None
    bad = [v for v in floats_of(result) if not math.isfinite(v)]
    assert not bad, (getattr(fn, "__name__", fn), args, result)
    return result


def magnitudes(positive=False):
    """``m * 10^k`` for ``k`` in [-300, 300], and the special values."""
    signs = st.just(1.0) if positive else st.sampled_from([1.0, -1.0])
    return st.one_of(
        st.builds(lambda s, m, k: s * m * 10.0**k, signs, st.floats(1.0, 9.0), st.integers(-300, 300)),
        st.sampled_from([v for v in SPECIAL if v > 0.0 or not positive]),
    )


def unit_fractions(size):
    return st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
                    min_size=size, max_size=size)


def stochastic(fractions, rows, cols, axis):
    """Rows (axis 1) or columns (axis 0) of ``fractions`` normalized; uniform where all zero."""
    f = np.array(fractions).reshape(rows, cols)
    f = np.where(f.sum(axis=axis, keepdims=True) == 0.0, 1.0, f)
    return f / f.sum(axis=axis, keepdims=True)


@st.composite
def chain_instances(draw):
    """A catalog function on an interval of any magnitude and a pair majorized through a witness."""
    name = draw(st.sampled_from(FUNCTIONS))
    hi = draw(magnitudes(positive=True))
    lo = draw(st.one_of(st.sampled_from([-hi, 0.0, 5e-324, 0.5 * hi]), magnitudes()))
    if name in POSITIVE:
        lo = abs(lo)
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    with np.errstate(all="ignore"):  # an overflow here is input the package must refuse
        u = np.array(draw(unit_fractions(cols)))
        x = lo * (1.0 - u) + hi * u
        specials = draw(st.lists(st.sampled_from(SPECIAL), max_size=1))
        x[:len(specials)] = specials
        matrix = stochastic(draw(unit_fractions(rows * cols)), rows, cols, 1)
        b = draw(magnitudes(positive=True)) * (0.5 + np.array(draw(unit_fractions(rows))))
        y, a = matrix @ x, b @ matrix
        mean, normalized = np.full(cols, np.sum(x / cols)), a / a.sum()
        loose = b * draw(magnitudes(positive=True))  # weights no witness need match
    extra = (draw(st.integers(1, 4)), draw(st.sampled_from([0.0, 1e-300, 1.0])), mean, normalized, loose)
    return (name, (lo, hi), x, a, y, b, matrix) + extra


@st.composite
def divergence_instances(draw):
    """A catalog kernel on a ratio interval of any magnitude, a pair and an aggregation."""
    name = draw(st.sampled_from(KERNELS))
    lo, hi = 10.0 ** -draw(st.integers(0, 300)), 10.0 ** draw(st.integers(1, 300))
    size, rows = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    with np.errstate(all="ignore"):
        p = draw(magnitudes(positive=True)) * (0.5 + np.array(draw(unit_fractions(size))))
        u = np.array(draw(unit_fractions(size)))
        q = p * (lo * (1.0 - u) + hi * u)
        merge = stochastic(draw(unit_fractions(rows * size)), rows, size, 0)
    return name, (lo, hi), p, q, merge


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chain_instances())
def test_chain_entry_points_keep_the_overflow_contract(instance):
    name, interval, x, a, y, b, matrix, n, c, mean, normalized, loose = instance
    checked(majorizes, x, x[::-1])
    checked(lambda: majorizes(x, mean, with_matrix=True))
    spec = checked(function_from_name, name, interval)
    xv, yv = checked(WeightedVector, x, a), checked(WeightedVector, y, b)
    witness = checked(StochasticMatrix, matrix, "row")
    if witness is not None:
        checked(generate_weighted_pair, x, b, witness)
    if spec is not None:
        checked(divided_difference, x, spec)
        for order in (2, n):
            checked(estimate_strong_modulus, spec, order)
        normalized = checked(WeightedVector, x, normalized)
        if normalized is not None:
            checked(jensen_strong, normalized, spec)
    if xv is None or yv is None:
        return
    checked(check_kernel_condition, xv, yv, n)
    partners = [yv, checked(WeightedVector, y, loose)]
    if witness is not None:
        for partner in filter(None, partners):
            checked(verify_weighted_majorization, xv, partner, witness)
    if spec is not None:
        checked(converse_sherman_strong, xv, spec)
        checked(sherman_difference_identity, xv, yv, spec, n)
        checked(higher_order_sherman_bound, xv, yv, spec, n, c)
        if witness is not None:
            for partner in filter(None, partners):
                checked(full_chain, xv, partner, witness, spec)


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(divergence_instances())
def test_divergence_entry_points_keep_the_overflow_contract(instance):
    name, interval, p, q, merge = instance
    kernel = checked(get_kernel, name, interval)
    pair = checked(DistributionPair, p, q)
    matrix = checked(StochasticMatrix, merge, "column")
    if kernel is None or pair is None:
        return
    checked(csiszar_divergence, pair, kernel)
    checked(divergence_bounds, pair, kernel)
    if matrix is not None:
        checked(aggregated_divergence_bounds, pair, matrix, kernel)
