"""Divergence kernels, entropy and KL through the ``kl`` kernel, and the two-sided sandwich."""

import itertools
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sherman_bounds import (
    CHAIN_SLACK,
    DimensionMismatch,
    DistributionPair,
    DivergenceKernel,
    FunctionSpec,
    MissingDerivative,
    ModulusNotCertified,
    RatioOutOfDomain,
    ShermanBoundsError,
    StochasticMatrix,
    ValidationError,
    WeightedVector,
    ZeroAggregateWeight,
    aggregated_divergence_bounds,
    csiszar_divergence,
    divergence_bounds,
    estimate_strong_modulus,
    full_chain,
    function_from_name,
    get_kernel,
    verify_weighted_majorization,
)
from sherman_bounds.convexity import CATALOG_ORDER
from helpers import (
    catalog, count_certificates, entropy_via_kl, fsum_dot, kl_fsum, random_row_stochastic,
)

CLOSED_FORMS = {
    "kl": lambda p, q: math.fsum(qi * math.log(qi / pi) for pi, qi in zip(p, q)),
    "hellinger": lambda p, q: 0.5
    * math.fsum((math.sqrt(qi) - math.sqrt(pi)) ** 2 for pi, qi in zip(p, q)),
    "variational": lambda p, q: math.fsum(abs(qi - pi) for pi, qi in zip(p, q)),
    "harmonic": lambda p, q: math.fsum(2.0 * pi * qi / (pi + qi) for pi, qi in zip(p, q)),
    "bhattacharya": lambda p, q: -math.fsum(math.sqrt(pi * qi) for pi, qi in zip(p, q)),
    "triangular": lambda p, q: math.fsum((qi - pi) ** 2 / (pi + qi) for pi, qi in zip(p, q)),
    "chi_square": lambda p, q: math.fsum((qi - pi) ** 2 / pi for pi, qi in zip(p, q)),
    "renyi:2": lambda p, q: math.fsum(qi * qi / pi for pi, qi in zip(p, q)),
}


def bounded_pair(rng: np.random.Generator, size: int) -> DistributionPair:
    """Random probability pair with ratios well inside (0.1, 10)."""
    raw = rng.uniform(0.1, 1.0, size)
    p = raw / raw.sum()
    q = p * rng.uniform(0.5, 2.0, size)
    q = q / q.sum()
    return DistributionPair(p, q)


class TestDistributionPair:
    def test_ratios_and_size(self):
        pair = DistributionPair([0.5, 0.5], [0.2, 0.8])
        assert pair.size == 2
        np.testing.assert_allclose(pair.ratios, [0.4, 1.6], rtol=0, atol=1e-15)
        with pytest.raises(ValueError):
            pair.ratios[0] = 2.0  # read-only

    def test_validation(self):
        with pytest.raises(ValidationError):
            DistributionPair([0.5, 0.5], [1.0])
        with pytest.raises(ValidationError):
            DistributionPair([0.5, -0.5], [0.5, 0.5])
        with pytest.raises(ValidationError):
            DistributionPair([0.5, 0.0], [0.5, 0.5])
        with pytest.raises(ValidationError):
            DistributionPair([], [])
        with pytest.raises(ValidationError):
            DistributionPair([0.5, math.inf], [0.5, 0.5])

    def test_overflowing_ratio_is_an_input_error(self):
        # q / p overflows to inf: the message names the ratio, and no RuntimeWarning is raised
        with pytest.raises(ValidationError, match=r"non-finite ratio q/p = inf at index 0"):
            DistributionPair([1e-300, 1.0], [1e300, 1.0])
        assert DistributionPair([1e-300, 1.0], [1e-300, 1.0]).ratios.tolist() == [1.0, 1.0]

    def test_caller_arrays_stay_writable(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.2, 0.8])
        pair = DistributionPair(p, q)
        p[0] = 0.4
        q[0] = 0.3
        assert p.flags.writeable and q.flags.writeable
        assert pair.p.tolist() == [0.5, 0.5] and pair.q.tolist() == [0.2, 0.8]
        assert not pair.p.flags.writeable and not pair.q.flags.writeable

    def test_ratios_are_derived_not_passed(self):
        with pytest.raises(TypeError):
            DistributionPair([0.5, 0.5], [0.2, 0.8], np.array([7.0, 7.0]))


class TestCatalog:
    def test_eight_kernels(self):
        kernels = {k.name: k for k in catalog()}
        assert set(kernels) == set(CLOSED_FORMS)
        strongly = {"kl", "hellinger", "bhattacharya", "triangular", "chi_square", "renyi:2"}
        for name, kernel in kernels.items():
            assert kernel.interval == (0.1, 10.0)
            if name in strongly:
                assert kernel.convexity_class == "strongly_convex"
                assert kernel.modulus_certificate.verdict == "certified"
                assert kernel.modulus_certificate.modulus > 0.0
            else:
                assert kernel.modulus_certificate is None
        assert kernels["variational"].convexity_class == "convex_only"
        assert kernels["harmonic"].convexity_class == "nonconvex"
        normalized = {"kl", "hellinger", "variational", "triangular", "chi_square"}
        for name, kernel in kernels.items():
            assert kernel.normalized == (name in normalized)

    def test_certificate_is_derived_from_the_generator(self):
        kernel = get_kernel("kl")
        assert kernel.modulus_certificate == estimate_strong_modulus(kernel.generator, 2)
        assert get_kernel("variational").modulus_certificate is None
        # a kernel cannot be given another spec's certificate
        square = estimate_strong_modulus(function_from_name("square", (0.1, 3.0)), 2)
        with pytest.raises(TypeError, match="modulus_certificate"):
            replace(get_kernel("kl", (0.1, 3.0)), modulus_certificate=square)

    def test_certificate_is_computed_once_per_kernel(self, monkeypatch):
        calls = count_certificates(monkeypatch)
        kernel = get_kernel("kl")
        assert len(calls) == 1
        assert kernel.modulus_certificate is kernel.modulus_certificate
        assert len(calls) == 1
        # the kept certificate is no field: a copy without it is equal and prints the same
        twin = replace(kernel)
        assert twin == kernel and repr(twin) == repr(kernel)

    def test_generator_spot_values(self):
        expected = {
            "kl": (2.0, 2.0 * math.log(2.0)),
            "hellinger": (4.0, 0.5),
            "variational": (3.0, 2.0),
            "harmonic": (1.0, 1.0),
            "bhattacharya": (4.0, -2.0),
            "triangular": (2.0, 1.0 / 3.0),
            "chi_square": (2.0, 1.0),
            "renyi:2": (3.0, 9.0),
        }
        for kernel in catalog():
            t, value = expected[kernel.name]
            assert abs(kernel.generator.evaluator(t) - value) <= 1e-15

    def test_certified_moduli(self):
        # second-derivative minima over [0.1, 10], divided by two
        assert abs(get_kernel("chi_square").modulus_certificate.modulus - 1.0) <= 1e-15
        assert abs(get_kernel("renyi:2").modulus_certificate.modulus - 1.0) <= 1e-15
        assert abs(get_kernel("kl").modulus_certificate.modulus - 0.05) <= 1e-15
        assert abs(get_kernel("hellinger").modulus_certificate.modulus - 0.125 * 10.0**-1.5) <= 1e-15
        assert abs(get_kernel("bhattacharya").modulus_certificate.modulus - 0.125 * 10.0**-1.5) <= 1e-15
        assert abs(get_kernel("triangular").modulus_certificate.modulus - 4.0 / 11.0**3) <= 1e-15

    def test_name_normalization_and_renyi(self):
        assert get_kernel(" Chi-Square ").name == "chi_square"
        assert get_kernel(" Renyi:2.5 ").name == "renyi:2.5"
        assert get_kernel("renyi:3").generator.evaluator(2.0) == 8.0
        with pytest.raises(ValidationError):
            get_kernel("renyi")
        with pytest.raises(ValidationError):
            get_kernel("renyi:1.0")
        with pytest.raises(ValidationError):
            get_kernel("renyi:abc")
        with pytest.raises(ValidationError):
            get_kernel("jensen_shannon")
        with pytest.raises(ValidationError):
            get_kernel("kl", (0.0, 1.0))
        with pytest.raises(ValidationError):
            get_kernel("kl", (2.0, 1.0))

    def test_alpha_it_would_ignore_is_rejected(self):
        # the Renyi exponent has one spelling, the renyi:a suffix; there is no alpha keyword
        for name in ("renyi:2", "kl"):
            with pytest.raises(TypeError, match="alpha"):
                get_kernel(name, alpha=2.0)

    @pytest.mark.parametrize("name, alpha", [
        ("renyi:inf", None), ("renyi:-inf", None), ("renyi:nan", None), ("renyi:1e400", None),
        ("renyi", math.inf), ("renyi:inf", math.inf),
    ])
    def test_non_finite_renyi_exponent_is_rejected(self, name, alpha):
        # a float exponent held by the caller is spelled into the renyi:a suffix with repr
        if alpha is not None:
            name = f"{name.partition(':')[0]}:{alpha!r}"
        with pytest.raises(ValidationError, match=r"exponent (nan|-?inf) of name .* is not finite"):
            get_kernel(name)

    def test_minus_sign_of_an_exponent_is_kept(self):
        kernel = get_kernel("renyi:15e-1")
        assert kernel.name == "renyi:1.5"
        assert kernel.generator.evaluator(4.0) == 8.0

    @pytest.mark.parametrize("text", ["2.0000001", "1.0000000000000002"])
    def test_name_keeps_every_digit_of_the_exponent(self, text):
        kernel = get_kernel("renyi:" + text)
        assert kernel.name == "renyi:" + text
        assert kernel.generator.evaluator(7.0) == 7.0 ** float(text)

    def test_overflowing_certificate_is_not_certified(self):
        # f'' = 400 * 399 * t**398 overflows at t = 10: no warning, a typed error
        with pytest.raises(ModulusNotCertified, match="indeterminate"):
            get_kernel("renyi:400", (0.1, 10.0))

    @pytest.mark.parametrize("name", [
        *(kernel.name for kernel in catalog()),
        *(f"renyi:{a}" for a in ("1.5", "15e-1", "2", "2.5", "2.0000001", "7")),
    ])
    def test_reported_name_rebuilds_the_kernel(self, name):
        assert_rebuilds(get_kernel(name, (0.5, 7.0)))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(text=st.one_of(
        st.floats(1.0, 20.0, exclude_min=True).map(repr),
        st.integers(1, 6).flatmap(
            lambda k: st.integers(10**k + 1, 20 * 10**k).map(lambda m: f"{m}e-{k}")
        ),
    ))
    def test_any_renyi_name_parses_back_and_rebuilds(self, text):
        kernel = get_kernel("renyi:" + text)
        assert float(kernel.name.partition(":")[2]) == float(text)
        assert_rebuilds(kernel)

    def test_generators_carry_catalog_order_derivatives(self):
        for interval in (None, (0.5, 2.0)):
            for kernel in [*catalog(interval), get_kernel("renyi:2.5", interval)]:
                # |t - 1| has no derivative at 1, so the variational generator carries none
                expected = 0 if kernel.name == "variational" else CATALOG_ORDER
                assert kernel.generator.max_order == expected, kernel.name


def assert_rebuilds(kernel: DivergenceKernel) -> None:
    """``get_kernel(kernel.name, kernel.interval)`` has the kernel's name and, bit for bit, values."""
    again = get_kernel(kernel.name, kernel.interval)
    assert again.name == kernel.name
    for t in (0.5, 2.0, 7.0):
        assert float(again.generator.evaluator(t)).hex() == float(kernel.generator.evaluator(t)).hex()


class TestCsiszarDivergence:
    def test_matches_closed_forms(self):
        rng = np.random.default_rng(50)
        kernels = catalog()
        for _ in range(50):
            pair = bounded_pair(rng, int(rng.integers(2, 9)))
            for kernel in kernels:
                value = csiszar_divergence(pair, kernel)
                oracle = CLOSED_FORMS[kernel.name](pair.p, pair.q)
                assert abs(value - oracle) <= 1e-12 * (1.0 + abs(oracle))

    def test_identical_pair(self):
        p = np.array([0.2, 0.3, 0.5])
        pair = DistributionPair(p, p)
        fixed = {"harmonic": 1.0, "bhattacharya": -1.0, "renyi:2": 1.0}
        for kernel in catalog():
            value = csiszar_divergence(pair, kernel)
            if kernel.normalized:
                assert value == 0.0
            else:
                assert abs(value - fixed[kernel.name]) <= 1e-15

    def test_frozen_chi_square(self):
        pair = DistributionPair([0.5, 0.5], [0.2, 0.8])
        assert abs(csiszar_divergence(pair, get_kernel("chi_square")) - 0.36) <= 1e-15

    def test_ratio_domain_enforced(self):
        pair = DistributionPair([0.5, 0.5], [0.04, 0.96])  # ratio 0.08 < 0.1
        with pytest.raises(RatioOutOfDomain):
            csiszar_divergence(pair, get_kernel("kl"))
        wide = get_kernel("kl", (0.01, 10.0))
        assert csiszar_divergence(pair, wide) > 0.0


class TestEntropyAndKL:
    """Shannon entropy and KL are the ``kl`` kernel's divergences."""

    def test_uniform_entropy(self):
        kernel = get_kernel("kl", (0.5, 2.0))
        for n in (2, 3, 4, 16, 64):
            assert abs(entropy_via_kl(np.full(n, 1.0 / n), kernel) - math.log(n)) <= 1e-12

    def test_point_mass_limit_is_small(self):
        p = np.array([1.0 - 3e-13, 1e-13, 1e-13, 1e-13])
        h = entropy_via_kl(p, get_kernel("kl", (1e-13, 4.0)))
        assert 0.0 <= h <= 1e-10

    def test_entropy_range(self):
        rng = np.random.default_rng(51)
        kernel = get_kernel("kl", (0.05, 20.0))
        for _ in range(100):
            n = int(rng.integers(2, 12))
            raw = rng.uniform(0.05, 1.0, n)
            p = raw / raw.sum()
            h = entropy_via_kl(p, kernel)
            assert 0.0 <= h <= math.log(n) + 1e-12

    def test_kl_matches_kernel_route(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            pair = bounded_pair(rng, 6)
            oracle = kl_fsum(pair.p, pair.q)
            via_kernel = csiszar_divergence(pair, get_kernel("kl"))
            assert abs(oracle - via_kernel) <= 1e-12 * (1.0 + abs(oracle))
            assert via_kernel >= -1e-12

    def test_kl_frozen_value(self):
        kernel = get_kernel("kl")
        pair = DistributionPair([0.5, 0.5], [0.2, 0.8])
        oracle = 0.2 * math.log(0.4) + 0.8 * math.log(1.6)
        assert abs(csiszar_divergence(pair, kernel) - oracle) <= 1e-15
        same = DistributionPair([0.3, 0.7], [0.3, 0.7])
        assert csiszar_divergence(same, kernel) == 0.0


class TestDivergenceBounds:
    def test_chi_square_lower_is_tight(self):
        rng = np.random.default_rng(53)
        kernel = get_kernel("chi_square")
        for _ in range(50):
            pair = bounded_pair(rng, int(rng.integers(2, 9)))
            s = divergence_bounds(pair, kernel)
            assert s.holds
            assert s.modulus == 1.0
            assert abs(s.lower_strong - s.value) <= 1e-12
            # normalized kernel at a ratio within rounding of 1
            assert abs(s.lower_ck) <= 1e-25

    def test_renyi_lower_is_tight(self):
        rng = np.random.default_rng(54)
        kernel = get_kernel("renyi:2")
        for _ in range(50):
            pair = bounded_pair(rng, 5)
            s = divergence_bounds(pair, kernel)
            assert s.holds
            assert abs(s.lower_strong - s.value) <= 1e-12

    def test_kl_sandwich_with_oracles(self):
        rng = np.random.default_rng(55)
        kernel = get_kernel("kl")
        for _ in range(50):
            pair = bounded_pair(rng, int(rng.integers(2, 9)))
            s = divergence_bounds(pair, kernel)
            assert s.holds
            assert s.kernel_name == "kl"
            assert s.lower_ck <= s.lower_strong + CHAIN_SLACK
            assert s.lower_strong <= s.value + CHAIN_SLACK
            assert s.value <= s.upper_converse + CHAIN_SLACK
            assert abs(s.value - kl_fsum(pair.p, pair.q)) <= 1e-12
            # quadratic term: modulus times the chi-square spread
            chi2 = fsum_dot(pair.p, [r * r for r in pair.ratios]) - 1.0
            assert abs(s.lower_strong - kernel.modulus_certificate.modulus * chi2) <= 1e-12

    def test_modulus_override(self):
        pair = DistributionPair([0.5, 0.5], [0.2, 0.8])
        kernel = get_kernel("kl")
        s = divergence_bounds(pair, kernel, 0.01)
        assert s.modulus == 0.01
        with pytest.raises(ModulusNotCertified):
            divergence_bounds(pair, kernel, 0.2)

    @pytest.mark.parametrize("c", [None, 0.01])
    def test_bounds_on_a_built_kernel_evaluate_no_certificate(self, monkeypatch, c):
        kernel = get_kernel("kl")
        pair = bounded_pair(np.random.default_rng(61), 12)
        matrix = StochasticMatrix(np.full((3, 12), 1.0 / 3.0), "column")
        calls = count_certificates(monkeypatch)
        divergence_bounds(pair, kernel, c)
        aggregated_divergence_bounds(pair, matrix, kernel, c)
        assert calls == []

    def test_explicit_modulus_is_checked_before_the_certificate_is_read(self):
        # a hand-built kernel whose generator has no second derivative to certify
        spec = FunctionSpec("square", lambda t: t * t, (), (0.1, 10.0))
        kernel = DivergenceKernel("square", spec, False, "strongly_convex")
        pair = DistributionPair([0.5, 0.5], [0.4, 0.6])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            divergence_bounds(pair, kernel, math.nan)
        with pytest.raises(MissingDerivative):
            divergence_bounds(pair, kernel, 0.5)

    def test_kernels_without_certificates_are_refused(self):
        pair = DistributionPair([0.5, 0.5], [0.2, 0.8])
        for name in ("variational", "harmonic"):
            with pytest.raises(ModulusNotCertified):
                divergence_bounds(pair, get_kernel(name))

    def test_to_dict_keys(self):
        pair = DistributionPair([0.5, 0.5], [0.2, 0.8])
        data = divergence_bounds(pair, get_kernel("kl")).to_dict()
        assert set(data) == {
            "kernel", "lower_ck", "lower_strong", "value",
            "upper_converse", "modulus", "holds", "warnings",
        }

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**20))
    def test_sandwich_order_invariant(self, seed):
        rng = np.random.default_rng(seed)
        pair = bounded_pair(rng, int(rng.integers(2, 9)))
        for name in ("kl", "hellinger", "triangular"):
            s = divergence_bounds(pair, get_kernel(name))
            assert s.holds


class TestAggregatedBounds:
    def test_identity_aggregation_collapses(self):
        rng = np.random.default_rng(56)
        pair = bounded_pair(rng, 5)
        kernel = get_kernel("kl")
        s = aggregated_divergence_bounds(pair, StochasticMatrix(np.eye(5), "column"), kernel)
        assert s.holds
        assert s.lower_ck == s.value
        assert s.lower_strong == s.value  # zero ratio spread, bitwise

    def test_single_row_matches_total_mass_bound(self):
        rng = np.random.default_rng(57)
        pair = bounded_pair(rng, 4)
        kernel = get_kernel("triangular")
        ones = StochasticMatrix(np.ones((1, 4)), "column")
        via_matrix = aggregated_divergence_bounds(pair, ones, kernel)
        direct = divergence_bounds(pair, kernel)
        assert via_matrix == direct

    def test_random_aggregations_hold(self):
        rng = np.random.default_rng(58)
        kernel = get_kernel("kl")
        for _ in range(30):
            size = int(rng.integers(3, 8))
            rows = int(rng.integers(1, size + 1))
            merge = StochasticMatrix(
                random_row_stochastic(rng, size, rows).T, "column"
            )
            pair = bounded_pair(rng, size)
            s = aggregated_divergence_bounds(pair, merge, kernel)
            assert s.holds
            # aggregated divergence, transcribed directly
            b = [fsum_dot(merge.entries[i], pair.p) for i in range(rows)]
            y = [fsum_dot(merge.entries[i], pair.q) / b[i] for i in range(rows)]
            oracle = fsum_dot(b, [kernel.generator.evaluator(t) for t in y])
            assert abs(s.lower_ck - oracle) <= 1e-12 * (1.0 + abs(oracle))
            assert s.lower_ck <= s.value + CHAIN_SLACK

    def test_data_processing_direction(self):
        # merging outcomes can only lose divergence
        rng = np.random.default_rng(59)
        kernel = get_kernel("chi_square")
        pair = bounded_pair(rng, 6)
        halves = np.zeros((3, 6))
        halves[0, :2] = 1.0
        halves[1, 2:4] = 1.0
        halves[2, 4:] = 1.0
        s = aggregated_divergence_bounds(pair, StochasticMatrix(halves, "column"), kernel)
        assert s.holds
        assert s.lower_ck <= s.value + CHAIN_SLACK

    def test_zero_mass_row(self):
        pair = DistributionPair([0.5, 0.5], [0.4, 0.6])
        dead_row = StochasticMatrix([[1.0, 1.0], [0.0, 0.0]], "column")
        with pytest.raises(ZeroAggregateWeight):
            aggregated_divergence_bounds(pair, dead_row, get_kernel("kl"))

    def test_matrix_validation(self):
        pair = DistributionPair([0.5, 0.5], [0.4, 0.6])
        with pytest.raises(ValidationError):
            aggregated_divergence_bounds(
                pair, StochasticMatrix([[0.5, 0.5]], "row"), get_kernel("kl")
            )
        with pytest.raises(DimensionMismatch):
            aggregated_divergence_bounds(
                pair, StochasticMatrix(np.eye(3), "column"), get_kernel("kl")
            )


STRONGLY_CONVEX = ("kl", "hellinger", "bhattacharya", "triangular", "chi_square", "renyi:2")


class TestFactoredWitnessCheck:
    """The aggregation witness ``A = pR/b`` holds by construction, so nothing re-checks it.

    These tests pin the premises the construction rests on (a validated
    column-stochastic ``R``, ratios derived from ``p`` and ``q``) and its
    equivalence with the explicitly verified dense witness.
    """

    def test_tampered_column_sum_is_rejected(self):
        rng = np.random.default_rng(60)
        entries = random_row_stochastic(rng, 6, 3).T
        StochasticMatrix(entries, "column")
        tampered = entries.copy()
        tampered[:, 2] *= 1.0 + 1e-3
        with pytest.raises(ValidationError, match="column sums deviate"):
            StochasticMatrix(tampered, "column")

    def test_tampered_ratios_are_rejected(self):
        # the ratios the witness rests on are q/p, and nothing can change them
        rng = np.random.default_rng(61)
        pair = bounded_pair(rng, 6)
        with pytest.raises(ValueError):
            pair.ratios[4] *= 1.0 + 1e-6  # read-only
        with pytest.raises(AttributeError):
            pair.ratios = pair.ratios * (1.0 + 1e-6)  # frozen
        with pytest.raises(TypeError):
            DistributionPair(pair.p, pair.q, pair.ratios * (1.0 + 1e-6))
        assert np.array_equal(pair.ratios, pair.q / pair.p)

    def test_dense_witness_gives_the_same_sandwich(self):
        rng = np.random.default_rng(62)
        kernels = [get_kernel(name) for name in STRONGLY_CONVEX]
        for _ in range(240):
            size = int(rng.integers(1, 41))
            rows = int(rng.integers(1, size + 1))
            merge = StochasticMatrix(random_row_stochastic(rng, size, rows).T, "column")
            pair = bounded_pair(rng, size)
            kernel = kernels[int(rng.integers(len(kernels)))]
            s = aggregated_divergence_bounds(pair, merge, kernel)

            b = merge.entries @ pair.p
            dense = StochasticMatrix(pair.p[None, :] * merge.entries / b[:, None], "row")
            x = WeightedVector(pair.ratios, pair.p)
            y = WeightedVector((merge.entries @ pair.q) / b, b)
            assert verify_weighted_majorization(x, y, dense).passed
            chain = full_chain(x, y, dense, kernel.generator)
            assert chain.lhs == s.lower_ck
            assert chain.lhs + chain.correction_quadratic == s.lower_strong
            assert chain.plain_bound == s.value
            assert chain.converse_bound == s.upper_converse

    def test_rescaled_pair_is_not_refused(self):
        rng = np.random.default_rng(63)
        size = 200
        raw = rng.uniform(0.1, 1.0, size)
        p = raw / raw.sum()
        q = p * rng.uniform(0.5, 2.0, size)
        q = q / q.sum()
        merge = StochasticMatrix(random_row_stochastic(rng, size, 16).T, "column")
        kernel = get_kernel("kl")
        reference = aggregated_divergence_bounds(DistributionPair(p, q), merge, kernel)
        for k in (-12, -6, 0, 6, 10, 12):
            scale = 10.0**k
            s = aggregated_divergence_bounds(DistributionPair(p * scale, q * scale), merge, kernel)
            assert s.holds
            assert abs(s.value / scale - reference.value) <= 1e-12 * reference.value


def _outcome(fn, *args):
    """A call's result, or its exception as (type, message), for comparison."""
    try:
        return fn(*args)
    except ShermanBoundsError as exc:
        return type(exc), str(exc)


class TestPairMemo:
    """A pair's majorant-side sums are kept per generator and never change a result."""

    KERNELS = {name: get_kernel(name) for name in STRONGLY_CONVEX}

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 50),
        name=st.sampled_from(STRONGLY_CONVEX),
        exponent=st.integers(-8, 8),
        normalized=st.booleans(),
    )
    def test_any_order_matches_a_fresh_pair(self, seed, size, name, exponent, normalized):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.1, 1.0, size)
        q = p * rng.uniform(0.2, 5.0, size)  # some ratios leave (0.1, 10) once normalized
        if normalized:
            p, q = p / p.sum(), q / q.sum()
        p, q = p * 10.0**exponent, q * 10.0**exponent
        rows = int(rng.integers(1, size + 1))
        merge = StochasticMatrix(random_row_stochastic(rng, size, rows).T, "column")
        kernel = self.KERNELS[name]
        calls = {
            "value": lambda pair: csiszar_divergence(pair, kernel),
            "total": lambda pair: divergence_bounds(pair, kernel),
            "merged": lambda pair: aggregated_divergence_bounds(pair, merge, kernel),
        }
        fresh = {key: _outcome(call, DistributionPair(p, q)) for key, call in calls.items()}
        for order in itertools.permutations(calls):
            pair = DistributionPair(p, q)
            for key in order + order[:1]:  # the first call once more reads the memo only
                assert _outcome(calls[key], pair) == fresh[key]

    def test_kl_on_two_intervals_gets_two_entries(self):
        pair = bounded_pair(np.random.default_rng(64), 9)
        narrow, wide = get_kernel("kl"), get_kernel("kl", (0.05, 20.0))
        for kernel in (narrow, wide, narrow):
            fresh = DistributionPair(pair.p, pair.q)
            assert divergence_bounds(pair, kernel) == divergence_bounds(fresh, kernel)
        assert set(pair._sums) == {narrow.generator, wide.generator}
        assert pair._sums[narrow.generator].spread != pair._sums[wide.generator].spread

    def test_a_ratio_failure_is_not_memoized(self):
        pair = DistributionPair([0.5, 0.5], [0.04, 0.96])  # ratio 0.08 < 0.1
        kernel = get_kernel("kl")
        merge = StochasticMatrix(np.eye(2), "column")
        for _ in range(2):
            for call in (
                lambda: csiszar_divergence(pair, kernel),
                lambda: divergence_bounds(pair, kernel),
                lambda: aggregated_divergence_bounds(pair, merge, kernel),
            ):
                with pytest.raises(RatioOutOfDomain):
                    call()
        assert pair._sums == {}
        assert csiszar_divergence(pair, get_kernel("kl", (0.01, 10.0))) > 0.0

    def test_lone_divergence_evaluates_f_once_and_no_moment(self):
        base = get_kernel("hellinger")
        shapes = []

        def counted(t):
            shapes.append(np.shape(t))
            return base.generator.evaluator(t)

        kernel = replace(base, generator=replace(base.generator, evaluator=counted))
        pair = bounded_pair(np.random.default_rng(65), 30)
        first = csiszar_divergence(pair, kernel)
        assert csiszar_divergence(pair, kernel) == first
        assert shapes == [(30,)]
        sums = pair._sums[kernel.generator]
        assert set(sums.memo) == {"f"}
        divergence_bounds(pair, kernel)
        divergence_bounds(pair, kernel)
        # each sandwich evaluates f on its aggregated ratio and at both endpoints only
        assert shapes.count((30,)) == 1
        assert set(sums.memo) == {"f", "spread", (1, 0.0), (2, 0.0)}

    def test_a_used_pair_still_pickles(self):
        pair = bounded_pair(np.random.default_rng(66), 7)
        kernel = get_kernel("kl")
        value = csiszar_divergence(pair, kernel)
        copy = pickle.loads(pickle.dumps(pair))
        assert copy._sums == {} and np.array_equal(copy.ratios, pair.ratios)
        assert csiszar_divergence(copy, kernel) == value

    def test_overflowing_sum_raises_on_every_call(self):
        pair = DistributionPair([1e-300, 1.0], [1.0, 1e-300])
        kernel = get_kernel("kl", (5e-301, 1.0000000000000002e300))
        chi_square = get_kernel("chi_square", kernel.interval)
        for _ in range(3):  # the later calls read the memoized inf
            with pytest.raises(ValidationError, match="non-finite value"):
                divergence_bounds(pair, kernel)
            with pytest.raises(ValidationError, match="non-finite value"):
                csiszar_divergence(pair, chi_square)  # (q/p - 1)^2 overflows
        assert pair._sums[kernel.generator].memo["spread"] == math.inf
        assert pair._sums[chi_square.generator].f == math.inf
