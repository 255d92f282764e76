"""The two-sided inequality chain and its special cases."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sherman_bounds import (
    CHAIN_SLACK,
    BoundChain,
    DegenerateInterval,
    FunctionSpec,
    MajorizationNotVerified,
    ModulusNotCertified,
    PointOutOfInterval,
    StochasticMatrix,
    ValidationError,
    WeightedVector,
    WeightsNotNormalized,
    converse_sherman_strong,
    estimate_strong_modulus,
    full_chain,
    function_from_name,
    higher_order_sherman_bound,
    jensen_strong,
    resolve_modulus,
    verify_weighted_majorization,
)
from helpers import fsum_dot, random_chain_instance, random_row_stochastic

EXP01 = function_from_name("exp", (0.0, 1.0))
SQUARE01 = function_from_name("square", (0.0, 1.0))

KERNELS = [
    ("square", (0.0, 1.0)),
    ("pow:4", (0.5, 1.0)),
    ("exp", (0.0, 1.0)),
    ("xlogx", (0.1, 3.0)),
]


def chain_oracle(x, a, y, b, f, c, lo, hi):
    """Direct fsum transcription of every link of the chain."""
    lhs = fsum_dot(b, [f(t) for t in y])
    plain = fsum_dot(a, [f(t) for t in x])
    delta = fsum_dot(a, [t * t for t in x]) - fsum_dot(b, [t * t for t in y])
    strong = plain - c * delta
    total = math.fsum(b)
    sax = fsum_dot(a, x)
    converse = ((total * hi - sax) * f(lo) + (sax - total * lo) * f(hi)) / (hi - lo)
    converse -= c * fsum_dot(a, [(hi - t) * (t - lo) for t in x])
    return lhs, strong, plain, converse


class TestResolveModulus:
    def test_auto_uses_certificate(self):
        c, cert = resolve_modulus(EXP01, None)
        assert abs(c - 0.5) <= 1e-12
        assert cert.verdict == "certified"

    def test_explicit_below_certified_accepted(self):
        c, _ = resolve_modulus(EXP01, 0.25)
        assert c == 0.25

    @pytest.mark.parametrize("bound", [
        "resolve_modulus", "jensen_strong", "converse_sherman_strong", "full_chain",
        "higher_order_sherman_bound",
    ])
    def test_explicit_above_certified_rejected(self, bound):
        # exp on [0, 1] certifies 1/2; every public bound refuses 0.75
        x, y, witness = random_chain_instance(np.random.default_rng(39), (0.0, 1.0))
        mean = WeightedVector([0.25, 0.75], [0.5, 0.5])
        calls = {
            "resolve_modulus": lambda: resolve_modulus(EXP01, 0.75),
            "jensen_strong": lambda: jensen_strong(mean, EXP01, 0.75),
            "converse_sherman_strong": lambda: converse_sherman_strong(x, EXP01, 0.75),
            "full_chain": lambda: full_chain(x, y, witness, EXP01, 0.75),
            "higher_order_sherman_bound": lambda: higher_order_sherman_bound(x, y, EXP01, 2, 0.75),
        }
        with pytest.raises(ModulusNotCertified, match="modulus 0.75 exceeds certified 0.5 "):
            calls[bound]()

    @pytest.mark.parametrize("bound, knob", [
        ("resolve_modulus", "certificate"), ("jensen_strong", "certificate"),
        ("converse_sherman_strong", "certificate"), ("verify_weighted_majorization", "tol"),
        ("full_chain", "tol"),
    ])
    def test_takes_no_certificate_or_tolerance(self, bound, knob):
        # the certificate is the spec's own; a witness is checked at DEFAULT_TOL
        x, y, witness = random_chain_instance(np.random.default_rng(39), (0.0, 1.0))
        mean = WeightedVector([0.25, 0.75], [0.5, 0.5])
        calls = {
            "resolve_modulus": lambda **kw: resolve_modulus(EXP01, None, **kw),
            "jensen_strong": lambda **kw: jensen_strong(mean, EXP01, **kw),
            "converse_sherman_strong": lambda **kw: converse_sherman_strong(x, EXP01, **kw),
            "verify_weighted_majorization":
                lambda **kw: verify_weighted_majorization(x, y, witness, **kw),
            "full_chain": lambda **kw: full_chain(x, y, witness, EXP01, **kw),
        }
        calls[bound]()
        value = {"certificate": estimate_strong_modulus(SQUARE01, 2), "tol": 1e300}[knob]
        with pytest.raises(TypeError, match=knob):
            calls[bound](**{knob: value})

    def test_failed_certification_blocks(self):
        cube = function_from_name("pow:3", (-1.0, 1.0))
        with pytest.raises(ModulusNotCertified):
            resolve_modulus(cube, None)

    def test_negative_modulus(self):
        with pytest.raises(ValueError):
            resolve_modulus(EXP01, -0.1)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_non_finite_modulus_rejected(self, c):
        # NaN passes a plain ``c < 0`` test and would give NaN links
        rng = np.random.default_rng(38)
        x, y, witness = random_chain_instance(rng, (0.0, 1.0))
        mean = WeightedVector([0.25, 0.75], [0.5, 0.5])
        with pytest.raises(ValueError):
            resolve_modulus(EXP01, c)
        with pytest.raises(ValueError):
            full_chain(x, y, witness, EXP01, c)
        with pytest.raises(ValueError):
            jensen_strong(mean, EXP01, c)
        with pytest.raises(ValueError):
            converse_sherman_strong(x, EXP01, c)


class TestJensen:
    def test_two_point_mean(self):
        x = WeightedVector([0.0, 1.0], [0.5, 0.5])
        bound = jensen_strong(x, SQUARE01, 1.0)
        assert bound.lhs == 0.25
        # rhs = 0.5 - 1 * (0.5*0.25 + 0.5*0.25) = 0.25: equality for t^2 at c=1
        assert abs(bound.rhs - 0.25) <= 1e-15
        assert abs(bound.variance_term - 0.25) <= 1e-15

    def test_exp_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            size = int(rng.integers(1, 8))
            raw = rng.uniform(0.1, 1.0, size)
            a = raw / raw.sum()
            pts = rng.uniform(0.0, 1.0, size)
            bound = jensen_strong(WeightedVector(pts, a), EXP01, 0.5)
            xbar = fsum_dot(a, pts)
            rhs = fsum_dot(a, [math.exp(t) for t in pts]) - 0.5 * fsum_dot(
                a, [(t - xbar) ** 2 for t in pts]
            )
            assert abs(bound.lhs - math.exp(xbar)) <= 1e-12
            assert abs(bound.rhs - rhs) <= 1e-12
            assert bound.lhs <= bound.rhs + CHAIN_SLACK

    def test_one_point_equality_reads_f_through_the_array_path(self):
        # numpy's array power and C pow round pow:3 apart at some points; at
        # one point both sides are f(t), so they must read it the same way
        spec = function_from_name("pow:3", (0.5, 10.0))
        t = np.random.default_rng(33).uniform(0.5, 10.0, 40000)
        split = t[spec.evaluate(t) != np.array([spec.evaluator(v) for v in t.tolist()])][:200]
        assert split.size == 200
        for point in split.tolist():
            bound = jensen_strong(WeightedVector([point], [1.0]), spec)
            assert bound.variance_term == 0.0
            assert bound.lhs == bound.rhs == spec.evaluate([point])[0]

    def test_requires_normalized_weights(self):
        with pytest.raises(WeightsNotNormalized):
            jensen_strong(WeightedVector([0.5], [2.0]), EXP01)

    def test_requires_points_inside(self):
        with pytest.raises(PointOutOfInterval):
            jensen_strong(WeightedVector([1.5], [1.0]), EXP01)


class TestLahRibaric:
    """The strong Lah-Ribaric inequality: the converse link at total weight one."""

    def test_endpoint_degeneracy_is_exact(self):
        # all mass at an endpoint: both sides equal f(alpha)
        x = WeightedVector([0.0], [1.0])
        assert abs(float(x.weights @ EXP01.evaluate(x.points)) - 1.0) <= 1e-15
        assert abs(converse_sherman_strong(x, EXP01, 0.5) - 1.0) <= 1e-12

    def test_xlogx_oracle(self):
        spec = function_from_name("xlogx", (0.1, 3.0))
        cert = estimate_strong_modulus(spec, 2)
        rng = np.random.default_rng(22)
        for _ in range(50):
            size = int(rng.integers(1, 8))
            raw = rng.uniform(0.1, 1.0, size)
            a = raw / raw.sum()
            pts = rng.uniform(0.1, 3.0, size)
            upper = converse_sherman_strong(WeightedVector(pts, a), spec)
            f = spec.evaluator
            xbar = fsum_dot(a, pts)
            chord = ((3.0 - xbar) * f(0.1) + (xbar - 0.1) * f(3.0)) / 2.9
            rhs = chord - cert.modulus * fsum_dot(
                a, [(3.0 - t) * (t - 0.1) for t in pts]
            )
            assert abs(upper - rhs) <= 1e-12
            assert fsum_dot(a, [f(t) for t in pts]) <= upper + CHAIN_SLACK


class TestShermanStrong:
    """The strong Sherman link of :func:`full_chain`."""

    def test_requires_witness(self):
        x = WeightedVector([0.0, 1.0], [0.5, 0.5])
        y = WeightedVector([0.5], [1.0])
        with pytest.raises(TypeError, match="matrix"):
            full_chain(x, y, spec=SQUARE01)
        bound = full_chain(x, y, StochasticMatrix([[0.5, 0.5]], "row"), SQUARE01)
        assert bound.lhs <= bound.strong_bound + CHAIN_SLACK

    def test_bad_witness_rejected(self):
        x = WeightedVector([0.0, 1.0], [0.5, 0.5])
        y = WeightedVector([0.9], [1.0])
        with pytest.raises(MajorizationNotVerified):
            full_chain(x, y, StochasticMatrix([[0.5, 0.5]], "row"), SQUARE01)

    def test_square_at_full_modulus_is_tight(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            x, y, witness = random_chain_instance(rng, (0.0, 1.0))
            bound = full_chain(x, y, witness, SQUARE01, 1.0)
            assert abs(bound.lhs - bound.strong_bound) <= 1e-12

    def test_zero_modulus_recovers_plain_bound(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            x, y, witness = random_chain_instance(rng, (0.0, 1.0))
            bound = full_chain(x, y, witness, EXP01, 0.0)
            assert bound.strong_bound == bound.plain_bound
            assert bound.correction_quadratic == 0.0
            assert bound.lhs <= bound.plain_bound + CHAIN_SLACK

    def test_quartic_oracle(self):
        spec = function_from_name("pow:4", (0.5, 1.0))
        rng = np.random.default_rng(25)
        for _ in range(50):
            x, y, witness = random_chain_instance(rng, (0.5, 1.0))
            bound = full_chain(x, y, witness, spec, 1.5)
            lhs, strong, plain, _ = chain_oracle(
                x.points, x.weights, y.points, y.weights, spec.evaluator, 1.5, 0.5, 1.0
            )
            assert abs(bound.lhs - lhs) <= 1e-12
            assert abs(bound.strong_bound - strong) <= 1e-12
            assert abs(bound.plain_bound - plain) <= 1e-12


class TestConverse:
    def test_normalized_total_matches_lah_ribaric(self):
        # at total weight one: the chord at the weighted mean minus c * S_a (1 - x) x
        rng = np.random.default_rng(26)
        raw = rng.uniform(0.1, 1.0, 5)
        a = raw / raw.sum()
        pts = rng.uniform(0.0, 1.0, 5)
        x = WeightedVector(pts, a)
        xbar = fsum_dot(a, pts)
        chord = (1.0 - xbar) * math.exp(0.0) + xbar * math.exp(1.0)
        reference = chord - 0.5 * fsum_dot(a, [(1.0 - t) * t for t in pts])
        assert abs(converse_sherman_strong(x, EXP01, 0.5) - reference) <= 1e-12

    def test_mass_at_left_endpoint(self):
        x = WeightedVector([0.0, 0.0], [1.5, 0.5])
        upper = converse_sherman_strong(x, EXP01, 0.5)
        assert abs(upper - 2.0) <= 1e-12  # B * f(0)

    def test_dominates_plain_sum(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            x, _, _ = random_chain_instance(rng, (0.0, 1.0))
            plain = fsum_dot(x.weights, [math.exp(t) for t in x.points])
            upper = converse_sherman_strong(x, EXP01)
            assert plain <= upper + CHAIN_SLACK

    def test_chord_reads_f_through_the_array_path(self):
        # numpy's array power and C pow round pow:3 apart at some points; take two as the
        # ends, from a positive interval, where pow:3 is convex
        t = np.random.default_rng(5).uniform(0.5, 10.0, 20000)
        spec = function_from_name("pow:3", (0.5, 10.0))
        split = t[spec.evaluate(t) != np.array([spec.evaluator(v) for v in t.tolist()])]
        lo, hi = (float(split.min()), float(split.max())) if split.size else (0.5, 10.0)
        spec = function_from_name("pow:3", (lo, hi))
        x = WeightedVector([lo, 0.5 * (lo + hi), hi], [0.25, 0.5, 0.25])
        f_lo, _, f_hi = spec.evaluate(x.points).tolist()
        assert split.size == 0 or (f_lo, f_hi) != (spec.evaluator(lo), spec.evaluator(hi))
        linear = float(x.weights @ x.points)
        chord = ((hi - linear) * f_lo + (linear - lo) * f_hi) / (hi - lo)
        assert converse_sherman_strong(x, spec, 0.0) == chord

    @pytest.mark.parametrize("total", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    def test_total_weight_is_not_a_parameter(self, total):
        # the bound reads S_a 1 from x: a passed total of 0.0 put the "upper
        # bound" on e^0.5 = 1.649 at 0.734, and nan or inf gave NaN
        x = WeightedVector([0.5], [1.0])
        with pytest.raises(TypeError, match="positional"):
            converse_sherman_strong(x, total, EXP01, 0.5)
        with pytest.raises(TypeError, match="total_weight"):
            converse_sherman_strong(x, EXP01, total_weight=total)
        assert converse_sherman_strong(x, EXP01) >= math.exp(0.5)


class TestFullChain:
    def test_interior_zero_of_the_derivative_gives_modulus_zero(self):
        # f'' = 12 t^2 vanishes at 0, inside (-1, 0.3) but between grid nodes
        spec = function_from_name("pow:4", (-1.0, 0.3))
        x = WeightedVector([-1e-5, 1e-5], [1.0, 1.0])
        y = WeightedVector([0.0], [2.0])
        chain = full_chain(x, y, StochasticMatrix([[0.5, 0.5]], "row"), spec)
        assert chain.modulus == 0.0
        assert chain.lhs <= chain.strong_bound

    def test_catalog_chains_hold_and_match_oracle(self):
        rng = np.random.default_rng(28)
        for name, interval in KERNELS:
            spec = function_from_name(name, interval)
            cert = estimate_strong_modulus(spec, 2)
            for _ in range(40):
                x, y, witness = random_chain_instance(rng, interval)
                chain = full_chain(x, y, witness, spec)
                assert chain.chain_holds
                lhs, strong, plain, converse = chain_oracle(
                    x.points, x.weights, y.points, y.weights,
                    spec.evaluator, cert.modulus, *interval,
                )
                scale = 1.0 + abs(plain)
                assert abs(chain.lhs - lhs) <= 1e-12 * scale
                assert abs(chain.strong_bound - strong) <= 1e-12 * scale
                assert abs(chain.plain_bound - plain) <= 1e-12 * scale
                assert abs(chain.converse_bound - converse) <= 1e-12 * scale
                assert chain.correction_quadratic >= -CHAIN_SLACK

    def test_zero_modulus_reduces_to_classical(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            x, y, witness = random_chain_instance(rng, (0.0, 1.0))
            chain = full_chain(x, y, witness, EXP01, 0.0)
            assert chain.strong_bound == chain.plain_bound
            assert chain.correction_converse == 0.0
            lhs, _, plain, converse = chain_oracle(
                x.points, x.weights, y.points, y.weights, math.exp, 0.0, 0.0, 1.0
            )
            assert abs(chain.lhs - lhs) <= 1e-12
            assert abs(chain.plain_bound - plain) <= 1e-12
            assert abs(chain.converse_bound - converse) <= 1e-12

    def test_larger_modulus_tightens_both_ends(self):
        rng = np.random.default_rng(30)
        for _ in range(30):
            x, y, witness = random_chain_instance(rng, (0.0, 1.0))
            low = full_chain(x, y, witness, EXP01, 0.1)
            high = full_chain(x, y, witness, EXP01, 0.5)
            assert high.strong_bound <= low.strong_bound + 1e-12
            assert high.converse_bound <= low.converse_bound + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(31)
        x, y, witness = random_chain_instance(rng, (0.0, 1.0), max_rows=4, max_cols=6)
        perm = rng.permutation(x.size)
        permuted = StochasticMatrix(witness.entries[:, perm], "row")
        xp = WeightedVector(x.points[perm], x.weights[perm], x.interval)
        base = full_chain(x, y, witness, EXP01, 0.5)
        other = full_chain(xp, y, permuted, EXP01, 0.5)
        for attr in ("lhs", "strong_bound", "plain_bound", "converse_bound"):
            assert abs(getattr(base, attr) - getattr(other, attr)) <= 1e-12

    def test_all_zero_weights_warn(self):
        matrix = StochasticMatrix(random_row_stochastic(np.random.default_rng(1), 2, 3), "row")
        x = WeightedVector(np.array([0.2, 0.5, 0.8]), np.zeros(3))
        y = WeightedVector(matrix.entries @ x.points, np.zeros(2))
        chain = full_chain(x, y, matrix, EXP01, 0.5)
        assert chain.lhs == 0.0
        assert chain.plain_bound == 0.0
        assert chain.converse_bound == 0.0
        assert chain.chain_holds
        assert any("zero" in w for w in chain.warnings)

    def test_single_row_matches_jensen(self):
        rng = np.random.default_rng(32)
        raw = rng.uniform(0.1, 1.0, 6)
        a = raw / raw.sum()
        pts = rng.uniform(0.0, 1.0, 6)
        witness = StochasticMatrix(a[None, :], "row")
        ybar = fsum_dot(a, pts)
        x = WeightedVector(pts, a)
        y = WeightedVector([ybar], [1.0])
        chain = full_chain(x, y, witness, EXP01, 0.5)
        jensen = jensen_strong(x, EXP01, 0.5)
        assert abs(chain.lhs - jensen.lhs) <= 1e-12
        assert abs(chain.strong_bound - jensen.rhs) <= 1e-12
        assert abs(chain.converse_bound - converse_sherman_strong(x, EXP01, 0.5)) <= 1e-12

    def test_fuchs_flag(self):
        rng = np.random.default_rng(33)
        from helpers import random_doubly_stochastic

        d = StochasticMatrix(random_doubly_stochastic(rng, 4), "row")
        x = rng.uniform(0.0, 1.0, 4)
        y, a = np.asarray(d.entries @ x), np.ones(4) @ d.entries
        chain = full_chain(
            WeightedVector(x, a), WeightedVector(y, np.ones(4)), d, EXP01, 0.5
        )
        assert chain.fuchs_case
        rng2 = np.random.default_rng(34)
        x2, y2, w2 = random_chain_instance(rng2, (0.0, 1.0), max_rows=3, max_cols=5)
        if x2.size != y2.size:
            assert not full_chain(x2, y2, w2, EXP01, 0.5).fuchs_case

    def test_modulus_gate(self):
        rng = np.random.default_rng(35)
        x, y, witness = random_chain_instance(rng, (0.0, 1.0))
        with pytest.raises(ModulusNotCertified):
            full_chain(x, y, witness, EXP01, 0.9)

    def test_foreign_certificate_refused(self):
        # square's certificate (modulus 1) for xlogx on [0.1, 3] (modulus 1/6)
        # would put the strong bound at -0.570, below the lhs of 0.679
        spec = function_from_name("xlogx", (0.1, 3.0))
        x = WeightedVector([0.1, 3.0], [0.5, 0.5])
        y = WeightedVector([1.55], [1.0])
        witness = StochasticMatrix([[0.5, 0.5]], "row")
        square = estimate_strong_modulus(function_from_name("square", (0.1, 3.0)), 2)
        with pytest.raises(ModulusNotCertified, match="not the one of xlogx"):
            full_chain(x, y, witness, spec, certificate=square)
        chain = full_chain(x, y, witness, spec)
        assert abs(chain.modulus - 1.0 / 6.0) <= 1e-15
        assert chain.chain_holds
        assert full_chain(x, y, witness, spec, certificate=estimate_strong_modulus(spec, 2)) == chain

    def test_degenerate_interval_rejected(self):
        spec = function_from_name("exp", (0.5, 0.5 + 5e-15))
        x = WeightedVector([0.5], [1.0])
        witness = StochasticMatrix([[1.0]], "row")
        with pytest.raises(DegenerateInterval):
            full_chain(x, x, witness, spec, 0.0)

    @pytest.mark.parametrize("c", [None, 0.25])
    def test_carries_the_certificate_its_links_used(self, c):
        x, y, witness = random_chain_instance(np.random.default_rng(40), (0.0, 1.0))
        chain = full_chain(x, y, witness, EXP01, c)
        assert chain.certificate == estimate_strong_modulus(EXP01, 2)
        assert "certificate" not in chain.to_dict()
        with pytest.raises(TypeError, match="certificate"):
            BoundChain(**chain.to_dict(), certificate=chain.certificate)

    def test_carries_its_witness_check(self):
        rng = np.random.default_rng(37)
        x, y, witness = random_chain_instance(rng, (0.0, 1.0))
        chain = full_chain(x, y, witness, EXP01)
        assert chain.verification == verify_weighted_majorization(x, y, witness)
        assert "verification" not in chain.to_dict()

    def test_to_dict_is_flat_and_complete(self):
        rng = np.random.default_rng(36)
        x, y, witness = random_chain_instance(rng, (0.0, 1.0))
        data = full_chain(x, y, witness, EXP01).to_dict()
        assert set(data) == {
            "lhs", "strong_bound", "plain_bound", "converse_bound",
            "correction_quadratic", "correction_converse", "modulus",
            "chain_holds", "fuchs_case", "warnings",
        }

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**20))
    def test_chain_order_is_invariant(self, seed):
        rng = np.random.default_rng(seed)
        x, y, witness = random_chain_instance(rng, (0.1, 3.0))
        spec = function_from_name("xlogx", (0.1, 3.0))
        chain = full_chain(x, y, witness, spec)
        assert chain.lhs <= chain.strong_bound + CHAIN_SLACK
        assert chain.strong_bound <= chain.plain_bound + CHAIN_SLACK
        assert chain.plain_bound <= chain.converse_bound + CHAIN_SLACK


class TestOverflowingLinks:
    """A sum that overflows the float range raises instead of returning inf or NaN."""

    SPEC = function_from_name("square", (-1e300, 1e300))
    X = WeightedVector([1e300, -1e300], [0.5, 0.5])
    Y = WeightedVector([0.0], [1.0])

    def test_each_bound_raises(self):
        # square certifies c = 1 exactly; math.pow raises OverflowError where
        # numpy returns inf, and that point is NaN
        witness = StochasticMatrix([[0.5, 0.5]], "row")
        floats = FunctionSpec("sq", lambda t: math.pow(t, 2), (lambda t: 2 * t, lambda t: 2.0),
                              self.SPEC.interval)
        for spec in (self.SPEC, floats):
            for call in (
                lambda: full_chain(self.X, self.Y, witness, spec, 1.0),
                lambda: converse_sherman_strong(self.X, spec, 1.0),
            ):
                with pytest.raises(ValidationError, match="non-finite value"):
                    call()

    def test_overflowing_certificate_is_not_certified(self):
        # math.exp raises OverflowError past t = 709.78: the certificate is indeterminate
        spec = FunctionSpec("e", math.exp, (math.exp, math.exp), (0.0, 1000.0))
        x = WeightedVector([1.0, 999.0], [0.5, 0.5])
        witness = StochasticMatrix([[0.5, 0.5]], "row")
        with pytest.raises(ModulusNotCertified, match="indeterminate"):
            full_chain(x, WeightedVector([500.0], [1.0]), witness, spec)
