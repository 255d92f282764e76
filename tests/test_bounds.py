"""The two-sided inequality chain and its special cases."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sherman_bounds import (
    CHAIN_SLACK,
    DegenerateInterval,
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
    jensen_strong,
    lah_ribaric_strong,
    resolve_modulus,
    sherman_strong,
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

    def test_explicit_above_certified_rejected(self):
        with pytest.raises(ModulusNotCertified):
            resolve_modulus(EXP01, 0.75)

    def test_unchecked_bypasses_certification(self):
        c, cert = resolve_modulus(EXP01, 0.75, unchecked=True)
        assert c == 0.75 and cert is None
        with pytest.raises(ValueError):
            resolve_modulus(EXP01, None, unchecked=True)

    def test_certificate_order_must_match(self):
        cert = estimate_strong_modulus(EXP01, 3)
        with pytest.raises(ModulusNotCertified):
            resolve_modulus(EXP01, 0.1, cert, order=2)

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
        for unchecked in (False, True):
            with pytest.raises(ValueError):
                resolve_modulus(EXP01, c, unchecked=unchecked)
            with pytest.raises(ValueError):
                full_chain(x, y, witness, EXP01, c, unchecked_modulus=unchecked)
            with pytest.raises(ValueError):
                jensen_strong(mean, EXP01, c, unchecked=unchecked)
            with pytest.raises(ValueError):
                converse_sherman_strong(x, x.weight_sum, EXP01, c, unchecked=unchecked)


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
        cert = estimate_strong_modulus(spec, 2)
        for point in split.tolist():
            bound = jensen_strong(WeightedVector([point], [1.0]), spec, certificate=cert)
            assert bound.variance_term == 0.0
            assert bound.lhs == bound.rhs == spec.evaluate([point])[0]

    def test_requires_normalized_weights(self):
        with pytest.raises(WeightsNotNormalized):
            jensen_strong(WeightedVector([0.5], [2.0]), EXP01)

    def test_requires_points_inside(self):
        with pytest.raises(PointOutOfInterval):
            jensen_strong(WeightedVector([1.5], [1.0]), EXP01)


class TestLahRibaric:
    def test_endpoint_degeneracy_is_exact(self):
        # all mass at an endpoint: both sides equal f(alpha)
        x = WeightedVector([0.0], [1.0])
        bound = lah_ribaric_strong(x, EXP01, 0.5)
        assert abs(bound.lhs - 1.0) <= 1e-15
        assert abs(bound.rhs - 1.0) <= 1e-12

    def test_xlogx_oracle(self):
        spec = function_from_name("xlogx", (0.1, 3.0))
        cert = estimate_strong_modulus(spec, 2)
        rng = np.random.default_rng(22)
        for _ in range(50):
            size = int(rng.integers(1, 8))
            raw = rng.uniform(0.1, 1.0, size)
            a = raw / raw.sum()
            pts = rng.uniform(0.1, 3.0, size)
            bound = lah_ribaric_strong(
                WeightedVector(pts, a), spec, certificate=cert
            )
            f = spec.evaluator
            xbar = fsum_dot(a, pts)
            chord = ((3.0 - xbar) * f(0.1) + (xbar - 0.1) * f(3.0)) / 2.9
            rhs = chord - cert.modulus * fsum_dot(
                a, [(3.0 - t) * (t - 0.1) for t in pts]
            )
            assert abs(bound.rhs - rhs) <= 1e-12
            assert bound.lhs <= bound.rhs + CHAIN_SLACK


class TestShermanStrong:
    def test_requires_witness_or_waiver(self):
        x = WeightedVector([0.0, 1.0], [0.5, 0.5])
        y = WeightedVector([0.5], [1.0])
        with pytest.raises(MajorizationNotVerified):
            sherman_strong(x, y, SQUARE01)
        bound = sherman_strong(x, y, SQUARE01, assume_majorized=True)
        assert bound.lhs <= bound.strong_bound + CHAIN_SLACK

    def test_bad_witness_rejected(self):
        x = WeightedVector([0.0, 1.0], [0.5, 0.5])
        y = WeightedVector([0.9], [1.0])
        with pytest.raises(MajorizationNotVerified):
            sherman_strong(x, y, SQUARE01, matrix=StochasticMatrix([[0.5, 0.5]], "row"))

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol_rejected(self, tol):
        x = WeightedVector([0.0, 1.0], [0.5, 0.5])
        y = WeightedVector([0.9], [1.0])  # the witness misses y by 0.4
        matrix = StochasticMatrix([[0.5, 0.5]], "row")
        with pytest.raises(ValueError, match="tol"):
            sherman_strong(x, y, SQUARE01, matrix=matrix, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            full_chain(x, y, matrix, SQUARE01, tol=tol)

    def test_square_at_full_modulus_is_tight(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            x, y, witness = random_chain_instance(rng, (0.0, 1.0))
            bound = sherman_strong(x, y, SQUARE01, 1.0, matrix=witness)
            assert abs(bound.lhs - bound.strong_bound) <= 1e-12

    def test_zero_modulus_recovers_plain_bound(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            x, y, witness = random_chain_instance(rng, (0.0, 1.0))
            bound = sherman_strong(x, y, EXP01, 0.0, matrix=witness)
            assert bound.strong_bound == bound.plain_bound
            assert bound.correction_quadratic == 0.0
            assert bound.lhs <= bound.plain_bound + CHAIN_SLACK

    def test_quartic_oracle(self):
        spec = function_from_name("pow:4", (0.5, 1.0))
        rng = np.random.default_rng(25)
        for _ in range(50):
            x, y, witness = random_chain_instance(rng, (0.5, 1.0))
            bound = sherman_strong(x, y, spec, 1.5, matrix=witness)
            lhs, strong, plain, _ = chain_oracle(
                x.points, x.weights, y.points, y.weights, spec.evaluator, 1.5, 0.5, 1.0
            )
            assert abs(bound.lhs - lhs) <= 1e-12
            assert abs(bound.strong_bound - strong) <= 1e-12
            assert abs(bound.plain_bound - plain) <= 1e-12


class TestConverse:
    def test_normalized_total_matches_lah_ribaric(self):
        rng = np.random.default_rng(26)
        raw = rng.uniform(0.1, 1.0, 5)
        a = raw / raw.sum()
        pts = rng.uniform(0.0, 1.0, 5)
        x = WeightedVector(pts, a)
        upper = converse_sherman_strong(x, 1.0, EXP01, 0.5)
        reference = lah_ribaric_strong(x, EXP01, 0.5)
        assert upper == reference.rhs

    def test_mass_at_left_endpoint(self):
        x = WeightedVector([0.0, 0.0], [1.5, 0.5])
        upper = converse_sherman_strong(x, 2.0, EXP01, 0.5)
        assert abs(upper - 2.0) <= 1e-12  # B * f(0)

    def test_dominates_plain_sum(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            x, _, _ = random_chain_instance(rng, (0.0, 1.0))
            plain = fsum_dot(x.weights, [math.exp(t) for t in x.points])
            upper = converse_sherman_strong(x, x.weight_sum, EXP01)
            assert plain <= upper + CHAIN_SLACK

    def test_chord_reads_f_through_the_array_path(self):
        # numpy's array power and C pow round pow:3 apart at some points; take two as the ends
        t = np.random.default_rng(5).uniform(-10.0, 10.0, 20000)
        spec = function_from_name("pow:3", (-10.0, 10.0))
        split = t[spec.evaluate(t) != np.array([spec.evaluator(v) for v in t.tolist()])]
        lo, hi = (float(split.min()), float(split.max())) if split.size else (-10.0, 10.0)
        spec = function_from_name("pow:3", (lo, hi))
        x = WeightedVector([lo, 0.5 * (lo + hi), hi], [0.25, 0.5, 0.25])
        f_lo, _, f_hi = spec.evaluate(x.points).tolist()
        assert split.size == 0 or (f_lo, f_hi) != (spec.evaluator(lo), spec.evaluator(hi))
        linear = float(x.weights @ x.points)
        chord = ((hi - linear) * f_lo + (linear - lo) * f_hi) / (hi - lo)
        assert converse_sherman_strong(x, 1.0, spec, 0.0, unchecked=True) == chord

    @pytest.mark.parametrize("total", [math.nan, math.inf, -math.inf, -1.0])
    def test_invalid_total_weight_rejected(self, total):
        # nan and inf gave a NaN bound, and -1.0 a finite number
        x = WeightedVector([0.25, 0.75], [0.5, 0.5])
        for unchecked in (False, True):
            with pytest.raises(ValueError, match="total weight"):
                converse_sherman_strong(x, total, EXP01, 0.5, unchecked=unchecked)


class TestFullChain:
    def test_catalog_chains_hold_and_match_oracle(self):
        rng = np.random.default_rng(28)
        for name, interval in KERNELS:
            spec = function_from_name(name, interval)
            cert = estimate_strong_modulus(spec, 2)
            for _ in range(40):
                x, y, witness = random_chain_instance(rng, interval)
                chain = full_chain(x, y, witness, spec, certificate=cert)
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
        lr = lah_ribaric_strong(x, EXP01, 0.5)
        assert abs(chain.converse_bound - lr.rhs) <= 1e-12

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
        chain = full_chain(x, y, witness, EXP01, 0.9, unchecked_modulus=True)
        assert chain.modulus == 0.9

    def test_degenerate_interval_rejected(self):
        spec = function_from_name("exp", (0.5, 0.5 + 5e-15))
        x = WeightedVector([0.5], [1.0])
        witness = StochasticMatrix([[1.0]], "row")
        with pytest.raises(DegenerateInterval):
            full_chain(x, x, witness, spec, 0.0, unchecked_modulus=True)

    def test_carries_its_witness_check(self):
        rng = np.random.default_rng(37)
        x, y, witness = random_chain_instance(rng, (0.0, 1.0))
        chain = full_chain(x, y, witness, EXP01, tol=1e-10)
        assert chain.verification == verify_weighted_majorization(x, y, witness, 1e-10)
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
        witness = StochasticMatrix([[0.5, 0.5]], "row")
        for call in (
            lambda: full_chain(self.X, self.Y, witness, self.SPEC, 1.0, unchecked_modulus=True),
            lambda: sherman_strong(self.X, self.Y, self.SPEC, 1.0, matrix=witness,
                                   unchecked_modulus=True),
            lambda: converse_sherman_strong(self.X, 1.0, self.SPEC, 1.0, unchecked=True),
            lambda: lah_ribaric_strong(self.X, self.SPEC, 1.0, unchecked=True),
        ):
            with pytest.raises(ValidationError, match="non-finite value"):
                call()
