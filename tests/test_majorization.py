"""Majorization certificates, T-transform witnesses, and weighted pairs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sherman_bounds import (
    DimensionMismatch,
    DistributionPair,
    LengthMismatch,
    PointOutOfInterval,
    StochasticMatrix,
    ValidationError,
    WeightedVector,
    generate_weighted_pair,
    majorizes,
    verify_weighted_majorization,
)
from sherman_bounds import majorization
from helpers import (
    fsum_dot,
    random_doubly_stochastic,
    random_row_stochastic,
    three_pass_stochastic,
)


class TestWeightedVector:
    def test_round_trip(self):
        v = WeightedVector([1.0, 2.0], [0.5, 0.5], (0.0, 3.0))
        assert v.size == 2
        assert v.weight_sum == 1.0
        assert not v.points.flags.writeable

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            WeightedVector([1.0, 2.0], [0.5])
        with pytest.raises(ValidationError):
            WeightedVector([1.0], [-0.5])
        with pytest.raises(ValidationError):
            WeightedVector([], [])
        with pytest.raises(ValidationError):
            WeightedVector([float("nan")], [1.0])
        with pytest.raises(ValidationError, match="one-dimensional"):
            WeightedVector([[1.0, 2.0]], [[0.5, 0.5]])
        with pytest.raises(PointOutOfInterval):
            WeightedVector([5.0], [1.0], (0.0, 1.0))

    @pytest.mark.parametrize("interval", [(float("nan"), 1.0), (0.0, float("nan")), (1.0, 0.0)])
    def test_rejects_nan_or_inverted_interval(self, interval):
        # every comparison with NaN is False, so no point can be found outside it
        with pytest.raises(ValidationError, match="lo <= hi"):
            WeightedVector([0.5], [1.0], interval)


class TestStochasticMatrix:
    def test_kinds(self):
        row = StochasticMatrix([[0.25, 0.75]], "row")
        assert row.shape == (1, 2)
        StochasticMatrix([[0.25], [0.75]], "column")
        StochasticMatrix([[0.25, 0.75], [0.75, 0.25]], "doubly")

    def test_clamps_tiny_negatives(self):
        m = StochasticMatrix([[1.0 + 1e-15, -1e-15]], "row")
        assert m.entries.min() == 0.0

    def test_rejects_larger_negatives(self):
        with pytest.raises(ValidationError):
            StochasticMatrix([[1.0 + 1e-13, -1e-13]], "row")

    def test_rejects_bad_sums(self):
        with pytest.raises(ValidationError):
            StochasticMatrix([[0.6, 0.6]], "row")
        with pytest.raises(ValidationError):
            StochasticMatrix([[0.25, 0.75], [0.80, 0.25]], "doubly")

    @pytest.mark.parametrize("kind", ["row", "column", "doubly"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, kind, bad):
        entries = np.full((3, 3), 1.0 / 3.0)
        entries[1, 2] = bad
        with pytest.raises(ValidationError):
            StochasticMatrix(entries, kind)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValidationError):
            StochasticMatrix([[1.0]], "diagonal")

    def test_rejects_one_dimensional_entries(self):
        with pytest.raises(ValidationError, match="two-dimensional"):
            StochasticMatrix([0.5, 0.5], "row")


def _stochastic(rng, shape, kind):
    """A random matrix of the kind; row and column kinds end their last row in zeros."""
    if kind == "doubly":
        return random_doubly_stochastic(rng, shape[0])
    raw = rng.uniform(0.01, 1.0, shape)
    raw[-1, -2:] = 0.0
    return raw / raw.sum(axis=1 if kind == "row" else 0, keepdims=True)


def _last_row_zeros(entries):
    """Columns of the last two zeros in the last row."""
    zeros = np.flatnonzero(entries[-1] == 0.0)[-2:]
    assert zeros.size == 2
    return zeros


#: Shapes that span several ~1 MB blocks, none a whole number of blocks; a
#: tall "column" matrix is cut into row blocks like the other kinds.
MULTI_BLOCK = [
    ((3, 200_000), "column"),
    ((200_000, 3), "column"),
    ((600, 3_000), "row"),
    ((600, 600), "doubly"),
]


class TestBlockedValidation:
    """``StochasticMatrix`` reads its input once, in blocks, and matches the three-pass oracle."""

    @staticmethod
    def assert_like_oracle(entries, kind):
        """Same entries bit for bit, or the same error; the caller's array is untouched."""
        before = np.array(entries, dtype=float)
        try:
            expected = three_pass_stochastic(entries, kind)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as excinfo:
                StochasticMatrix(entries, kind)
            assert str(excinfo.value) == str(exc)
            expected = None
        else:
            got = StochasticMatrix(entries, kind).entries
            assert got.shape == expected.shape and not got.flags.writeable
            assert np.array_equal(got.view(np.int64), np.ascontiguousarray(expected).view(np.int64))
        if isinstance(entries, np.ndarray):
            assert entries.flags.writeable
            assert np.array_equal(entries.view(np.int64), before.view(np.int64))
        return expected

    @pytest.mark.parametrize("shape, kind", MULTI_BLOCK + [((7, 7), "doubly")])
    def test_valid_matrices(self, shape, kind):
        entries = _stochastic(np.random.default_rng(71), shape, kind)
        assert self.assert_like_oracle(entries, kind) is not None

    @pytest.mark.parametrize("shape, kind", MULTI_BLOCK + [((7, 7), "doubly")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_only_in_the_last_block(self, shape, kind, bad):
        entries = _stochastic(np.random.default_rng(72), shape, kind)
        entries[-1, -1] = bad
        assert self.assert_like_oracle(entries, kind) is None
        entries[0, 0] = -2e-14  # NaN outranks it, -inf is the smaller entry, +inf is not
        assert self.assert_like_oracle(entries, kind) is None

    @pytest.mark.parametrize("shape, kind", MULTI_BLOCK)
    def test_late_negatives(self, shape, kind):
        rng = np.random.default_rng(73)
        clamped = _stochastic(rng, shape, kind)
        tiny, negative_zero = _last_row_zeros(clamped)
        clamped[-1, tiny] = -5e-15
        clamped[-1, negative_zero] = -0.0
        got = self.assert_like_oracle(clamped, kind)
        assert got[-1, tiny] == 0.0 and math.copysign(1.0, got[-1, tiny]) == 1.0
        assert math.copysign(1.0, got[-1, negative_zero]) == -1.0
        rejected = _stochastic(rng, shape, kind)
        rejected[-1, _last_row_zeros(rejected)[0]] = -2e-14
        with pytest.raises(ValidationError, match="below clamping tolerance"):
            StochasticMatrix(rejected, kind)
        assert self.assert_like_oracle(rejected, kind) is None

    @pytest.mark.parametrize("shape, kind", MULTI_BLOCK)
    def test_late_sum_deviation(self, shape, kind):
        entries = _stochastic(np.random.default_rng(74), shape, kind)
        entries[-1, -1] += 3e-12
        with pytest.raises(ValidationError, match="sums deviate"):
            StochasticMatrix(entries, kind)
        assert self.assert_like_oracle(entries, kind) is None
        # rows that still sum to one: only the column sums deviate
        entries = _stochastic(np.random.default_rng(74), shape, kind)
        first, second = np.argsort(entries[-1])[-2:]
        entries[-1, first] += 3e-12
        entries[-1, second] -= 3e-12
        assert (self.assert_like_oracle(entries, kind) is None) == (kind != "row")

    @pytest.mark.parametrize("shape, kind", MULTI_BLOCK + [((7, 7), "doubly")])
    def test_largest_deviation_below_one_in_the_first_block(self, shape, kind):
        # the message names max |s - 1| over every block, here 1 - min s
        entries = _stochastic(np.random.default_rng(76), shape, kind)
        entries[0, entries[0].argmax()] -= 5e-12
        entries[-1, entries[-1].argmax()] += 3e-12
        with pytest.raises(ValidationError, match="sums deviate"):
            StochasticMatrix(entries, kind)
        assert self.assert_like_oracle(entries, kind) is None

    @pytest.mark.parametrize("shape, kind", MULTI_BLOCK)
    def test_fortran_ordered_and_strided_inputs(self, shape, kind):
        entries = _stochastic(np.random.default_rng(75), shape, kind)
        entries[-1, _last_row_zeros(entries)[0]] = -5e-15
        self.assert_like_oracle(np.asfortranarray(entries), kind)
        wide = np.zeros((shape[0], 2 * shape[1]))
        wide[:, ::2] = entries
        self.assert_like_oracle(wide[:, ::2], kind)
        self.assert_like_oracle(np.ascontiguousarray(entries.T).T, kind)

    def test_one_tall_column(self):
        # numpy sums a single column pairwise, so it stays one block
        entries = np.random.default_rng(76).uniform(0.0, 1.0, (1_000_000, 1))
        entries /= entries.sum()
        entries[-1, 0] += 5e-12
        assert self.assert_like_oracle(entries, "column") is None

    def test_list_input(self):
        rows = [[0.25, 0.75, 0.0], [0.75, 0.25, -0.0], [0.0, -1e-15, 1.0 + 1e-15]]
        for kind in ("row", "column", "doubly"):
            self.assert_like_oracle(rows, kind)


def test_array_dataclasses_compare_by_identity():
    """``==`` and ``hash`` on classes holding arrays go by identity, never raise."""
    pairs = [
        (DistributionPair([0.5, 0.5], [0.2, 0.8]), DistributionPair([0.5, 0.5], [0.2, 0.8])),
        (WeightedVector([1.0, 2.0], [0.5, 0.5]), WeightedVector([1.0, 2.0], [0.5, 0.5])),
        (StochasticMatrix(np.eye(2), "doubly"), StochasticMatrix(np.eye(2), "doubly")),
        (
            majorizes([3.0, 1.0], [2.0, 2.0], with_matrix=True),
            majorizes([3.0, 1.0], [2.0, 2.0], with_matrix=True),
        ),
    ]
    for first, second in pairs:
        assert first == first
        assert (first == second) is False
        assert first != second
        assert len({first, second}) == 2


class TestMajorizes:
    def test_simple_relations(self):
        assert majorizes([3.0, 2.0, 1.0], [2.0, 2.0, 2.0]).holds
        assert majorizes([1.0, 0.0], [0.5, 0.5]).holds
        assert not majorizes([2.0, 2.0, 2.0], [3.0, 2.0, 1.0]).holds

    def test_reflexive_and_permutation(self):
        assert majorizes([1.0, 4.0, 2.0], [1.0, 4.0, 2.0]).holds
        assert majorizes([1.0, 4.0, 2.0], [4.0, 2.0, 1.0]).holds

    def test_witness_prefix(self):
        cert = majorizes([2.0, 2.0, 2.0], [3.0, 2.0, 1.0])
        assert cert.relation == "fails"
        assert cert.witness_k == 1  # first prefix already violated

    def test_total_mismatch_reports_full_length(self):
        cert = majorizes([3.0, 1.0], [2.0, 1.0])
        assert cert.relation == "fails"
        assert cert.witness_k == 2

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_rejects_non_finite_or_negative_tol(self, tol):
        # every comparison with a NaN or infinite tol passes, so "holds" would be reported
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            majorizes([0.0, 0.0], [1.0, -1.0], tol)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            majorizes([0.0, 0.0], [1.0, -1.0], tol, with_matrix=True)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            majorizes([1.0, 2.0], [1.0])

    @pytest.mark.parametrize("build", [majorizes])
    @pytest.mark.parametrize("side", ["x", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, build, side, bad):
        pair = {"x": [1.0, 2.0], "y": [1.5, 1.5]}
        pair[side] = [bad, 0.0]
        for with_matrix in (False, True):
            with pytest.raises(ValidationError, match="finite"):
                build(pair["x"], pair["y"], with_matrix=with_matrix)

    @pytest.mark.parametrize("build", [majorizes])
    def test_rejects_overflowing_sums(self, build):
        # Both totals overflow to inf, and inf - inf is NaN, which once passed
        # the total check: the pair was called "holds" though its totals differ by 1e307.
        for with_matrix in (False, True):
            with pytest.raises(ValidationError, match="overflow"):
                build([1.7e308] * 2, [1.7e308, 1.6e308], with_matrix=with_matrix)
            with pytest.raises(ValidationError, match="overflow"):
                build([1.0, 1.0], [1.7e308, 1.7e308], with_matrix=with_matrix)

    @staticmethod
    def loop_witness_k(x, y, tol):
        """The prefix scan as a loop: first violated prefix, m on a total mismatch."""
        cx = np.cumsum(np.sort(np.asarray(x, dtype=float))[::-1])
        cy = np.cumsum(np.sort(np.asarray(y, dtype=float))[::-1])
        for k in range(cx.size - 1):
            if cy[k] > cx[k] + tol:
                return k + 1
        return cx.size if abs(cx[-1] - cy[-1]) > tol else None

    def test_witness_k_matches_a_prefix_loop(self):
        rng = np.random.default_rng(8)
        seen = set()
        for trial in range(600):
            size = int(rng.integers(1, 12))
            if trial % 3 == 0:  # unrelated vectors
                x, y = rng.uniform(-2.0, 2.0, size), rng.uniform(-2.0, 2.0, size)
            elif trial % 3 == 1:  # averages shifted off the total sum
                x = rng.uniform(-2.0, 2.0, size)
                y = random_doubly_stochastic(rng, size) @ x + rng.uniform(-1e-3, 1e-3)
            else:  # ties within and across the vectors
                x = rng.integers(0, 3, size).astype(float)
                y = rng.integers(0, 3, size).astype(float)
            expected = self.loop_witness_k(x, y, 1e-9)
            cert = majorizes(x, y)
            assert cert.witness_k == expected
            assert cert.holds == (expected is None)
            seen.add("none" if expected is None else "total" if expected == size else "prefix")
        assert seen == {"none", "total", "prefix"}

    def test_one_partial_sum_check_per_witness(self, monkeypatch):
        calls = []
        real = majorization.majorizes

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(majorization, "majorizes", counting)
        rng = np.random.default_rng(9)
        x = rng.uniform(0.0, 1.0, 40)
        y = random_doubly_stochastic(rng, 40) @ x
        assert majorization.majorizes(x, y, with_matrix=True).matrix is not None
        assert len(calls) == 1

    def test_averaging_is_majorized(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            size = int(rng.integers(2, 9))
            x = rng.uniform(-2.0, 2.0, size)
            y = random_doubly_stochastic(rng, size) @ x
            assert majorizes(x, y).holds

    def test_transitive_on_chained_averages(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            size = int(rng.integers(2, 7))
            x = rng.uniform(0.0, 5.0, size)
            y = random_doubly_stochastic(rng, size) @ x
            z = random_doubly_stochastic(rng, size) @ y
            assert majorizes(x, z).holds


class TestConstruction:
    def test_identity_for_equal_vectors(self):
        m = majorizes([1.0, 4.0, 2.0], [1.0, 4.0, 2.0], with_matrix=True).matrix
        assert np.array_equal(m.entries, np.eye(3))

    def test_uniform_average_of_two(self):
        m = majorizes([1.0, 0.0], [0.5, 0.5], with_matrix=True).matrix
        assert np.allclose(m.entries, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_classic_example(self):
        x = np.array([3.0, 2.0, 1.0])
        y = np.array([2.0, 2.0, 2.0])
        m = majorizes(x, y, with_matrix=True).matrix
        assert np.abs(m.entries @ x - y).max() <= 1e-10
        assert np.abs(m.entries.sum(axis=0) - 1.0).max() <= 1e-12
        assert np.abs(m.entries.sum(axis=1) - 1.0).max() <= 1e-12

    def test_random_instances_meet_residual_target(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            size = int(rng.integers(1, 9))
            x = rng.uniform(-3.0, 3.0, size)
            y = random_doubly_stochastic(rng, size) @ x
            m = majorizes(x, y, with_matrix=True).matrix
            assert np.abs(m.entries @ x - y).max() <= 1e-10
            assert np.abs(m.entries.sum(axis=0) - 1.0).max() <= 1e-12
            assert np.abs(m.entries.sum(axis=1) - 1.0).max() <= 1e-12

    def test_unsorted_inputs_keep_original_order(self):
        x = np.array([1.0, 3.0, 2.0])
        y = np.array([2.5, 1.5, 2.0])
        m = majorizes(x, y, with_matrix=True).matrix
        assert np.abs(m.entries @ x - y).max() <= 1e-10

    def test_rejects_non_majorized(self):
        cert = majorizes([2.0, 2.0], [3.0, 1.0], with_matrix=True)
        assert (cert.relation, cert.witness_k, cert.matrix) == ("fails", 1, None)

    def test_majorizes_attaches_matrix_on_request(self):
        cert = majorizes([3.0, 2.0, 1.0], [2.0, 2.0, 2.0], with_matrix=True)
        assert cert.matrix is not None
        assert cert.matrix.kind == "doubly"
        absent = majorizes([3.0, 2.0, 1.0], [2.0, 2.0, 2.0])
        assert absent.matrix is None
        assert absent.residual is None

    def test_residual_is_the_witness_residual(self):
        rng = np.random.default_rng(12)
        for m in (1, 2, 7, 40):
            x = rng.uniform(-3.0, 3.0, m)
            y = random_doubly_stochastic(rng, m) @ x
            cert = majorizes(x, y, with_matrix=True)
            expected = float(np.abs(y - cert.matrix.entries @ x).max())
            assert cert.residual == expected
            assert cert.residual <= 1e-10 * max(1.0, np.abs(x).max())


class TestWeightedMajorization:
    def test_single_cell(self):
        x = WeightedVector([1.5], [2.0])
        y = WeightedVector([1.5], [2.0])
        result = verify_weighted_majorization(x, y, StochasticMatrix([[1.0]], "row"))
        assert result.passed
        assert result.weight_residual == 0.0
        assert result.point_residual == 0.0

    def test_jensen_row(self):
        # one aggregated row: b=1, y = mean of x under a
        a = np.array([0.3, 0.7])
        x = np.array([0.0, 1.0])
        matrix = StochasticMatrix(a[None, :], "row")
        xv = WeightedVector(x, a)
        yv = WeightedVector([fsum_dot(a, x)], [1.0])
        assert verify_weighted_majorization(xv, yv, matrix).passed

    def test_generated_pairs_verify_tightly(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 9))
            matrix = StochasticMatrix(random_row_stochastic(rng, rows, cols), "row")
            x = rng.uniform(-1.0, 4.0, cols)
            b = rng.uniform(0.05, 3.0, rows)
            y, a = generate_weighted_pair(x, b, matrix)
            xv = WeightedVector(x, a)
            yv = WeightedVector(y, b)
            result = verify_weighted_majorization(xv, yv, matrix)
            assert result.passed
            assert result.weight_residual <= 1e-12 and result.point_residual <= 1e-12
            # independent residual recomputation by plain summation
            for j in range(cols):
                assert abs(a[j] - fsum_dot(b, matrix.entries[:, j])) <= 1e-12
            for i in range(rows):
                assert abs(y[i] - fsum_dot(matrix.entries[i], x)) <= 1e-12

    def test_identity_matrix_round_trip(self):
        x = np.array([0.3, 0.9, 0.1])
        b = np.array([1.0, 2.0, 0.5])
        eye = StochasticMatrix(np.eye(3), "row")
        y, a = generate_weighted_pair(x, b, eye)
        assert np.array_equal(y, x)
        assert np.array_equal(a, b)

    def test_doubly_stochastic_preserves_uniform_weights(self):
        rng = np.random.default_rng(9)
        d = StochasticMatrix(random_doubly_stochastic(rng, 5), "doubly")
        x = rng.uniform(0.0, 1.0, 5)
        y, a = generate_weighted_pair(x, np.ones(5), d)
        assert np.abs(a - 1.0).max() <= 1e-12
        assert majorizes(x, y).holds

    def test_failing_witness_detected(self):
        xv = WeightedVector([0.0, 1.0], [0.5, 0.5])
        yv = WeightedVector([0.9], [1.0])
        matrix = StochasticMatrix([[0.5, 0.5]], "row")
        result = verify_weighted_majorization(xv, yv, matrix)
        assert not result.passed
        assert result.point_residual > 0.3

    def test_dimension_checks(self):
        xv = WeightedVector([0.0, 1.0], [0.5, 0.5])
        yv = WeightedVector([0.5], [1.0])
        with pytest.raises(DimensionMismatch):
            verify_weighted_majorization(xv, yv, StochasticMatrix([[1.0]], "row"))
        column_only = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]], "column")
        with pytest.raises(ValidationError):
            verify_weighted_majorization(xv, xv, column_only)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        xs=st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=2, max_size=6),
        seed=st.integers(0, 2**16),
    )
    def test_average_with_witness_always_verifies(self, xs, seed):
        rng = np.random.default_rng(seed)
        size = len(xs)
        matrix = StochasticMatrix(random_row_stochastic(rng, size, size), "row")
        x = np.asarray(xs)
        b = rng.uniform(0.1, 1.0, size)
        y, a = generate_weighted_pair(x, b, matrix)
        result = verify_weighted_majorization(WeightedVector(x, a), WeightedVector(y, b), matrix)
        assert result.passed
        assert result.weight_residual <= 1e-10 and result.point_residual <= 1e-10

    def test_generate_rejects_column_kind(self):
        col = StochasticMatrix(np.ones((2, 1)) * 0.5, "column")
        with pytest.raises(ValidationError):
            generate_weighted_pair([1.0], [1.0, 1.0], col)
        with pytest.raises(ValidationError, match="nonnegative"):
            generate_weighted_pair([1.0, 2.0], [-1.0], StochasticMatrix([[0.5, 0.5]], "row"))
        with pytest.raises(DimensionMismatch):
            generate_weighted_pair(
                [1.0, 2.0, 3.0], [1.0], StochasticMatrix([[0.5, 0.5]], "row")
            )


def dense_t_transform_witness(x, y):
    """Transcription of the dense construction: one ``m x m`` product per T-step."""
    m = x.size
    ordx = np.argsort(-x, kind="stable")
    ordy = np.argsort(-y, kind="stable")
    v = x[ordx].copy()
    target = y[ordy]
    work = np.eye(m)
    eps = 1e-13 * max(1.0, float(np.abs(x).max()))
    for _ in range(m - 1):
        diff = v - target
        high = np.nonzero(diff > eps)[0]
        if high.size == 0:
            break
        j = int(high[0])
        low = np.nonzero(diff[j + 1 :] < -eps)[0]
        if low.size == 0:
            break
        k = j + 1 + int(low[0])
        lam = min(v[j] - target[j], target[k] - v[k]) / (v[j] - v[k])
        step = np.eye(m)
        step[j, j] = step[k, k] = 1.0 - lam
        step[j, k] = step[k, j] = lam
        work = step @ work
        v = step @ v
    return np.eye(m)[ordy].T @ work @ np.eye(m)[ordx]


def check_against_dense(x, y, scale=1.0):
    """The witness is doubly stochastic, meets its residual bound and equals the dense loop's.

    ``scale`` multiplies the majorization tolerance and the residual bound.
    """
    m = majorizes(x, y, scale * majorization.DEFAULT_TOL, with_matrix=True).matrix.entries
    assert np.abs(m @ x - y).max() <= 1e-10 * scale
    assert np.abs(m.sum(axis=0) - 1.0).max() <= 1e-12
    assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-12
    assert m.min() >= 0.0
    assert np.abs(m - dense_t_transform_witness(x, y)).max() <= 1e-12


class TestConstructionAtScale:
    """The witness at the size the bulk workload uses, against the dense loop."""

    check = staticmethod(check_against_dense)

    def test_random_pair_m250(self):
        rng = np.random.default_rng(250)
        x = rng.uniform(0.0, 1.0, 250)
        self.check(x, random_doubly_stochastic(rng, 250) @ x)

    def test_random_pair_m250_at_scale_1e12(self):
        # The residual bound scales with max|x|, as the loop's eps does.
        rng = np.random.default_rng(250)
        x = rng.uniform(0.0, 1.0, 250)
        y = random_doubly_stochastic(rng, 250) @ x
        self.check(1e12 * x, 1e12 * y, scale=1e12)

    def test_unsorted_tied_pair_m250(self):
        rng = np.random.default_rng(251)
        x = rng.integers(0, 6, 250).astype(float)  # many ties in x
        # y averages x over blocks of five, so y is tied inside each block
        blocks = np.kron(np.eye(50), np.full((5, 5), 0.2))
        perm = rng.permutation(250)
        y = (blocks @ x[perm])[rng.permutation(250)]
        self.check(x, y)

    def test_unsorted_tied_small(self):
        x = np.array([2.0, 5.0, 2.0, 0.0, 5.0, 1.0])
        y = np.array([3.0, 2.0, 3.0, 2.0, 2.5, 2.5])
        self.check(x, y)


class TestWitnessPointers:
    """Each way the donor and receiver pointers advance, against the dense loop."""

    @pytest.mark.parametrize(
        "x, y",
        [
            pytest.param([5.0], [5.0], id="m1"),
            pytest.param([1.0, 0.0], [0.5, 0.5], id="m2"),
            pytest.param([1.0, 2.0], [2.0, 1.0], id="m2-permutation"),
            pytest.param([3.0, 1.0], [2.0, 2.0], id="both-matched-in-one-step"),
            # surplus 1 < deficit 2: the donor is matched, the receiver is not
            pytest.param([3.0, 3.0, 0.0], [2.0, 2.0, 2.0], id="donor-matched-first"),
            # surplus 2 > deficit 1: the receiver is matched, the donor is not
            pytest.param([4.0, 1.0, 1.0], [2.0, 2.0, 2.0], id="receiver-matched-first"),
            # the middle differences are within eps and count as matched
            pytest.param(
                [3.0, 2.0 + 1e-14, 2.0, 2.0 - 1e-14, 1.0], [2.0] * 5, id="ties-within-eps"
            ),
            pytest.param(
                [1.0, 2.0 + 1e-14, 3.0, 2.0, 2.0 - 1e-14, 2.0, 2.0],
                [2.0 - 1e-14, 2.0, 2.0 + 1e-14, 2.0, 2.0, 2.0, 2.0],
                id="unsorted-ties-within-eps",
            ),
        ],
    )
    def test_matches_dense_loop(self, x, y):
        check_against_dense(np.array(x), np.array(y))

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        values=st.lists(st.integers(0, 4), min_size=1, max_size=40),
        scale=st.sampled_from([1e-6, 1.0, 1e6, 1e12]),
        seed=st.integers(0, 2**16),
    )
    def test_duplicated_entries_match_dense_loop(self, values, scale, seed):
        # integer entries repeat in x; averaging pairs makes y repeat too
        rng = np.random.default_rng(seed)
        size = len(values)
        half = size // 2
        x = scale * np.asarray(values, dtype=float)
        pairs = np.eye(size)
        pairs[: 2 * half, : 2 * half] = np.kron(np.eye(half), np.full((2, 2), 0.5))
        y = (pairs @ random_doubly_stochastic(rng, size) @ x)[rng.permutation(size)]
        check_against_dense(x, y, scale=max(1.0, float(np.abs(x).max())))


class TestCarriedRow:
    """The carried row of the witness: chain breaks, no steps and rescaling.

    ``m = 1`` is the ``m1`` case of :class:`TestWitnessPointers`.
    """

    def test_step_that_matches_both_breaks_the_chain(self):
        # Sorted, x - y = [2, -1, -1, 1, 1, -2]: the second step empties the
        # donor and fills the receiver at once, so a new chain starts at the
        # fourth coordinate, and its last step matches both again.
        x = np.array([20.0, 16.0, 12.0, 8.0, 4.0, 0.0])
        y = np.array([18.0, 17.0, 13.0, 7.0, 3.0, 2.0])
        perm_x, perm_y = [3, 0, 5, 1, 4, 2], [2, 5, 0, 4, 1, 3]
        check_against_dense(x[perm_x], y[perm_y])
        # two blocks with nothing carried between them
        m = majorizes(x, y, with_matrix=True).matrix.entries
        assert not m[:3, 3:].any() and not m[3:, :3].any()

    def test_permutation_with_ties_is_exact(self):
        x = np.array([3.0, 1.0, 3.0, 2.0, 1.0, 3.0, 0.0])
        y = x[[4, 0, 6, 2, 1, 3, 5]]
        check_against_dense(x, y)
        m = majorizes(x, y, with_matrix=True).matrix.entries
        assert np.isin(m, (0.0, 1.0)).all()
        assert np.array_equal(m.sum(axis=0), np.ones(7))
        assert np.array_equal(m.sum(axis=1), np.ones(7))
        assert np.array_equal(m @ x, y)

    def test_long_chain_of_tiny_steps_rescales(self):
        # Donors near 1, receivers near -0.6, surpluses of t and 2t: every step
        # matches the row carried into it, so the carried scalar is multiplied
        # by lam = t / (v_j - v_k) <= 4e-13 / 1.3 at each of the 39 steps.
        # Without rescaling it would underflow to zero after about 26.
        n, t = 20, 4e-13
        donors = 1.0 - 0.01 * np.arange(n)
        receivers = -0.5 - 0.01 * np.arange(n)
        x = np.concatenate([donors, receivers])
        d = np.concatenate([[t], np.full(n - 1, 2 * t), np.full(n - 1, -2 * t), [-t]])
        y = x - d
        perm = np.random.default_rng(40).permutation(2 * n)
        check_against_dense(x[perm], y[perm[::-1]])
