"""Acceptance gate: ten criteria, one printed verdict line each.

Each test prints ``[PASS]``/``[FAIL] criterion N: ...`` to the real
stdout (bypassing capture) and then asserts, so a full run always shows
the ten verdict lines.
"""

import math
import sys
import time

import numpy as np

from sherman_bounds import (
    DistributionPair,
    check_kernel_condition,
    csiszar_divergence,
    divided_difference,
    divergence_bounds,
    full_chain,
    function_from_name,
    get_kernel,
    higher_order_sherman_bound,
    majorizes,
    sherman_difference_identity,
)
from helpers import (
    entropy_via_kl,
    fsum_dot,
    random_chain_instance,
    random_doubly_stochastic,
    random_probability,
)

CHAIN_KERNELS = [
    ("square", (0.0, 1.0)),
    ("pow:4", (0.5, 1.0)),
    ("exp", (0.0, 1.0)),
    ("xlogx", (0.1, 3.0)),
]


def report(ok: bool, number: int, text: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {number}: {text}", file=sys.__stdout__, flush=True)


def chain_slack(chain) -> float:
    return min(
        chain.strong_bound - chain.lhs,
        chain.plain_bound - chain.strong_bound,
        chain.converse_bound - chain.plain_bound,
    )


def test_criterion_1_chain_property():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = math.inf
    for name, interval in CHAIN_KERNELS:
        spec = function_from_name(name, interval)
        for _ in range(1000):
            x, y, witness = random_chain_instance(rng, interval, max_rows=8, max_cols=8)
            chain = full_chain(x, y, witness, spec)
            worst = min(worst, chain_slack(chain))
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-9 and elapsed < 10.0
    report(ok, 1, f"4x1000 chains, worst slack {worst:.3e}, {elapsed:.2f}s")
    assert worst >= -1e-9
    assert elapsed < 10.0


def test_criterion_2_quadratic_equality():
    rng = np.random.default_rng(102)
    spec = function_from_name("square", (0.0, 1.0))
    worst = 0.0
    for _ in range(1000):
        x, y, witness = random_chain_instance(rng, (0.0, 1.0), max_rows=8, max_cols=8)
        bound = full_chain(x, y, witness, spec, 1.0)
        worst = max(worst, abs(bound.lhs - bound.strong_bound))
    ok = worst <= 1e-12
    report(ok, 2, f"f=t^2, c=1: max |lhs - strong_bound| = {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_3_classical_reduction():
    rng = np.random.default_rng(103)
    worst = 0.0
    for name, interval in (("exp", (0.0, 1.0)), ("xlogx", (0.1, 3.0))):
        spec = function_from_name(name, interval)
        f = spec.evaluator
        lo, hi = interval
        for _ in range(250):
            x, y, witness = random_chain_instance(rng, interval, max_rows=8, max_cols=8)
            chain = full_chain(x, y, witness, spec, 0.0)
            assert chain.strong_bound == chain.plain_bound
            lhs = fsum_dot(y.weights, [f(t) for t in y.points])
            plain = fsum_dot(x.weights, [f(t) for t in x.points])
            total = math.fsum(y.weights)
            sax = fsum_dot(x.weights, x.points)
            converse = ((total * hi - sax) * f(lo) + (sax - total * lo) * f(hi)) / (hi - lo)
            worst = max(
                worst,
                abs(chain.lhs - lhs),
                abs(chain.plain_bound - plain),
                abs(chain.converse_bound - converse),
            )
    ok = worst <= 1e-12
    report(ok, 3, f"c=0 vs direct summation: max deviation {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_4_fink_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    spec = function_from_name("exp", (0.0, 1.0))
    worst = 0.0
    for n in (1, 2, 3, 4):
        for _ in range(50):
            x, y, _ = random_chain_instance(rng, (0.0, 1.0))
            worst = max(worst, abs(sherman_difference_identity(x, y, spec, n).residual))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and elapsed < 5.0
    report(ok, 4, f"n in 1..4, 50 pairs each: max |residual| = {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-7
    assert elapsed < 5.0


def test_criterion_5_difference_identity():
    rng = np.random.default_rng(105)
    exp_spec = function_from_name("exp", (0.0, 1.0))
    worst_exp = 0.0
    for _ in range(100):
        x, y, _ = random_chain_instance(rng, (0.0, 1.0), max_rows=8, max_cols=8)
        rep = sherman_difference_identity(x, y, exp_spec, 3)
        worst_exp = max(worst_exp, abs(rep.residual))
    square = function_from_name("square", (0.0, 1.0))
    worst_poly = 0.0
    for _ in range(100):
        x, y, _ = random_chain_instance(rng, (0.0, 1.0), max_rows=8, max_cols=8)
        rep = sherman_difference_identity(x, y, square, 3)
        worst_poly = max(worst_poly, abs(rep.residual))
    ok = worst_exp <= 1e-7 and worst_poly <= 1e-10
    report(
        ok, 5,
        f"n=3 residuals: exp max {worst_exp:.3e}, degree<n max {worst_poly:.3e}",
    )
    assert worst_exp <= 1e-7
    assert worst_poly <= 1e-10


def test_criterion_6_even_order_kernel():
    rng = np.random.default_rng(106)
    labels = set()
    for _ in range(100):
        x, y, _ = random_chain_instance(rng, (0.0, 1.0), max_rows=8, max_cols=8)
        for n in (2, 4):
            cond = check_kernel_condition(x, y, n, interval=(0.0, 1.0))
            labels.add(cond.classification)
    spec = function_from_name("exp", (0.0, 1.0))
    worst = 0.0
    for _ in range(50):
        x, y, witness = random_chain_instance(rng, (0.0, 1.0), max_rows=8, max_cols=8)
        higher = higher_order_sherman_bound(x, y, spec, 2, 0.5)
        classic = full_chain(x, y, witness, spec, 0.5)
        gap = classic.strong_bound - classic.lhs
        worst = max(worst, abs(higher.lhs_with_correction - gap))
        assert higher.holds
    ok = labels == {"nonnegative"} and worst <= 1e-10
    report(
        ok, 6,
        f"n in {{2,4}} all nonnegative: {labels == {'nonnegative'}}; "
        f"n=2 vs quadratic correction max {worst:.3e}",
    )
    assert labels == {"nonnegative"}
    assert worst <= 1e-10


def test_criterion_7_majorization_construction():
    rng = np.random.default_rng(107)
    worst_sum = 0.0
    worst_residual = 0.0
    for _ in range(500):
        m = int(rng.integers(2, 9))
        x = rng.uniform(0.0, 1.0, m)
        d = random_doubly_stochastic(rng, m)
        y = d @ x
        matrix = majorizes(x, y, with_matrix=True).matrix
        entries = matrix.entries
        worst_sum = max(
            worst_sum,
            float(np.abs(entries.sum(axis=0) - 1.0).max()),
            float(np.abs(entries.sum(axis=1) - 1.0).max()),
        )
        worst_residual = max(worst_residual, float(np.abs(y - entries @ x).max()))
    ok = worst_sum <= 1e-12 and worst_residual <= 1e-10
    report(
        ok, 7,
        f"500 constructions: max sum deviation {worst_sum:.3e}, "
        f"max recovery residual {worst_residual:.3e}",
    )
    assert worst_sum <= 1e-12
    assert worst_residual <= 1e-10


def test_criterion_8_divergence_sandwich():
    rng = np.random.default_rng(108)
    kernels = [get_kernel(name) for name in ("kl", "chi_square", "renyi:2", "triangular")]
    worst_slack = math.inf
    worst_chi = 0.0
    for _ in range(500):
        size = int(rng.integers(2, 11))
        raw = rng.uniform(0.1, 1.0, size)
        p = raw / raw.sum()
        q = p * rng.uniform(0.5, 2.0, size)
        q = q / q.sum()
        pair = DistributionPair(p, q)
        for kernel in kernels:
            s = divergence_bounds(pair, kernel)
            worst_slack = min(
                worst_slack,
                s.lower_strong - s.lower_ck,
                s.value - s.lower_strong,
                s.upper_converse - s.value,
            )
            if kernel.name == "chi_square":
                worst_chi = max(worst_chi, abs(s.value - s.lower_strong))
    ok = worst_slack >= -1e-9 and worst_chi <= 1e-12
    report(
        ok, 8,
        f"500x4 sandwiches: worst slack {worst_slack:.3e}, "
        f"chi-square gap max {worst_chi:.3e}",
    )
    assert worst_slack >= -1e-9
    assert worst_chi <= 1e-12


def test_criterion_9_entropy_bounds():
    # H(p) = log n - KL(p || u) for the uniform u; every ratio below lies in
    # [0.05/16, 320], inside the kernel's interval
    kernel = get_kernel("kl", (1e-3, 1e3))
    worst_uniform = 0.0
    for n in range(2, 65):
        h = entropy_via_kl(np.full(n, 1.0 / n), kernel)
        worst_uniform = max(worst_uniform, abs(h - math.log(n)))
    rng = np.random.default_rng(109)
    range_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        h = entropy_via_kl(random_probability(rng, n), kernel)
        if not (0.0 <= h <= math.log(n) + 1e-12):
            range_ok = False
    worst_kl = math.inf
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        pair = DistributionPair(random_probability(rng, n), random_probability(rng, n))
        worst_kl = min(worst_kl, csiszar_divergence(pair, kernel))
    ok = worst_uniform <= 1e-12 and range_ok and worst_kl >= -1e-12
    report(
        ok, 9,
        f"uniform gap max {worst_uniform:.3e}; range ok {range_ok}; "
        f"KL min {worst_kl:.3e}",
    )
    assert worst_uniform <= 1e-12
    assert range_ok
    assert worst_kl >= -1e-12


def test_criterion_10_divided_differences():
    rng = np.random.default_rng(110)
    spec = function_from_name("exp", (0.0, 1.0))
    worst_perm = 0.0
    for _ in range(1000):
        size = int(rng.integers(2, 7))
        pts = rng.uniform(0.0, 1.0, size)
        base = divided_difference(pts, spec)
        shuffled = divided_difference(rng.permutation(pts), spec)
        worst_perm = max(worst_perm, abs(base - shuffled) / max(1.0, abs(base)))
    # confluent values against symmetric distinct stencils at h = 1e-4;
    # orders 1-2 keep the stencil's own rounding noise (~eps/h^order)
    # far below the tolerance
    h = 1e-4
    worst_conf = 0.0
    for z in rng.uniform(0.05, 0.95, 100):
        z = float(z)
        pairs = [
            ([z, z], [z - h / 2, z + h / 2]),
            ([z, z, z], [z - h, z, z + h]),
        ]
        for coincident, distinct in pairs:
            gap = abs(divided_difference(coincident, spec) - divided_difference(distinct, spec))
            worst_conf = max(worst_conf, gap)
    ok = worst_perm <= 1e-12 and worst_conf <= 1e-4
    report(
        ok, 10,
        f"permutation rel. dev. max {worst_perm:.3e}; "
        f"confluent vs h=1e-4 stencil max {worst_conf:.3e}",
    )
    assert worst_perm <= 1e-12
    assert worst_conf <= 1e-4
