"""Output checks that share no code path with the library.

Every sum is a ``math.fsum`` over explicitly formed terms, functions and
moduli are written out from their closed forms, and the identity integral
uses fixed Gauss-Legendre panels instead of adaptive quadrature.  Each
check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

#: Reported values may differ from the exact-sum transcription by this
#: share of the magnitude of the terms that make them up.
REL_TOL = 1e-9

#: Doubly stochastic witnesses must reproduce y to this max-norm residual.
WITNESS_RESIDUAL = 1e-10

#: Row and column sums of a witness may deviate from one by this much.
MATRIX_SUM_TOL = 1e-12

#: Identity residuals are accepted up to this multiple of the quad budget.
RESIDUAL_FACTOR = 10.0

#: Default absolute quadrature budget of the library's identity.
QUAD_TOL = 1e-9

#: Closed forms of the catalog functions and divergence generators, each
#: with ``c(lo, hi)``: the exact order-2 modulus ``min f''/2`` on [lo, hi].
FUNCTIONS = {
    "square": (lambda t: t * t, lambda lo, hi: 1.0),
    "exp": (np.exp, lambda lo, hi: math.exp(lo) / 2.0),
    "xlogx": (lambda t: t * np.log(t), lambda lo, hi: 1.0 / (2.0 * hi)),
    "neg_log": (lambda t: -np.log(t), lambda lo, hi: 1.0 / (2.0 * hi * hi)),
    "pow:3": (lambda t: t**3, lambda lo, hi: 3.0 * lo),
    "kl": (lambda t: t * np.log(t), lambda lo, hi: 1.0 / (2.0 * hi)),
    "hellinger": (lambda t: 0.5 * (np.sqrt(t) - 1.0) ** 2, lambda lo, hi: 1.0 / (8.0 * hi**1.5)),
    "triangular": (lambda t: (t - 1.0) ** 2 / (1.0 + t), lambda lo, hi: 4.0 / (1.0 + hi) ** 3),
    "chi_square": (lambda t: (t - 1.0) ** 2, lambda lo, hi: 1.0),
    "bhattacharya": (lambda t: -np.sqrt(t), lambda lo, hi: 1.0 / (8.0 * hi**1.5)),
    "renyi:2": (lambda t: t * t, lambda lo, hi: 1.0),
}


def fsum(values) -> float:
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())


def evaluate(name: str, t) -> np.ndarray:
    return np.asarray(FUNCTIONS[name][0](np.asarray(t, dtype=float)), dtype=float)


def modulus(name: str, lo: float, hi: float) -> float:
    return FUNCTIONS[name][1](lo, hi)


def mismatch(label: str, reported: float, expected: float, scale: float) -> list[str]:
    if abs(reported - expected) <= REL_TOL * (1.0 + scale):
        return []
    return [f"{label}: reported {reported!r}, oracle {expected!r}"]


def check_exact_modulus(label: str, reported: float, exact: float) -> list[str]:
    """A certified modulus may round down but never exceed the exact one."""
    if exact * (1.0 - REL_TOL) <= reported <= exact * (1.0 + 1e-12):
        return []
    return [f"{label} modulus: reported {reported!r}, exact {exact!r}"]


def check_modulus(name: str, reported: float, lo: float, hi: float) -> list[str]:
    return check_exact_modulus(f"{name} on [{lo}, {hi}]", reported, modulus(name, lo, hi))


def chain_links(name, x, a, y, b, lo, hi, c) -> tuple[dict, float]:
    """fsum transcription of every link of the chain, and its scale."""
    x, a, y, b = (np.asarray(v, dtype=float) for v in (x, a, y, b))
    fx, fy = evaluate(name, x), evaluate(name, y)
    flo, fhi = evaluate(name, lo), evaluate(name, hi)
    lhs = fsum(b * fy)
    plain = fsum(a * fx)
    quad_x, quad_y = fsum(a * x * x), fsum(b * y * y)
    total, sax = fsum(b), fsum(a * x)
    spread = fsum(a * (hi - x) * (x - lo))
    links = {
        "lhs": lhs,
        "correction_quadratic": c * (quad_x - quad_y),
        "strong": plain - c * (quad_x - quad_y),
        "plain": plain,
        "converse": ((total * hi - sax) * flo + (sax - total * lo) * fhi) / (hi - lo) - c * spread,
    }
    scale = (fsum(np.abs(b * fy)) + fsum(np.abs(a * fx)) + c * (quad_x + quad_y + abs(spread))
             + abs(total) * (abs(flo) + abs(fhi)) * (abs(hi) + abs(lo)) / (hi - lo))
    return links, scale


def check_order(values: list[float], slack: float) -> list[str]:
    """``values`` must be nondecreasing within ``slack``."""
    return [
        f"chain order broken: {lo!r} > {hi!r} + {slack}"
        for lo, hi in zip(values, values[1:]) if lo > hi + slack
    ]


def check_chain(chain, name, x, a, y, b, lo, hi, slack) -> list[str]:
    """Check a ``BoundChain`` (or its report dict) against the fsum oracle."""
    get = chain.get if isinstance(chain, dict) else lambda key: getattr(chain, key)
    problems = check_modulus(name, get("modulus"), lo, hi)
    links, scale = chain_links(name, x, a, y, b, lo, hi, get("modulus"))
    for label, key in (("lhs", "lhs"), ("strong", "strong_bound"),
                       ("plain", "plain_bound"), ("converse", "converse_bound")):
        problems += mismatch(f"chain {label}", get(key), links[label], scale)
    order = [get("lhs"), get("strong_bound"), get("plain_bound"), get("converse_bound")]
    problems += check_order(order, slack)
    if not get("chain_holds"):
        problems.append("chain_holds is false on a verified instance")
    return problems


def check_sandwich(sandwich, name, p, q, rows, lo, hi, slack) -> list[str]:
    """Check a divergence sandwich; ``rows`` is the aggregation matrix R."""
    get = sandwich.get if isinstance(sandwich, dict) else lambda key: getattr(sandwich, key)
    p, q, rows = (np.asarray(v, dtype=float) for v in (p, q, rows))
    ratios = q / p
    weights = rows @ p
    merged = (rows @ q) / weights
    problems = check_modulus(name, get("modulus"), lo, hi)
    links, scale = chain_links(name, ratios, p, merged, weights, lo, hi, get("modulus"))
    problems += mismatch("divergence value", get("value"), fsum(p * evaluate(name, ratios)), scale)
    problems += mismatch("lower_ck", get("lower_ck"), links["lhs"], scale)
    problems += mismatch("lower_strong", get("lower_strong"),
                          links["lhs"] + links["correction_quadratic"], scale)
    problems += mismatch("upper_converse", get("upper_converse"), links["converse"], scale)
    order = [get("lower_ck"), get("lower_strong"), get("value"), get("upper_converse")]
    problems += check_order(order, slack)
    if not get("holds"):
        problems.append("sandwich holds is false on valid input")
    return problems


def check_divergence(value: float, name: str, p, q) -> list[str]:
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    terms = p * evaluate(name, q / p)
    return mismatch(f"{name} divergence", value, fsum(terms), fsum(np.abs(terms)))


def check_witness(matrix, x, y) -> list[str]:
    """A doubly stochastic ``A`` with ``max |y - A x| <= 1e-10``."""
    entries = np.asarray(matrix, dtype=float)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    problems = []
    if entries.shape != (y.size, x.size):
        return [f"witness shape {entries.shape} for sizes {y.size}, {x.size}"]
    if entries.min() < 0.0:
        problems.append(f"witness entry {entries.min()!r} is negative")
    sums = [math.fsum(row) for row in entries.tolist()] + [math.fsum(col) for col in entries.T.tolist()]
    worst = max(abs(s - 1.0) for s in sums)
    if worst > MATRIX_SUM_TOL:
        problems.append(f"witness row/column sum off by {worst!r}")
    residual = max(abs(yi - math.fsum((row * x).tolist())) for yi, row in zip(y.tolist(), entries))
    if residual > WITNESS_RESIDUAL:
        problems.append(f"witness residual {residual!r} exceeds {WITNESS_RESIDUAL}")
    return problems


def shifted_exp_derivative(order: int, n: int, c: float):
    """Derivative of order ``order <= n`` of ``g(t) = exp(t) - c t^n``."""
    coeff = c * math.factorial(n) / math.factorial(n - order)
    return lambda t: np.exp(t) - coeff * np.asarray(t, dtype=float) ** (n - order)


def check_exp_identity(label, lhs, boundary, x, a, y, b, lo, hi, n, c=0.0) -> list[str]:
    """Check the two sides of the order-n identity for ``g(t) = exp(t) - c t^n``.

    ``lhs`` must be ``S_a g(x) - S_b g(y)`` and ``boundary`` the endpoint sum
    ``sum_{w=2}^{n-1} (n-w)/w! [g^(w-1)(hi) S_w(hi) - g^(w-1)(lo) S_w(lo)] / (hi-lo)``
    with ``S_w(z) = S_a (x-z)^w - S_b (y-z)^w``.
    """
    g = shifted_exp_derivative(0, n, c)
    terms = np.concatenate([a * g(x), -b * g(y)])
    problems = mismatch(f"{label} lhs", lhs, fsum(terms), fsum(np.abs(terms)))
    total = []
    for w in range(2, n):
        dw = shifted_exp_derivative(w - 1, n, c)
        for z, sign in ((hi, 1.0), (lo, -1.0)):
            coeff = sign * (n - w) / math.factorial(w) * float(dw(z)) / (hi - lo)
            total.extend((coeff * a * (x - z) ** w).tolist())
            total.extend((-coeff * b * (y - z) ** w).tolist())
    return problems + mismatch(f"{label} boundary", boundary, math.fsum(total),
                               math.fsum(abs(v) for v in total))


def exp_identity_integral(x, a, y, b, lo, hi, n, nodes: int = 20) -> float:
    """``int W(t) exp(t) dt / ((n-1)! (hi-lo))`` by Gauss-Legendre panels.

    ``W(t) = S_a (x-t)^(n-1) k(t,x) - S_b (y-t)^(n-1) k(t,y)`` is a
    polynomial between consecutive data points, so panels end there.
    """
    cuts = np.unique(np.concatenate([[lo, hi], x, y]))
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    mid = 0.5 * (cuts[1:] + cuts[:-1])
    half = 0.5 * (cuts[1:] - cuts[:-1])
    t = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()

    def side(points, mass):
        branch = np.where(t[:, None] <= points[None, :], t[:, None] - lo, t[:, None] - hi)
        return ((points[None, :] - t[:, None]) ** (n - 1) * branch) @ mass

    kernel = side(x, a) - side(y, b)
    terms = weights * kernel * np.exp(t)
    return fsum(terms) / (math.factorial(n - 1) * (hi - lo))
