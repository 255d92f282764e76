"""The package's public surface: ``__all__``, the names it no longer has, and the README tour."""

import re
from pathlib import Path

import sherman_bounds
from sherman_bounds import bounds, convexity, divergence, errors, fink

#: Public helpers that no library, CLI or benchmark path called, the two
#: error types only they raised, the second names of full_chain's strong
#: link and of the converse at total weight one, the shifted spec whose
#: shift the higher-order bound now applies inside its terms, and the
#: derivative self-test and kernel list that only tests used (now oracles
#: in tests/helpers.py).
RETIRED = {
    convexity: (
        "shift_to_convex", "check_derivative_consistency", "CONSISTENCY_GRID", "CONSISTENCY_REL_TOL",
    ),
    bounds: ("sherman_strong", "ShermanBound", "lah_ribaric_strong", "LahRibaricBound"),
    fink: ("fink_identity_check", "fink_kernel"),
    divergence: ("shannon_entropy", "kl_divergence", "_require_probability", "catalog"),
    errors: ("OutOfInterval", "NotAProbabilityVector"),
}

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_surface():
    names = sherman_bounds.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(sherman_bounds, name)  # AttributeError if it does not resolve
    for module, retired in RETIRED.items():
        for name in retired:
            assert not hasattr(sherman_bounds, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    # a kernel's modulus is read from its certificate
    assert not hasattr(divergence.DivergenceKernel, "modulus")


def test_readme_names_no_retired_name():
    # every identifier in a code span (text between backticks, fenced blocks included)
    retired = {name for names in RETIRED.values() for name in names}
    text = README.read_text(encoding="utf-8")
    named = {word for span in re.findall(r"`+([^`]+)`+", text)
             for word in re.findall(r"[A-Za-z_]\w*", span)}
    stale = sorted(named & retired)
    assert not stale, stale


def test_readme_tour_runs():
    # a retired name left in a README example fails here
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
