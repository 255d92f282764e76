"""The package's public surface: ``__all__``, the names it no longer has, and the README tour."""

import re
from pathlib import Path

import sherman_bounds
from sherman_bounds import bounds, convexity, divergence, errors, fink

#: Public helpers that no library, CLI or benchmark path called, the two
#: error types only they raised, the second names of full_chain's strong
#: link and of the converse at total weight one, and the shifted spec whose
#: shift the higher-order bound now applies inside its terms.
RETIRED = {
    convexity: ("shift_to_convex",),
    bounds: ("sherman_strong", "ShermanBound", "lah_ribaric_strong", "LahRibaricBound"),
    fink: ("fink_identity_check", "fink_kernel"),
    divergence: ("shannon_entropy", "kl_divergence", "_require_probability"),
    errors: ("OutOfInterval", "NotAProbabilityVector"),
}


def test_public_surface():
    names = sherman_bounds.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(sherman_bounds, name)  # AttributeError if it does not resolve
    for module, retired in RETIRED.items():
        for name in retired:
            assert not hasattr(sherman_bounds, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_readme_tour_runs():
    # a retired name left in a README example fails here
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})
