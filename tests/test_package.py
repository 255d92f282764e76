"""The package's public surface: ``__all__`` and the names it no longer has."""

import sherman_bounds
from sherman_bounds import bounds, divergence, errors, fink

#: Public helpers that no library, CLI or benchmark path called, the two
#: error types only they raised, and the second names of full_chain's strong
#: link and of the converse at total weight one.
RETIRED = {
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
