"""Random-number-generator plumbing.

Every stochastic component in the library (synthetic traces, SHP/K-means
initialisation, serving arrivals, fault schedules) must be reproducible from
an explicit seed, and composable pipelines must be able to hand one shared
:class:`numpy.random.Generator` through the stack instead of sprinkling
integer seeds.  :func:`ensure_rng` is the single conversion point: it accepts
``None`` (fresh OS entropy), an integer seed, or an existing ``Generator``
(returned unchanged), so any ``seed``/``rng`` parameter can take either form.

The library contains no hidden global randomness: nothing calls the legacy
``np.random.*`` module-level functions (``tests/test_utils_validation.py``
pins this with a source audit), so two runs with the same seeds are
bit-identical regardless of what other code does to the global state.
"""

from __future__ import annotations

from typing import Union

import numpy as np

#: Anything :func:`ensure_rng` accepts.
SeedLike = Union[None, int, np.random.Generator]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    An existing ``Generator`` is returned unchanged (the caller shares the
    stream); an integer seeds a fresh generator; ``None`` draws OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
