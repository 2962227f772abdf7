"""Argument-validation helpers used across the library.

These raise ``ValueError``/``TypeError`` with consistent messages so that the
public API fails loudly and early on bad configuration instead of producing
silently wrong simulation results.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np


def check_positive(value: float, name: str) -> float:
    """Return ``value`` if it is strictly positive, else raise ``ValueError``."""
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Return ``value`` if it is >= 0, else raise ``ValueError``."""
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative finite number, got {value!r}")
    return value


def check_in_range(value: float, low: float, high: float, name: str) -> float:
    """Return ``value`` if ``low <= value <= high``, else raise ``ValueError``."""
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value


def check_fraction(value: float, name: str) -> float:
    """Return ``value`` if it lies in ``[0, 1]``, else raise ``ValueError``."""
    return check_in_range(value, 0.0, 1.0, name)


def check_probability(value: float, name: str) -> float:
    """Return ``value`` if it is a valid probability, else raise ``ValueError``.

    Alias of :func:`check_fraction` with a message that says "probability",
    for knobs that are genuinely chances (e.g. per-attempt link loss) rather
    than ratios.
    """
    if not np.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
    return value


def check_int_at_least(value: Any, minimum: int, name: str) -> int:
    """Return ``value`` as an ``int`` if it is an integer >= ``minimum``.

    Rejects booleans and non-integral floats: cache sizes, batch sizes and
    replica counts are exact quantities, and silently truncating ``2.5``
    replicas would hide a configuration bug.  The error message names the knob
    and the constraint so a bad config fails at construction, not as an
    obscure downstream crash.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(
            f"{name} must be an integer >= {minimum}, got {value!r} "
            f"of type {type(value).__name__}"
        )
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def check_bool(value: Any, name: str) -> bool:
    """Return ``value`` if it is an actual ``bool``, else raise ``TypeError``.

    Feature flags must be real booleans: truthy stand-ins (``1``, ``"no"``)
    read as configuration typos — ``tune_thresholds="no"`` would silently
    *enable* tuning.
    """
    if not isinstance(value, bool):
        raise TypeError(
            f"{name} must be a bool, got {value!r} of type {type(value).__name__}"
        )
    return value


def check_seed(value: Any, name: str) -> Optional[int]:
    """Return ``value`` if it is a valid RNG seed (``None`` or an int >= 0).

    ``numpy.random.SeedSequence`` rejects negative entropy, so a negative
    seed would fail deep inside the first stochastic component instead of at
    configuration time; floats are rejected because seeds are identities.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(
            f"{name} must be None or an integer >= 0, got {value!r} "
            f"of type {type(value).__name__}"
        )
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return int(value)


def check_instance(value: Any, expected: type, name: str) -> Any:
    """Return ``value`` if it is an instance of ``expected``, else ``TypeError``.

    Used for nested config objects: passing a dict where a ``ServingConfig``
    belongs would defer the crash to the first attribute access.
    """
    if not isinstance(value, expected):
        raise TypeError(
            f"{name} must be a {expected.__name__}, got {value!r} "
            f"of type {type(value).__name__}"
        )
    return value


def check_array_1d_ints(values: Any, name: str) -> np.ndarray:
    """Coerce ``values`` to a 1-D ``int64`` array, raising on bad shapes.

    Accepts lists, tuples and integer numpy arrays.  Floating point inputs are
    rejected because vector ids are identities, not quantities.  A 1-D
    ``int64`` array — what every internal caller passes — is returned as is.
    """
    if type(values) is np.ndarray and values.dtype == np.int64 and values.ndim == 1:
        return values
    arr = np.asarray(values)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"{name} must contain integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def check_id_range(ids: np.ndarray, num_vectors: int) -> None:
    """Raise ``IndexError`` unless every id lies in ``[0, num_vectors)``."""
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= num_vectors):
        raise IndexError(
            f"vector ids must be in [0, {num_vectors}), got range "
            f"[{ids.min()}, {ids.max()}]"
        )
