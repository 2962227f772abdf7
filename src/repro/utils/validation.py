"""Argument-validation helpers used across the library.

They raise ``ValueError``/``TypeError`` with consistent messages, so the
public API fails loudly and early on bad input instead of producing silently
wrong simulation results.

A validated dataclass declares each scalar field's rule once, on the field
(``num_nodes: Annotated[int, AtLeast(1)] = 4``), and its ``__post_init__``
calls :func:`validate_fields`.  The annotation gives the type rule
(:func:`check_type`; only ``Optional[...]`` admits ``None``), the
:class:`Constraint` the range.  Other field types (layouts, policies, arrays,
SLO tuples) stay the class's own to check.  repro-lint R4 reads the same
declarations.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
from typing import Any, Callable, Dict, List, Tuple, Union
from typing import get_args, get_origin, get_type_hints

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


def check_fraction(value: float, name: str) -> float:
    """Return ``value`` if it lies in ``[0, 1]``, else raise ``ValueError``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0.0, 1.0], got {value!r}")
    return value


def check_int_at_least(value: Any, minimum: int, name: str) -> int:
    """Return ``value`` as an ``int`` if it is an integer >= ``minimum``.

    Rejects booleans and non-integral floats: cache sizes, batch sizes and
    replica counts are exact quantities, and silently truncating ``2.5``
    replicas would hide a configuration bug.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(
            f"{name} must be an integer >= {minimum}, got {value!r} "
            f"of type {type(value).__name__}"
        )
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


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


#: The values each scalar field type admits.
SCALAR_TYPES: Dict[type, Tuple[type, ...]] = {
    int: (int, np.integer),
    float: (int, float, np.integer, np.floating),
    bool: (bool,),
    str: (str,),
}


def check_type(value: Any, kind: type, name: str) -> Any:
    """Return ``value`` if it is a ``kind`` (a :data:`SCALAR_TYPES` key).

    Only a ``bool`` field takes a bool, and it takes nothing else: ``True``
    is no count and ``1`` no flag (``tune_thresholds="no"`` would silently
    *enable* tuning).  A ``float`` must also be finite.
    """
    admitted = isinstance(value, SCALAR_TYPES[kind])
    if not admitted or isinstance(value, bool) is not (kind is bool):
        raise TypeError(
            f"{name} must be {kind.__name__}, got {value!r} of type {type(value).__name__}"
        )
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


class Constraint:
    """A range rule declared on a field, e.g. ``Annotated[float, Positive]``.

    ``check(value, name)`` raises ``ValueError`` for a value of the field's
    type that is out of range; ``types`` are the field types the rule fits
    (repro-lint R4 keeps the same table by name).
    """

    def __init__(self, check: Callable[[Any, str], Any], *fits: type) -> None:
        self.check = check
        self.types = fits


def _check_non_empty(value: str, name: str) -> None:
    if not value:
        raise ValueError(f"{name} must be non-empty")


#: ``> 0``, ``>= 0`` and ``[0, 1]`` for ``float`` fields; a non-empty ``str``.
Positive = Constraint(check_positive, float)
NonNegative = Constraint(check_non_negative, float)
Fraction = Constraint(check_fraction, float)
NonEmpty = Constraint(_check_non_empty, str)


class AtLeast(Constraint):
    """``value >= minimum``; an integer ``minimum`` fits ``int`` fields too."""

    def __init__(self, minimum: float) -> None:
        fits = (int, float) if isinstance(minimum, int) else (float,)
        super().__init__(self._check, *fits)
        self.minimum = minimum

    def _check(self, value: Any, name: str) -> None:
        if value < self.minimum:
            raise ValueError(f"{name} must be >= {self.minimum}, got {value!r}")


class OneOf(Constraint):
    """``value in options``; ``note`` ends the error message with the reason."""

    def __init__(self, *options: Any, note: str = "") -> None:
        super().__init__(self._check, *{type(option): None for option in options})
        self.options = options
        self.note = note

    def _check(self, value: Any, name: str) -> None:
        if value not in self.options:
            note = f": {self.note}" if self.note else ""
            raise ValueError(f"{name} must be one of {self.options}, got {value!r}{note}")


#: One checked field: (name, scalar type, admits ``None``, constraints).
FieldRule = Tuple[str, type, bool, Tuple[Constraint, ...]]


@functools.lru_cache(maxsize=None)
def field_rules(cls: type) -> Tuple[FieldRule, ...]:
    """The declared rule of every scalar ``init`` field of dataclass ``cls``.

    Read once per class; a constraint that does not fit its field's type
    raises ``TypeError`` here, at the class's first construction.
    """
    hints = get_type_hints(cls, include_extras=True)
    rules: List[FieldRule] = []
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        constraints: Tuple[Constraint, ...] = getattr(hint, "__metadata__", ())
        if constraints:
            hint = hint.__origin__
        args = get_args(hint)
        optional = get_origin(hint) in (Union, types.UnionType) and type(None) in args
        if optional and len(args) == 2:
            hint = args[0] if args[1] is type(None) else args[1]
        if not field.init or hint not in SCALAR_TYPES:
            continue
        for constraint in constraints:
            if hint not in constraint.types:
                raise TypeError(
                    f"{cls.__name__}.{field.name} is {hint.__name__}, but its "
                    f"constraint fits only {[t.__name__ for t in constraint.types]}"
                )
        rules.append((field.name, hint, optional, constraints))
    return tuple(rules)


def validate_fields(obj: Any) -> None:
    """Check every scalar field of dataclass ``obj`` against its declaration.

    The first statement of a validated dataclass's ``__post_init__``; its
    cross-field checks and normalisations follow.
    """
    for name, kind, optional, constraints in field_rules(type(obj)):
        value = getattr(obj, name)
        if value is None and optional:
            continue
        check_type(value, kind, name)
        for constraint in constraints:
            constraint.check(value, name)
