"""Hostile values for every declared field of every validated dataclass.

Each validated dataclass declares its scalar fields' rules on the fields
(``Annotated[int, AtLeast(1)]``) and applies them with
``repro.utils.validation.validate_fields``.  The cases here are generated
from those declarations: for every scalar field, a wrong type (``2.5`` for an
``int``, ``True`` for a number, ``"3"``), a non-finite number, ``None`` where
the field is not ``Optional``, and the value just outside the declared range
must each raise ``TypeError`` or ``ValueError`` naming the field.  The
classes are the ones repro-lint R4 checks, so a new validated dataclass
without a valid example here fails :func:`test_every_validated_class_is_swept`.
"""

import ast
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated, Optional

import numpy as np
import pytest

from repro.caching.policies import CacheAllBlockPolicy
from repro.caching.stack_distance import HitRateCurve
from repro.cluster.faults import DegradedLink, NodeCrash, SlowNode
from repro.core.config import (
    BandanaConfig,
    ClusterConfig,
    ServingConfig,
    TableCacheConfig,
    TracingConfig,
)
from repro.core.tablespec import TableServingSpec
from repro.nvm.block import BlockLayout
from repro.nvm.dram import DRAMModel
from repro.nvm.endurance import EnduranceTracker
from repro.nvm.latency import NVMLatencyModel
from repro.scenarios.config import RepartitionConfig, ScenarioConfig, TraceLoaderConfig
from repro.utils.validation import (
    AtLeast,
    Fraction,
    NonEmpty,
    NonNegative,
    OneOf,
    Positive,
    field_rules,
    validate_fields,
)
from repro.workloads.tables_spec import TableSpec
from repro_lint.rules import config_classes
from tests.conftest import count_python_calls

REPO_ROOT = Path(__file__).resolve().parent.parent

#: One valid construction per validated dataclass (the defaults where the
#: class has them for every field).
EXAMPLES = {
    BandanaConfig: lambda: {},
    ServingConfig: lambda: {},
    ClusterConfig: lambda: {},
    TracingConfig: lambda: {},
    TableCacheConfig: lambda: {"cache_size_vectors": 10},
    ScenarioConfig: lambda: {},
    TraceLoaderConfig: lambda: {"path": "trace.csv"},
    RepartitionConfig: lambda: {},
    NVMLatencyModel: lambda: {},
    TableSpec: lambda: {
        "name": "t",
        "num_vectors": 100,
        "avg_lookups_per_query": 4.0,
        "lookup_share": 0.5,
        "compulsory_miss_rate": 0.1,
    },
    DRAMModel: lambda: {},
    EnduranceTracker: lambda: {"capacity_bytes": 1 << 30},
    TableServingSpec: lambda: {
        "name": "t",
        "layout": BlockLayout.identity(64, 32),
        "policy_prototype": CacheAllBlockPolicy(),
        "cache_size_vectors": 16,
    },
    NodeCrash: lambda: {"node": 0, "start_s": 0.0, "end_s": 1.0},
    SlowNode: lambda: {"node": 0, "start_s": 0.0, "end_s": 1.0},
    DegradedLink: lambda: {"node": 0, "start_s": 0.0, "end_s": 1.0},
    HitRateCurve: lambda: {
        "cache_sizes": np.array([1, 2]),
        "hit_rates": np.array([0.1, 0.2]),
        "total_lookups": 10,
    },
}


def out_of_range(kind, constraint):
    """The values just outside ``constraint`` for a field of type ``kind``."""
    below_zero = np.nextafter(0.0, -1.0)
    if constraint is Positive:
        return [0.0, below_zero]
    if constraint is NonNegative:
        return [below_zero]
    if constraint is Fraction:
        return [below_zero, np.nextafter(1.0, 2.0)]
    if constraint is NonEmpty:
        return [""]
    if isinstance(constraint, AtLeast):
        if kind is int:
            return [constraint.minimum - 1]
        return [np.nextafter(float(constraint.minimum), -math.inf)]
    if isinstance(constraint, OneOf):
        if kind is int:
            return [min(constraint.options) - 1, max(constraint.options) + 1]
        return ["no-such-option"]
    raise AssertionError(f"no out-of-range values for {constraint!r}")


def hostile_values(kind, optional, constraints):
    """Every value a field declared ``(kind, optional, constraints)`` rejects."""
    values = [math.nan, math.inf, -math.inf]
    if kind is int:
        values += [2.5, True, "3"]
    elif kind is float:
        values += [True, "3"]
    elif kind is bool:
        values += [1, "3"]
    else:  # str
        values += [True, 2.5]
    if not optional:
        values.append(None)
    for constraint in constraints:
        values += out_of_range(kind, constraint)
    return values


def sweep_cases():
    for cls, example in EXAMPLES.items():
        for name, kind, optional, constraints in field_rules(cls):
            for value in hostile_values(kind, optional, constraints):
                yield pytest.param(
                    cls, example, name, value, id=f"{cls.__name__}.{name}={value!r}"
                )


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
def test_example_constructs(cls):
    cls(**EXAMPLES[cls]())


@pytest.mark.parametrize("cls, example, name, value", list(sweep_cases()))
def test_hostile_value_raises_naming_the_field(cls, example, name, value):
    kwargs = example()
    kwargs[name] = value
    with pytest.raises((TypeError, ValueError), match=name):
        cls(**kwargs)


def test_every_validated_class_is_swept():
    validated = {
        config.node.name
        for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
        for config in config_classes(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert validated == {cls.__name__ for cls in EXAMPLES}


# ------------------------------------------------ the cases that used to construct
@pytest.mark.parametrize(
    "build",
    [
        lambda: TableSpec(**{**EXAMPLES[TableSpec](), "num_vectors": 10.5}),
        lambda: TableSpec(**{**EXAMPLES[TableSpec](), "num_topics": True}),
        lambda: EnduranceTracker(capacity_bytes=1.5),
        lambda: ServingConfig(arrival_rate_rps=True),
        lambda: BandanaConfig(mini_cache_sampling_rate=True),
    ],
    ids=[
        "TableSpec.num_vectors=10.5",
        "TableSpec.num_topics=True",
        "EnduranceTracker.capacity_bytes=1.5",
        "ServingConfig.arrival_rate_rps=True",
        "BandanaConfig.mini_cache_sampling_rate=True",
    ],
)
def test_wrong_type_that_used_to_construct_raises(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "cls",
    [BandanaConfig, ClusterConfig, ScenarioConfig, RepartitionConfig],
    ids=lambda cls: cls.__name__,
)
def test_int_seed_rejects_none(cls):
    # ``seed: int`` accepted None, which draws the seed from OS entropy.
    with pytest.raises(TypeError, match="seed"):
        cls(seed=None)


def test_serving_seed_none_inherits_the_store_seed():
    assert ServingConfig(seed=None).seed is None
    assert ServingConfig(seed=3).seed == 3


# --------------------------------------------------------------- the declarations
def test_a_constraint_that_does_not_fit_its_field_raises_at_first_construction():
    @dataclass
    class Misdeclared:
        # The misdeclaration R4 reports statically, met at run time.
        count: Annotated[int, Positive] = 1  # repro-lint: disable=R4

        def __post_init__(self):
            validate_fields(self)

    with pytest.raises(TypeError, match="Misdeclared.count is int"):
        Misdeclared()


def test_both_optional_spellings_admit_none_and_nothing_else():
    @dataclass
    class Capped:
        cap: Annotated[Optional[int], AtLeast(1)] = None
        limit: Annotated[int | None, AtLeast(1)] = None
        flag: bool = False

        def __post_init__(self):
            validate_fields(self)

    assert Capped() == Capped(cap=None, limit=None)
    for name in ("cap", "limit"):
        assert getattr(Capped(**{name: 3}), name) == 3
        for bad, error in [(0, ValueError), (2.5, TypeError), (True, TypeError)]:
            with pytest.raises(error, match=name):
                Capped(**{name: bad})
    with pytest.raises(TypeError, match="flag"):
        Capped(flag=None)


def test_numpy_scalars_pass_their_type_rule():
    config = ServingConfig(max_batch_requests=np.int64(4), arrival_rate_rps=np.float64(10.0))
    assert config.max_batch_requests == 4


#: Python-level calls to construct one ``BandanaConfig`` and one
#: ``ServingConfig``.  Measured 56 (CPython 3.11.7): the generated
#: ``__init__``, ``__post_init__`` and ``validate_fields``, one type check and
#: one constraint check per scalar field, and the two normalisations.
#: Resolving the declarations on every construction (``typing.get_type_hints``)
#: costs ~1000; the budget sits ~25 % above the measured value.
CONSTRUCTION_CALL_BUDGET = 70


def test_declarations_are_read_once_per_class():
    BandanaConfig(), ServingConfig()
    _, calls = count_python_calls(lambda: (BandanaConfig(), ServingConfig()))
    assert calls <= CONSTRUCTION_CALL_BUDGET, (
        f"{calls} Python calls to construct BandanaConfig() and ServingConfig() "
        f"(budget {CONSTRUCTION_CALL_BUDGET})"
    )
