"""repro-lint: AST-based invariant checks for the simulation stack.

``python -m repro_lint src tests benchmarks`` (run from the repo root with
``PYTHONPATH=src``, like the test-suite) statically checks the conventions
that make the repo's golden pins and equivalence suites trustworthy.  The
runtime tests prove that two code paths agree *given* determinism; these
rules machine-check the determinism assumptions themselves.

Rule catalog
------------
``R1 bare-random-state``
    No ``np.random.*`` module-level state or stdlib ``random`` outside
    ``repro/utils/rng.py``.  Explicit constructors (``default_rng``,
    ``Generator``, ``SeedSequence``, ``random.Random``) are allowed.
``R2 wall-clock``
    No ``time.time``/``perf_counter``/``monotonic``/``sleep``/
    ``datetime.now`` in any ``repro.*`` module: simulation, serving, cluster
    and caching code runs on the simulated microsecond clock, and the
    partitioners are pure.  One module is allowlisted
    (:data:`~repro_lint.rules.WALL_CLOCK_ALLOWED_MODULES`):
    ``repro.scenarios.lifecycle``, whose retrain timer feeds one summary key.
``R3 time-unit-mix``
    A ``_us``-suffixed variable/attribute/parameter must not be assigned
    from a ``_s``/``_ms``/``_ns``-suffixed one (or any cross-unit pair)
    without a visible conversion (``* 1e6``-style scaling or a call).
``R4 unvalidated-config-field``
    Every ``int``/``float``/``str`` field of a validated dataclass (the
    config classes, and any class calling ``validate_fields``) declares a
    constraint that fits its type, e.g. ``Annotated[int, AtLeast(1)]``;
    ``__post_init__`` calls ``validate_fields(self)`` to apply it.
``R5 float-equality``
    Tests must not ``==``/``!=`` against float literals; use
    ``pytest.approx``/``np.isclose``, or suppress R5 where the bit-exact
    comparison is the point (golden pins).
``R6 unused-import``
    No imported name the module never reads.  Exempt: imports in
    ``__init__.py`` (re-exports), names in ``__all__``, names read only in
    string annotations, and imports on a ``# noqa`` line (side-effect
    imports such as ``import _bootstrap  # noqa: F401``).
``R0`` (framework, not suppressible)
    Unparseable files, suppressions naming unknown rules, and **unused**
    suppressions — a ``disable`` comment that stops matching a violation must
    be deleted, so the suppression inventory never rots.

Suppressions
------------
Append ``# repro-lint: disable=R3`` (comma-separate for several rules) to
the offending line; for a multi-line statement any physical line of the
statement works.  Every suppression must still be *needed* — unused ones are
themselves violations.

Adding a rule
-------------
Subclass :class:`~repro_lint.framework.Rule` in ``repro_lint/rules.py``, give
it a fresh ``id``/``name``/``rationale``, decorate with ``@register``, and
yield :class:`~repro_lint.framework.Violation` objects from ``check(ctx)``.
The :class:`~repro_lint.framework.FileContext` provides the parsed tree,
resolved import aliases (``ctx.dotted_name``) and location metadata
(``ctx.module``, ``ctx.is_test``).  Add one catching and one passing fixture
to ``tests/test_repro_lint.py`` — the rule suite requires both per rule —
and document the rule here.

Exit codes: 0 clean, 1 violations found, 2 bad invocation.
"""

from repro_lint.framework import (
    META_RULE_ID,
    FileContext,
    LintResult,
    Rule,
    Suppression,
    Violation,
    all_rules,
    known_rule_ids,
    lint_paths,
    lint_source,
    register,
)
from repro_lint.reporters import JSON_SCHEMA_VERSION, render_json, render_text, to_json_dict

# Importing the rules module populates the registry.
from repro_lint import rules as rules  # noqa: F401

__all__ = [
    "META_RULE_ID",
    "FileContext",
    "LintResult",
    "Rule",
    "Suppression",
    "Violation",
    "all_rules",
    "known_rule_ids",
    "lint_paths",
    "lint_source",
    "register",
    "JSON_SCHEMA_VERSION",
    "render_json",
    "render_text",
    "to_json_dict",
    "rules",
]
