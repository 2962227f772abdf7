"""The initial ``repro_lint`` rule set: the repo's reproducibility invariants.

Each rule encodes a convention the runtime equivalence suites and golden pins
*assume* but cannot themselves enforce:

``R1`` ``bare-random-state``
    No hidden global randomness: the legacy ``np.random.*`` module-level
    functions and the stdlib ``random`` module are banned everywhere except
    ``repro/utils/rng.py`` (the sanctioned conversion point).  Explicit
    constructors (``np.random.default_rng``, ``np.random.Generator``,
    ``np.random.SeedSequence``, ``random.Random``) are allowed — they are how
    seeded streams are *built*, not shared mutable state.

``R2`` ``wall-clock``
    Simulated-clock discipline: code under ``repro.*`` must not read the wall
    clock (``time.time``/``perf_counter``/``monotonic``/..., ``datetime.now``)
    or sleep.  Simulation results must be a pure function of (trace, config,
    seed); a wall-clock read is non-determinism smuggled in through the back
    door.  :data:`WALL_CLOCK_ALLOWED_MODULES` whitelists the partitioning
    package, whose ``time.perf_counter`` timers genuinely measure algorithm
    wall time (the paper's Figure 7 runtimes) rather than simulated time.

``R3`` ``time-unit-mix``
    Time-unit hygiene: a name suffixed ``_us`` must not be assigned from a
    name suffixed ``_s``/``_ms``/``_ns`` (or any other cross-unit pair)
    unless the expression visibly converts (a ``*``/``/`` scaling or a
    function call).  ``x_us = y_s`` silently mixes units by six orders of
    magnitude; ``x_us = y_s * 1e6`` states the conversion.

``R4`` ``unvalidated-config-field``
    Every dataclass field of the public config classes
    (:data:`CONFIG_CLASSES`) must be referenced by its class's
    ``__post_init__``/``validate`` method — the repo's convention is that
    every knob is checked by a ``repro.utils.validation`` helper (or an
    explicit ``if``/``raise``) at construction time, so bad configs fail
    loudly instead of corrupting a simulation.

``R5`` ``float-equality``
    Test files must not compare against float *literals* with ``==``/``!=``;
    use ``pytest.approx``/``np.isclose``, or — for intentional bit-exact
    golden pins — an explicit ``# repro-lint: disable=R5`` that documents the
    exactness as load-bearing.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro_lint.framework import FileContext, Rule, Violation, register

# --------------------------------------------------------------------------- R1
#: ``numpy.random`` members that construct explicit generators / types rather
#: than touching the global stream.
ALLOWED_NP_RANDOM = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox"}
)

#: stdlib ``random`` members that are explicit seeded instances, not state.
ALLOWED_STDLIB_RANDOM = frozenset({"Random", "SystemRandom"})

#: Module whose job is to own RNG plumbing; exempt from R1.
RNG_HOME_MODULE = "repro.utils.rng"


def _iter_dotted_uses(ctx: FileContext) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(resolved_dotted_name, node)`` for maximal attribute chains."""

    class Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.found: List[Tuple[str, ast.AST]] = []

        def visit_Attribute(self, node: ast.Attribute) -> None:
            dotted = ctx.dotted_name(node)
            if dotted is not None:
                self.found.append((dotted, node))
                return  # children are part of this chain
            self.generic_visit(node)

        def visit_Name(self, node: ast.Name) -> None:
            dotted = ctx.dotted_name(node)
            if dotted is not None and dotted != node.id:
                self.found.append((dotted, node))

    visitor = Visitor()
    visitor.visit(ctx.tree)
    return iter(visitor.found)


@register
class BareRandomStateRule(Rule):
    id = "R1"
    name = "bare-random-state"
    rationale = (
        "Global RNG state (np.random.* module functions, the stdlib random "
        "module) breaks seed-to-result reproducibility; construct explicit "
        "Generators via repro.utils.rng instead."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.module == RNG_HOME_MODULE:
            return
        # Import-site checks: `import random`, `from random import x`,
        # `from numpy.random import x`, `from numpy import random`.
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield ctx.violation(
                            self,
                            node,
                            "stdlib `random` is hidden global state; use "
                            "repro.utils.rng (np.random.Generator) instead",
                        )
            elif isinstance(node, ast.ImportFrom) and not node.level:
                if node.module == "random":
                    for alias in node.names:
                        if alias.name not in ALLOWED_STDLIB_RANDOM:
                            yield ctx.violation(
                                self,
                                node,
                                f"`from random import {alias.name}` is hidden "
                                "global state; use repro.utils.rng instead",
                            )
                elif node.module in ("numpy.random", "numpy"):
                    for alias in node.names:
                        bad_np = node.module == "numpy.random" and (
                            alias.name not in ALLOWED_NP_RANDOM
                        )
                        if bad_np:
                            yield ctx.violation(
                                self,
                                node,
                                f"`from numpy.random import {alias.name}` uses "
                                "the global stream; pass an explicit Generator",
                            )
        # Use-site checks on resolved attribute chains.
        for dotted, node in _iter_dotted_uses(ctx):
            parts = dotted.split(".")
            if parts[:2] == ["numpy", "random"]:
                if len(parts) == 2 or parts[2] not in ALLOWED_NP_RANDOM:
                    yield ctx.violation(
                        self,
                        node,
                        f"`{dotted}` touches numpy's global RNG state; use an "
                        "explicit np.random.Generator (repro.utils.rng.ensure_rng)",
                    )
            elif parts[0] == "random" and "random" in ctx.import_aliases:
                if len(parts) < 2 or parts[1] not in ALLOWED_STDLIB_RANDOM:
                    yield ctx.violation(
                        self,
                        node,
                        f"`{dotted}` uses stdlib random's global state; use "
                        "repro.utils.rng instead",
                    )


# --------------------------------------------------------------------------- R2
#: Wall-clock reads banned inside simulated-clock code.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Modules allowed to read the wall clock.  The partitioning package times
#: *algorithm* runtimes (SHP/K-means training cost, the paper's Figure 7) —
#: genuine wall time, not simulated time — so its ``perf_counter`` calls are
#: sanctioned.  Everything else under ``repro.`` runs on the simulated clock.
WALL_CLOCK_ALLOWED_MODULES: Tuple[str, ...] = ("repro.partitioning",)


@register
class WallClockRule(Rule):
    id = "R2"
    name = "wall-clock"
    rationale = (
        "Simulation/serving/cluster code runs on a simulated microsecond "
        "clock; reading the wall clock makes results machine-dependent and "
        "unpinnable. Partitioning timers are explicitly allowlisted."
    )

    @staticmethod
    def _in_scope(ctx: FileContext) -> bool:
        if ctx.module is None or not ctx.module.startswith("repro."):
            return False
        return not any(
            ctx.module == mod or ctx.module.startswith(mod + ".")
            for mod in WALL_CLOCK_ALLOWED_MODULES
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not self._in_scope(ctx):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and not node.level:
                if node.module in ("time", "datetime"):
                    for alias in node.names:
                        if f"{node.module}.{alias.name}" in WALL_CLOCK_CALLS or (
                            node.module == "datetime"
                            and alias.name in ("datetime", "date")
                        ):
                            # importing datetime.datetime itself is fine; only
                            # flag direct function imports like perf_counter.
                            if f"{node.module}.{alias.name}" in WALL_CLOCK_CALLS:
                                yield ctx.violation(
                                    self,
                                    node,
                                    f"`from {node.module} import {alias.name}` "
                                    "pulls in a wall-clock read; simulated-clock "
                                    "code must stay deterministic",
                                )
        for dotted, node in _iter_dotted_uses(ctx):
            if dotted in WALL_CLOCK_CALLS:
                yield ctx.violation(
                    self,
                    node,
                    f"wall-clock call `{dotted}` in simulated-clock module "
                    f"`{ctx.module}` (allowlist: {', '.join(WALL_CLOCK_ALLOWED_MODULES)})",
                )


# --------------------------------------------------------------------------- R3
#: Recognised time-unit suffixes, longest first so ``_us`` wins over ``_s``.
UNIT_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("_us", "us"),
    ("_ms", "ms"),
    ("_ns", "ns"),
    ("_s", "s"),
)


def unit_of(identifier: str) -> Optional[str]:
    """The time unit encoded in ``identifier``'s suffix, if any."""
    for suffix, unit in UNIT_SUFFIXES:
        if identifier.endswith(suffix):
            return unit
    return None


def _terminal_identifier(node: ast.AST) -> Optional[str]:
    """The unit-bearing identifier of a Name/Attribute leaf, if any."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _expr_units(expr: ast.AST) -> List[Tuple[str, str, ast.AST]]:
    """All ``(identifier, unit, node)`` leaves mentioned anywhere in ``expr``."""
    found = []
    for node in ast.walk(expr):
        ident = _terminal_identifier(node)
        if ident is not None:
            unit = unit_of(ident)
            if unit is not None:
                found.append((ident, unit, node))
    return found


def _has_conversion(expr: ast.AST) -> bool:
    """Whether ``expr`` contains an explicit scaling or an opaque call.

    A ``*`` or ``/`` is how unit conversions are written (``x_s * 1e6``); a
    function call (``to_micros(x_s)``, ``int(round(...))``) is treated as
    opaque rather than second-guessed.  This keeps the rule free of false
    positives at the cost of missing conversions hidden behind arithmetic —
    the failure mode that matters (`a_us = b_s`, `a_us = b_s + c_us`) has
    neither.
    """
    for node in ast.walk(expr):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
            return True
        if isinstance(node, ast.Call):
            return True
    return False


@register
class TimeUnitMixRule(Rule):
    id = "R3"
    name = "time-unit-mix"
    rationale = (
        "Assigning a `_s`/`_ms` quantity to a `_us` name (or any cross-unit "
        "pair) without a visible conversion silently corrupts clock "
        "arithmetic by orders of magnitude."
    )

    def _check_binding(
        self, ctx: FileContext, target_ident: str, value: ast.AST, node: ast.AST
    ) -> Iterator[Violation]:
        target_unit = unit_of(target_ident)
        if target_unit is None or _has_conversion(value):
            return
        for ident, unit, _leaf in _expr_units(value):
            if unit != target_unit:
                yield ctx.violation(
                    self,
                    node,
                    f"`{target_ident}` ({target_unit}) assigned from "
                    f"`{ident}` ({unit}) without an explicit conversion "
                    "(scale with * / / or convert at the boundary)",
                )
                return  # one report per binding is enough

    def _bindings(
        self, node: ast.AST
    ) -> Iterator[Tuple[str, ast.AST]]:
        """Yield ``(target_identifier, value_expr)`` pairs for ``node``."""
        if isinstance(node, ast.Assign):
            targets = node.targets
            for target in targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    if len(target.elts) == len(node.value.elts):
                        for t, v in zip(target.elts, node.value.elts):
                            ident = _terminal_identifier(t)
                            if ident is not None:
                                yield ident, v
                    continue
                ident = _terminal_identifier(target)
                if ident is not None:
                    yield ident, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            ident = _terminal_identifier(node.target)
            if ident is not None:
                yield ident, node.value
        elif isinstance(node, ast.AugAssign):
            ident = _terminal_identifier(node.target)
            if ident is not None:
                yield ident, node.value
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg, node.value

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.keyword)):
                for ident, value in self._bindings(node):
                    yield from self._check_binding(ctx, ident, value, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Parameter defaults: `def f(timeout_us=linger_ms)` is the
                # same hazard in signature position.
                args = node.args
                pos = args.posonlyargs + args.args
                for arg, default in zip(pos[len(pos) - len(args.defaults) :], args.defaults):
                    yield from self._check_binding(ctx, arg.arg, default, default)
                for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
                    if kw_default is not None:
                        yield from self._check_binding(ctx, arg.arg, kw_default, kw_default)


# --------------------------------------------------------------------------- R4
#: Public config dataclasses whose every field must be validated.
CONFIG_CLASSES = frozenset(
    {
        "BandanaConfig",
        "ServingConfig",
        "ClusterConfig",
        "TracingConfig",
        "TableCacheConfig",
        "ScenarioConfig",
        "TraceLoaderConfig",
        "RepartitionConfig",
    }
)

#: Method names R4 accepts as "the validation hook".
VALIDATION_METHODS = ("__post_init__", "validate")


@register
class UnvalidatedConfigFieldRule(Rule):
    id = "R4"
    name = "unvalidated-config-field"
    rationale = (
        "Every knob on the public config dataclasses must be referenced by "
        "__post_init__/validate so misconfigurations fail at construction "
        "(via repro.utils.validation) instead of corrupting simulations."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or node.name not in CONFIG_CLASSES:
                continue
            fields: List[Tuple[str, ast.AnnAssign]] = []
            validators: List[ast.FunctionDef] = []
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    annotation = ast.unparse(stmt.annotation)
                    if "ClassVar" in annotation:
                        continue
                    fields.append((stmt.target.id, stmt))
                elif (
                    isinstance(stmt, ast.FunctionDef)
                    and stmt.name in VALIDATION_METHODS
                ):
                    validators.append(stmt)
            if not validators:
                if fields:
                    yield ctx.violation(
                        self,
                        node,
                        f"config class {node.name} has no "
                        f"{'/'.join(VALIDATION_METHODS)} method validating its fields",
                    )
                continue
            referenced: Set[str] = set()
            for validator in validators:
                for sub in ast.walk(validator):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                    ):
                        referenced.add(sub.attr)
                    elif isinstance(sub, ast.Call):
                        # object.__setattr__(self, "field", ...) normalisation
                        func = sub.func
                        if (
                            isinstance(func, ast.Attribute)
                            and func.attr == "__setattr__"
                            and len(sub.args) >= 2
                            and isinstance(sub.args[1], ast.Constant)
                            and isinstance(sub.args[1].value, str)
                        ):
                            referenced.add(sub.args[1].value)
            for field_name, field_node in fields:
                if field_name not in referenced:
                    yield ctx.violation(
                        self,
                        field_node,
                        f"field `{field_name}` of {node.name} is never "
                        "referenced by a validation check in "
                        f"{'/'.join(VALIDATION_METHODS)}",
                    )


# --------------------------------------------------------------------------- R5
@register
class FloatEqualityRule(Rule):
    id = "R5"
    name = "float-equality"
    rationale = (
        "Float-literal ==/!= in tests is either a tolerance bug (use "
        "pytest.approx / np.isclose) or an intentional bit-exact pin, which "
        "must carry an explicit disable comment documenting that."
    )

    @staticmethod
    def _is_float_literal(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, float)
        ):
            return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.is_test:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            literal = next((o for o in operands if self._is_float_literal(o)), None)
            if literal is not None:
                yield ctx.violation(
                    self,
                    node,
                    f"float literal compared with ==/!= "
                    f"(`{ast.unparse(node)[:60]}`); use pytest.approx/"
                    "np.isclose, or disable R5 for an intentional exact pin",
                )
