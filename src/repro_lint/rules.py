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
    door.  :data:`WALL_CLOCK_ALLOWED_MODULES` names one module,
    ``repro.scenarios.lifecycle``, whose retrain timer feeds one summary key;
    the partitioners are pure, and the Figure 7 runtimes are timed by the
    benchmark scripts.

``R3`` ``time-unit-mix``
    Time-unit hygiene: a name suffixed ``_us`` must not be assigned from a
    name suffixed ``_s``/``_ms``/``_ns`` (or any other cross-unit pair)
    unless the expression visibly converts (a ``*``/``/`` scaling or a
    function call).  ``x_us = y_s`` silently mixes units by six orders of
    magnitude; ``x_us = y_s * 1e6`` states the conversion.

``R4`` ``unvalidated-config-field``
    Constraints are declared once, on the field.  A validated dataclass —
    one of the public config classes (:data:`CONFIG_CLASSES`), or any class
    whose ``__post_init__`` calls ``validate_fields`` — must call
    ``validate_fields(self)`` from ``__post_init__``, and each of its
    ``int``, ``float`` and ``str`` fields must declare a constraint that fits
    its type (:data:`CONSTRAINT_TYPES`): ``Annotated[int, AtLeast(1)]``, not
    ``Annotated[int, Positive]`` (a float rule) nor a bare ``int``.  A
    ``bool`` needs none.  A field defaulting to ``None`` must be
    ``Optional[...]``.  Other types (layouts, policies, arrays, SLO tuples)
    are exempt and keep explicit checks in ``__post_init__``.

``R5`` ``float-equality``
    Test files must not compare against float *literals* with ``==``/``!=``;
    use ``pytest.approx``/``np.isclose``, or — for intentional bit-exact
    golden pins — an explicit ``# repro-lint: disable=R5`` that documents the
    exactness as load-bearing.

``R6`` ``unused-import``
    An imported name the module never reads is dead weight that hides what a
    module really depends on.  Exempt: every import of an ``__init__.py``
    (re-exports), names listed in ``__all__``, names read only inside string
    annotations (``def f(x: "Trace")``), and imports on a ``# noqa`` line
    (side-effect imports such as ``import _bootstrap  # noqa: F401``).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, NamedTuple, Optional, Tuple

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

#: Modules allowed to read the wall clock: exactly one.  The re-partitioning
#: lifecycle times its SHP retrains for ``RepartitionManager.summary()``'s
#: ``retrain_runtime_seconds``, a key the frozen two-clock benchmark deletes
#: by name; the benchmark-only change of ROADMAP item 1 deletes that key and
#: this entry together.  Everything else under ``repro.`` — the partitioners
#: included — is a pure function of (trace, config, seed).
WALL_CLOCK_ALLOWED_MODULES: Tuple[str, ...] = ("repro.scenarios.lifecycle",)


@register
class WallClockRule(Rule):
    id = "R2"
    name = "wall-clock"
    rationale = (
        "Simulation/serving/cluster code runs on a simulated microsecond "
        "clock; reading the wall clock makes results machine-dependent and "
        "unpinnable. Only the lifecycle's retrain timer is allowlisted."
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
#: Public config dataclasses R4 requires to call ``validate_fields`` (and
#: ``repro_lint.reach`` keys its field pass on).  Any other class whose
#: ``__post_init__`` calls it is checked the same way.
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
        "NVMLatencyModel",
        "TableSpec",
    }
)

#: The call that applies a class's field declarations at construction.
VALIDATOR = "validate_fields"

#: Field types whose declaration R4 checks; ``bool`` needs no constraint, and
#: any other type (layouts, policies, arrays, tuples) is exempt.
SCALAR_TYPES = ("int", "float", "str", "bool")

#: The field types each constraint fits, by name: the table
#: ``repro.utils.validation``'s ``Constraint.types`` holds at run time.  An
#: ``AtLeast`` whose minimum is a float literal fits ``float`` only.
CONSTRAINT_TYPES = {
    "Positive": ("float",),
    "NonNegative": ("float",),
    "Fraction": ("float",),
    "NonEmpty": ("str",),
    "AtLeast": ("int", "float"),
    "OneOf": ("int", "str"),
}


class ConfigClass(NamedTuple):
    """One dataclass R4 checks, as it appears in a module's AST."""

    node: ast.ClassDef
    #: ``(name, node)`` of every ``init`` field, in declaration order.
    fields: List[Tuple[str, ast.AnnAssign]]
    #: Whether ``__post_init__`` calls :data:`VALIDATOR`.
    validated: bool


def _short_name(node: ast.AST) -> str:
    """``X``, ``typing.X`` and ``X(...)`` all name ``X``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _is_init_field(stmt: ast.AnnAssign) -> bool:
    """Neither a ``ClassVar`` nor a ``field(init=False)``."""
    if "ClassVar" in ast.unparse(stmt.annotation):
        return False
    value = stmt.value
    return not isinstance(value, ast.Call) or not any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords
    )


def config_classes(tree: ast.AST) -> Iterator[ConfigClass]:
    """Every class in *tree* that is in :data:`CONFIG_CLASSES` or calls
    :data:`VALIDATOR` from its ``__post_init__``, with its ``init`` fields."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        validated = any(
            isinstance(stmt, ast.FunctionDef)
            and stmt.name == "__post_init__"
            and any(
                isinstance(sub, ast.Call) and _short_name(sub) == VALIDATOR
                for sub in ast.walk(stmt)
            )
            for stmt in node.body
        )
        if validated or node.name in CONFIG_CLASSES:
            fields = [
                (stmt.target.id, stmt)
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and _is_init_field(stmt)
            ]
            yield ConfigClass(node, fields, validated)


def _field_declaration(annotation: ast.expr) -> Tuple[str, bool, List[ast.expr]]:
    """``(type, optional, constraints)`` of one field annotation.

    ``Annotated[Optional[int], AtLeast(1)]`` is ``("int", True, [AtLeast(1)])``;
    ``int | None`` is ``("int", True, [])``.
    """
    constraints: List[ast.expr] = []
    if (
        isinstance(annotation, ast.Subscript)
        and _short_name(annotation.value) == "Annotated"
        and isinstance(annotation.slice, ast.Tuple)
    ):
        annotation, *constraints = annotation.slice.elts
    optional = False
    if isinstance(annotation, ast.Subscript) and _short_name(annotation.value) == "Optional":
        annotation, optional = annotation.slice, True
    elif isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        none = annotation.right
        if isinstance(none, ast.Constant) and none.value is None:
            annotation, optional = annotation.left, True
    return ast.unparse(annotation), optional, constraints


def _fits(constraint: ast.expr) -> Optional[Tuple[str, ...]]:
    """The field types *constraint* fits, or ``None`` for an unknown name."""
    name = _short_name(constraint)
    if name == "AtLeast" and isinstance(constraint, ast.Call) and constraint.args:
        minimum = constraint.args[0]
        if isinstance(minimum, ast.UnaryOp):
            minimum = minimum.operand
        if isinstance(minimum, ast.Constant) and isinstance(minimum.value, float):
            return ("float",)
    return CONSTRAINT_TYPES.get(name)


@register
class UnvalidatedConfigFieldRule(Rule):
    id = "R4"
    name = "unvalidated-config-field"
    rationale = (
        "Each scalar field of a validated dataclass declares its constraint "
        "once, on the field (Annotated[int, AtLeast(1)]), with a type that "
        "the constraint fits; validate_fields applies it at construction."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node, fields, validated in config_classes(ctx.tree):
            if not validated:
                if fields:
                    yield ctx.violation(
                        self,
                        node,
                        f"config class {node.name} has no __post_init__ calling "
                        f"{VALIDATOR}(self)",
                    )
                continue
            for field_name, stmt in fields:
                yield from self._check_field(ctx, node.name, field_name, stmt)

    def _check_field(
        self, ctx: FileContext, owner: str, field_name: str, stmt: ast.AnnAssign
    ) -> Iterator[Violation]:
        kind, optional, constraints = _field_declaration(stmt.annotation)
        label = f"field `{field_name}` of {owner}"
        if (
            isinstance(stmt.value, ast.Constant)
            and stmt.value.value is None
            and not optional
        ):
            yield ctx.violation(
                self, stmt, f"{label} defaults to None but is not Optional[{kind}]"
            )
        if kind not in SCALAR_TYPES:
            return
        if not constraints and kind != "bool":
            yield ctx.violation(
                self,
                stmt,
                f"{label} declares no constraint: annotate it "
                f"Annotated[{kind}, <constraint>]",
            )
        for constraint in constraints:
            fits = _fits(constraint)
            if fits is None:
                yield ctx.violation(
                    self,
                    stmt,
                    f"{label}: `{ast.unparse(constraint)}` is not a constraint "
                    f"({', '.join(CONSTRAINT_TYPES)})",
                )
            elif kind not in fits:
                yield ctx.violation(
                    self,
                    stmt,
                    f"{label} is {kind}, but `{ast.unparse(constraint)}` fits "
                    f"{' / '.join(fits)} only",
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


# --------------------------------------------------------------------------- R6
def _string_annotation_names(tree: ast.AST) -> Iterator[str]:
    """Names read inside string annotations (``x: "Trace"``, ``List["Trace"]``)."""
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    parsed = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                for name in ast.walk(parsed):
                    if isinstance(name, ast.Name):
                        yield name.id


def _all_names(tree: ast.Module) -> Iterator[str]:
    """The string entries of a module-level ``__all__ = [...]``."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in stmt.targets
        ):
            for element in getattr(stmt.value, "elts", ()):
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    yield element.value


@register
class UnusedImportRule(Rule):
    id = "R6"
    name = "unused-import"
    rationale = (
        "An import the module never reads misstates its dependencies and "
        "keeps dead names alive.  __init__.py re-exports, __all__ names, "
        "names read only in string annotations and # noqa lines are exempt."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.rel_path.endswith("__init__.py"):
            return
        used = {node.id for node in ast.walk(ctx.tree) if isinstance(node, ast.Name)}
        used.update(_string_annotation_names(ctx.tree))
        used.update(_all_names(ctx.tree))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            lines = ctx.lines[node.lineno - 1 : (node.end_lineno or node.lineno)]
            if any("# noqa" in line for line in lines):
                continue
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                if alias.name != "*" and local not in used:
                    yield ctx.violation(
                        self, node, f"`{local}` is imported but never used"
                    )
