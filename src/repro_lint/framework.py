"""Core machinery of ``repro_lint``: contexts, rules, suppressions, runner.

The framework is deliberately small.  A :class:`Rule` looks at one
:class:`FileContext` (source text + parsed AST + resolved imports + location
metadata) and yields :class:`Violation` objects.  The :func:`lint_paths`
runner walks the requested trees, applies every registered rule to every
file, filters violations through ``# repro-lint: disable=RULE`` comments and
finally reports any *unused* suppression as a violation of its own
(:data:`META_RULE_ID`), so suppressions cannot rot silently.

Everything is pure stdlib (``ast`` + ``tokenize``) so the checker runs in any
environment the test-suite runs in.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Type

#: Rule id reserved for the framework's own checks (unused or unknown
#: suppressions).  It cannot itself be suppressed.
META_RULE_ID = "R0"

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s-]+)")


@dataclass(frozen=True)
class Violation:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Last physical line of the offending node — a suppression comment on
    #: any line of a multi-line statement silences the violation.
    end_line: int = 0

    def __post_init__(self) -> None:
        if self.end_line < self.line:
            object.__setattr__(self, "end_line", self.line)

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


@dataclass(frozen=True)
class Suppression:
    """One ``# repro-lint: disable=...`` comment for one rule id."""

    rule: str
    path: str
    line: int


class FileContext:
    """Everything a rule may want to know about one source file.

    Attributes
    ----------
    path:
        Path as given to the runner.
    rel_path:
        POSIX-style path relative to the lint root (used in reports and for
        location-scoped rules).
    module:
        Dotted module path for files under ``src/`` (``repro.caching.engine``),
        else ``None``.
    is_test:
        Whether the file lives under a ``tests/`` directory or is named
        ``test_*.py`` / ``conftest.py``.
    source / tree / lines:
        Raw text, parsed ``ast.Module`` and split physical lines.
    import_aliases:
        Local name -> fully dotted module for ``import x.y as z`` forms
        (``np`` -> ``numpy``).
    from_imports:
        Local name -> fully dotted origin for ``from x import y as z`` forms
        (``perf_counter`` -> ``time.perf_counter``).
    """

    def __init__(self, path: str, source: str, rel_path: Optional[str] = None):
        self.path = str(path)
        self.rel_path = (rel_path if rel_path is not None else str(path)).replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=self.path)
        self.module = self._module_of(self.rel_path)
        parts = Path(self.rel_path).parts
        name = Path(self.rel_path).name
        self.is_test = "tests" in parts or name.startswith("test_") or name == "conftest.py"
        self.import_aliases: Dict[str, str] = {}
        self.from_imports: Dict[str, str] = {}
        self._collect_imports()

    @staticmethod
    def _module_of(rel_path: str) -> Optional[str]:
        parts = Path(rel_path).parts
        if "src" not in parts:
            return None
        idx = parts.index("src")
        mod_parts = list(parts[idx + 1 :])
        if not mod_parts or not mod_parts[-1].endswith(".py"):
            return None
        mod_parts[-1] = mod_parts[-1][: -len(".py")]
        if mod_parts[-1] == "__init__":
            mod_parts.pop()
        return ".".join(mod_parts) if mod_parts else None

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # `import a.b` binds `a`; `import a.b as c` binds `c` -> a.b
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.import_aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module is None:
                    continue  # relative imports never alias external modules
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.from_imports[local] = f"{node.module}.{alias.name}"

    # ------------------------------------------------------------- name helpers
    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Resolve a pure ``Name``/``Attribute`` chain to a dotted string.

        Import aliases are expanded (``np.random.seed`` -> ``numpy.random.seed``,
        ``perf_counter`` -> ``time.perf_counter``).  Chains interrupted by
        calls or subscripts resolve to ``None``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = node.id
        if head in self.import_aliases:
            head = self.import_aliases[head]
        elif head in self.from_imports:
            head = self.from_imports[head]
        parts.append(head)
        return ".".join(reversed(parts))

    def violation(self, rule: "Rule", node: ast.AST, message: str) -> Violation:
        """Build a :class:`Violation` for ``node`` in this file."""
        return Violation(
            rule=rule.id,
            path=self.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            end_line=getattr(node, "end_lineno", None) or getattr(node, "lineno", 1),
        )


class Rule:
    """Base class for lint rules.  Subclasses register via :func:`register`."""

    #: Short stable id used in reports and suppressions (``R1``...).
    id: str = ""
    #: Human-readable mnemonic (``bare-random-state``).
    name: str = ""
    #: One-paragraph rationale shown by ``--list-rules``.
    rationale: str = ""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError


#: Registry of rule classes by id, in registration order.
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to :data:`RULE_REGISTRY`."""
    if not cls.id or not cls.name:
        raise ValueError(f"rule {cls.__name__} must define id and name")
    if cls.id == META_RULE_ID:
        raise ValueError(f"{META_RULE_ID} is reserved for the framework")
    if cls.id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULE_REGISTRY[cls.id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in registration order."""
    return [cls() for cls in RULE_REGISTRY.values()]


def known_rule_ids() -> Set[str]:
    return set(RULE_REGISTRY) | {META_RULE_ID}


# ----------------------------------------------------------------- suppressions
def collect_suppressions(ctx: FileContext) -> List[Suppression]:
    """Parse ``# repro-lint: disable=R1[,R2]`` comments out of ``ctx``."""
    found: List[Suppression] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(ctx.source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if not match:
                continue
            for rule_id in match.group(1).split(","):
                rule_id = rule_id.strip()
                if rule_id:
                    found.append(
                        Suppression(rule=rule_id, path=ctx.rel_path, line=tok.start[0])
                    )
    except tokenize.TokenError:  # pragma: no cover - ast.parse already failed
        pass
    return found


@dataclass
class LintResult:
    """Outcome of one lint run."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations

    def extend(self, other: "LintResult") -> None:
        self.violations.extend(other.violations)
        self.files_checked += other.files_checked
        self.suppressed += other.suppressed

    def sorted_violations(self) -> List[Violation]:
        return sorted(self.violations, key=Violation.sort_key)


# ----------------------------------------------------------------------- runner
def lint_context(ctx: FileContext, rules: Optional[Sequence[Rule]] = None) -> LintResult:
    """Run ``rules`` (default: all registered) over one parsed file."""
    active = list(rules) if rules is not None else all_rules()
    raw: List[Violation] = []
    for rule in active:
        raw.extend(rule.check(ctx))

    suppressions = collect_suppressions(ctx)
    by_rule_line: Dict[str, Set[int]] = {}
    for sup in suppressions:
        by_rule_line.setdefault(sup.rule, set()).add(sup.line)

    used: Set[Tuple[str, int]] = set()
    kept: List[Violation] = []
    for violation in raw:
        lines = by_rule_line.get(violation.rule, set())
        hit = [ln for ln in lines if violation.line <= ln <= violation.end_line]
        if hit:
            used.update((violation.rule, ln) for ln in hit)
        else:
            kept.append(violation)

    result = LintResult(violations=kept, files_checked=1, suppressed=len(raw) - len(kept))
    known = known_rule_ids()
    checked_ids = {rule.id for rule in active}
    for sup in suppressions:
        if sup.rule not in known:
            result.violations.append(
                Violation(
                    rule=META_RULE_ID,
                    path=ctx.rel_path,
                    line=sup.line,
                    col=0,
                    message=f"suppression names unknown rule {sup.rule!r}",
                )
            )
        elif sup.rule in checked_ids and (sup.rule, sup.line) not in used:
            result.violations.append(
                Violation(
                    rule=META_RULE_ID,
                    path=ctx.rel_path,
                    line=sup.line,
                    col=0,
                    message=(
                        f"unused suppression: no {sup.rule} violation on this "
                        "line (remove the disable comment)"
                    ),
                )
            )
    return result


def lint_source(
    source: str,
    rel_path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> LintResult:
    """Lint an in-memory snippet as if it lived at ``rel_path``."""
    return lint_context(FileContext(rel_path, source, rel_path=rel_path), rules=rules)


def iter_python_files(paths: Sequence[str], root: Path) -> Iterator[Path]:
    """Yield the ``.py`` files under ``paths`` (files or directories), sorted.

    Hidden directories and ``__pycache__`` are skipped.  Paths are resolved
    relative to ``root``.
    """
    for raw in paths:
        base = Path(raw)
        if not base.is_absolute():
            base = root / base
        if base.is_file():
            yield base
            continue
        if not base.is_dir():
            raise FileNotFoundError(f"lint path does not exist: {raw}")
        for candidate in sorted(base.rglob("*.py")):
            parts = candidate.relative_to(base).parts
            if any(p == "__pycache__" or p.startswith(".") for p in parts[:-1]):
                continue
            yield candidate


def lint_paths(
    paths: Sequence[str],
    root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> LintResult:
    """Lint every Python file under ``paths`` and merge the results.

    Files that fail to parse are reported as a :data:`META_RULE_ID` violation
    rather than aborting the run.
    """
    root = Path(root) if root is not None else Path.cwd()
    result = LintResult()
    for file_path in iter_python_files(paths, root):
        try:
            rel = str(file_path.relative_to(root))
        except ValueError:
            rel = str(file_path)
        try:
            ctx = FileContext(str(file_path), file_path.read_text(), rel_path=rel)
        except SyntaxError as exc:
            result.violations.append(
                Violation(
                    rule=META_RULE_ID,
                    path=rel.replace("\\", "/"),
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            result.files_checked += 1
            continue
        result.extend(lint_context(ctx, rules=rules))
    result.violations = result.sorted_violations()
    return result
