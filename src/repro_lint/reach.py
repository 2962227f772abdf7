"""Flow-reachability audit: which ``src/repro`` functions does no flow enter,
and which config fields and defaulted parameters does no flow set?

``python -m repro_lint.reach --check`` (from the repo root) runs the cheap
:data:`FLOWS` — the three examples, the two-clock benchmark's ``--selfcheck``
and four ``--smoke`` benchmarks — each under a ``sys.setprofile`` recorder.
It diffs the functions they enter against every ``def`` that ``ast`` finds
under ``src/repro``, and the config fields they set against every field of
the validated config classes (repro-lint R4's
:data:`~repro_lint.rules.CONFIG_CLASSES`), and the defaulted parameters
they set against every defaulted parameter of those ``def``s.  Every
``def`` no cheap flow reaches, and every field or parameter no cheap flow
sets, must be listed in the committed ``REACH.json``:

``verdicts``
    Functions no flow at all reaches, each with one verdict: ``delete``,
    ``test-oracle → tests/`` (kept only as a test's reference; belongs in
    ``tests/``) or ``keep: <reason>``.
``figure_only``
    Functions only the expensive flow reaches (the 19 ``bench_*`` figure and
    table functions under pytest).
``fields``
    Config fields (``path::Class.field``) no cheap flow sets, each with a
    verdict.  A field is *set* when a ``__post_init__`` of its class returns
    with the field unequal to its default (after the normalisation
    ``__post_init__`` does; a ``default_factory`` is called for the
    comparison), or when it has no default.
``params``
    Defaulted parameters (``path::qualname(param)``: the positional tail
    and the keyword-only ones of every ``def``; a dataclass's generated
    ``__init__`` is the field pass's) no cheap flow sets, each with a
    verdict.  A parameter is *set* when a call enters its function with an
    argument that is not its default: identity first, then ``==``; an array
    always counts as set.  A caller that passes the default explicitly does
    not set it.  A code object is no longer inspected once each of its
    defaulted parameters has been seen set.

``--check`` fails on an unreached ``def`` that is in neither list, on a
never-set field or parameter without an entry, on a stale entry (the
``def``, field or parameter is gone, or a cheap flow now reaches or sets
it) and on a malformed verdict.
``--write`` runs every flow and regenerates all four sections, keeping
existing verdicts (a new entry gets an empty one, which ``--check`` rejects
until someone writes it).

Functions are keyed by (file, first line) on both sides: a code object's
``co_firstlineno`` is the line of its first decorator (else of the ``def``),
which is also what :func:`function_defs` reads off the AST (``co_qualname``
would need Python 3.11).  Each flow runs in a fresh scratch copy of the
tree, because flows rewrite ``BENCH_*.json`` and ``benchmarks/results/``.  A
flow that installs its own profiler (perfbench's call counter does) is
chained behind the recorder rather than replacing it.

Exit codes: 0 clean, 1 problems found, 2 a flow failed or bad invocation.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import dis
import gc
import inspect
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional
from typing import Sequence, Set, Tuple

from repro_lint.rules import CONFIG_CLASSES, config_classes

PACKAGE = "src/repro"
REACH_FILE = "REACH.json"
VERDICT_RE = re.compile(r"delete$|test-oracle → tests/|keep: \S")

#: (path relative to the root, first line) of one function.
Site = Tuple[str, int]


@dataclass(frozen=True)
class Flow:
    """One user-facing run: ``python *argv`` from the root of a tree copy."""

    name: str
    argv: Tuple[str, ...]
    cheap: bool = True


FLOWS: Tuple[Flow, ...] = (
    Flow("quickstart", ("examples/quickstart.py",)),
    Flow("recommendation-serving", ("examples/recommendation_serving.py",)),
    Flow("capacity-planning", ("examples/capacity_planning.py",)),
    Flow("perf-selfcheck", ("benchmarks/perf/run.py", "--selfcheck")),
    Flow("serving-latency-smoke", ("benchmarks/bench_serving_latency.py", "--smoke")),
    Flow("scenarios-smoke", ("benchmarks/bench_scenarios.py", "--smoke")),
    Flow("cluster-failures-smoke", ("benchmarks/bench_cluster_failures.py", "--smoke")),
    Flow("shared-device-smoke", ("benchmarks/bench_shared_device.py", "--smoke")),
    # The tracing guard fence needs no flow: it is a tier-1 count in
    # tests/test_tracing.py over the single-host serving path.
    Flow(
        "figure-scripts",
        (
            "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-o", "python_files=bench_*.py", "benchmarks", "--ignore=benchmarks/perf",
        ),
        cheap=False,
    ),
)

_COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".mypy_cache", ".pytest_cache", ".hypothesis",
    "*.egg-info", "build", "dist",
)


class FlowFailed(RuntimeError):
    """A flow exited non-zero; its reach would be an undercount."""


class FlowReach(NamedTuple):
    """What one flow touched under the package."""

    sites: Set[Site]
    #: ``path::Class.field`` keys of the config fields it set.
    fields: Set[str]
    #: ``path::qualname(param)`` keys of the defaulted parameters it set.
    params: Set[str]


# ------------------------------------------------------------------ the AST side
def _modules(root: Path, package: str) -> Iterator[Tuple[str, ast.AST]]:
    """``(path relative to root, parsed module)`` for every file under *package*."""
    for path in sorted((root / package).rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        yield rel, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defs(
    root: Path, package: str
) -> Iterator[Tuple[Site, str, int, "ast.FunctionDef | ast.AsyncFunctionDef"]]:
    """``((file, first line), key, lines, node)`` for every ``def`` under *package*.

    The key is ``path::qualname`` (``<locals>`` for nested functions, a
    ``#2`` suffix on a repeated qualname such as a property setter).
    """
    for rel, tree in _modules(root, package):
        seen: Dict[str, int] = {}
        found: List[Tuple[Site, str, int, Any]] = []

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    seen[qualname] = seen.get(qualname, 0) + 1
                    suffix = f"#{seen[qualname]}" if seen[qualname] > 1 else ""
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    end = child.end_lineno or child.lineno
                    key = f"{rel}::{qualname}{suffix}"
                    found.append(((rel, first), key, end - first + 1, child))
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
        yield from found


def function_defs(root: Path, package: str = PACKAGE) -> Dict[Site, Tuple[str, int]]:
    """``(file, first line) -> (key, lines)`` for every ``def`` under *package*."""
    return {site: (key, lines) for site, key, lines, _node in _defs(root, package)}


def param_defaults(root: Path, package: str = PACKAGE) -> Set[str]:
    """``path::qualname(param)`` for every defaulted parameter of a ``def``
    under *package*: the positional tail that ``defaults`` covers and every
    keyword-only parameter with a default."""
    keys: Set[str] = set()
    for _site, key, _lines, node in _defs(root, package):
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        tail = positional[len(positional) - len(args.defaults):] if args.defaults else []
        keyword = [
            arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
        ]
        keys.update(f"{key}({arg.arg})" for arg in [*tail, *keyword])
    return keys


def config_fields(root: Path, package: str = PACKAGE) -> Set[str]:
    """``path::Class.field`` for every field of a :data:`CONFIG_CLASSES` class
    under *package*."""
    return {
        f"{rel}::{config.node.name}.{name}"
        for rel, tree in _modules(root, package)
        for config in config_classes(tree)
        if config.node.name in CONFIG_CLASSES
        for name, _node in config.fields
    }


# ----------------------------------------------------------------- the flow side
class _ProfileChain:
    """Keeps the recorder installed while the flow sets its own profiler.

    Stands in for ``sys.setprofile`` / ``sys.getprofile``: the flow's
    profiler runs behind the recorder, ``getprofile`` returns the flow's
    own, and installing the recorder or the chain itself again is a no-op.
    """

    def __init__(self, record: Callable[[Any, str, Any], None]) -> None:
        self.record = record
        self.inner: Optional[Callable[[Any, str, Any], Any]] = None
        self.installed: Callable[[Any, str, Any], Any] = record
        self._real_set = sys.setprofile

    def setprofile(self, function: Optional[Callable[[Any, str, Any], Any]]) -> None:
        if function is self.record or function is self.installed:
            return
        self.inner = function
        if function is None:
            self.installed = self.record
        else:
            record = self.record

            def chained(frame: Any, event: str, arg: Any) -> None:
                record(frame, event, arg)
                function(frame, event, arg)

            self.installed = chained
        self._real_set(self.installed)

    def getprofile(self) -> Optional[Callable[[Any, str, Any], Any]]:
        return self.inner


def _run_argv(argv: Sequence[str]) -> int:
    """Run ``python *argv`` in this process; return its exit code."""
    try:
        if argv[0] == "-m":
            sys.argv = [argv[1], *argv[2:]]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            script = os.path.abspath(argv[0])
            sys.argv = [script, *argv[1:]]
            sys.path.insert(0, os.path.dirname(script))
            runpy.run_path(script, run_name="__main__")
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        print(exc.code, file=sys.stderr)
        return 1
    return 0


def _is_default(field: "dataclasses.Field[Any]", value: Any) -> bool:
    """Whether *value* is *field*'s default; a field without one is always set."""
    if field.default is not dataclasses.MISSING:
        return bool(value == field.default)
    if field.default_factory is not dataclasses.MISSING:
        return bool(value == field.default_factory())
    return False


def _is_default_arg(value: Any, default: Any) -> bool:
    """Whether an argument is its parameter's default: identity, then ``==``;
    an array (anything with a non-zero ``ndim``) always counts as set."""
    if value is default:
        return True
    if getattr(value, "ndim", 0) or getattr(default, "ndim", 0):
        return False
    try:
        return bool(value == default)
    except Exception:  # an __eq__ that cannot answer: count it as set
        return False


def _function_of(code: Any, qualname: str, namespace: Mapping[str, Any]) -> Any:
    """The function object whose ``__code__`` is *code*: looked up by its
    qualname in its module's globals (unwrapping methods, properties and
    decorators), else found among the code object's referrers."""
    if "<locals>" not in qualname:
        obj: Any = namespace.get(qualname.split(".")[0])
        for part in qualname.split(".")[1:]:
            obj = vars(obj).get(part) if hasattr(obj, "__dict__") else None
        attrs = ("__func__", "fget", "fset", "fdel", "__wrapped__")
        for candidate in (obj, *(getattr(obj, attr, None) for attr in attrs)):
            if getattr(candidate, "__code__", None) is code:
                return candidate
    for ref in gc.get_referrers(code):
        if inspect.isfunction(ref) and ref.__code__ is code:
            return ref
    return None


_GENERATOR_FLAGS = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR


def _watch(
    code: Any, namespace: Mapping[str, Any], key: str
) -> Optional[Tuple[str, Optional[int], Dict[str, Any]]]:
    """``(key, first-entry offset, {param: default})`` for a package function
    with defaulted parameters, else ``None``.  A generator's frame fires
    ``"call"`` on every resumption; only the one at the first-entry offset
    (its first ``RESUME``, or -1 before Python 3.11) still holds the
    arguments.  The offset is ``None`` for any other function."""
    function = _function_of(code, key.split("::", 1)[1].split("#")[0], namespace)
    if function is None:
        return None
    positional = code.co_varnames[: code.co_argcount]
    defaults = dict(zip(positional[::-1], (function.__defaults__ or ())[::-1]))
    defaults.update(function.__kwdefaults__ or {})
    if not defaults:
        return None
    first = None
    if code.co_flags & _GENERATOR_FLAGS:
        first = next((i.offset for i in dis.get_instructions(code) if i.opname == "RESUME"), -1)
    return key, first, defaults


def _record(out: str, root: str, package: str, argv: Sequence[str]) -> int:
    """Run one flow under the recorder; dump the package sites, fields and
    parameters it touched."""
    codes: Set[Any] = set()
    fields: Set[str] = set()
    params: Set[str] = set()
    prefix = os.path.join(root, package, "")
    defs = function_defs(Path(root), package)
    #: code object -> what is still unseen of its defaulted parameters (None:
    #: nothing left to watch, or not a package function).
    watching: Dict[Any, Optional[Tuple[str, Optional[int], Dict[str, Any]]]] = {}

    def record(frame: Any, event: str, _arg: Any) -> None:
        if event == "call":
            code = frame.f_code
            codes.add(code)
            try:
                watched = watching[code]
            except KeyError:
                watched = None
                if code.co_filename.startswith(prefix) and code.co_flags & inspect.CO_OPTIMIZED:
                    path = Path(os.path.relpath(code.co_filename, root)).as_posix()
                    site = defs.get((path, code.co_firstlineno))
                    if site is not None:
                        watched = _watch(code, frame.f_globals, site[0])
                watching[code] = watched
            if watched is None:
                return
            key, first, defaults = watched
            if first is not None and frame.f_lasti > first:
                return
            arguments = frame.f_locals
            for name, default in list(defaults.items()):
                if not _is_default_arg(arguments.get(name, default), default):
                    params.add(f"{key}({name})")
                    del defaults[name]
            if not defaults:
                watching[code] = None
        elif event == "return" and frame.f_code.co_name == "__post_init__":
            # On return, not call: __post_init__ normalises some values.
            config = frame.f_locals.get("self")
            name = type(config).__name__
            filename = frame.f_code.co_filename
            if name in CONFIG_CLASSES and filename.startswith(prefix):
                path = Path(os.path.relpath(filename, root)).as_posix()
                fields.update(
                    f"{path}::{name}.{field.name}"
                    for field in dataclasses.fields(config)
                    if not _is_default(field, getattr(config, field.name))
                )

    chain = _ProfileChain(record)
    real_set, real_get = sys.setprofile, sys.getprofile
    sys.setprofile, sys.getprofile = chain.setprofile, chain.getprofile  # type: ignore[assignment]
    real_set(record)
    try:
        status = _run_argv(argv)
    finally:
        real_set(None)
        sys.setprofile, sys.getprofile = real_set, real_get  # type: ignore[assignment]
    sites = sorted(
        (Path(os.path.relpath(code.co_filename, root)).as_posix(), code.co_firstlineno)
        for code in codes
        # Only function bodies: a module body (not CO_OPTIMIZED) would shadow
        # a ``def`` on line 1, and lambdas or comprehensions are no ``def``.
        if code.co_filename.startswith(prefix)
        and code.co_flags & inspect.CO_OPTIMIZED
        and not code.co_name.startswith("<")
    )
    recorded = {"sites": sites, "fields": sorted(fields), "params": sorted(params)}
    Path(out).write_text(json.dumps(recorded), encoding="utf-8")
    return status


def run_flows(
    root: Path, flows: Sequence[Flow], package: str = PACKAGE
) -> Dict[str, FlowReach]:
    """Flow name -> the ``(file, first line)`` sites it enters under *package*
    and the config fields and defaulted parameters it sets.

    Each flow runs in its own scratch copy of *root*, so nothing it writes
    reaches the real tree (or the next flow).
    """
    lint_parent = str(Path(__file__).resolve().parent.parent)
    reached: Dict[str, FlowReach] = {}
    for flow in flows:
        with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
            copy = Path(scratch) / "tree"
            shutil.copytree(root, copy, ignore=_COPY_IGNORE)
            out = Path(scratch) / "sites.json"
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(copy / Path(package).parent), str(copy), lint_parent]
            )
            proc = subprocess.run(
                [
                    sys.executable, "-m", "repro_lint.reach",
                    "--record", str(out), str(copy), package, "--", *flow.argv,
                ],
                cwd=copy,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            if proc.returncode != 0 or not out.exists():
                raise FlowFailed(
                    f"flow {flow.name!r} exited {proc.returncode}:\n{proc.stdout[-3000:]}"
                )
            recorded = json.loads(out.read_text())
            reached[flow.name] = FlowReach(
                {(path, line) for path, line in recorded["sites"]},
                set(recorded["fields"]),
                set(recorded["params"]),
            )
    return reached


# ------------------------------------------------------------------ the diff
def load_reach(root: Path) -> Dict[str, Any]:
    path = root / REACH_FILE
    if not path.exists():
        return {"verdicts": {}, "figure_only": [], "fields": {}, "params": {}}
    return json.loads(path.read_text(encoding="utf-8"))


def _reached_keys(
    defs: Mapping[Site, Tuple[str, int]], reached: Mapping[str, FlowReach]
) -> Dict[str, Set[str]]:
    """Flow name -> the keys of the functions it entered."""
    return {
        name: {defs[site][0] for site in flow.sites if site in defs}
        for name, flow in reached.items()
    }


def _stale(
    label: str, entries: Iterable[str], keys: Set[str], used_by: Mapping[str, Set[str]], verb: str
) -> Iterator[str]:
    """Entries whose key is gone, or that a flow in *used_by* now covers."""
    for key in sorted(entries):
        flows = ", ".join(sorted(name for name, used in used_by.items() if key in used))
        if key not in keys:
            yield f"stale {label}: {key} no longer exists"
        elif flows:
            yield f"stale {label}: {key} is {verb} by {flows}"


def find_problems(
    defs: Mapping[Site, Tuple[str, int]],
    fields: Set[str],
    params: Set[str],
    reached: Mapping[str, FlowReach],
    reach: Mapping[str, Any],
) -> List[str]:
    """Every way *reach* disagrees with what the cheap flows in *reached* touched."""
    all_keys = {key for key, _lines in defs.values()}
    reached_by = _reached_keys(defs, reached)
    set_by = {name: flow.fields for name, flow in reached.items()}
    params_set_by = {name: flow.params for name, flow in reached.items()}
    verdicts: Mapping[str, str] = reach.get("verdicts", {})
    figure_only = set(reach.get("figure_only", []))
    field_verdicts: Mapping[str, str] = reach.get("fields", {})
    param_verdicts: Mapping[str, str] = reach.get("params", {})
    problems = [
        *_stale("verdict", verdicts, all_keys, reached_by, "reached"),
        *_stale("figure_only", figure_only, all_keys, reached_by, "reached"),
        *_stale("field verdict", field_verdicts, fields, set_by, "set"),
        *_stale("param verdict", param_verdicts, params, params_set_by, "set"),
    ]
    problems += [
        f"bad verdict for {key}: {verdict!r} (want 'delete', "
        "'test-oracle → tests/' or 'keep: <reason>')"
        for key, verdict in sorted({**verdicts, **field_verdicts, **param_verdicts}.items())
        if not VERDICT_RE.match(verdict)
    ]
    both = sorted(figure_only & set(verdicts))
    problems += [f"{key} is both in verdicts and figure_only" for key in both]
    unreached = all_keys - set().union(*reached_by.values()) - set(verdicts) - figure_only
    problems += [f"unreached without verdict: {key}" for key in sorted(unreached)]
    never_set = fields - set().union(*set_by.values()) - set(field_verdicts)
    problems += [f"never-set field without verdict: {key}" for key in sorted(never_set)]
    unset = params - set().union(*params_set_by.values()) - set(param_verdicts)
    problems += [f"never-set parameter without verdict: {key}" for key in sorted(unset)]
    return problems


def check(root: Path, flows: Sequence[Flow] = FLOWS, package: str = PACKAGE) -> List[str]:
    """Run the cheap flows and diff what they touch against ``REACH.json``."""
    reached = run_flows(root, [flow for flow in flows if flow.cheap], package)
    return find_problems(
        function_defs(root, package),
        config_fields(root, package),
        param_defaults(root, package),
        reached,
        load_reach(root),
    )


def write(root: Path, flows: Sequence[Flow] = FLOWS, package: str = PACKAGE) -> Dict[str, int]:
    """Run every flow and regenerate ``REACH.json``; return a summary.

    The ``fields`` and ``params`` sections list what no *cheap* flow sets,
    like ``--check`` sees it: a field or parameter only the figure scripts
    set needs a ``keep:`` naming the figure.
    """
    defs = function_defs(root, package)
    fields = config_fields(root, package)
    params = param_defaults(root, package)
    reached = run_flows(root, flows, package)
    reached_by = _reached_keys(defs, reached)
    by_cheap = set().union(*(reached_by[flow.name] for flow in flows if flow.cheap))
    by_any = set().union(*reached_by.values())
    cheap = [reached[flow.name] for flow in flows if flow.cheap]
    set_by_cheap = set().union(*(flow.fields for flow in cheap))
    params_by_cheap = set().union(*(flow.params for flow in cheap))
    lines = {key: count for key, count in defs.values()}
    unreached = sorted(set(lines) - by_any)
    never_set = sorted(fields - set_by_cheap)
    params_never_set = sorted(params - params_by_cheap)
    old = load_reach(root)
    doc = {
        "verdicts": {key: old.get("verdicts", {}).get(key, "") for key in unreached},
        "figure_only": sorted(by_any - by_cheap),
        "fields": {key: old.get("fields", {}).get(key, "") for key in never_set},
        "params": {key: old.get("params", {}).get(key, "") for key in params_never_set},
    }
    (root / REACH_FILE).write_text(
        json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    return {
        "defs": len(lines),
        "unreached": len(unreached),
        "unreached_lines": sum(lines[key] for key in unreached),
        "figure_only": len(doc["figure_only"]),
        "fields": len(fields),
        "never_set": len(never_set),
        "params": len(params),
        "params_never_set": len(params_never_set),
        "missing_verdicts": sum(
            1
            for section in ("verdicts", "fields", "params")
            for v in doc[section].values()
            if not v
        ),
    }


# --------------------------------------------------------------------- CLI
def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args[:1] == ["--record"]:
        # Internal: ``--record OUT ROOT PACKAGE -- FLOW_ARGV...``, run by run_flows.
        return _record(args[1], args[2], args[3], args[5:])
    parser = argparse.ArgumentParser(
        prog="python -m repro_lint.reach",
        description="Flow-reachability audit of src/repro against REACH.json.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="diff the flows against REACH.json")
    mode.add_argument("--write", action="store_true", help="run every flow, rewrite REACH.json")
    parser.add_argument("--root", default=".", help="repo root (default: cwd)")
    opts = parser.parse_args(args)
    root = Path(opts.root).resolve()
    try:
        if opts.write:
            summary = write(root)
            print(
                f"{REACH_FILE}: {summary['defs']} defs, {summary['unreached']} reached by "
                f"no flow ({summary['unreached_lines']} lines), {summary['figure_only']} "
                f"figure-only; {summary['fields']} config fields, {summary['never_set']} "
                f"set by no cheap flow; {summary['params']} defaulted parameters, "
                f"{summary['params_never_set']} set by no cheap flow; "
                f"{summary['missing_verdicts']} need a verdict"
            )
            return 0
        problems = check(root)
    except FlowFailed as exc:
        print(f"repro-lint reach: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(problem)
    print(f"{REACH_FILE}: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
