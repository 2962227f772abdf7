"""Flow-reachability audit: which ``src/repro`` functions does no flow enter?

``python -m repro_lint.reach --check`` (from the repo root) runs the cheap
:data:`FLOWS` — the three examples, the two-clock benchmark's ``--selfcheck``
and four ``--smoke`` benchmarks — each under a ``sys.setprofile`` recorder,
and diffs the functions they enter against every ``def`` that ``ast`` finds
under ``src/repro``.  Every ``def`` no cheap flow reaches must be listed in
the committed ``REACH.json``:

``verdicts``
    Functions no flow at all reaches, each with one verdict: ``delete``,
    ``test-oracle → tests/`` (kept only as a test's reference; belongs in
    ``tests/``) or ``keep: <reason>``.
``figure_only``
    Functions only the expensive flow reaches (the 19 ``bench_*`` figure and
    table functions under pytest).

``--check`` fails on an unreached ``def`` that is in neither list, on a stale
entry (the ``def`` is gone or a cheap flow now reaches it) and on a malformed
verdict.  ``--write`` runs every flow and regenerates both lists, keeping
existing verdicts (a new entry gets an empty one, which ``--check`` rejects
until someone writes it); the expensive flow needs ``pytest-benchmark``.

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
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

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
    # Left out: bench_tracing_overhead.py (asserts a wall-clock bound a
    # profiler breaks; it runs bench_serving_latency's path) and
    # perf_track.py (its wall-clock floors fail under a profiler; its
    # simulated legs are the four smokes and bench_replay_throughput, which
    # the figure-scripts flow runs — it enters no def they do not).
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
    ".benchmarks", "*.egg-info", "build", "dist",
)


class FlowFailed(RuntimeError):
    """A flow exited non-zero; its reach would be an undercount."""


# ------------------------------------------------------------------ the AST side
def function_defs(root: Path, package: str = PACKAGE) -> Dict[Site, Tuple[str, int]]:
    """``(file, first line) -> (key, lines)`` for every ``def`` under *package*.

    The key is ``path::qualname`` (``<locals>`` for nested functions, a
    ``#2`` suffix on a repeated qualname such as a property setter).
    """
    defs: Dict[Site, Tuple[str, int]] = {}
    for path in sorted((root / package).rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        seen: Dict[str, int] = {}

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    seen[qualname] = seen.get(qualname, 0) + 1
                    suffix = f"#{seen[qualname]}" if seen[qualname] > 1 else ""
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    end = child.end_lineno or child.lineno
                    defs[(rel, first)] = (f"{rel}::{qualname}{suffix}", end - first + 1)
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "")
    return defs


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


def _record(out: str, root: str, package: str, argv: Sequence[str]) -> int:
    """Run one flow under the recorder; dump the package sites it entered."""
    codes: Set[Any] = set()

    def record(frame: Any, event: str, _arg: Any) -> None:
        if event == "call":
            codes.add(frame.f_code)

    chain = _ProfileChain(record)
    real_set, real_get = sys.setprofile, sys.getprofile
    sys.setprofile, sys.getprofile = chain.setprofile, chain.getprofile  # type: ignore[assignment]
    real_set(record)
    try:
        status = _run_argv(argv)
    finally:
        real_set(None)
        sys.setprofile, sys.getprofile = real_set, real_get  # type: ignore[assignment]
    prefix = os.path.join(root, package, "")
    sites = sorted(
        (Path(os.path.relpath(code.co_filename, root)).as_posix(), code.co_firstlineno)
        for code in codes
        # Only function bodies: a module body (not CO_OPTIMIZED) would shadow
        # a ``def`` on line 1, and lambdas or comprehensions are no ``def``.
        if code.co_filename.startswith(prefix)
        and code.co_flags & inspect.CO_OPTIMIZED
        and not code.co_name.startswith("<")
    )
    Path(out).write_text(json.dumps(sites), encoding="utf-8")
    return status


def run_flows(
    root: Path, flows: Sequence[Flow], package: str = PACKAGE
) -> Dict[str, Set[Site]]:
    """Flow name -> the ``(file, first line)`` sites it enters under *package*.

    Each flow runs in its own scratch copy of *root*, so nothing it writes
    reaches the real tree (or the next flow).
    """
    lint_parent = str(Path(__file__).resolve().parent.parent)
    reached: Dict[str, Set[Site]] = {}
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
            reached[flow.name] = {(path, line) for path, line in json.loads(out.read_text())}
    return reached


# ------------------------------------------------------------------ the diff
def load_reach(root: Path) -> Dict[str, Any]:
    path = root / REACH_FILE
    if not path.exists():
        return {"verdicts": {}, "figure_only": []}
    return json.loads(path.read_text(encoding="utf-8"))


def _reached_keys(
    defs: Mapping[Site, Tuple[str, int]], reached: Mapping[str, Set[Site]]
) -> Dict[str, Set[str]]:
    """Flow name -> the keys of the functions it entered."""
    return {
        name: {defs[site][0] for site in sites if site in defs}
        for name, sites in reached.items()
    }


def find_problems(
    defs: Mapping[Site, Tuple[str, int]],
    reached: Mapping[str, Set[Site]],
    reach: Mapping[str, Any],
) -> List[str]:
    """Every way *reach* disagrees with what the cheap flows in *reached* entered."""
    all_keys = {key for key, _lines in defs.values()}
    reached_by = _reached_keys(defs, reached)
    by_cheap = set().union(*reached_by.values())
    verdicts: Mapping[str, str] = reach.get("verdicts", {})
    figure_only = set(reach.get("figure_only", []))
    problems: List[str] = []

    def flows_reaching(key: str) -> str:
        return ", ".join(sorted(name for name, keys in reached_by.items() if key in keys))

    for key, verdict in sorted(verdicts.items()):
        if key not in all_keys:
            problems.append(f"stale verdict: {key} no longer exists")
        elif key in by_cheap:
            problems.append(f"stale verdict: {key} is reached by {flows_reaching(key)}")
        elif not VERDICT_RE.match(verdict):
            problems.append(
                f"bad verdict for {key}: {verdict!r} (want 'delete', "
                "'test-oracle → tests/' or 'keep: <reason>')"
            )
        if key in figure_only:
            problems.append(f"{key} is both in verdicts and figure_only")
    for key in sorted(figure_only):
        if key not in all_keys:
            problems.append(f"stale figure_only: {key} no longer exists")
        elif key in by_cheap:
            problems.append(f"stale figure_only: {key} is reached by {flows_reaching(key)}")
    for key in sorted(all_keys - by_cheap - set(verdicts) - figure_only):
        problems.append(f"unreached without verdict: {key}")
    return problems


def check(root: Path, flows: Sequence[Flow] = FLOWS, package: str = PACKAGE) -> List[str]:
    """Run the cheap flows and diff what they enter against ``REACH.json``."""
    reached = run_flows(root, [flow for flow in flows if flow.cheap], package)
    return find_problems(function_defs(root, package), reached, load_reach(root))


def write(root: Path, flows: Sequence[Flow] = FLOWS, package: str = PACKAGE) -> Dict[str, int]:
    """Run every flow and regenerate ``REACH.json``; return a summary."""
    defs = function_defs(root, package)
    reached_by = _reached_keys(defs, run_flows(root, flows, package))
    by_cheap = set().union(*(reached_by[flow.name] for flow in flows if flow.cheap))
    by_any = set().union(*reached_by.values())
    lines = {key: count for key, count in defs.values()}
    unreached = sorted(set(lines) - by_any)
    old = load_reach(root).get("verdicts", {})
    doc = {
        "verdicts": {key: old.get(key, "") for key in unreached},
        "figure_only": sorted(by_any - by_cheap),
    }
    (root / REACH_FILE).write_text(
        json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    return {
        "defs": len(lines),
        "unreached": len(unreached),
        "unreached_lines": sum(lines[key] for key in unreached),
        "figure_only": len(doc["figure_only"]),
        "missing_verdicts": sum(1 for key in unreached if not old.get(key)),
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
                f"figure-only; {summary['missing_verdicts']} need a verdict"
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
