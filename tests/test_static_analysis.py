"""Tier-2 wrappers that run the repo's static analysis as pytest tests.

Two gates, mirroring CI's ``static-analysis`` job:

* ``repro-lint`` — the AST invariant checker must report a clean tree for
  ``src``, ``tests`` and ``benchmarks`` (same invocation as
  ``python -m repro_lint src tests benchmarks``).
* ``mypy`` — ``src/repro`` must type-check under the committed ``mypy.ini``.
  mypy is not vendored into the minimal dev container, so this test skips
  when it is not importable; CI installs it and enforces the gate.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro_lint import render_text

REPO_ROOT = Path(__file__).resolve().parent.parent
LINT_TARGETS = ("src", "tests", "benchmarks")


class TestReproLintGate:
    def test_tree_is_clean(self, repo_lint_result):
        result = repo_lint_result
        assert result.files_checked > 0
        assert result.clean, "\n" + render_text(result)

    def test_cli_invocation_matches(self):
        # The exact command CI (and the README) documents.
        proc = subprocess.run(
            [sys.executable, "-m", "repro_lint", *LINT_TARGETS],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestMypyGate:
    def test_src_repro_type_checks(self):
        pytest.importorskip("mypy", reason="mypy not installed; CI enforces this gate")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "mypy",
                "--config-file",
                "mypy.ini",
                "src/repro",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
