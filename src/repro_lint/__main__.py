"""CLI entry point: ``python -m repro_lint [--json] PATH [PATH ...]``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro_lint.framework import RULE_REGISTRY, lint_paths
from repro_lint.reporters import render_json, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant checker for the simulation stack "
            "(seeded RNG, simulated-clock discipline, time-unit hygiene, "
            "validated configs, float-equality in tests, unused imports)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (e.g. src tests benchmarks)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a machine-readable JSON report"
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repo root paths are resolved against (default: cwd)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule_id, cls in RULE_REGISTRY.items():
            print(f"{rule_id} [{cls.name}]: {cls.rationale}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro-lint: error: no paths given", file=sys.stderr)
        return 2
    try:
        result = lint_paths(args.paths, root=Path(args.root))
    except FileNotFoundError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    print(render_json(result) if args.json else render_text(result))
    return 0 if result.clean else 1


if __name__ == "__main__":
    sys.exit(main())
