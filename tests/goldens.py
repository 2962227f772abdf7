"""The one regenerator of ``tests/goldens.json``, the golden ledger.

``python -m tests.goldens [--only NAME ...]`` runs each (or each named)
entry's producer and writes its output as the entry's value; on an unchanged
tree the file comes back byte for byte.  A new pin is an entry added by hand
(``producer`` and ``"value": null``), then written by this command.
``--check-changelog BASE`` writes nothing and exits 1 when an entry changed
since its merge base with git revision ``BASE`` and no line added to
CHANGES.md since then names it.  The module runs its command on import.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tests.conftest import (  # noqa: E402 - needs src on the path
    GOLDENS_PATH,
    dump_goldens,
    load_goldens,
    produce_golden,
    unnamed_changes,
)

parser = argparse.ArgumentParser(prog="python -m tests.goldens")
parser.add_argument("--only", action="append", metavar="NAME", help="re-pin this entry only")
parser.add_argument("--check-changelog", metavar="BASE", help="check CHANGES.md names changes")
args = parser.parse_args()
ledger = load_goldens()


def git(*argv: str) -> subprocess.CompletedProcess:
    root = GOLDENS_PATH.parent.parent
    return subprocess.run(["git", *argv], cwd=root, capture_output=True, text=True)


if args.check_changelog:
    base = git("merge-base", args.check_changelog, "HEAD").stdout.strip()
    if not base:
        sys.exit(f"no merge base with {args.check_changelog}")
    shown = git("show", f"{base}:tests/goldens.json")
    old = json.loads(shown.stdout) if shown.returncode == 0 else {}
    diff = git("diff", base, "--", "CHANGES.md").stdout.splitlines()
    added = [line for line in diff if line.startswith("+") and not line.startswith("+++")]
    unnamed = unnamed_changes(old, ledger, added)
    for name in unnamed:
        print(f"tests/goldens.json entry {name!r} changed; no line added to CHANGES.md names it")
    sys.exit(1 if unnamed else 0)

unknown = set(args.only or ()) - set(ledger)
if unknown:
    parser.error(f"no ledger entry named {', '.join(sorted(unknown))}")
for name, entry in ledger.items():
    if args.only is None or name in args.only:
        print(f"re-pinning {name} ({entry['producer']})", file=sys.stderr)
        entry["value"] = produce_golden(entry)
GOLDENS_PATH.write_text(dump_goldens(ledger))
