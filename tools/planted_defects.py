"""Run each row of the register of planted defects against its named killer.

Each row of ``planted_defects.json`` names a file, an exact text that occurs once
in it, the defective text that replaces it, why the defect matters and
``killer``, the test that must fail with the defect planted. For each row the
repository is copied to a temporary directory, the defect is planted in the copy
and only the killer runs there, alone: ``pytest -q -p no:cacheprovider KILLER``.
A copy is needed because pyproject.toml puts the ``src`` of the directory pytest
runs in first on the path. The working tree is never edited.

    python3 tools/planted_defects.py            # every row
    python3 tools/planted_defects.py dof-plus-one clamp-lower

A row is killed only when pytest exits 1: its killer ran and failed. Prints one
line per row and exits 1 if any killer passes, is not collected or fails at
collection, if a killer is one of the two byte-digest tests (they fail on any
moved digit, so they cannot show whether a semantic test sees the defect), or
if a row's old text is missing or not unique.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
REGISTER = Path(__file__).with_name("planted_defects.json")
DIGEST_TESTS = (
    "tests/test_cli.py::test_artifacts_keep_their_recorded_digests",
    "tests/test_cli.py::test_roundtrip_takes_no_file_detour",
)
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench")
OUTCOMES = {  # pytest's exit codes
    0: "survived", 1: "killed", 2: "collection error", 4: "killer not found or not importable", 5: "no test collected",
}


def plant(copy: Path, row: dict) -> None:
    """Replace the row's old text, which must occur exactly once, in the copy."""
    path = copy / row["file"]
    text = path.read_text(encoding="utf-8")
    count = text.count(row["old"])
    if count != 1:
        raise ValueError(f"old text occurs {count} times in {row['file']}")
    path.write_text(text.replace(row["old"], row["new"]), encoding="utf-8")


def run_killer(row: dict) -> str:
    """Plant the row in a copy of the tree and run its killer there: "killed" or why not."""
    if row["killer"].split("[")[0] in DIGEST_TESTS:
        return "killer is a byte-digest test"
    with tempfile.TemporaryDirectory(prefix="planted-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(REPO, copy, ignore=IGNORED)
        try:
            plant(copy, row)
        except ValueError as exc:
            return str(exc)
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", row["killer"]],
            cwd=copy, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
    return OUTCOMES.get(code, f"pytest exit {code}")


def main(argv: list[str]) -> int:
    rows = json.loads(REGISTER.read_text(encoding="utf-8"))
    unknown = set(argv) - {row["id"] for row in rows}
    if unknown:
        print(f"unknown rows: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = []
    for row in rows:
        if argv and row["id"] not in argv:
            continue
        start = time.perf_counter()
        outcome = run_killer(row)
        print(f"{row['id']}: {outcome}  {row['killer']}  [{time.perf_counter() - start:.1f} s]", flush=True)
        if outcome != "killed":
            bad.append(row["id"])
    if bad:
        print(f"not killed by their killers: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
