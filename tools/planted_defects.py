"""Run the register of planted defects against the Tier-1 suite.

Each row of ``planted_defects.json`` names a file, an exact text that occurs once
in it, the defective text that replaces it, why the defect matters and the test
expected to fail first. For each row the repository is copied to a temporary
directory, the defect is planted in the copy and ``pytest -x -q`` runs there,
with the two byte-digest tests deselected: they fail on any moved digit, so
they would hide whether a semantic test sees the defect. A copy is needed
because pyproject.toml puts the ``src`` of the directory pytest runs in first
on the path. The working tree is never edited.

    python3 tools/planted_defects.py            # every row
    python3 tools/planted_defects.py dof-plus-one clamp-lower

Prints one line per row, the first failing test or "survived", and exits 1 if
any row survives or names an old text that is missing or not unique.
"""

from __future__ import annotations

import json
import os
import re
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
FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def plant(copy: Path, row: dict) -> None:
    """Replace the row's old text, which must occur exactly once, in the copy."""
    path = copy / row["file"]
    text = path.read_text(encoding="utf-8")
    count = text.count(row["old"])
    if count != 1:
        raise ValueError(f"{row['id']}: old text occurs {count} times in {row['file']}")
    path.write_text(text.replace(row["old"], row["new"]), encoding="utf-8")


def first_failure(row: dict) -> str:
    """The first test that fails with the row planted, or "survived"."""
    with tempfile.TemporaryDirectory(prefix="planted-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(REPO, copy, ignore=IGNORED)
        plant(copy, row)
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        deselect = [arg for test in DIGEST_TESTS for arg in ("--deselect", test)]
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *deselect],
            cwd=copy, env=env, capture_output=True, text=True, stdin=subprocess.DEVNULL,
        )
    if proc.returncode == 0:
        return "survived"
    match = FIRST_FAILURE.search(proc.stdout)
    last_line = (proc.stdout.strip().splitlines() or [""])[-1]
    return match[1] if match else f"pytest exit {proc.returncode}: {last_line}"


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
        try:
            killer = first_failure(row)
        except ValueError as exc:  # the old text is missing or not unique
            print(exc, flush=True)
            bad.append(row["id"])
            continue
        note = "" if killer == row["killer"] else f"  (register names {row['killer']})"
        print(f"{row['id']}: {killer}  [{time.perf_counter() - start:.1f} s]{note}", flush=True)
        if killer == "survived":
            bad.append(row["id"])
    if bad:
        print(f"survived or not planted: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
