"""The register of planted defects still fits the tree.

``tools/planted_defects.py`` plants each row in a copy of the tree and runs its
killer there, which takes about a minute and runs only in CI. This test plants
nothing: it reads the register, the files it edits and the killers' test
modules, so a renamed test or a reformatted source line fails Tier-1 at once.
"""

import json
import runpy
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RUNNER = runpy.run_path(str(REPO / "tools" / "planted_defects.py"))


def test_register_rows_can_be_planted_and_name_existing_killers():
    rows = json.loads(RUNNER["REGISTER"].read_text(encoding="utf-8"))
    ids = [row["id"] for row in rows]
    assert len(set(ids)) == len(ids)
    killers = {row["id"]: row["killer"].split("[")[0] for row in rows}  # a parametrized killer runs one case
    # A module's globals are the tests pytest collects from it, table-made ones included.
    paths = {killer.split("::")[0] for killer in killers.values()}
    modules = {path: runpy.run_path(str(REPO / path)) for path in paths}
    for row in rows:
        assert (REPO / row["file"]).read_text(encoding="utf-8").count(row["old"]) == 1, row["id"]
        assert row["new"] != row["old"], row["id"]
        path, name = killers[row["id"]].split("::")
        assert path.startswith("tests/test_") and name.startswith("test_"), row["id"]
        assert callable(modules[path].get(name)), row["id"]
        assert killers[row["id"]] not in RUNNER["DIGEST_TESTS"], row["id"]
