"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

Checks that a recovery with one parameter shifted and a run that exits
non-zero both count as failed operations, that a verify transcript with a
FAIL line is rejected, that every workload prints exactly the metric names of
BENCHMARK.json in both modes, and that a directory without the program makes
the benchmark exit non-zero without a result.  Takes about three minutes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import inputs
import run
from checks import check_verify_output

HERE = Path(__file__).resolve().parent
FAILURES = []


def expect(name: str, ok: bool) -> None:
    print(f"{name:60s} {'PASS' if ok else 'FAIL'}")
    if not ok:
        FAILURES.append(name)


def check_failure_accounting(work: Path) -> None:
    sys.path.insert(0, str(run.SRC))
    args = argparse.Namespace(workload="roundtrip-cold", seed=5, seconds=0, trace=0)
    r = run.Run(args, work)
    pool, paths = r.cli_setup(inputs.roundtrip_config, 1)
    report = work / "report-good.json"
    code, _, _ = r.cli("roundtrip", "--config", str(paths[0]), "--out", str(report))
    expect("exact round trip exits 0", code == 0)
    document = json.loads(report.read_text())

    r.check_report("unshifted", document, pool[0])
    expect("the true parameters pass", r.failed == 0)
    shifted = dict(pool[0], perturbation=list(pool[0]["perturbation"]))
    shifted["perturbation"][0] += 0.01  # a_r_up, an identifiable parameter
    r.check_report("shifted", document, shifted)
    expect("a recovery with one parameter shifted is a failed op", r.failed == 1)

    bad = work / "bad.json"
    bad.write_text(json.dumps(dict(pool[0], eta=-1.0)))
    data, _ = r.cli_roundtrip("bad", pool[0], bad)
    expect("a run that exits non-zero is a failed op", data is None and r.failed == 2)
    expect("attempted counts every op", r.attempted == 3)

    good = "\n".join(f"check-{i}  PASS" for i in range(11)) + "\n"
    expect("11 PASS lines are accepted", check_verify_output(0, good) == [])
    failed = good.replace("check-3  PASS", "check-3  FAIL  assertion failed")
    expect("a FAIL line is rejected", check_verify_output(5, failed) != [])


def check_metric_names() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for trace in (0, 1):
        for w in spec["workloads"]:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=300,
            )
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            expect(f"{w['name']} --trace {trace}: metrics match BENCHMARK.json",
                   got == wanted[trace] and result.get("correct") is True)


def check_missing_program(work: Path) -> None:
    bare = work / "bare"
    bare.mkdir()
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "roundtrip-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect("without the program: non-zero exit, no result",
           proc.returncode != 0 and '"correct"' not in proc.stdout)


def main() -> int:
    work = run.ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        check_failure_accounting(work)
        check_missing_program(work)
        check_metric_names()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selftest: {len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
