"""The benchmark's calls into sgkit still run.

``perfbench/`` imports sgkit's public functions by name, so deleting or
changing one of them breaks the benchmark without failing any other test.
One fresh interpreter, with ``src`` and ``perfbench`` on the path, runs the
benchmark's per-call probes and one simulate-and-recover operation, with the
probes cut to a single untimed pass, and then the benchmark's traced verify
suite (``child.py verify``).  It only reads ``perfbench/``.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def benchmark_child(tmp_path_factory) -> subprocess.CompletedProcess:
    """stdout: one JSON line with the first part's traceback (empty if it ran),
    then ``child.py verify``'s output."""
    data = tmp_path_factory.mktemp("benchmark") / "data.csv"
    code = textwrap.dedent(
        f"""
        import json, runpy, sys, traceback
        try:
            import inputs, layers, ops
            from spans import no_span

            layers.PROBE_MIN_S = 0
            layers.PROBE_REPEATS = 1
            pool = inputs.config_pool(1, inputs.sweep_config, 8)
            probes = layers.probe_metrics(pool)
            assert all(value > 0 for value in probes.values()), probes
            # index 4 is exact data with strict normalization on the bundled grid
            config = ops.experiment_config(pool[4])
            result, quality, records = ops.simulate_and_recover(config, {str(data)!r}, no_span)
            assert records == 288 and result.rank == 12 and quality.compatible, (records, result.rank)
            print(json.dumps(""))
        except Exception:
            print(json.dumps(traceback.format_exc()))
        sys.argv = ["child.py", "verify"]
        runpy.run_path({str(REPO / "perfbench" / "child.py")!r}, run_name="__main__")
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), str(REPO / "perfbench"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, stdin=subprocess.DEVNULL, timeout=120,
    )


def test_benchmark_calls_into_sgkit_run(benchmark_child):
    lines = benchmark_child.stdout.splitlines()
    assert lines and json.loads(lines[0]) == "", lines[0] if lines else benchmark_child.stderr


def test_benchmark_verify_runs_every_check(benchmark_child):
    """``child.py verify`` calls each of ``verify.ALL_CHECKS`` with no arguments."""
    assert benchmark_child.returncode == 0, benchmark_child.stderr.strip()
    checks = json.loads(benchmark_child.stdout.splitlines()[-1])["checks"]
    assert len(checks) == 11 and all(ok for _, ok in checks), checks
