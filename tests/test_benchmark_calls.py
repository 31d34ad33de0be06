"""The benchmark's calls into sgkit still run.

``perfbench/`` imports sgkit's public functions by name, so deleting or
changing one of them breaks the benchmark without failing any other test.
This runs the benchmark's per-call probes and one simulate-and-recover
operation, with the probes cut to a single untimed pass, and the benchmark's
traced verify suite, each in a fresh interpreter with ``src`` and
``perfbench`` on the path.  It only reads ``perfbench/``.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_benchmark_calls_into_sgkit_run(tmp_path):
    code = textwrap.dedent(
        f"""
        import inputs, layers, ops
        from spans import no_span

        layers.PROBE_MIN_S = 0
        layers.PROBE_REPEATS = 1
        pool = inputs.config_pool(1, inputs.sweep_config, 8)
        probes = layers.probe_metrics(pool)
        assert all(value > 0 for value in probes.values()), probes
        # index 4 is exact data with strict normalization on the bundled grid
        config = ops.experiment_config(pool[4])
        result, quality, records = ops.simulate_and_recover(config, {str(tmp_path / "data.csv")!r}, no_span)
        assert records == 288 and result.rank == 12 and quality.compatible, (records, result.rank)
        """
    )
    proc = run_with_perfbench("-c", code)
    assert proc.returncode == 0, proc.stderr.strip()


def test_benchmark_verify_runs_every_check():
    """``child.py verify`` calls each of ``verify.ALL_CHECKS`` with no arguments."""
    proc = run_with_perfbench(str(REPO / "perfbench" / "child.py"), "verify")
    assert proc.returncode == 0, proc.stderr.strip()
    checks = json.loads(proc.stdout.splitlines()[-1])["checks"]
    assert len(checks) == 11 and all(ok for _, ok in checks), checks


def run_with_perfbench(*args) -> subprocess.CompletedProcess:
    """``python ARGS`` in a fresh interpreter with ``src`` and ``perfbench`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), str(REPO / "perfbench"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, stdin=subprocess.DEVNULL, timeout=120,
    )
