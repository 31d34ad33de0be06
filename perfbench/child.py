"""Fresh-interpreter helpers started by run.py, one at a time.

    python3 perfbench/child.py roundtrip CONFIG WORKDIR   traced round trip
    python3 perfbench/child.py verify                     traced verify checks
    python3 perfbench/child.py setup SEED                 one sweep-warm set-up

Each prints one JSON object on stdout.  sgkit must be importable (run.py puts
the tree's ``src`` first on PYTHONPATH).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from spans import Tracer


def _roundtrip(config_path: str, workdir: str) -> dict:
    tracer = Tracer()
    with tracer.span("cli.import"):
        import sgkit.cli  # noqa: F401  (what a fresh ``sg`` process pays)
    import ops
    from checks import report_of

    result, quality, records = ops.roundtrip_calls(
        config_path, Path(workdir) / "dataset.csv", tracer.span
    )
    warm = Tracer()
    for _ in range(3):
        ops.warm_design(warm.span)
    report = {k: _plain(v) for k, v in report_of(result, quality.compatible).items()}
    return {
        "spans": tracer.spans,
        "warm_spans": warm.spans,
        "report": report,
        "records": records,
        "dataset_bytes": (Path(workdir) / "dataset.csv").stat().st_size,
    }


def _verify() -> dict:
    tracer = Tracer()
    with tracer.span("cli.import"):
        import sgkit.cli  # noqa: F401
    from sgkit import verify

    checks = []
    for name, check in verify.ALL_CHECKS:
        with tracer.span(f"verify.{name}"):
            try:
                check()
                checks.append([name, True])
            except AssertionError:
                checks.append([name, False])
    return {"spans": tracer.spans, "checks": checks}


def _setup(seed: str) -> dict:
    import ops

    start = time.perf_counter()
    ops.sweep_setup(int(seed))
    return {"setup_s": time.perf_counter() - start}


def _plain(value):
    return value.tolist() if hasattr(value, "tolist") else value


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    out = {"roundtrip": _roundtrip, "verify": _verify, "setup": _setup}[mode](*args)
    print(json.dumps(out))
