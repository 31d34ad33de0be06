"""sgkit benchmark: cold CLI round trips, a warm recovery sweep and the verify suite.

    python3 perfbench/run.py --workload roundtrip-cold --seed 1 --seconds 30 --trace 0

Run it from the root of an sgkit source tree: it measures the package in
``./src`` (never an installed ``sg``, which on Linux is usually the
shadow-utils tool).  Every workload is a closed loop with one client; at most
one child process runs at a time.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics from spans the benchmark records
around its calls into sgkit.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from checks import check_recovery, check_verify_output, recovery_error, report_of
from spans import Tracer, no_span, top_level_total

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORKLOADS = ("roundtrip-cold", "sweep-warm", "verify-suite")
SETUP_REPEATS = 3
MIN_OPS = 3  # op 2 repeats op 1's config, so every run checks determinism
CHILD_TIMEOUT_S = 150
ROUNDTRIP_POOL = 32
VERIFY_POOL = 8

# Workload-specific names of the shared end-to-end metrics, printed beside them.
ALIASES = {
    "roundtrip-cold": {"op_s.p50": "roundtrip_s.p50", "ops_per_s": "roundtrips_per_s"},
    "sweep-warm": {"op_s.p50": "recovery_s.p50", "ops_per_s": "recoveries_per_s"},
    "verify-suite": {"op_s.p50": "verify_s.p50", "ops_per_s": "verifies_per_s"},
}


def config_index(i: int) -> int:
    """Config used by operation i; operation 2 repeats operation 1's config."""
    return i if i < 2 else i - 1


class Run:
    """State of one benchmark run: inputs, counters, latencies and spans."""

    def __init__(self, args, work: Path):
        from sgkit.linearize import gauge_directions

        self.gauge = gauge_directions()
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.work = work
        self.tracer = Tracer()
        path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "TMPDIR": str(work)}
        self.setup_s: list[float] = []
        self.latency: list[float] = []
        self.errors: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.ops = 0
        self.loop_s = 0.0
        self.pairs: list[tuple[float, float]] = []  # (untraced, traced) op seconds
        self.unaccounted: list[float] = []
        self.records: dict[int, int] = {}
        self.dataset_bytes: dict[int, int] = {}

    # -- bookkeeping -------------------------------------------------------

    def record(self, label: str, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            print(f"FAIL {label}: {'; '.join(reasons)}", file=sys.stderr)

    def loop(self, op) -> None:
        """Closed loop: start the next operation when the last one returns."""
        start = time.perf_counter()
        while self.ops < MIN_OPS or time.perf_counter() - start < self.seconds:
            op(self.ops)
            self.ops += 1
        self.loop_s = time.perf_counter() - start

    def timed_setup(self, setup):
        """Run ``setup`` SETUP_REPEATS times, keep each time, return the last result."""
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            out = setup()
            self.setup_s.append(time.perf_counter() - start)
        return out

    # -- processes ---------------------------------------------------------

    def _spawn(self, argv):
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=self.work, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, "", time.perf_counter() - start
        return proc.returncode, proc.stdout, time.perf_counter() - start

    def cli(self, *args):
        """``python -m sgkit.cli ARGS`` against this tree: (exit code, stdout, seconds)."""
        return self._spawn([sys.executable, "-m", "sgkit.cli", *args])

    def child(self, *args):
        """A perfbench/child.py helper: (parsed output or None, seconds)."""
        code, out, wall = self._spawn([sys.executable, str(HERE / "child.py"), *args])
        if code != 0:
            return None, wall
        return json.loads(out.splitlines()[-1]), wall

    def resolve_cli(self) -> None:
        """Fail unless ``python -m sgkit.cli`` in the children runs this tree."""
        code, out, _ = self._spawn([sys.executable, "-c", "import sgkit.cli; print(sgkit.cli.__file__)"])
        if code != 0 or SRC.resolve() not in Path(out.strip()).resolve().parents:
            raise SystemExit(f"error: sgkit.cli resolves to {out.strip() or '?'}, not under {SRC}")

    def cli_setup(self, kind, size):
        pool = inputs.config_pool(self.seed, kind, size)
        paths = inputs.write_configs(pool, self.work)
        self.resolve_cli()
        return pool, paths

    # -- operations --------------------------------------------------------

    def check_report(self, label, report, config):
        exact = config["shots"] == 0
        truth = config["perturbation"]
        try:
            reasons = check_recovery(report, truth, exact, self.gauge)
            if exact:
                self.errors.append(recovery_error(report["parameters"], report["row_space"], truth))
        except (KeyError, TypeError, ValueError) as exc:
            reasons = [f"malformed report: {exc!r}"]
        self.record(label, reasons)

    def cli_roundtrip(self, i, config, path):
        """One ``sg roundtrip`` process; returns (report JSON + TXT bytes, seconds)."""
        out = self.work / f"report-{i}.json"
        code, _, wall = self.cli("roundtrip", "--config", str(path), "--out", str(out))
        if code != 0:
            self.record(f"roundtrip op {i}", [f"sg roundtrip exited {code}"])
            return None, wall
        try:
            document = out.read_bytes()
            text = out.with_suffix(".txt").read_bytes()
            report = json.loads(document)
        except (OSError, ValueError) as exc:
            self.record(f"roundtrip op {i}", [f"unreadable report: {exc}"])
            return None, wall
        self.check_report(f"roundtrip op {i}", report, config)
        return document + text, wall

    def traced_roundtrip(self, i, config, path, untraced_wall):
        work = self.work / f"traced-{i}"
        work.mkdir()
        out, wall = self.child("roundtrip", str(path), str(work))
        if out is None:
            self.record(f"traced roundtrip {i}", ["traced round trip failed"])
            return
        trace = self.tracer.extend(out["spans"], "roundtrip")
        self.tracer.extend(out["warm_spans"], "design-warm")
        self.records[trace] = out["records"]
        self.dataset_bytes[trace] = out["dataset_bytes"]
        self.check_report(f"traced roundtrip {i}", out["report"], config)
        self.pairs.append((untraced_wall, wall))
        self.unaccounted.append(untraced_wall - top_level_total(self.tracer.spans, trace))

    def traced_verify(self) -> float:
        out, wall = self.child("verify")
        if out is None:
            self.record("traced verify", ["traced verify failed"])
            return wall
        self.tracer.extend(out["spans"], "verify")
        self.record("traced verify", [f"{n} failed" for n, ok in out["checks"] if not ok])
        return wall


# -- workloads -------------------------------------------------------------


def roundtrip_cold(run: Run):
    """Repeated ``sg roundtrip`` processes, alternating exact and sampled configs."""
    pool, paths = run.timed_setup(lambda: run.cli_setup(inputs.roundtrip_config, ROUNDTRIP_POOL))
    outputs = {}

    def op(i):
        k = config_index(i) % len(pool)
        data, wall = run.cli_roundtrip(i, pool[k], paths[k])
        run.latency.append(wall)
        outputs[i] = data
        if i == 2 and (data is None or data != outputs[1]):
            run.record("determinism", ["a repeated config gave a different report"])
        if run.traced:
            run.traced_roundtrip(i, pool[k], paths[k], wall)

    run.loop(op)
    return pool


def verify_suite(run: Run):
    """Repeated ``sg verify`` processes, then one exact round trip for recovery_err."""
    pool, paths = run.timed_setup(lambda: run.cli_setup(inputs.roundtrip_config, VERIFY_POOL))
    first = {}

    def op(i):
        code, out, wall = run.cli("verify")
        run.latency.append(wall)
        reasons = check_verify_output(code, out)
        if out != first.setdefault("out", out):
            reasons.append("verify output differs from the first run")
        run.record(f"verify op {i}", reasons)
        if run.traced:
            run.pairs.append((wall, run.traced_verify()))

    run.loop(op)
    # The anchor is the bundled truth vector itself, so its recovery_err is
    # the same on every seed.
    anchor = dict(pool[0], perturbation=inputs.BASE_PERTURBATION.tolist())
    anchor_path = run.work / "anchor.json"
    anchor_path.write_text(json.dumps(anchor), encoding="utf-8")
    _, wall = run.cli_roundtrip("anchor", anchor, anchor_path)
    if run.traced:
        run.traced_roundtrip("anchor", anchor, anchor_path, wall)
    return pool


def sweep_warm(run: Run):
    """One long-lived process recovering parameters through the library."""
    import ops

    # Fresh interpreters give the first set-ups a cold design system each; the
    # last one runs here and leaves this process warm.
    for _ in range(SETUP_REPEATS - 1):
        out, _ = run.child("setup", str(run.seed))
        if out is None:
            raise SystemExit("error: sweep-warm set-up failed in a child process")
        run.setup_s.append(out["setup_s"])
    start = time.perf_counter()
    pool, configs = ops.sweep_setup(run.seed)
    run.setup_s.append(time.perf_counter() - start)
    outputs = {}

    def one(i, k, span, tag):
        path = run.work / f"dataset-{tag}{i}.csv"
        start = time.perf_counter()
        result, quality, records = ops.simulate_and_recover(configs[k], path, span)
        wall = time.perf_counter() - start
        run.check_report(f"sweep op {tag}{i}", report_of(result, quality.compatible), pool[k])
        return result, records, path, wall

    def traced(i, k):
        trace = run.tracer.new_trace("sweep")
        _, records, path, wall = one(i, k, run.tracer.span, "traced-")
        run.records[trace] = records
        run.dataset_bytes[trace] = path.stat().st_size
        return wall

    def op(i):
        k = config_index(i) % len(pool)
        # in a traced pair, the side that runs first alternates
        traced_wall = traced(i, k) if run.traced and i % 2 else None
        result, _, path, wall = one(i, k, no_span, "")
        run.latency.append(wall)
        outputs[i] = path.read_bytes() + ops.result_bytes(result)
        if i == 2 and outputs[2] != outputs[1]:
            run.record("determinism", ["a repeated config gave a different dataset or result"])
        if run.traced:
            if traced_wall is None:
                traced_wall = traced(i, k)
            run.pairs.append((wall, traced_wall))

    run.loop(op)
    return pool


RUNNERS = {"roundtrip-cold": roundtrip_cold, "sweep-warm": sweep_warm, "verify-suite": verify_suite}


# -- reporting -------------------------------------------------------------


def end_to_end(run: Run) -> dict:
    if run.workload == "sweep-warm":
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "setup_s": statistics.median(run.setup_s),
        "op_s.p50": statistics.median(run.latency),
        "ops_per_s": run.ops / run.loop_s,
        # 1.0 (far above any tolerance) when no exact operation left a report
        "recovery_err": max(run.errors) if run.errors else 1.0,
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
    }
    return with_units(values, "end_to_end")


def per_layer(run: Run, pool) -> dict:
    import layers
    from sgkit import verify

    # Layers this workload's own loop does not reach are traced once here.
    if run.workload == "sweep-warm":
        rt_pool, rt_paths = run.cli_setup(inputs.roundtrip_config, 1)
        _, wall = run.cli_roundtrip("complement", rt_pool[0], rt_paths[0])
        run.traced_roundtrip("complement", rt_pool[0], rt_paths[0], wall)
    if run.workload != "verify-suite":
        run.traced_verify()

    names = [name for name, _ in verify.ALL_CHECKS]
    values = layers.span_metrics(run.tracer, run.records, run.dataset_bytes, names)
    values.update(layers.probe_metrics(pool))
    values["cli.unaccounted_s"] = statistics.median(run.unaccounted)
    values["trace.span_us"] = layers.span_cost_us()
    values["trace.op_s.p50"] = statistics.median(t for _, t in run.pairs)
    values["trace.overhead_pct"] = statistics.median(100.0 * (t - u) / u for u, t in run.pairs)

    return with_units(values, "per_layer")


def with_units(values: dict, section: str) -> dict:
    """The metrics of one BENCHMARK.json section, in its order and units."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sgkit" / "cli.py").is_file():
        print(f"error: no sgkit source tree at {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import sgkit

    # A terminated run still stops its child process and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load_start = os.getloadavg()
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(args, work)
        pool = RUNNERS[args.workload](run)
        metrics = per_layer(run, pool) if run.traced else end_to_end(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if run.traced:
        spans_out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        spans_out.write_text(json.dumps({"kinds": run.tracer.kinds, "spans": run.tracer.spans}))

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "sgkit_file": sgkit.__file__, "git_commit": git_commit(),
        "src_lines": src_lines(), "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "operations": run.ops, "fail_ratio": run.failed / run.attempted,
        "op_latency_s": run.latency,
    }
    print(json.dumps({"provenance": provenance}))
    aliases = ALIASES[args.workload]
    for name, m in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"{name:46s} {m['value']:.6g} {m['unit']}{alias}")
    print(f"{'fail_ratio':46s} {run.failed}/{run.attempted}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
