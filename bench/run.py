"""Repository benchmark: four seeded workloads through the package's public entry points.

Usage, from the repository root:

    python3 bench/run.py --workload switch_shots --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs every input twice, back to back, once untraced and once
traced, and reports per-layer metrics per traced op (see bench/NOTES.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with the environment stamp, the tail percentile and, for a traced run, the
spans, is written under ``.bench_work/results/``.

The first op of every process is a warm-up and is not timed; every op,
the warm-up included, has its output checked and counts as attempted.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads, so that a later parallel speed-up
# shows as the program's own and not as a change of thread count.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: fresh-interpreter set-ups per run: one before the warm-up, one after the
#: last op, the rest spread evenly between the timed ops, so that their median
#: samples the host's speed across the whole run rather than one moment of it
SETUP_REPEATS = 5

#: imports the CLI and loads the workload's device and protocol files in a
#: fresh interpreter; prints the elapsed seconds
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from photon_transistor import cli, device
device.load(sys.argv[2])
if len(sys.argv) > 3:
    cli.load_protocol(sys.argv[3])
print(repr(time.perf_counter() - t0))
"""


def setup_seconds(w) -> float:
    """One fresh-interpreter set-up time."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(w.device_path)]
    if w.protocol_path is not None:
        argv.append(str(w.protocol_path))
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def tail(times: list[float]) -> dict:
    """Highest nearest-rank percentile with at least 10 samples beyond it.

    With fewer than 21 samples no percentile at or above the median has 10
    beyond it; the upper median is reported then, and ``beyond`` says how many
    samples lie past it.
    """
    xs = sorted(times)
    n = len(xs)
    if n == 0:
        return {"value": float("nan"), "percentile": float("nan"), "beyond": 0, "samples": 0}
    k = max(n - 11, n // 2)
    return {"value": xs[k], "percentile": 100.0 * (k + 1) / n, "beyond": n - k - 1, "samples": n}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, cwd=ROOT
    )
    if done.returncode != 0:
        return None
    return done.stdout.strip()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": git_commit(),
        "blas_threads": THREADS,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


class Runner:
    """Runs ops of one workload and keeps score of attempts and failures."""

    def __init__(self, workload):
        self.w = workload
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, tracer=None, i: int | None = None) -> tuple[float, dict | None] | None:
        """Run, time and check op ``i``, by default the next one.

        Returns (seconds, trace metrics), or None if the op failed.
        """
        if i is None:
            i = self.next_op
            self.next_op += 1
        self.attempted += 1
        args = self.w.inputs(i)
        metrics = None
        try:
            if tracer is None:
                t0 = time.perf_counter()
                result = self.w.run(args)
                elapsed = time.perf_counter() - t0
            else:
                with tracer.op() as metrics:
                    result = self.w.run(args)
                elapsed = metrics["wall_s"]
            self.w.check(args, result)
        except (Exception, SystemExit) as exc:
            self.failed += 1
            self.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None
        return elapsed, metrics

    def measure(self, seconds: float, pause=None, pauses=0) -> list[float]:
        """Untraced whole input cycles of ops until ``seconds`` have passed.

        Returns the times of the successful ops.  ``pause`` is called, untimed,
        between ops at ``pauses`` evenly spread moments.
        """
        times = []
        first = self.next_op
        paused = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or (self.next_op - first) % self.w.cycle:
            done = self.op()
            if paused < pauses and time.perf_counter() - start >= seconds * (paused + 1) / (pauses + 1):
                pause()
                paused += 1
            if done is not None:
                times.append(done[0])
        return times

    def paired(self, seconds: float, tracer) -> tuple[list[float], list[float], list[dict]]:
        """Each input once untraced and once traced, back to back; whole cycles until ``seconds`` pass.

        The tracer is installed for the traced op only, and which of the two
        runs first alternates, so that each input kind sees both orders.
        Returns the untraced times, traced times and traced per-op metrics of
        the pairs in which both ops succeeded, in pair order.
        """
        plain, traced_times, traced = [], [], []
        first = self.next_op
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or (self.next_op - first) % self.w.cycle:
            i = self.next_op
            self.next_op += 1
            done = {}
            # the order flips from op to op and again from cycle to cycle, so
            # each input kind runs untraced first as often as traced first
            untraced_first = (i + i // max(self.w.cycle, 2)) % 2 == 0
            for with_trace in (False, True) if untraced_first else (True, False):
                if with_trace:
                    tracer.install()
                try:
                    done[with_trace] = self.op(tracer if with_trace else None, i)
                finally:
                    if with_trace:
                        tracer.uninstall()
            if done[False] is None or done[True] is None:
                continue
            plain.append(done[False][0])
            traced_times.append(done[True][0])
            traced.append(done[True][1])
        return plain, traced_times, traced


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup = [setup_seconds(runner.w)]
    runner.op()  # warm-up
    times = runner.measure(seconds, pause=lambda: setup.append(setup_seconds(runner.w)), pauses=SETUP_REPEATS - 2)
    setup.append(setup_seconds(runner.w))
    t = tail(times)
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(times) if times else float("nan"),
        "op_tail_s": t["value"],
        "throughput_per_s": runner.w.units_per_op * len(times) / sum(times) if times else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"setup_runs_s": setup, "op_times_s": times, "op_tail": t}
    return values, detail


def per_layer(runner: Runner, seconds: float, metric_names: list[str]) -> tuple[dict, dict]:
    import tracer as tracer_mod

    runner.op()  # warm-up
    tr = tracer_mod.Tracer()
    plain, traced_times, traced = runner.paired(seconds, tr)
    n = max(len(traced), 1)
    totals: dict[str, float] = {}
    for m in traced:
        for key, v in m.items():
            totals[key] = totals.get(key, 0.0) + v
    values = {}
    for name in metric_names:
        if name == "trace.overhead_ratio":
            # pairs run back to back on one input, so host drift and input mix cancel
            values[name] = statistics.median([t / u for t, u in zip(traced_times, plain)]) if traced else float("nan")
        elif name == "trace.accounted_share":
            layers = sum(totals.get(f"{layer}.self_s", 0.0) for layer in tracer_mod.LAYERS)
            values[name] = layers / totals["wall_s"] if traced else float("nan")
        elif name == "cavity.quadratures_per_root":
            roots = totals.get("cavity.internal_loss_for_efficiency.calls", 0.0)
            values[name] = totals.get("quads_in_root", 0.0) / roots if roots else 0.0
        else:
            values[name] = totals.get(name, 0.0) / n
    detail = {
        "untraced_op_times_s": plain,
        "traced_op_times_s": traced_times,
        "per_op": traced,
        "spans": tr.dump(),
    }
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "photon_transistor" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        runner = Runner(workloads.WORKLOADS[args.workload](args.seed, run_dir))
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            values, detail = per_layer(runner, args.seconds, names)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            values, detail = end_to_end(runner, args.seconds)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        error_rate=runner.failed / runner.attempted,
        all_metrics=values,
        failures=runner.failures,
        environment=environment(),
        detail=detail,
    )
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}.json"
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")
    if not args.trace:
        t = detail["op_tail"]
        print(
            f"op_p50_s {values['op_p50_s']:.4f}; op_tail_s {values['op_tail_s']:.4f} is "
            f"p{t['percentile']:.1f} of {t['samples']} ops ({t['beyond']} beyond); "
            f"full record in {out.relative_to(ROOT)}",
            file=sys.stderr,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
