"""sfspectrum benchmark: one workload, one seed, one time-bounded closed loop.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout; without it the run exits with code 2 and prints no result.
Generated system files live in a ``.perfbench-*`` directory of the checkout
that is removed on exit; a traced run also writes its spans to
``.perfbench-out/``.

The second-to-last line of standard output is a summary record (all seven
end-to-end figures by name, the size mix, the environment); the last line is
the result object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced.  With
``--trace 1`` they are the per-layer ones: the run times a list of operations
untraced, replays it traced, compares verdicts and reports the difference as
``trace_overhead_frac``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before anything loads numpy

import argparse
import hashlib
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
WALL_CAP = 2  # a run's loop never takes more than this many times --seconds of wall time
TAIL_BEYOND = 10  # the tail percentile keeps this many operations beyond it
DETERMINISM_OPS = 2  # operations traced twice to compare call counts
LAYERS = tuple(tracing.TARGETS)


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    if not (SRC / "sfspectrum" / "__init__.py").is_file():
        fail(f"no sfspectrum sources under {SRC.name}/ of the checkout")
    sys.path.insert(0, str(SRC))
    import sfspectrum

    if Path(sfspectrum.__file__).resolve().parent != (SRC / "sfspectrum").resolve():
        fail("sfspectrum was imported from outside the checkout")
    return sfspectrum


# -- environment record ------------------------------------------------------


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    sha = None
    if (ROOT / ".git").exists():  # a checkout without history has no SHA to report
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


# -- set-up time -------------------------------------------------------------


def child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(items, library: bool) -> tuple[list[float], list[float]]:
    """CPU and wall seconds of fresh processes that import the package (and parse the corpus)."""
    argv = [sys.executable, str(HERE / "probe.py")]
    if library:
        argv += [str(item.path) for item in items]
    cpu, wall = [], []
    for _ in range(SETUP_REPEATS):
        cpu0, wall0 = child_cpu(), time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        wall.append(time.perf_counter() - wall0)
        cpu.append(child_cpu() - cpu0)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}")
    return cpu, wall


# -- the closed loop ---------------------------------------------------------


class Loop:
    """Per-operation CPU and wall times of one closed loop, with the raw results."""

    def __init__(self):
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self.raws: list = []
        self.cpu_s = self.wall_s = 0.0


def timed_loop(workload, items, seconds: float, tracer=None, count: int | None = None) -> Loop:
    """Run operations back to back; stop after ``count`` ops or ``seconds`` of CPU time.

    Bounding CPU time rather than wall time keeps the number of operations,
    and so the tail percentile, steady when the host steals time; the wall
    clock still ends the loop at WALL_CAP times ``seconds``.
    """
    loop = Loop()
    wall_start, cpu_start = time.perf_counter(), time.process_time()
    i = 0
    while True:
        item = items[i % len(items)]
        w0, c0 = time.perf_counter(), time.process_time()
        if tracer is None:
            raw = workload.op(item)
        else:
            raw = tracer.run_op(i, workload.op, item)
        c1, w1 = time.process_time(), time.perf_counter()
        loop.cpu.append(c1 - c0)
        loop.wall.append(w1 - w0)
        loop.raws.append(raw)
        i += 1
        if count is not None:
            if i >= count:
                break
        elif c1 - cpu_start >= seconds or w1 - wall_start >= WALL_CAP * seconds:
            break
    loop.cpu_s = time.process_time() - cpu_start
    loop.wall_s = time.perf_counter() - wall_start
    return loop


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND operations beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def mix(items, n_ops: int) -> dict:
    counts = Counter()
    for i in range(n_ops):
        spec = items[i % len(items)].spec
        key = "demo" if spec is None else f"{spec.kind}/n{spec.n}/k{spec.k}/{spec.plant or 'free'}"
        counts[key] += 1
    return dict(sorted(counts.items()))


def sfs_share(outcomes) -> float | None:
    flags = [o.sfs for o in outcomes if o.status == "ok"]
    return sum(flags) / len(flags) if flags else None


# -- per-layer metrics -------------------------------------------------------


def per_layer(workload, tracer, traced_cpu: float, untraced_cpu: float) -> tuple[dict, list[str]]:
    calls, self_s = tracer.self_times()
    counts = tracer.counts
    metrics: dict = {}
    for layer, funcs in tracing.TARGETS.items():
        for func in funcs:
            name = tracing.span_name(layer, func)
            metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
            metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    del metrics["polymatrix.evaluate_at.calls"]  # split by field just below
    for key in ("polymatrix.evaluate_at.rational.calls", "polymatrix.evaluate_at.mod_p.calls",
                "polymatrix.rank_exact.cells", "graph.enumerate_cycle_subgraphs.subgraphs"):
        metrics[key] = (counts.get(key, 0), "count")
    drawn = calls.get("structural.pencil_drop_at_point", 0)
    certified = counts.get("structural.pencil_drop_at_point.certified", 0)
    metrics["structural.pencil_drop_at_point.certified_frac"] = (
        certified / drawn if drawn else 0.0, "ratio")
    total = sum(self_s.values())  # equals the summed CPU time of the op spans
    for layer in LAYERS:
        share = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        metrics[f"layer.{layer}.self_frac"] = (share / total, "ratio")
    main_share = sum(self_s.get(name, 0.0) for name in workload.main_layer) / total
    metrics["main_layer.self_frac"] = (main_share, "ratio")
    metrics["trace_overhead_frac"] = (traced_cpu / untraced_cpu - 1.0, "ratio")

    problems = [f"{name} recorded no calls" for name in workload.main_layer if not calls.get(name)]
    return metrics, problems


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    # a terminated run still removes its generated files (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        items = workload.build(args.seed, workdir, ROOT)
        if args.trace:
            result, summary = traced_run(workload, items, args)
        else:
            result, summary = untraced_run(workload, items, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary["environment"] = environment()
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0


def load_systems(workload, items) -> None:
    if workload.library:
        from sfspectrum import cli

        for item in items:
            item.system, _ = cli.parse_system(item.path)


def check_all(workload, items, raws):
    return [workload.check(items[i % len(items)], raw) for i, raw in enumerate(raws)]


def failures(outcomes) -> list[str]:
    return [f"op {i}: {o.detail}" for i, o in enumerate(outcomes) if o.status == "error"]


def untraced_run(workload, items, args):
    setup_cpu, setup_wall = setup_seconds(items, workload.library)
    load_systems(workload, items)
    workload.op(items[0])  # warm-up, discarded
    loop = timed_loop(workload, items, args.seconds)
    outcomes = check_all(workload, items, loop.raws)
    n = len(outcomes)
    errors = failures(outcomes)
    inconclusive = sum(o.status == "inconclusive" for o in outcomes)
    cpu_tail, tail_pct = tail(loop.cpu)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_cpu), "s"),
        "op_cpu_p50_s": (statistics.median(loop.cpu), "s"),
        "op_cpu_tail_s": (cpu_tail, "s"),
        "ops_per_cpu_s": (n / loop.cpu_s, "1/s"),
        "verified_frac": ((n - len(errors)) / n, "ratio"),
        "conclusive_frac": ((n - inconclusive) / n, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    figures = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    figures["setup_s"]["runs"] = setup_cpu
    figures["op_cpu_tail_s"].update(percentile=tail_pct, operations=n)
    wall_tail, _ = tail(loop.wall)
    summary = {
        "workload": workload.name,
        "entry_point": workload.entry,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": 0,
        "end_to_end": figures,
        "error_frac": len(errors) / n,
        "inconclusive_frac": inconclusive / n,
        "wall": {
            "setup_s": statistics.median(setup_wall),
            "op_latency_p50_s": statistics.median(loop.wall),
            "op_latency_tail_s": wall_tail,
            "ops_per_s": n / loop.wall_s,
            "timed_s": loop.wall_s,
            "steal_frac": 1.0 - loop.cpu_s / loop.wall_s,
        },
        "mix": mix(items, n),
        "corpus_size": len(items),
        "sfs_share": sfs_share(outcomes),
        "failures": errors[:20],
    }
    result = {
        "correct": not errors,
        "attempted": n,
        "failed": len(errors),
        "metrics": figures_only(metrics),
    }
    return result, summary


def figures_only(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced_run(workload, items, args):
    load_systems(workload, items)
    workload.op(items[0])  # warm-up, discarded
    plain_loop = timed_loop(workload, items, args.seconds / 2)
    n = len(plain_loop.raws)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_loop = timed_loop(workload, items, 0, tracer=tracer, count=n)
    finally:
        tracer.uninstall()
    repeat = min(DETERMINISM_OPS, n)
    again = tracing.Tracer()
    again.install()
    try:
        timed_loop(workload, items, 0, tracer=again, count=repeat)
    finally:
        again.uninstall()
    first, second = tracer.calls_by_op(), again.calls_by_op()
    plain = check_all(workload, items, plain_loop.raws)
    traced = check_all(workload, items, traced_loop.raws)
    errors = failures(plain) + failures(traced)
    problems = []
    metrics, missing = per_layer(workload, tracer, traced_loop.cpu_s, plain_loop.cpu_s)
    problems += missing
    for i, (a, b) in enumerate(zip(plain, traced)):
        if (a.status, a.verdict) != (b.status, b.verdict):
            problems.append(f"op {i}: traced verdict {b.verdict} != untraced {a.verdict}")
    for i in range(repeat):
        if dict(first[i]) != dict(second[i]):
            problems.append(f"op {i}: call counts differ between two traced runs")
    tracer.write(ROOT / ".perfbench-out" / f"{workload.name}-seed{args.seed}-spans.jsonl")
    main_share = metrics["main_layer.self_frac"][0]
    summary = {
        "workload": workload.name,
        "entry_point": workload.entry,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": 1,
        "operations": n,
        "untraced_cpu_s": plain_loop.cpu_s,
        "traced_cpu_s": traced_loop.cpu_s,
        "untraced_wall_s": plain_loop.wall_s,
        "traced_wall_s": traced_loop.wall_s,
        "main_layer": list(workload.main_layer),
        "main_layer_prediction": "met" if main_share > 0.5 else
        f"NOT MET: main layer holds {main_share:.1%} of traced self time",
        "self_check_problems": problems,
        "failures": errors[:20],
        "mix": mix(items, n),
    }
    result = {
        "correct": not errors and not problems,
        "attempted": 2 * n,
        "failed": len(errors),
        "metrics": figures_only(metrics),
    }
    return result, summary


if __name__ == "__main__":
    raise SystemExit(main())
