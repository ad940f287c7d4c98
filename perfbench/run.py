"""Benchmark of ecfrac: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload mc_tails --seed 271828 --seconds 10 --trace 0

With --trace 0 the run repeats passes of the workload's job list for
--seconds (and at least the workload's minimum number of passes) and
prints the end-to-end metrics named in BENCHMARK.json.  With --trace 1 it
runs every job of its passes twice, traced and untraced, then runs the
per-layer probes, and prints the per-layer metrics; the spans are written
to perfbench/traces/ when the run ends.  The package is imported from the
checkout's src/ only; a run without it exits with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = BENCH_DIR / "traces"
SETUP_REPEATS = 3

# The precision must be the default 128 bits whatever the caller's shell says.
os.environ.pop("ECF_PRECISION_BITS", None)
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH_DIR))


class MissingPackage(RuntimeError):
    pass


def import_package():
    """Import ecfrac from this checkout's src/, and nowhere else."""
    try:
        import ecfrac
    except ImportError as exc:
        raise MissingPackage(f"cannot import ecfrac from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(ecfrac.__file__).resolve().parents:
        raise MissingPackage(f"ecfrac was imported from {ecfrac.__file__}, not {SRC}")
    return ecfrac


@dataclass
class PassLog:
    """Timings and check outcomes of a sequence of passes."""

    pass_s: list[float] = field(default_factory=list)
    work_per_s: list[float] = field(default_factory=list)
    job_s: list[float] = field(default_factory=list)
    trace_ratios: list[float] = field(default_factory=list)
    outputs: list[Any] = field(default_factory=list)
    widths: list[float] = field(default_factory=list)
    results: int = 0
    certified: int = 0
    attempted: int = 0
    failed: int = 0


def _timed_job(job, tracer) -> tuple[Any, float]:
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = job.run(None)
        else:
            with tracer.span(job.name, job=True):
                out = job.run(tracer)
    except Exception:
        traceback.print_exc()
        out = None
    return out, time.perf_counter() - t0


def run_passes(workload, seconds: float, log: PassLog, speed, tracer=None) -> None:
    """Passes until `seconds` have gone by and the workload's minimum is met.

    Only the calls are timed: a pass's outputs are checked after it ends,
    and the speed kernel runs between jobs.  With a tracer, every job also
    runs once untraced right before or after its traced run (alternating),
    and the ratio of the two times is kept; the pair shares the machine's
    state, so the ratio is the overhead of tracing and not a change of
    machine speed."""
    started = time.perf_counter()
    index = 0
    while index < workload.min_passes or time.perf_counter() - started < seconds:
        done = []
        for number, job in enumerate(workload.jobs(index)):
            speed.sample()
            if tracer is None:
                out, job_s = _timed_job(job, None)
            elif number % 2:
                out, job_s = _timed_job(job, tracer)
                _, plain_s = _timed_job(job, None)
                log.trace_ratios.append(job_s / plain_s)
            else:
                _, plain_s = _timed_job(job, None)
                out, job_s = _timed_job(job, tracer)
                log.trace_ratios.append(job_s / plain_s)
            done.append((job, out, job_s))
        pass_s = sum(job_s for _, _, job_s in done)
        log.pass_s.append(pass_s)
        log.work_per_s.append(sum(job.work for job, _, _ in done) / pass_s)
        for job, out, job_s in done:
            log.job_s.append(job_s)
            log.attempted += 1
            if out is None:
                log.failed += 1
                continue
            outcome = job.assess(out)
            log.outputs.append(out)
            log.results += outcome.results
            log.certified += outcome.certified
            if outcome.width is not None:
                log.widths.append(outcome.width)
            if outcome.errors:
                log.failed += 1
                print(f"check failed: {job.name}: {outcome.errors}", file=sys.stderr)
        index += 1


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated inside the data."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Fresh interpreter to the first timed call, measured from outside."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                               "--setup-probe", "--workload", workload,
                               "--seed", str(seed)],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited with {code}: {line!r}")
        samples.append(ready - t0)
    return samples


def environment(ecfrac) -> dict[str, Any]:
    import mpmath
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ecfrac").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "precision_bits": ecfrac.default_precision(),
        "workers": "1 (SampleConfig.workers is accepted but ignored by ecfrac today)",
    }


def end_to_end(workload, log: PassLog, setup: list[float], factor: float) -> dict[str, float]:
    """Times are divided by the run's speed factor (see speed.py)."""
    job_ms = [s * 1e3 / factor for s in log.job_s]
    return {
        "setup_s": statistics.median(setup) / factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_s": quantile(log.pass_s, 75) / factor,
        "work_per_s": quantile(log.work_per_s, 25) * factor,
        "job_ms.p75": quantile(job_ms, 75),
        "job_ms.p90": quantile(job_ms, 90),
        "certified_share": log.certified / log.results if log.results else 0.0,
        "enclosure_width": workload.summarize_width(log.widths),
    }


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One benchmark run.

    Returns the result object, sample counts, the tracer (None untraced),
    the environment record and the workload's parameters."""
    ecfrac = import_package()
    from layers import layer_metrics
    from speed import Speed
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, tiny)
    speed = Speed()
    speed.sample(force=True)
    setup = [] if trace else setup_seconds(name, seed)
    run_passes(WORKLOADS[name](seed, tiny=True), 0, PassLog(), speed)  # fills lazy caches

    log = PassLog()
    tracer = Tracer() if trace else None
    if not trace:
        run_passes(workload, seconds, log, speed)
        speed.sample(force=True)
        metrics = end_to_end(workload, log, setup, speed.factor())
    else:
        with tracer.span("passes"):
            run_passes(workload, seconds, log, speed, tracer)
        metrics = layer_metrics(tracer, name, seed, tiny)
        metrics["trace.overhead_share"] = statistics.median(log.trace_ratios) - 1

    # Run-level checks count as one more operation.
    run_errors = workload.finish(log.outputs)
    if run_errors:
        print(f"check failed: {name}: {run_errors}", file=sys.stderr)
    result = {"correct": log.failed == 0 and not run_errors,
              "attempted": log.attempted + 1, "failed": log.failed + bool(run_errors),
              "metrics": metrics}
    samples = {"passes": len(log.pass_s), "jobs": len(log.job_s), "setup_runs": len(setup),
               "results": log.results, "width_samples": len(log.widths),
               "trace_pairs": len(log.trace_ratios), "speed_samples": len(speed.samples),
               "speed_factor": speed.factor()}
    return result, samples, tracer, environment(ecfrac), workload.info


def attach_units(metrics: dict[str, float], spec: list[dict[str, str]]) -> dict[str, Any]:
    """Metrics in BENCHMARK.json's order with its units; every one must be there."""
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    extra = sorted(set(metrics) - {m["name"] for m in spec})
    if missing or extra:
        raise RuntimeError(f"metrics missing {missing}, unexpected {extra}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv: list[str] | None = None) -> int:
    try:
        import_package()
    except MissingPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import DEFAULT_SEEDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if not 0 <= seed < 2**64:
        parser.error("--seed must be in [0, 2^64)")
    if args.setup_probe:
        WORKLOADS[args.workload](seed)
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, samples, tracer, env, info = run(args.workload, seed, args.seconds,
                                             bool(args.trace))
    result["metrics"] = attach_units(result["metrics"],
                                     spec["per_layer" if args.trace else "end_to_end"])
    if tracer is not None:
        path = TRACE_DIR / f"{args.workload}-seed{seed}.json"
        tracer.write(path)
        samples["trace_file"] = str(path.relative_to(ROOT))
        samples["spans"] = len(tracer.spans)
    print(json.dumps({"env": env, "workload": {"name": args.workload, "seed": seed, **info},
                      "samples": samples}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
