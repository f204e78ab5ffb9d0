"""Benchmark for saco: fixed seeded workloads, timed end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload texture-d300 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

One process runs one workload on one thread (single-thread BLAS) as a
closed loop: a job starts only after the previous one finished and its
output was checked.  Set-up (import of ``saco``, input generation and
any fixture) runs before the first job; ``setup_s`` is the median time a
fresh interpreter takes to import ``saco`` (``IMPORT_REPEATS`` tries)
plus the median set-up (at least ``SETUP_REPEATS`` tries and
``SETUP_BUDGET_S`` seconds).  Jobs then run back to back
until ``--seconds`` have passed (at least one job).

``--trace 0`` reports the end-to-end metrics (median ``job_s`` over the
run's jobs, ``setup_s``, ``peak_rss_mb``).  ``--trace 1`` alternates
untraced and traced jobs and reports per-layer metrics from the traced
ones; wrappers are installed around each traced job only.  The last line
of standard output is one JSON object; a copy with machine details and
per-job times goes to ``perfbench/results/``, and a traced run also
writes its spans there.

``--workload all`` runs every workload in its own process and prints
every end-to-end metric with its unit, plus each workload's error rate.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS thread, so each workload uses one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
IMPORT_REPEATS = 5
# set-up runs at least SETUP_REPEATS times and until SETUP_BUDGET_S seconds
# are spent, so a quick set-up is sampled more often
SETUP_REPEATS = 3
SETUP_BUDGET_S = 1.0
PROGRAM_MODULES = ("saco", "saco.align", "saco.classify")
WORKLOAD_NAMES = ("texture-d300", "select-m10k", "residual-d300", "align-views")


def import_program() -> None:
    """Import ``saco`` from this checkout's ``src``."""
    if not (SRC / "saco" / "__init__.py").is_file():
        raise SystemExit(f"no program to benchmark: {SRC / 'saco'} is missing")
    sys.path[:0] = [str(SRC), str(HERE)]
    for module in PROGRAM_MODULES:
        importlib.import_module(module)
    import saco

    if Path(saco.__file__).resolve().parent != SRC / "saco":
        raise SystemExit(f"imported saco from {saco.__file__}, not from {SRC}")


def import_seconds_elsewhere() -> float:
    """Seconds a fresh interpreter takes to import ``saco``, timed inside it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            f"import {', '.join(PROGRAM_MODULES)}; print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def machine_info() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Set up, run the closed loop; return (result line, details, spans)."""
    import_program()
    import_times = [import_seconds_elsewhere() for _ in range(IMPORT_REPEATS)]
    info = machine_info()

    import layers
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_BUDGET_S:
        state = None  # peak memory then holds one set-up, not two
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)

    tracer = Tracer()
    untraced, traced, jobs, layer_rows, spans_out = [], [], [], [], []
    absent: list[str] = []
    first_digest = None
    window_start = time.perf_counter()
    while True:
        number = len(jobs) + 1
        traced_job = trace and number % 2 == 0
        if traced_job:
            tracer.reset()
            absent = layers.install(tracer)
        problems = []
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if traced_job:
                with tracer.span("job"):
                    out = workload.job(state)
            else:
                out = workload.job(state)
        except Exception:  # a failed job is counted and the loop goes on
            problems = [traceback.format_exc()]
        finally:
            elapsed = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            tracer.restore()
        (traced if traced_job else untraced).append(elapsed)
        if not problems:
            problems = workload.check(state, out)
            digest = workload.digest(out)
            first_digest = digest if first_digest is None else first_digest
            if digest != first_digest:
                problems.append("output differs from the run's first job")
            if traced_job:
                row = layers.layer_metrics(tracer.spans, tracer.counts)
                row.update(workload.quality(state, out))
                layer_rows.append(row)
                spans_out.append({"job": number, "spans": [
                    [s.name, s.start - t0, s.end - t0, s.parent] for s in tracer.spans]})
        out = None  # peak memory then holds one job's output, not two
        jobs.append({"job": number, "traced": traced_job, "seconds": elapsed,
                     "cpu_seconds": cpu, "failed_checks": problems})
        enough = bool(untraced and traced) if trace else bool(untraced)
        if enough and time.perf_counter() - window_start >= seconds:
            break

    failed = sum(1 for j in jobs if j["failed_checks"])
    result = {"correct": failed == 0, "attempted": len(jobs), "failed": failed}
    if trace:
        metrics = layers.zero_metrics()
        for key in metrics:
            values = [row[key] for row in layer_rows if key in row]
            if values:
                metrics[key] = statistics.median(values)
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0)
    else:
        metrics = {
            "job_s": statistics.median(untraced),
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
    result["metrics"] = metrics
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": info, "import_s": import_times, "setup_repeats_s": setup_times,
        "jobs": jobs, "absent_layers": absent,
    }
    return result, details, spans_out


def declared_units() -> dict:
    """Unit of every metric named in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process; print its metrics with their units."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"{name}: exited with {proc.returncode}")
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} error_rate={res['failed'] / res['attempted']:.3f}")
        for key, value in res["metrics"].items():
            print(f"  {key:28s} {value['value']:14.6g} {value['unit']}")
        status |= int(not res["correct"])
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))

    result, details, spans = run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace))
    units = declared_units()
    result["metrics"] = {k: {"value": float(v), "unit": units[k]}
                         for k, v in result["metrics"].items()}
    for job in details["jobs"]:
        for problem in job["failed_checks"]:
            print(f"FAILED job {job['job']}: {problem}", file=sys.stderr)
    for layer in details["absent_layers"]:
        print(f"absent layer {layer}: a wrapped name is missing, its metrics read 0",
              file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({**details, "result": result}, indent=1))
    if spans:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans))
    print("# machine " + json.dumps(details["machine"]))
    jobs = [j["seconds"] for j in details["jobs"] if not j["traced"]]
    print(f"# {args.workload} seed {args.seed}: {result['attempted']} jobs "
          f"({len(jobs)} untraced), failed {result['failed']}, "
          f"error_rate {result['failed'] / result['attempted']:.3f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
