#!/usr/bin/env python3
"""quasigw benchmark: drive the CLI in-process over a workload's fixed job list.

Run from the root of a quasigw checkout::

    python3 perfbench/run.py --workload far-long --seed 1 --seconds 21 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 21 --trace 0

One process, one client, closed loop: each job is one ``quasigw.cli.main``
call with ``--out`` to a file, started only after the previous job ended.
The run repeats whole passes over the job list until ``--seconds`` have
elapsed, checks every output (``checks.py``) outside the timed region, and
prints a report followed by one JSON line with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with no
instrumentation.  Job times are compared between commits in units of a
fixed reference computation timed between jobs, near each job, which
takes out most of the host's speed drift (README.md); the seconds are
printed too.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the traced ones (``tracing.py``), plus
the tracing overhead (traced minus untraced pass wall time).

Set-up time is measured in fresh child processes that import the package
and make the job list, then report ready; the median of several is used.
The package is always imported from ``src/`` of the checkout this file
sits in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import LATENCY_PASSES, NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10
# After each job the reference is timed once per started REF_EVERY_S of
# the job's time, so that its samples cover the run's time evenly.  A job
# time is divided by the median reference time within REF_WINDOW_S of it.
REF_EVERY_S = 0.25
REF_WINDOW_S = 5.0

# name -> (unit, better); the order is the report's.  These are the
# metrics of BENCHMARK.json and of the result line.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_ref": ("ref", "lower"),
    "job_ref_p50": ("ref", "lower"),
    "job_ref_tail": ("ref", "lower"),
    "ok_frac": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# The job times in seconds, and the reference's own time: printed and
# stored with the results, not compared between commits.
SECONDS = {
    "ref_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "job_s_p50": ("s", "lower"),
    "job_s_tail": ("s", "lower"),
}


def _use_checkout_source() -> None:
    if not (SRC / "quasigw" / "cli.py").is_file():
        sys.exit(f"error: no quasigw sources at {SRC}; run from a quasigw checkout")
    sys.path.insert(0, str(SRC))
    nproc = len(os.sched_getaffinity(0))
    # OpenBLAS may otherwise size its pool from the host's cores, not ours.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(nproc))


def _setup(workload: str, seed: int):
    """Everything a job needs before it can start: the imports and the job list."""
    import quasigw.cli
    from workloads import make_jobs

    return quasigw.cli.main, make_jobs(workload, seed)


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its first job is ready."""
    cmd = [sys.executable, str(Path(__file__)), "--probe", "--workload", workload,
           "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def _reference_timer():
    """A function that runs the fixed reference computation once and returns its seconds.

    Interpreter-bound float arithmetic, a loop of small numpy operations
    and matrix-vector products on an 8 MB matrix: the kinds of work the
    jobs do, whose speeds drift apart on a shared host.  It calls nothing
    of quasigw, so no change to the package changes it.
    """
    import numpy as np

    mat = np.full((101, 101), 1.0 / 101)
    start = np.linspace(0.0, 1.0, 101)
    big = np.full((1000, 1000), 1.0 / 1000)

    def timed() -> float:
        t0 = time.perf_counter()
        x = 0.0
        for i in range(30_000):
            x += math.exp(-i * 1e-6)
        v = start
        for _ in range(400):
            v = np.exp(0.1 * (mat @ v - 1.0))
            x += float(np.max(np.abs(v)))
        for _ in range(16):
            v = big @ np.resize(v, 1000)
        return time.perf_counter() - t0

    return timed


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "load": "closed loop, 1 client, 1 process",
    }


def _run_job(main, job, path: Path, refs: dict, tracer) -> dict:
    """Run one job, then check its output; only the main() call is timed."""
    import checks

    with contextlib.suppress(FileNotFoundError):
        path.unlink()
    err = io.StringIO()
    code, crash = None, None
    with contextlib.redirect_stderr(err):
        span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                code = main([*job.argv, "--out", str(path)])
        except SystemExit as e:
            code = e.code
        except Exception:
            crash = traceback.format_exc()
        seconds = time.perf_counter() - t0
    rec = {"job": job.name, "start": t0, "seconds": seconds, "code": code, "crash": crash,
           "stderr": err.getvalue().strip(), "bytes": 0, "problems": []}
    if code == 0 and not path.is_file():
        rec["problems"] = ["exit 0 but no output file written"]
    elif code == 0:
        rec["bytes"] = path.stat().st_size
        rec["problems"] = checks.check(job, path.read_text(), refs)
    rec["ok"] = code == 0 and not rec["problems"]
    return rec


def _tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with TAIL_BEYOND beyond.

    With TAIL_BEYOND samples or fewer no such percentile exists; the
    maximum is returned, with none beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def _reason(rec: dict) -> str:
    """One line saying why a job failed."""
    if rec["problems"]:
        text = "; ".join(rec["problems"])
    elif rec["crash"]:
        text = rec["crash"].strip().splitlines()[-1]
    else:
        text = rec["stderr"] or f"exit {rec['code']}"
    return text.splitlines()[0][:160]


def _measure(args, main, jobs, refs, tracer):
    """Whole passes over the job list until the run's time is up.

    Untraced only, or (with a tracer) untraced and traced passes in turn.
    The reference computation is timed between jobs.  Returns the job
    records, the passes, each traced pass's metrics and spans, and the
    reference samples as (start, seconds).
    """
    work = OUT_DIR / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    records, passes, traced_metrics, spans = [], [], [], []
    reference = _reference_timer()
    ref_samples = []

    def time_reference(times: int) -> None:
        for _ in range(times):
            ref_samples.append((time.perf_counter(), reference()))

    time_reference(1)
    origin = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            pass_records = []
            for i, job in enumerate(jobs):
                if traced:
                    tracer.job = len(records) + i
                rec = _run_job(main, job, work / f"job{i}.{job.fmt}", refs,
                               tracer if traced else None)
                rec["pass"], rec["traced"] = len(passes), traced
                pass_records.append(rec)
                time_reference(1 + int(rec["seconds"] / REF_EVERY_S))
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "wall_s": sum(r["seconds"] for r in pass_records)})
        records += pass_records
        if traced:
            traced_metrics.append(tracer.metrics(
                bytes_out=sum(r["bytes"] for r in pass_records),
                failed_jobs=sum(r["code"] != 0 for r in pass_records)))
            spans += tracer.span_records(origin)
        enough = traced_metrics if tracer else len(passes) >= LATENCY_PASSES[args.workload]
        if enough and time.perf_counter() - origin >= args.seconds:
            return records, passes, traced_metrics, spans, ref_samples


def _in_reference_units(records: list[dict], ref_samples: list[tuple[float, float]]) -> None:
    """Set each record's ``ref``: its seconds over the median reference time near it.

    Near means started within REF_WINDOW_S before the job started or after
    it ended; a reference is timed right after every job, so there is one.
    """
    starts = [start for start, _ in ref_samples]
    for rec in records:
        lo = bisect.bisect_left(starts, rec["start"] - REF_WINDOW_S)
        hi = bisect.bisect_right(starts, rec["start"] + rec["seconds"] + REF_WINDOW_S)
        rec["ref"] = rec["seconds"] / statistics.median(t for _, t in ref_samples[lo:hi])


def _end_to_end(args, records, passes, setup_samples, ref_samples) -> tuple[dict, dict]:
    """End-to-end metric values, and a note per metric on what it was taken over.

    ``wall_ref`` and ``job_ref_*`` are taken like ``wall_s`` and
    ``job_s_*``, over job times in reference units.
    """
    _in_reference_units(records, ref_samples)
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    walls = [p["wall_s"] for p in passes if not p["traced"]]
    if args.trace:
        sample = [r for r in records if not r["traced"]]
    else:
        sample = [r for r in records if r["pass"] < LATENCY_PASSES[args.workload]]
    sample_note = f"n={len(sample)} jobs from {len({r['pass'] for r in sample})} passes"
    untraced = [i for i, p in enumerate(passes) if not p["traced"]]
    values = {
        "wall_ref": statistics.median(
            sum(r["ref"] for r in records if r["pass"] == i) for i in untraced),
        "job_ref_p50": statistics.median(r["ref"] for r in sample),
        "job_ref_tail": _tail([r["ref"] for r in sample])[0],
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_s": statistics.median(t for _, t in ref_samples),
        "wall_s": statistics.median(walls),
        "job_s_p50": statistics.median(r["seconds"] for r in sample),
    }
    values["job_s_tail"], tail_pct, tail_beyond = _tail([r["seconds"] for r in sample])
    if setup_samples:
        values = {"setup_s": statistics.median(setup_samples), **values}
    tail_note = f"p{tail_pct:.1f}, {tail_beyond} beyond, {sample_note}"
    notes = {
        "setup_s": f"median of {len(setup_samples)} set-ups",
        "ref_s": f"median of {len(ref_samples)} reference runs between jobs",
        "wall_s": f"median of {len(walls)} passes",
        "job_s_p50": sample_note,
        "job_s_tail": tail_note,
        "wall_ref": f"median of {len(untraced)} passes",
        "job_ref_p50": sample_note,
        "job_ref_tail": tail_note,
        "ok_frac": f"fail_frac={failed / attempted:.4g}: {failed} of {attempted} jobs failed",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return values, notes


def run_workload(args) -> int:
    _use_checkout_source()
    if args.probe:
        _setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_samples = ([_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
                     if not args.trace else [])
    main, jobs = _setup(args.workload, args.seed)
    import checks
    import tracing

    env = _environment()
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        sys.exit(f"error: BLAS uses {env['blas_threads']} threads on {env['nproc']} cores")
    tracer = tracing.Tracer() if args.trace else None
    records, passes, traced_metrics, spans, ref_samples = _measure(
        args, main, jobs, checks.load_references(), tracer)
    e2e, notes = _end_to_end(args, records, passes, setup_samples, ref_samples)

    print(f"quasigw benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    units = {**END_TO_END, **SECONDS}
    for name, value in e2e.items():
        print(f"  {name:<12} {value:>12.6g} {units[name][0]:<6} ({notes[name]})")
    for job in jobs:
        mine = [r for r in records if r["job"] == job.name]
        times = [r["seconds"] for r in mine if not r["traced"]]
        bad = [r for r in mine if not r["ok"]]
        status = f"FAILED {len(bad)}/{len(mine)}: {_reason(bad[0])}" if bad else "ok"
        print(f"  job {job.name:<24} median {statistics.median(times):9.4f} s "
              f"({len(times)} runs) {status}")

    result = {"environment": env, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "end_to_end": e2e,
              "jobs": records}
    if args.trace:
        layer = tracing.median_metrics(traced_metrics)
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        layer["trace.overhead_s"] = statistics.median(traced_walls) - e2e["wall_s"]
        absent = sorted(set(tracing.METRICS) - set(layer))
        print(f"  traced passes: {len(traced_walls)}, untraced: {len(passes) - len(traced_walls)}; "
              f"missing wraps: {tracer.missing or 'none'}; absent metrics: {absent or 'none'}")
        for name in tracing.METRICS:
            if name in layer:
                print(f"  {name:<30} {layer[name]:>14.6g} {tracing.METRICS[name][0]}")
        result["per_layer"] = layer
        metrics = {k: {"value": v, "unit": tracing.METRICS[k][0]} for k, v in layer.items()}
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
        spans_path.write_text("".join(json.dumps(s) + "\n" for s in spans))
    else:
        metrics = {k: {"value": e2e[k], "unit": unit} for k, (unit, _) in END_TO_END.items()}
    result_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    print(json.dumps({"correct": not any(r["problems"] or r["crash"] for r in records),
                      "attempted": len(records), "failed": sum(not r["ok"] for r in records),
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload, each in its own process, and print one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=21.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
