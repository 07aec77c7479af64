"""Tests of the benchmark's own code: job lists and output checks.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
Each check must accept a real output of the CLI and reject the same output
after a deliberate corruption.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from quasigw.cli import main  # noqa: E402
from workloads import NAMES, WHY, Job, make_jobs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_same_jobs(workload):
    assert make_jobs(workload, 7) == make_jobs(workload, 7)
    assert all("--threads" not in job.argv for job in make_jobs(workload, 7))


def test_seed_changes_only_jittered_inputs():
    assert make_jobs("replicas", 1) != make_jobs("replicas", 2)
    assert make_jobs("near-threshold", 1) == make_jobs("near-threshold", 2)
    fixed = [j for j in make_jobs("far-long", 1) if j.command != "kernel"]
    assert fixed == [j for j in make_jobs("far-long", 2) if j.command != "kernel"]


def test_benchmark_json_matches_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == WHY
    from run import END_TO_END

    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        k: v[:2] for k, v in tracing.METRICS.items()}


def _run(job: Job, tmp_path) -> str:
    out = tmp_path / f"out.{job.fmt}"
    assert main([*job.argv, "--out", str(out)]) == 0
    return out.read_text()


def _job(workload: str, name: str) -> Job:
    return next(j for j in make_jobs(workload, 3) if j.name == name)


def _set_cell(text: str, row: int, column: str, value: str) -> str:
    """Replace one cell of a CSV output's result table."""
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = lines[first].split(",")
    cells = lines[first + 1 + row].split(",")
    cells[header.index(column)] = value
    lines[first + 1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _set_diagnostic(text: str, key: str, value: str) -> str:
    prefix = f"# diagnostics.{key}="
    return "\n".join(prefix + value if line.startswith(prefix) else line
                     for line in text.splitlines()) + "\n"


def _scaled(text: str, row: int, column: str, factor: float) -> str:
    rows = checks.parse_output(text, "csv").rows
    return _set_cell(text, row, column, repr(float(rows[row][column]) * factor))


@pytest.fixture(scope="module")
def refs():
    return checks.load_references()


CASES = [
    ("far-long", "perron-ell100", [
        lambda t: _scaled(t, 0, "rho", 1 + 1e-6),
        lambda t: _set_diagnostic(t, "bounds_ok", "false"),
        lambda t: _set_diagnostic(t, "lambda", "1.9984"),
    ]),
    ("far-long", "converge", [
        lambda t: _scaled(t, 1, "lambda", 1 + 1e-8),
        lambda t: _scaled(t, 2, "rho3", 1 + 1e-4),
    ]),
    ("far-long", "quasispecies", [
        lambda t: _scaled(t, 4, "recurrence", 1 + 1e-9),
        lambda t: _set_diagnostic(t, "partial_sum", "1.5"),
    ]),
    ("near-threshold", "extinction-ell20", [
        lambda t: _scaled(t, 3, "p_extinct", 1 - 1e-6),
        lambda t: _set_cell(t, 0, "p_extinct", "1.5"),
    ]),
    ("replicas", "extinction-mc-ell2", [
        lambda t: _set_cell(t, 1, "mc_freq", "0.5"),
    ]),
    ("replicas", "frequencies-ell50", [
        lambda t: _scaled(t, 0, "mean_freq", 1.01),
        lambda t: _set_diagnostic(t, "n_survivors", "0"),
    ]),
    ("replicas", "trajectory-ell200", [
        lambda t: _set_cell(t, 2, "total", "0"),
        lambda t: _set_cell(t, 0, "count0", "999"),
    ]),
]


@pytest.mark.parametrize("workload,name,corruptions", CASES, ids=[c[1] for c in CASES])
def test_check_accepts_real_output_and_rejects_corruption(workload, name, corruptions,
                                                          refs, tmp_path):
    job = _job(workload, name)
    text = _run(job, tmp_path)
    assert checks.check(job, text, refs) == []
    for corrupt in corruptions:
        bad = corrupt(text)
        assert bad != text
        assert checks.check(job, bad, refs), "corrupted output passed its check"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_kernel_check(fmt, refs, tmp_path):
    argv = ("kernel", "--ell", "40", "--sigma", "4", "--a", "0.6931471805599453")
    job = Job("kernel-small", argv + (("--format", "json") if fmt == "json" else ()))
    text = _run(job, tmp_path)
    assert checks.check(job, text, refs) == []
    if fmt == "json":
        doc = json.loads(text)
        doc["results"][5]["c6"] *= 1 + 1e-6
        bad = json.dumps(doc)
    else:
        bad = _scaled(text, 5, "c6", 1 + 1e-6)
    assert checks.check(job, bad, refs)
    assert checks.check(job, text.replace("c40", "c41"), refs)


def test_tracer_records_layers_and_restores_functions(tmp_path):
    import quasigw.cli

    original = quasigw.cli.perron
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span(tracing.JOB_SPAN):
            _run(_job("far-long", "perron-ell100"), tmp_path)
    finally:
        tracer.uninstall()
    assert quasigw.cli.perron is original
    m = tracer.metrics(bytes_out=0, failed_jobs=0)
    assert m["kernel.builds"] == 1 and m["cli.jobs"] == 1
    assert m["kernel.bytes"] == 8 * 101**2
    assert m["spectral.perron_iters"] > 0 and m["spectral.perron_s"] > 0


def test_missing_wrap_makes_metrics_absent(monkeypatch):
    import quasigw.simulate

    monkeypatch.delattr(quasigw.simulate, "step_occupancy")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    m = tracer.metrics(bytes_out=0, failed_jobs=0)
    assert tracer.missing == ["quasigw.simulate.step_occupancy"]
    assert "simulate.step_s" not in m and "simulate.cells" not in m
    assert "kernel.build_s" in m


def test_job_times_are_divided_by_the_reference_near_them():
    from run import REF_WINDOW_S, _in_reference_units

    far = 10 * REF_WINDOW_S
    refs = [(0.0, 1.0), (1.0, 1.0), (far, 4.0), (far + 1.0, 4.0)]
    records = [{"start": 0.5, "seconds": 2.0}, {"start": far + 0.5, "seconds": 2.0}]
    _in_reference_units(records, refs)
    assert [r["ref"] for r in records] == [2.0, 0.5]
