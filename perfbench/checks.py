"""Output checks for every job the benchmark runs.

Each check reads one CLI output (CSV or JSON) and returns a list of
problems; an empty list means the output is correct to the accuracy stated
below.  The accuracies are loose enough that a more accurate solver passes:
near the threshold today's power-iteration profile is itself only good to
about 3e-10.  ``duration_s`` is never looked at.

Stated accuracies:

* ``perron`` / ``converge``: lambda within 1e-10 relative and rho(k) within
  1e-8 absolute of the stored reference (``reference.json``), the reported
  sandwich bounds hold and the identity gap is below 1e-9.
* ``quasispecies``: closed form and recurrence agree to 1e-12 relative to
  the largest class probability; partial sum plus tail bound covers 1.
* ``kernel``: spot-checked entries within 1e-9 relative plus 1e-15 absolute
  of ``lumped_kernel_entry``; every row sums to 1 within 1e-12.
* ``extinction``: values in [0, 1] and fixed-point residual below 1e-9,
  recomputed on an independently built kernel; with ``--mc``, the Monte
  Carlo fraction within 5 standard errors, widened downwards by 2/n_gens
  because undecided replicas are counted as survivors.
* ``simulate``: frequencies sum to 1 within 1e-9, and at least one
  replica (trajectory) survives.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import binom

from quasigw.kernel import ModelParams, lumped_kernel_entry
from workloads import Job

LAMBDA_RTOL = 1e-10
RHO_ATOL = 1e-8
IDENTITY_TOL = 1e-9
QS_RTOL = 1e-12
KERNEL_RTOL = 1e-9
KERNEL_ATOL = 1e-15
ROW_SUM_TOL = 1e-12
FIXED_POINT_TOL = 1e-9
MC_SIGMAS = 5.0
FREQ_SUM_TOL = 1e-9

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass
class Output:
    """A parsed CLI output: config, diagnostics and result rows."""

    config: dict
    diagnostics: dict
    columns: list
    rows: list


def parse_output(text: str, fmt: str) -> Output:
    """Parse CSV (``# config.K=V`` / ``# diagnostics.K=V`` lines, header, rows) or JSON."""
    if fmt == "json":
        doc = json.loads(text)
        rows = doc["results"]
        columns = list(rows[0]) if rows else []
        return Output(doc["config"], doc["diagnostics"], columns, rows)
    config, diagnostics, columns, rows = {}, {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            section, _, name = key.partition(".")
            (config if section == "config" else diagnostics)[name] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(dict(zip(columns, line.split(","))))
    return Output(config, diagnostics, columns or [], rows)


def _true(v) -> bool:
    return v is True or v == "true"


def reference_kernel(ell: int, kappa: int, q: float) -> np.ndarray:
    """Class kernel built independently of ``quasigw``: scipy's binomial pmf rows, convolved."""
    m = np.empty((ell + 1, ell + 1))
    for b in range(ell + 1):
        gain = binom.pmf(np.arange(ell - b + 1), ell - b, q)
        loss = binom.pmf(np.arange(b + 1), b, q / (kappa - 1))
        m[b] = np.convolve(gain, loss[::-1])
    return m


def load_references(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())["entries"]


def reference_key(sigma: str, a: str, ell: int) -> str:
    return f"sigma={float(sigma)!r} a={float(a)!r} ell={int(ell)}"


def limit_pmf(sigma: float, a: float, k: int) -> float:
    """Long-sequence limit pmf by direct summation (independent of ``quasigw.quasispecies``)."""
    thr = sigma * math.exp(-a)
    if thr <= 1.0:
        return 0.0
    terms, i = [], 1
    while True:
        t = math.exp(k * math.log(i) - i * math.log(sigma))
        terms.append(t)
        if i > k and t < 1e-18 * math.fsum(terms):
            break
        i += 1
    return (thr - 1.0) * math.exp(k * math.log(a) - math.lgamma(k + 1)) * math.fsum(terms)


def _compare_profile(where: str, lam: float, rho: list, ref: dict) -> list[str]:
    problems = []
    if abs(lam - ref["lambda"]) > LAMBDA_RTOL * ref["lambda"]:
        problems.append(f"{where}: lambda {lam!r} differs from reference {ref['lambda']!r}")
    for k, value in enumerate(rho):
        if abs(value - ref["rho"][k]) > RHO_ATOL:
            problems.append(f"{where}: rho({k}) {value!r} differs from reference {ref['rho'][k]!r}")
    return problems


def check_perron(job: Job, out: Output, refs: dict) -> list[str]:
    d = out.diagnostics
    problems = []
    if not _true(d["bounds_ok"]):
        problems.append("bounds_ok is false")
    if not _true(d["lambda_in_range"]):
        problems.append("lambda outside (1, sigma)")
    if not float(d["identity_gap"]) <= IDENTITY_TOL:
        problems.append(f"identity_gap {d['identity_gap']} above {IDENTITY_TOL}")
    ref = refs.get(reference_key(job.opt("--sigma"), job.opt("--a"), int(job.opt("--ell"))))
    if ref is None:
        return problems + ["no stored reference for this job"]
    rho = [float(r["rho"]) for r in out.rows]
    if len(rho) != min(10, int(job.opt("--ell"))) + 1:
        problems.append(f"expected classes 0..10, got {len(rho)} rows")
    return problems + _compare_profile("perron", float(d["lambda"]), rho, ref)


def check_converge(job: Job, out: Output, refs: dict) -> list[str]:
    sigma, a = float(job.opt("--sigma")), float(job.opt("--a"))
    grid = [int(x) for x in job.opt("--ell-grid").split(",")]
    lam_limit = max(1.0, sigma * math.exp(-a))
    limit = [limit_pmf(sigma, a, k) for k in range(6)]
    problems = []
    if [int(float(r["ell"])) for r in out.rows] != grid:
        return [f"rows do not follow the grid {grid}"]
    for r in out.rows:
        ell = int(float(r["ell"]))
        ref = refs.get(reference_key(job.opt("--sigma"), job.opt("--a"), ell))
        if ref is None:
            problems.append(f"ell={ell}: no stored reference")
            continue
        lam = float(r["lambda"])
        rho = [float(r[f"rho{k}"]) for k in range(6)]
        problems += _compare_profile(f"ell={ell}", lam, rho, ref)
        if abs(float(r["lambda_gap"]) - abs(lam - lam_limit)) > 1e-12:
            problems.append(f"ell={ell}: lambda_gap inconsistent with lambda")
        for k in range(6):
            if abs(float(r[f"gap{k}"]) - abs(rho[k] - limit[k])) > 1e-9:
                problems.append(f"ell={ell}: gap{k} inconsistent with the limit pmf")
    return problems


def check_quasispecies(job: Job, out: Output, refs: dict) -> list[str]:
    d = out.diagnostics
    if d["regime"] != "quasispecies":
        return [f"regime {d['regime']!r}, expected quasispecies"]
    closed = [float(r["closed_form"]) for r in out.rows]
    rec = [float(r["recurrence"]) for r in out.rows]
    problems = []
    if len(closed) != int(job.opt("--kmax")) + 1:
        problems.append("wrong number of classes")
    scale = max(closed)
    for k, (c, r, row) in enumerate(zip(closed, rec, out.rows)):
        if c < 0.0 or r < 0.0:
            problems.append(f"class {k}: negative probability")
        if abs(c - r) > QS_RTOL * scale:
            problems.append(f"class {k}: closed form {c!r} vs recurrence {r!r}")
        if float(row["abs_diff"]) != abs(c - r):
            problems.append(f"class {k}: abs_diff does not match the two columns")
    partial, tail = float(d["partial_sum"]), float(d["tail_bound"])
    if not partial <= 1.0 + 1e-12:
        problems.append(f"partial sum {partial!r} exceeds 1")
    if not partial + tail >= 1.0 - 1e-12:
        problems.append(f"partial sum {partial!r} plus tail bound {tail!r} does not cover 1")
    return problems


def check_kernel(job: Job, out: Output, refs: dict) -> list[str]:
    ell = int(job.opt("--ell"))
    params = ModelParams(sigma=float(job.opt("--sigma")), ell=ell, kappa=2,
                         q=float(job.opt("--a")) / ell)
    if len(out.rows) != ell + 1:
        return [f"expected {ell + 1} rows, got {len(out.rows)}"]
    m = np.array([[float(r[f"c{c}"]) for c in range(ell + 1)] for r in out.rows])
    problems = []
    if np.any(m < 0.0):
        problems.append("negative kernel entry")
    sums = np.array([math.fsum(row) for row in m])
    worst = float(np.max(np.abs(sums - 1.0)))
    if worst > ROW_SUM_TOL:
        problems.append(f"row sum deviation {worst:.3e} above {ROW_SUM_TOL}")
    reported = np.array([float(r["row_sum_dev"]) for r in out.rows])
    if float(np.max(np.abs(reported - np.abs(sums - 1.0)))) > 1e-14:
        problems.append("row_sum_dev column does not match the rows")
    if abs(float(out.diagnostics["max_row_sum_dev"]) - float(reported.max())) > 0.0:
        problems.append("max_row_sum_dev does not match the row_sum_dev column")
    rng = random.Random(job.name + str(ell))
    cells = [(b, min(ell, max(0, b + rng.randint(-8, 8)))) for b in
             (rng.randint(0, ell) for _ in range(24))]
    cells += [(rng.randint(0, ell), rng.randint(0, ell)) for _ in range(8)]
    for b, c in cells:
        want = lumped_kernel_entry(b, c, params)
        if abs(m[b, c] - want) > KERNEL_RTOL * want + KERNEL_ATOL:
            problems.append(f"entry ({b},{c}) = {m[b, c]!r}, lumped_kernel_entry gives {want!r}")
    return problems


def check_extinction(job: Job, out: Output, refs: dict) -> list[str]:
    ell = int(job.opt("--ell"))
    sigma = float(job.opt("--sigma"))
    q = float(job.opt("--q")) if job.opt("--q") else float(job.opt("--a")) / ell
    s = np.array([float(r["p_extinct"]) for r in out.rows])
    if s.shape != (ell + 1,):
        return [f"expected {ell + 1} rows, got {s.size}"]
    problems = []
    if np.any((s < 0.0) | (s > 1.0)):
        problems.append("extinction probability outside [0, 1]")
    if not float(out.diagnostics["fixed_point_residual"]) <= FIXED_POINT_TOL:
        problems.append(f"reported residual {out.diagnostics['fixed_point_residual']} "
                        f"above {FIXED_POINT_TOL}")
    fit = np.ones(ell + 1)
    fit[0] = sigma
    residual = float(np.max(np.abs(np.exp(fit * (reference_kernel(ell, 2, q) @ s - 1.0)) - s)))
    if residual > FIXED_POINT_TOL:
        problems.append(f"recomputed fixed-point residual {residual:.3e} above {FIXED_POINT_TOL}")
    if "mc_freq" in out.columns:
        n = int(float(out.diagnostics["mc_replicas"]))
        horizon = int(job.opt("--n-gens", "100"))
        for k, (p, r) in enumerate(zip(s, out.rows)):
            mc = float(r["mc_freq"])
            tol = MC_SIGMAS * math.sqrt(p * (1.0 - p) / n) + 1.0 / n
            if not -tol - 2.0 / horizon <= mc - p <= tol:
                problems.append(f"class {k}: Monte Carlo {mc!r} vs fixed point {p!r}")
    return problems


def check_simulate(job: Job, out: Output, refs: dict) -> list[str]:
    ell = int(job.opt("--ell"))
    problems = []
    if job.opt("--mode") == "frequencies":
        freq = [float(r["mean_freq"]) for r in out.rows]
        if len(freq) != ell + 1:
            return [f"expected {ell + 1} classes, got {len(freq)}"]
        if any(not 0.0 <= f <= 1.0 for f in freq):
            problems.append("frequency outside [0, 1]")
        if abs(math.fsum(freq) - 1.0) > FREQ_SUM_TOL:
            problems.append(f"frequencies sum to {math.fsum(freq)!r}")
        survivors = int(float(out.diagnostics["n_survivors"]))
        if not 1 <= survivors <= int(job.opt("--n-replicas")):
            problems.append(f"{survivors} survivors")
        return problems
    counts = np.array([[int(r[f"count{k}"]) for k in range(ell + 1)] for r in out.rows])
    totals = [int(r["total"]) for r in out.rows]
    if [int(r["generation"]) for r in out.rows] != list(range(len(out.rows))):
        problems.append("generations are not 0, 1, 2, ...")
    if np.any(counts < 0) or totals != [int(x) for x in counts.sum(axis=1)]:
        problems.append("totals do not match the class counts")
    start = job.opt("--z0").split(":")
    if counts[0, int(start[0])] != int(start[1]) or totals[0] != int(start[1]):
        problems.append("generation 0 does not match --z0")
    if totals[-1] == 0:
        problems.append("no survivor at the last generation")
    return problems


CHECKS = {
    "perron": check_perron,
    "converge": check_converge,
    "quasispecies": check_quasispecies,
    "kernel": check_kernel,
    "extinction": check_extinction,
    "simulate": check_simulate,
}


def check(job: Job, text: str, refs: dict) -> list[str]:
    """Problems with one job's output; empty when it is correct."""
    try:
        out = parse_output(text, job.fmt)
        return CHECKS[job.command](job, out, refs)
    except (KeyError, ValueError, IndexError) as e:
        return [f"malformed output: {type(e).__name__}: {e}"]
