#!/usr/bin/env python3
"""Regenerate ``reference.json``: Perron pairs for every ``perron``/``converge`` job.

Run from the root of a quasigw checkout (takes a few minutes and ~1 GB at
ell=5000)::

    python3 perfbench/make_reference.py

The references avoid the code they check.  The kernel comes from scipy's
binomial pmf (``checks.reference_kernel``), not from ``quasigw.kernel``,
and the eigenpair from inverse iteration with a Rayleigh-quotient shift on
a dense LU factorization, not from power iteration.  The stored profile is
accurate to about 1e-13, well inside the 1e-8 the checks allow.  Each pair
must satisfy the rank-one identity lambda = 1 + (sigma - 1) rho(0), which
holds for the exact eigenpair because the kernel is stochastic.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import lu_factor, lu_solve

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from workloads import NAMES, make_jobs  # noqa: E402

K_STORED = 11


def perron_pair(sigma: float, ell: int, q: float) -> tuple[float, np.ndarray, float]:
    w = checks.reference_kernel(ell, 2, q)
    w[0] *= sigma
    v = np.full(ell + 1, 1.0 / (ell + 1))
    for _ in range(500):  # a rough start; the shifted solves do the rest
        v = v @ w
        v /= v.sum()
    mu = float((v @ w).sum())
    for _ in range(30):
        lu = lu_factor((w - mu * np.eye(ell + 1)).T)
        x = lu_solve(lu, v)
        v = x / x.sum()
        new_mu = float((v @ w).sum())
        if abs(new_mu - mu) <= 1e-15 * new_mu:
            mu = new_mu
            break
        mu = new_mu
    residual = float(np.abs(v @ w - mu * v).sum())
    return mu, v, residual


def main() -> int:
    wanted = set()
    for workload in NAMES:
        for job in make_jobs(workload, 0):
            if job.command == "perron":
                wanted.add((job.opt("--sigma"), job.opt("--a"), int(job.opt("--ell"))))
            elif job.command == "converge":
                wanted |= {(job.opt("--sigma"), job.opt("--a"), int(ell))
                           for ell in job.opt("--ell-grid").split(",")}
    entries = {}
    for sigma, a, ell in sorted(wanted, key=lambda t: (float(t[0]), float(t[1]), t[2])):
        lam, rho, residual = perron_pair(float(sigma), ell, float(a) / ell)
        identity_gap = abs(lam - (1.0 + (float(sigma) - 1.0) * rho[0]))
        if rho.min() < -1e-15 or identity_gap > 1e-12 or residual > 1e-12:
            raise SystemExit(f"reference for sigma={sigma} a={a} ell={ell} did not converge: "
                             f"min rho {rho.min():.3e}, identity gap {identity_gap:.3e}, "
                             f"residual {residual:.3e}")
        entries[checks.reference_key(sigma, a, ell)] = {
            "lambda": lam,
            "rho": [float(x) for x in rho[:K_STORED]],
            "residual": residual,
            "identity_gap": identity_gap,
        }
        print(f"sigma={sigma} a={a} ell={ell}: lambda={lam!r} residual={residual:.2e} "
              f"identity_gap={identity_gap:.2e}", flush=True)
    doc = {
        "method": "scipy binomial-pmf kernel; inverse iteration with Rayleigh shift on dense LU",
        "entries": entries,
    }
    checks.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
