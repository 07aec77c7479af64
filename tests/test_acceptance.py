"""Acceptance suite: one test per shipping criterion, each printing a
single PASS/FAIL line with the measured quantities.

Every test computes its verdict first, prints the line, then asserts, so
a failing criterion still reports its numbers instead of dying mid-check.
"""

import math
from itertools import product

import numpy as np
import pytest

from quasigw import (
    ModelParams,
    QuasispeciesParams,
    RngSpec,
    extinction_mc,
    extinction_probabilities,
    genotypes,
    hamming_class,
    lumped_kernel_entry,
    lumped_kernel_matrix,
    lumping_equivalence_test,
    mean_matrix,
    mutation_prob_genotype,
    perron,
    conditioned_frequencies,
    qs_normalization_check,
    qs_pmf,
    qs_pmf_by_recurrence,
    step_occupancy,
)

LN2 = math.log(2.0)


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_01_lumping_exactness():
    """Class-summed genotype law equals the lumped kernel entry on every
    small instance, for every representative of every starting class."""
    worst = 0.0
    for ell, kappa, q in product((1, 2, 3, 4), (2, 3), (0.1, 0.3, 0.5)):
        p = ModelParams(sigma=2.0, ell=ell, kappa=kappa, q=q)
        entries = {
            (b, c): lumped_kernel_entry(b, c, p)
            for b in range(ell + 1)
            for c in range(ell + 1)
        }
        for u in genotypes(ell, kappa):
            b = hamming_class(u)
            row = np.zeros(ell + 1)
            for v in genotypes(ell, kappa):
                row[hamming_class(v)] += mutation_prob_genotype(u, v, p)
            for c in range(ell + 1):
                worst = max(worst, abs(row[c] - entries[b, c]))
    ok = worst < 1e-12
    assert report(1, "lumping exactness", ok, f"max |brute - lumped| = {worst:.2e}")


def test_02_kernel_stochasticity():
    worst = 0.0
    for ell in (10, 100, 500, 2000):
        for q in (1e-4, 1e-2, 0.1, 0.5):
            m = lumped_kernel_matrix(ModelParams(sigma=2.0, ell=ell, kappa=2, q=q))
            worst = max(worst, float(np.max(np.abs(m.sum(axis=1) - 1.0))))
    ok = worst < 1e-10
    assert report(2, "kernel stochasticity", ok, f"max row-sum deviation = {worst:.2e}")


def test_03_perron_identity():
    """Average-fitness identity and the (1, sigma) bracket across a grid of
    supercritical instances up to ell = 2000."""
    grid = [
        (4.0, 100, LN2 / 100), (4.0, 500, LN2 / 500), (4.0, 2000, LN2 / 2000),
        (2.0, 100, 0.1 / 100), (2.0, 500, 0.1 / 500), (2.0, 2000, 0.1 / 2000),
        (4.0, 100, 0.01), (10.0, 300, 0.002),
    ]
    worst_gap = 0.0
    in_range = True
    for sigma, ell, q in grid:
        pair = perron(ModelParams(sigma=sigma, ell=ell, kappa=2, q=q))
        worst_gap = max(worst_gap, abs(pair.lam - ((sigma - 1.0) * pair.rho[0] + 1.0)))
        in_range = in_range and (1.0 < pair.lam < sigma)
    ok = worst_gap < 1e-8 and in_range
    assert report(
        3, "perron identity", ok,
        f"max identity gap = {worst_gap:.2e} over {len(grid)} instances, in-range = {in_range}",
    )


def test_04_limit_law_quasispecies_regime():
    p_lim = QuasispeciesParams(4.0, LN2)
    limit = np.array([qs_pmf(p_lim, k) for k in range(6)])
    gaps, lam = {}, {}
    for ell in (100, 300, 1000):
        pair = perron(ModelParams(sigma=4.0, ell=ell, kappa=2, q=LN2 / ell))
        gaps[ell] = float(np.max(np.abs(pair.rho[:6] - limit)))
        lam[ell] = pair.lam
    decreasing = gaps[1000] < gaps[300] < gaps[100]
    ok = decreasing and gaps[1000] < 0.01 and abs(lam[1000] - 2.0) < 0.02
    assert report(
        4, "limit law, quasispecies regime", ok,
        f"gaps {gaps[100]:.2e} > {gaps[300]:.2e} > {gaps[1000]:.2e}, "
        f"|lambda - 2| = {abs(lam[1000] - 2.0):.2e} at ell=1000",
    )


def test_05_limit_law_disordered_regime():
    a = 2.0 * LN2
    low_mass, lam, rho0 = {}, {}, {}
    for ell in (100, 300, 1000):
        pair = perron(ModelParams(sigma=2.0, ell=ell, kappa=2, q=a / ell))
        low_mass[ell] = float(pair.rho[:6].max())
        lam[ell] = pair.lam
        rho0[ell] = float(pair.rho[0])
    decreasing = low_mass[1000] < low_mass[300] < low_mass[100]
    ok = decreasing and rho0[1000] < 0.02 and abs(lam[1000] - 1.0) < 0.02
    assert report(
        5, "limit law, disordered regime", ok,
        f"max rho(k<=5): {low_mass[100]:.1e} > {low_mass[300]:.1e} > {low_mass[1000]:.1e}, "
        f"rho(0) = {rho0[1000]:.1e}, |lambda - 1| = {abs(lam[1000] - 1.0):.1e} at ell=1000",
    )


def test_06_closed_form_vs_recurrence():
    worst = 0.0
    for sigma, a in ((4.0, LN2), (2.0, 0.1), (10.0, 1.0)):
        p = QuasispeciesParams(sigma, a)
        rec = qs_pmf_by_recurrence(p, 50)
        closed = np.array([qs_pmf(p, k) for k in range(51)])
        worst = max(worst, float(np.max(np.abs(rec - closed))))
    ok = worst < 1e-10
    assert report(6, "closed form vs recurrence", ok, f"max disagreement = {worst:.2e}")


def test_07_normalization():
    """Partial sums reach 1 and the analytic truncation bound covers the
    missing mass at every cutoff (up to float accumulation in the sum)."""
    p = QuasispeciesParams(4.0, LN2)
    eps = 1e-12
    honored = True
    for k_max in range(61):
        partial, tail = qs_normalization_check(p, k_max)
        honored = honored and partial <= 1.0 + eps and partial + tail >= 1.0 - eps
    final_partial, _ = qs_normalization_check(p, 60)
    ok = honored and abs(final_partial - 1.0) < 1e-9
    assert report(
        7, "normalization", ok,
        f"|sum(k<=60) - 1| = {abs(final_partial - 1.0):.2e}, bound honored at all 61 cutoffs: {honored}",
    )


def test_08_one_step_mean():
    p = ModelParams(sigma=4.0, ell=20, kappa=2, q=0.05)
    w = mean_matrix(p)
    z = np.zeros(21, dtype=np.int64)
    z[0] = 100
    target = z @ w
    n = 100_000
    rng = RngSpec(0, 0).generator()
    acc = np.zeros(21)
    for _ in range(n):
        acc += step_occupancy(z, p, rng, mean=w)
    se = np.sqrt(target / n)
    mask = se > 0
    worst = float(np.max(np.abs(acc[mask] / n - target[mask]) / se[mask]))
    ok = worst < 4.0
    assert report(8, "one-step mean", ok, f"max |mc - zW|/SE = {worst:.2f} over 10^5 replicas")


def test_09_lumping_in_law():
    rep = lumping_equivalence_test(
        ModelParams(sigma=1.0, ell=3, kappa=2, q=0.1), n_samples=100_000, seed=0
    )
    ok = rep.tv_distance < 0.01 and rep.p_value > 0.001
    assert report(
        9, "lumping in law", ok,
        f"TV = {rep.tv_distance:.4f}, chi-square p = {rep.p_value:.3f}, 10^5 samples",
    )


def test_10_extinction_probability():
    """Fixed point against an independent scalar iteration, then Monte Carlo
    against the fixed point."""
    x = 0.0
    for _ in range(10_000):
        x_next = math.exp(2.0 * (x - 1.0))
        if abs(x_next - x) < 1e-15:
            break
        x = x_next
    p = ModelParams(sigma=2.0, ell=2, kappa=2, q=0.0)
    fp = float(extinction_probabilities(p, tol=1e-10, max_iter=10**6).s[0])
    mc = extinction_mc(p, n_replicas=100_000, start_class=0, n_gens=150,
                       escape_cap=10**5, seed=0)
    fixed_point_ok = abs(fp - x_next) < 1e-6
    mc_ok = abs(mc.extinct_fraction - fp) < 3.0 * mc.se
    ok = fixed_point_ok and mc_ok
    assert report(
        10, "extinction probability", ok,
        f"|fp - scalar| = {abs(fp - x_next):.1e}, |mc - fp| = "
        f"{abs(mc.extinct_fraction - fp):.2e} vs 3 SE = {3.0 * mc.se:.2e}",
    )


def test_11_conditioned_frequencies():
    p = ModelParams(sigma=10.0, ell=50, kappa=2, q=LN2 / 50)
    pair = perron(p)
    z0 = np.zeros(51, dtype=np.int64)
    z0[0] = 100
    est = conditioned_frequencies(p, z0, n_gens=12, n_replicas=200, seed=0)
    dev = np.abs(est.mean[:6] - pair.rho[:6])
    crit = np.maximum(3.0 * est.se[:6], 0.02)
    worst = float(np.max(dev / crit))
    ok = est.n_survivors == 200 and worst < 1.0
    assert report(
        11, "conditioned frequencies", ok,
        f"{est.n_survivors}/200 survivors, max dev/criterion = {worst:.2e} for k <= 5",
    )
