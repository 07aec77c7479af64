"""Tests for the Monte Carlo engines: genotype stepping, class-count stepping,
trajectories, conditioned frequencies, and extinction sampling.

Statistical tests run on frozen seeds with thresholds calibrated to the
relevant sampling noise; each docstring states the law being tested.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from quasigw import simulate
from quasigw import (
    AllExtinctError,
    ModelParams,
    ResourceLimitError,
    RngSpec,
    conditioned_frequencies,
    extinction_mc,
    extinction_probabilities,
    lumping_equivalence_test,
    mean_matrix,
    occupancy_of,
    perron,
    run_trajectory,
    step_genotype,
    step_occupancy,
)

LN2 = math.log(2.0)


def e0_start(ell, n=1):
    z = np.zeros(ell + 1, dtype=np.int64)
    z[0] = n
    return z


@pytest.fixture
def stepped_totals(monkeypatch):
    """Row totals going into and coming out of every step_occupancy call
    made through the simulate module, as two growing lists of arrays."""
    totals_in, totals_out = [], []

    def recording_step(z, *args, **kwargs):
        out = step_occupancy(z, *args, **kwargs)
        totals_in.append(z.sum(axis=1))
        totals_out.append(out.sum(axis=1))
        return out

    monkeypatch.setattr(simulate, "step_occupancy", recording_step)
    return totals_in, totals_out


class TestRngSpec:
    def test_same_spec_reproduces(self):
        a = RngSpec(123, 4).generator().integers(0, 1_000_000, size=20)
        b = RngSpec(123, 4).generator().integers(0, 1_000_000, size=20)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngSpec(123, 0).generator().integers(0, 1_000_000, size=20)
        b = RngSpec(123, 1).generator().integers(0, 1_000_000, size=20)
        assert not np.array_equal(a, b)


class TestOccupancyOf:
    def test_counts_by_class(self):
        pop = {(0, 0, 0): 3, (0, 1, 0): 2, (1, 1, 0): 1, (1, 1, 1): 4}
        assert np.array_equal(occupancy_of(pop, 3), [3, 2, 1, 4])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            occupancy_of({(0, 0): -1}, 2)


class TestStepGenotype:
    def test_empty_population_absorbing(self):
        p = ModelParams(sigma=2.0, ell=2, kappa=2, q=0.1)
        assert step_genotype({}, p, RngSpec(0, 0).generator()) == {}

    def test_guard_rejects_large_instances(self):
        p = ModelParams(sigma=2.0, ell=30, kappa=2, q=0.1)
        big = {(0,) * 30: 2_000_000}
        with pytest.raises(ResourceLimitError):
            step_genotype(big, p, RngSpec(0, 0).generator())

    def test_large_alphabet_small_population_allowed(self):
        p = ModelParams(sigma=2.0, ell=30, kappa=2, q=0.1)
        out = step_genotype({(0,) * 30: 1}, p, RngSpec(0, 0).generator())
        assert all(len(u) == 30 for u in out)

    def test_q_zero_children_copy_parent(self):
        p = ModelParams(sigma=2.0, ell=3, kappa=2, q=0.0)
        rng = RngSpec(5, 0).generator()
        for _ in range(50):
            out = step_genotype({(0, 1, 0): 4}, p, rng)
            assert set(out) <= {(0, 1, 0)}

    def test_child_count_is_poisson_sigma(self):
        """One master individual leaves Poisson(sigma) children; chi-square on
        the child-count histogram with the tail pooled at count >= 8."""
        p = ModelParams(sigma=2.5, ell=2, kappa=2, q=0.3)
        rng = RngSpec(0, 0).generator()
        counts = np.array(
            [sum(step_genotype({(0, 0): 1}, p, rng).values()) for _ in range(20_000)]
        )
        obs = np.bincount(np.minimum(counts, 8), minlength=9)
        pmf = stats.poisson.pmf(np.arange(9), 2.5)
        pmf[8] = 1.0 - pmf[:8].sum()
        _, pval = stats.chisquare(obs, 20_000 * pmf)
        assert pval > 0.01

    def test_neutral_faithful_case_preserves_mean(self):
        """sigma=1, q=0: every lineage is critical, so the one-step mean
        population equals the current population."""
        p = ModelParams(sigma=1.0, ell=2, kappa=2, q=0.0)
        rng = RngSpec(9, 0).generator()
        totals = [
            sum(step_genotype({(0, 0): 10, (1, 1): 10}, p, rng).values())
            for _ in range(4000)
        ]
        assert np.mean(totals) == pytest.approx(20.0, abs=4 * math.sqrt(20 / 4000))


class TestStepOccupancy:
    def test_zero_vector_absorbing(self):
        p = ModelParams(sigma=2.0, ell=3, kappa=2, q=0.1)
        out = step_occupancy(np.zeros(4, dtype=np.int64), p, RngSpec(0, 0).generator())
        assert np.array_equal(out, np.zeros(4))

    def test_shape_and_sign_checked(self):
        p = ModelParams(sigma=2.0, ell=3, kappa=2, q=0.1)
        rng = RngSpec(0, 0).generator()
        with pytest.raises(ValueError):
            step_occupancy(np.zeros(3, dtype=np.int64), p, rng)
        with pytest.raises(ValueError):
            step_occupancy(np.zeros((2, 3), dtype=np.int64), p, rng)
        with pytest.raises(ValueError):
            step_occupancy(np.zeros((2, 2, 4), dtype=np.int64), p, rng)
        with pytest.raises(ValueError):
            step_occupancy(np.array([1, -1, 0, 0]), p, rng)
        with pytest.raises(ValueError):
            step_occupancy(np.array([[1, 0, 0, 0], [0, 0, -1, 0]]), p, rng)

    def test_batch_keeps_shape_and_zero_rows(self):
        p = ModelParams(sigma=3.0, ell=3, kappa=2, q=0.1)
        z = np.array([[5, 0, 2, 0], [0, 0, 0, 0], [0, 1, 0, 7]])
        out = step_occupancy(z, p, RngSpec(0, 0).generator())
        assert out.shape == (3, 4)
        assert out.dtype == np.int64
        assert np.array_equal(out[1], np.zeros(4))
        assert np.all(out >= 0)

    def test_mean_limit_guard(self):
        p = ModelParams(sigma=2.0, ell=1, kappa=2, q=0.1)
        with pytest.raises(ResourceLimitError):
            step_occupancy(np.array([10**16, 0]), p, RngSpec(0, 0).generator())

    def test_q_zero_master_class_poisson(self):
        """q=0 keeps all offspring of class 0 in class 0."""
        p = ModelParams(sigma=3.0, ell=4, kappa=2, q=0.0)
        rng = RngSpec(2, 0).generator()
        draws = np.array([step_occupancy(e0_start(4, 5), p, rng) for _ in range(300)])
        assert np.all(draws[:, 1:] == 0)
        assert abs(draws[:, 0].mean() - 15.0) < 4 * math.sqrt(15 / 300)

    def test_matches_product_poisson_law(self):
        """At ell=1 the offspring vector (n0, n1) of population z is a pair of
        independent Poissons with means (zW)(0), (zW)(1): for one class-0
        parent, and for z = (3, 2), where each mean sums both parent classes'
        contributions.  Chi-square over the joint cells with expected count
        >= 5."""
        p = ModelParams(sigma=2.0, ell=1, kappa=2, q=0.25)
        w = mean_matrix(p)
        rng = RngSpec(1, 0).generator()
        for z in (np.array([1, 0]), np.array([3, 2])):
            mu = z @ w
            draws = np.array([step_occupancy(z, p, rng, mean=w) for _ in range(20_000)])
            obs, exp, covered = [], [], 0.0
            for n0 in range(20):
                for n1 in range(20):
                    pr = stats.poisson.pmf(n0, mu[0]) * stats.poisson.pmf(n1, mu[1])
                    if pr * 20_000 >= 5:
                        obs.append(int(np.sum((draws[:, 0] == n0) & (draws[:, 1] == n1))))
                        exp.append(pr * 20_000)
                        covered += pr
            obs.append(20_000 - sum(obs))
            exp.append((1.0 - covered) * 20_000)
            _, pval = stats.chisquare(obs, exp)
            assert pval > 0.01, f"z = {z}"

    def test_one_step_mean_matches_mean_matrix(self):
        """E[next | z] = z W, componentwise within 4 standard errors."""
        p = ModelParams(sigma=4.0, ell=20, kappa=2, q=0.05)
        w = mean_matrix(p)
        z = e0_start(20, 100)
        target = z @ w
        rng = RngSpec(7, 0).generator()
        n = 20_000
        acc = np.zeros(21)
        for _ in range(n):
            acc += step_occupancy(z, p, rng, mean=w)
        se = np.sqrt(target / n)
        mask = se > 0
        assert np.max(np.abs(acc[mask] / n - target[mask]) / se[mask]) < 4.0

    @settings(max_examples=60, deadline=None)
    @given(
        sigma=st.floats(min_value=1.0, max_value=10.0),
        ell=st.integers(min_value=1, max_value=30),
        kappa=st.sampled_from([2, 3]),
        q=st.just(0.0) | st.floats(min_value=1e-6, max_value=0.9),
        data=st.data(),
    )
    def test_batch_properties(self, sigma, ell, kappa, q, data):
        """Shape and dtype kept, counts nonnegative, empty rows stay empty, and
        at q = 0 no offspring leave their parents' classes."""
        p = ModelParams(sigma=sigma, ell=ell, kappa=kappa, q=q)
        n_rows = data.draw(st.integers(min_value=1, max_value=5))
        cells = st.integers(min_value=0, max_value=1000) | st.just(0)
        z = np.array(data.draw(st.lists(
            st.lists(cells, min_size=ell + 1, max_size=ell + 1),
            min_size=n_rows, max_size=n_rows,
        )), dtype=np.int64)
        z[data.draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))] = 0
        out = step_occupancy(z, p, RngSpec(0, 0).generator())
        assert out.shape == z.shape
        assert out.dtype == np.int64
        assert np.all(out >= 0)
        empty = z.sum(axis=1) == 0
        assert np.all(out[empty] == 0)
        if q == 0.0:
            assert np.all(out[z == 0] == 0)


class TestLumpingEquivalence:
    def test_master_start(self):
        """Genotype-level and class-level one-generation laws agree.

        The two samples are independent, so even under exact equality the
        empirical TV sits at a noise floor of about 0.011 for this instance
        at 10^5 samples; the pooled chi-square carries the actual test and
        the TV threshold is set above the floor.
        """
        p = ModelParams(sigma=2.0, ell=3, kappa=2, q=0.2)
        rep = lumping_equivalence_test(p, n_samples=100_000, seed=0)
        assert rep.p_value > 0.001
        assert rep.tv_distance < 0.02
        assert rep.n_samples == 100_000

    def test_far_class_start(self):
        p = ModelParams(sigma=2.0, ell=3, kappa=2, q=0.2)
        rep = lumping_equivalence_test(p, n_samples=20_000, seed=2, start_class=3)
        assert rep.p_value > 0.001
        assert rep.tv_distance < 0.05

    def test_q_zero_exact(self):
        p = ModelParams(sigma=2.0, ell=3, kappa=2, q=0.0)
        rep = lumping_equivalence_test(p, n_samples=20_000, seed=0)
        assert rep.p_value > 0.001

    def test_guard_rejects_large_instances(self):
        p = ModelParams(sigma=2.0, ell=12, kappa=2, q=0.1)
        with pytest.raises(ResourceLimitError):
            lumping_equivalence_test(p, n_samples=100)

    def test_no_samples_rejected(self):
        """Zero samples would report TV 0 and p = 1, a vacuous pass."""
        with pytest.raises(ValueError):
            lumping_equivalence_test(ModelParams(sigma=2.0, ell=3, kappa=2, q=0.2), n_samples=0)


class TestRunTrajectory:
    def test_empty_start_extinct_at_zero(self):
        p = ModelParams(sigma=2.0, ell=2, kappa=2, q=0.1)
        t = run_trajectory(np.zeros(3, dtype=np.int64), p, 5, RngSpec(0, 0).generator())
        assert t.extinct
        assert t.extinct_at == 0
        assert t.counts.shape == (1, 3)
        assert np.array_equal(t.totals, [0])

    def test_absorption_after_extinction(self):
        # subcritical enough to die quickly, then stay dead
        p = ModelParams(sigma=1.0, ell=2, kappa=2, q=0.3)
        t = run_trajectory(e0_start(2, 1), p, 200, RngSpec(3, 0).generator())
        if t.extinct:
            assert t.totals[-1] == 0
            assert np.all(t.totals[t.extinct_at :] == 0)

    def test_growth_rate_matches_eigenvalue(self):
        """log-population increments track log(lambda) once transients pass."""
        p = ModelParams(sigma=10.0, ell=50, kappa=2, q=LN2 / 50)
        lam = perron(p).lam
        t = run_trajectory(e0_start(50, 100), p, 12, RngSpec(0, 0).generator())
        assert not t.extinct and not t.capped
        slope = np.diff(np.log(t.totals[2:].astype(float))).mean()
        assert abs(slope - math.log(lam)) < 0.1 * math.log(lam)

    def test_population_cap_recorded(self):
        p = ModelParams(sigma=10.0, ell=10, kappa=2, q=0.01)
        t = run_trajectory(e0_start(10, 100), p, 50, RngSpec(0, 0).generator(), pop_cap=10_000)
        assert t.capped
        assert t.capped_at is not None
        assert t.totals[-1] > 10_000
        assert len(t.totals) < 52

    @pytest.mark.parametrize("pop_cap", [0, -1])
    def test_cap_below_one_rejected(self, pop_cap):
        p = ModelParams(sigma=2.0, ell=2, kappa=2, q=0.1)
        with pytest.raises(ValueError, match="pop_cap must be >= 1"):
            run_trajectory(e0_start(2, 0), p, 3, RngSpec(0, 0).generator(), pop_cap=pop_cap)

    def test_reproducible_across_runs(self):
        p = ModelParams(sigma=4.0, ell=8, kappa=2, q=0.05)
        t1 = run_trajectory(e0_start(8, 20), p, 15, RngSpec(11, 3).generator())
        t2 = run_trajectory(e0_start(8, 20), p, 15, RngSpec(11, 3).generator())
        assert np.array_equal(t1.counts, t2.counts)
        assert t1.extinct_at == t2.extinct_at
        assert t1.capped_at == t2.capped_at

    def test_frequencies_normalize(self):
        p = ModelParams(sigma=4.0, ell=8, kappa=2, q=0.05)
        t = run_trajectory(e0_start(8, 50), p, 10, RngSpec(4, 0).generator())
        alive = t.totals > 0
        sums = t.frequencies[alive].sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)


class TestConditionedFrequencies:
    def test_matches_perron_vector(self):
        """Survivor-averaged frequencies approach the eigenvector profile."""
        p = ModelParams(sigma=10.0, ell=50, kappa=2, q=LN2 / 50)
        pair = perron(p)
        est = conditioned_frequencies(p, e0_start(50, 100), n_gens=12, n_replicas=60, seed=0)
        assert est.n_survivors == 60
        dev = np.abs(est.mean[:6] - pair.rho[:6])
        assert np.max(dev) < 1e-3

    def test_q_zero_survivors_all_master(self):
        p = ModelParams(sigma=2.0, ell=3, kappa=2, q=0.0)
        est = conditioned_frequencies(p, e0_start(3, 30), n_gens=8, n_replicas=40, seed=3)
        assert est.n_survivors > 0
        assert np.array_equal(est.mean, [1.0, 0.0, 0.0, 0.0])

    def test_cap_below_start_caps_every_replica_at_generation_zero(self):
        p = ModelParams(sigma=4.0, ell=5, kappa=2, q=0.05)
        # dyadic frequencies, so averaging 25 copies of them is exact
        z0 = np.array([32, 16, 0, 8, 0, 8])
        est = conditioned_frequencies(p, z0, n_gens=6, n_replicas=25, seed=1, pop_cap=63)
        assert est.n_survivors == 25
        assert est.n_capped == 25
        assert np.array_equal(est.mean, z0 / 64)

    @pytest.mark.parametrize("pop_cap", [0, -5])
    def test_cap_below_one_rejected(self, pop_cap):
        p = ModelParams(sigma=2.0, ell=2, kappa=2, q=0.1)
        with pytest.raises(ValueError, match="pop_cap must be >= 1"):
            conditioned_frequencies(p, e0_start(2, 3), n_gens=2, n_replicas=5, pop_cap=pop_cap)

    def test_mid_run_cap_retires_rows_above_the_cap(self, stepped_totals):
        """Every stepped row is live, each capped survivor left exactly one
        row above pop_cap (the generation that crossed it), and each extinct
        replica one empty row."""
        p = ModelParams(sigma=2.0, ell=8, kappa=2, q=0.05)
        pop_cap = 200
        est = conditioned_frequencies(
            p, e0_start(8, 1), n_gens=12, n_replicas=200, seed=2, pop_cap=pop_cap
        )
        totals_in, totals_out = map(np.concatenate, stepped_totals)
        assert np.all((totals_in > 0) & (totals_in <= pop_cap))
        assert 0 < est.n_capped < est.n_survivors < est.n_replicas
        assert int(np.sum(totals_out > pop_cap)) == est.n_capped
        assert int(np.sum(totals_out == 0)) == est.n_replicas - est.n_survivors

    def test_all_extinct_raises(self):
        p = ModelParams(sigma=2.0, ell=2, kappa=2, q=0.1)
        with pytest.raises(AllExtinctError):
            conditioned_frequencies(p, np.zeros(3, dtype=np.int64), n_gens=3, n_replicas=10, seed=0)


class TestExtinctionMC:
    @pytest.mark.parametrize("ell", [1, 2, 5])
    @pytest.mark.parametrize("sigma", [2.0, 4.0])
    @pytest.mark.parametrize("q", [0.0, 0.1])
    def test_master_start_matches_fixed_point(self, ell, sigma, q):
        """Empirical extinction frequency vs the generating-function fixed
        point, within 3 binomial standard errors (worst observed 1.8)."""
        p = ModelParams(sigma=sigma, ell=ell, kappa=2, q=q)
        fp = extinction_probabilities(p, tol=1e-10, max_iter=10**6).s
        rep = extinction_mc(
            p, n_replicas=20_000, start_class=0, n_gens=150, escape_cap=10**5, seed=0
        )
        assert rep.n_undecided == 0
        assert abs(rep.extinct_fraction - fp[0]) < 3.0 * rep.se

    def test_nonmaster_start(self):
        # class-1 founders at ell=1: lineages either die or re-enter class 0
        p = ModelParams(sigma=2.0, ell=1, kappa=2, q=0.1)
        fp = extinction_probabilities(p).s
        rep = extinction_mc(
            p, n_replicas=20_000, start_class=1, n_gens=150, escape_cap=10**5, seed=0
        )
        assert abs(rep.extinct_fraction - fp[1]) < 3.0 * rep.se

    def test_counts_are_consistent(self):
        p = ModelParams(sigma=2.0, ell=2, kappa=2, q=0.05)
        for kwargs in ({}, {"escape_cap": 2, "n_gens": 3}):
            rep = extinction_mc(p, n_replicas=5000, seed=1, **kwargs)
            assert rep.n_extinct + rep.n_escaped + rep.n_undecided == rep.n_replicas
            assert rep.extinct_fraction == rep.n_extinct / rep.n_replicas
        assert min(rep.n_extinct, rep.n_escaped, rep.n_undecided) > 0

    @pytest.mark.parametrize("kwargs", [{"n_gens": -1}, {"escape_cap": 1}, {"escape_cap": 0}],
                             ids=["n_gens=-1", "escape_cap=1", "escape_cap=0"])
    def test_out_of_range_start_rejected(self, kwargs):
        p = ModelParams(sigma=2.0, ell=2, kappa=2, q=0.1)
        with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be >= "):
            extinction_mc(p, n_replicas=10, **kwargs)

    def test_only_live_rows_are_stepped(self, stepped_totals):
        """Every stepped row is live (0 < total < escape_cap), each escaped
        replica left exactly one row at or above escape_cap and kept it to
        the end, and each extinct replica one empty row."""
        p = ModelParams(sigma=2.0, ell=8, kappa=2, q=0.05)
        escape_cap = 30
        rep = extinction_mc(p, n_replicas=400, n_gens=10, escape_cap=escape_cap, seed=2)
        totals_in, totals_out = map(np.concatenate, stepped_totals)
        assert np.all((totals_in > 0) & (totals_in < escape_cap))
        assert min(rep.n_extinct, rep.n_escaped, rep.n_undecided) > 0
        assert int(np.sum(totals_out >= escape_cap)) == rep.n_escaped
        assert int(np.sum(totals_out == 0)) == rep.n_extinct
        assert rep.n_extinct + rep.n_escaped + rep.n_undecided == rep.n_replicas

    def test_reproducible(self):
        p = ModelParams(sigma=2.0, ell=2, kappa=2, q=0.05)
        a = extinction_mc(p, n_replicas=3000, seed=9)
        b = extinction_mc(p, n_replicas=3000, seed=9)
        assert a == b

    def test_precomputed_mean_matrix(self):
        p = ModelParams(sigma=2.0, ell=3, kappa=2, q=0.05)
        a = extinction_mc(p, n_replicas=3000, start_class=1, seed=4)
        b = extinction_mc(p, n_replicas=3000, start_class=1, seed=4, mean=mean_matrix(p))
        assert a == b
